"""The block-translation tier changes wall-clock speed only.

Every test here is a differential: the same program runs with the
block tier on and off, and every architecturally visible outcome -
retired instructions, simulated cycles, registers, flags, memory,
fault log, timer ticks - must be bit-for-bit identical.  The
structural tests (discovery boundaries, heat threshold, write snoop,
epoch flush, horizon prefix admission) pin the mechanisms that make the
differential hold.
"""

import pytest

from conftest import SPAN_EDGE_WRITES
from repro.errors import TyTANError
from repro.hw.platform import MachineConfig, Platform
from repro.hw.registers import Reg
from repro.isa.opcodes import Op
from repro.perf.bench_core import (
    CODE_BASE,
    DATA_BASE,
    STACK_BASE,
    build_rig,
    run_bench,
    write_report,
)
from repro.perf.blocks import (
    HOT_THRESHOLD,
    MAX_BLOCK_INSNS,
    MIN_BLOCK_INSNS,
    BlockCache,
    discover,
)

#: Every translatable opcode, mixed with loads/stores and stack traffic.
ALL_OPS_SOURCE = """\
start:
    movi ebx, 0x6000
    movi ecx, 200
loop:
    addi eax, 7
    subi edx, 3
    xori esi, 0x1F
    andi edi, 0xFFF
    ori ebp, 9
    shli eax, 2
    shri edx, 1
    not esi
    neg edi
    mov ebp, eax
    add eax, edx
    sub edx, esi
    and esi, edi
    or edi, ebp
    xor ebp, eax
    cmp eax, edx
    cmpi esi, 42
    mul eax, edx
    shl edi, ebp
    shr ebp, eax
    st [ebx+0], eax
    ld edx, [ebx+0]
    stb esi, [ebx+4]
    ldb edi, [ebx+4]
    push eax
    pushi 0x1234
    pop esi
    pop edi
    subi ecx, 1
    jnz loop
    hlt
"""

#: Walks a store pointer out of the data region into unmapped space,
#: so the run ends in a fault raised mid-loop.
FAULTING_SOURCE = """\
start:
    movi ebx, 0x6FF0
    movi ecx, 64
loop:
    st [ebx+0], ecx
    addi ebx, 4
    subi ecx, 1
    jnz loop
    hlt
"""

#: Stores into its own code bytes (the ``addi eax, 1`` at ``patch``),
#: so any cached block over that run must abort and re-translate.
SELF_MODIFYING_SOURCE = """\
start:
    movi ecx, 40
loop:
    movi ebx, patch
    ld eax, [ebx+0]
    st [ebx+0], eax
patch:
    addi eax, 1
    addi edx, 3
    subi ecx, 1
    jnz loop
    hlt
"""


def _bare_cpu(source, blocks):
    """A rig with an *empty* MPU table (everything uncovered = allowed),
    so programs may write their own code bytes."""
    from repro.hw.clock import CycleClock
    from repro.hw.cpu import CPU
    from repro.hw.ea_mpu import EAMPU
    from repro.hw.memory import MemoryMap, PhysicalMemory, RamRegion
    from repro.image.linker import link
    from repro.isa.assembler import assemble

    memory = PhysicalMemory(MemoryMap())
    memory.map.add(RamRegion("ram", 0x1000, 0x2000))
    mpu = EAMPU(decision_cache=True)
    memory.attach_mpu(mpu)
    cpu = CPU(memory, CycleClock(), fastpath=True)
    image = link(assemble(source), stack_size=64)
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + 0x1000) & 0xFFFFFFFF).to_bytes(
            4, "little"
        )
    memory.write_raw(0x1000, bytes(blob))
    cpu.regs.eip = 0x1000 + image.entry
    cpu.regs.esp = 0x3000
    if blocks:
        cpu.enable_blocks(cpu.clock.next_event_horizon)
    return cpu


def _run_to_halt(cpu, timer=None):
    while not cpu.halted:
        if timer is not None:
            timer.tick(cpu.clock.now)
            cpu.maybe_take_interrupt()
        cpu.step()
    return cpu


def _state(cpu):
    return {
        "retired": cpu.retired,
        "cycles": cpu.clock.now,
        "gpr": list(cpu.regs.gpr),
        "eip": cpu.regs.eip,
        "eflags": cpu.regs.eflags,
        "data": cpu.memory.read_raw(DATA_BASE, 0x1000),
        "stack": cpu.memory.read_raw(STACK_BASE, 0x1000),
        "faults": [str(fault) for fault in cpu.memory.mpu.fault_log],
    }


def _pair(source):
    """(fastpath cpu, blocks cpu) for ``source``, both run to halt."""
    plain = build_rig(fastpath=True, source=source)
    blocked = build_rig(fastpath=True, source=source)
    blocked.enable_blocks(blocked.clock.next_event_horizon)
    return plain, blocked


class TestDifferential:
    def test_all_translatable_ops_identical(self):
        plain, blocked = _pair(ALL_OPS_SOURCE)
        _run_to_halt(plain)
        _run_to_halt(blocked)
        assert _state(plain) == _state(blocked)
        stats = blocked.block_engine.snapshot()
        assert stats["executions"] > 0
        assert stats["translations"] > 0

    def test_fault_path_identical(self):
        states = []
        for cpu in _pair(FAULTING_SOURCE):
            with pytest.raises(TyTANError) as exc:
                _run_to_halt(cpu)
            state = _state(cpu)
            state["error"] = str(exc.value)
            states.append(state)
        assert states[0] == states[1]
        # The pointer really did leave the data region mid-loop.
        assert states[0]["faults"] or states[0]["error"]

    def test_self_modifying_code_identical(self):
        plain = _bare_cpu(SELF_MODIFYING_SOURCE, blocks=False)
        blocked = _bare_cpu(SELF_MODIFYING_SOURCE, blocks=True)
        _run_to_halt(plain)
        _run_to_halt(blocked)
        for cpu in (plain, blocked):
            assert cpu.halted
        assert plain.retired == blocked.retired
        assert plain.clock.now == blocked.clock.now
        assert list(plain.regs.gpr) == list(blocked.regs.gpr)
        assert plain.memory.read_raw(0x1000, 0x2000) == blocked.memory.read_raw(
            0x1000, 0x2000
        )
        # The write snoop saw the stores land on the block's page.
        assert blocked.block_engine.cache.stats.invalidations > 0

    def test_mmio_inside_block_identical(self):
        # Reads the RTC cycle counter from inside a hot straight-line
        # run: the batched cycle charge must be flushed before the
        # device sees the clock, or the two modes read different times.
        source = """\
start:
    movi ebx, %d
    movi ecx, 30
loop:
    addi eax, 1
    addi edx, 2
    add eax, edx
    ld esi, [ebx+0]
    xor eax, esi
    subi ecx, 1
    jnz loop
    cli
    hlt
"""
        finals = []
        for blocks in (False, True):
            platform = Platform(MachineConfig(blocks=blocks))
            base = platform.config.task_ram_base
            from repro.image.linker import link
            from repro.isa.assembler import assemble

            image = link(
                assemble(source % platform.rtc_base), stack_size=64
            )
            blob = bytearray(image.blob)
            for offset in image.relocations:
                value = int.from_bytes(blob[offset : offset + 4], "little")
                blob[offset : offset + 4] = (
                    (value + base) & 0xFFFFFFFF
                ).to_bytes(4, "little")
            platform.memory.write_raw(base, bytes(blob))
            platform.cpu.regs.eip = base + image.entry
            platform.cpu.regs.esp = base + 0x8000
            platform.run_isa_until_event(max_cycles=100_000)
            cpu = platform.cpu
            finals.append(
                (
                    cpu.retired,
                    platform.clock.now,
                    list(cpu.regs.gpr),
                    cpu.regs.eflags,
                )
            )
        assert finals[0] == finals[1]


class TestDiscovery:
    def test_block_ends_at_branch(self):
        cpu = build_rig(fastpath=True, source=ALL_OPS_SOURCE)
        # Warm the decision cache so discovery sees coverage cells.
        cpu.step()
        block = discover(cpu.memory, cpu.regs.eip)
        assert not block.is_marker()
        assert block.items[-1][2].opcode not in (Op.JNZ, Op.HLT)
        end_insn = cpu.memory.read_raw(block.exit_eip, 1)
        assert len(block.items) <= MAX_BLOCK_INSNS
        assert block.iter_cost > 0
        assert end_insn  # the ender stays outside the block

    def test_short_run_becomes_marker(self):
        source = "start:\nmovi eax, 1\nhlt\n"
        cpu = build_rig(fastpath=True, source=source)
        cpu.step()
        block = discover(cpu.memory, cpu.regs.eip)
        assert block.is_marker()
        assert block.run is None
        assert len(block.items) < MIN_BLOCK_INSNS

    def test_unmapped_address_becomes_marker(self):
        cpu = build_rig(fastpath=True, source=ALL_OPS_SOURCE)
        block = discover(cpu.memory, 0x40_0000)
        assert block.is_marker()


class TestCacheMechanics:
    def test_hot_threshold(self):
        cache = BlockCache(None)
        for _ in range(HOT_THRESHOLD - 1):
            assert not cache.note_miss(0x1000)
        assert cache.note_miss(0x1000)
        # The counter resets once hot.
        assert not cache.note_miss(0x1000)

    def test_write_snoop_drops_spanning_blocks(self):
        cpu = build_rig(fastpath=True, source=ALL_OPS_SOURCE)
        engine = cpu.enable_blocks()
        _run_to_halt(cpu)
        cache = engine.cache
        assert len(cache) > 0
        victim = next(iter(cache.entries.values()))
        cache.index.note_write(victim.start, 1)
        assert victim.start not in cache.entries
        assert not victim.valid

    @pytest.mark.parametrize("at, size, dropped", SPAN_EDGE_WRITES)
    def test_write_snoop_drops_spanning_blocks_exact_span(self, at, size, dropped):
        cpu = build_rig(fastpath=True, source=ALL_OPS_SOURCE)
        engine = cpu.enable_blocks()
        _run_to_halt(cpu)
        cache = engine.cache
        victim = next(
            block
            for block in cache.entries.values()
            if block.run is not None and block.start > CODE_BASE
        )
        address = at(victim.start, victim.exit_eip)
        cpu.memory.write_raw(address, cpu.memory.read_raw(address, size))
        assert (victim.start not in cache.entries) == dropped
        assert victim.valid != dropped

    def test_epoch_flush_on_mpu_reprogram(self):
        from repro.hw.ea_mpu import MpuRule, Perm

        cpu = build_rig(fastpath=True, source=ALL_OPS_SOURCE)
        engine = cpu.enable_blocks()
        # Stop as soon as a block is cached: with the trace tier on,
        # a fixed step budget can run the whole program to halt.
        while not cpu.halted and not len(engine.cache):
            cpu.step()
        assert len(engine.cache) > 0
        assert not cpu.halted
        cpu.memory.mpu.program_slot(
            7, MpuRule("late", 0x8F00, 0x8F10, 0x8F00, 0x8F10, Perm.RW)
        )
        cpu.step()
        # The old epoch's blocks are gone; new ones may already exist.
        assert engine.cache.epoch == cpu.memory.mpu.epoch


class TestHorizon:
    def test_deferrals_under_tight_timer(self):
        from repro.perf.bench_core import _build_mode_rig, _irq_source

        source = _irq_source(ticks=20)
        plain, plain_timer = _build_mode_rig(source, "fastpath", irq=True)
        blocked, blocked_timer = _build_mode_rig(source, "blocks", irq=True)
        _run_to_halt(plain, plain_timer)
        _run_to_halt(blocked, blocked_timer)
        assert _state(plain) == _state(blocked)
        assert plain_timer.ticks == blocked_timer.ticks == 20
        stats = blocked.block_engine.snapshot()
        assert stats["executions"] > 0
        # The tick horizon cut a block short at least once: it ran a
        # checkpoint prefix instead of the whole body.
        assert stats["traces"]["admit"]["prefix"] > 0


class TestBench:
    def test_run_bench_all_modes_equivalent(self):
        result = run_bench(instructions=2_000)
        assert set(result["workloads"]) == {"alu", "mem", "irq"}
        for entry in result["workloads"].values():
            assert set(entry["modes"]) == {
                "baseline",
                "fastpath",
                "blocks",
                "traces",
            }
            assert entry["speedups"]["blocks_vs_fastpath"] > 0
            assert entry["speedups"]["traces_vs_blocks"] > 0

    def test_run_bench_traces_ablation(self):
        result = run_bench(instructions=2_000, traces=False)
        for entry in result["workloads"].values():
            assert set(entry["modes"]) == {"baseline", "fastpath", "blocks"}
            assert "traces_vs_blocks" not in entry["speedups"]

    def test_mpu_access_memo_usage_by_workload(self):
        # The ALU loop never touches the data-access memo (no loads or
        # stores: fetches go through the transfer memo and the insn
        # cache's epoch check), while the mem workload lives in it.
        # This pins the explanation for the 0-hit mpu_access row the
        # ALU-only bench used to report.
        result = run_bench(instructions=2_000, blocks=False)
        alu = result["workloads"]["alu"]["modes"]["fastpath"]["cache_stats"]
        mem = result["workloads"]["mem"]["modes"]["fastpath"]["cache_stats"]
        assert alu["mpu_access"]["hits"] == 0
        assert mem["mpu_access"]["hits"] > 100
        assert mem["mpu_access"]["hit_rate"] > 0.9

    def test_write_report_appends_history(self, tmp_path):
        path = tmp_path / "bench.json"
        first = write_report(path=str(path), instructions=1_000)
        assert len(first["history"]) == 1
        second = write_report(path=str(path), instructions=1_000)
        assert len(second["history"]) == 2


class TestRegisterContract:
    def test_esp_visible_to_block_stack_ops(self):
        # push/pop inside a block must use the live ESP, including when
        # the program moves it between blocks.
        source = """\
start:
    movi ecx, 20
loop:
    push ecx
    pushi 7
    pop eax
    pop ebx
    add eax, ebx
    st [esp-4], eax
    subi ecx, 1
    jnz loop
    hlt
"""
        plain, blocked = _pair(source)
        _run_to_halt(plain)
        _run_to_halt(blocked)
        assert _state(plain) == _state(blocked)
        assert plain.regs.read(Reg.ESP) == STACK_BASE + 0x1000
