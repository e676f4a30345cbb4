"""The trace-recording JIT changes wall-clock speed only.

Differentials pin the tier's invisibility (traces-on vs. the block
tier alone must agree on every architectural outcome), and the
structural tests pin the mechanisms that make the differential hold:
guard side exits restore exact register/flag/cycle state, counted
loops engage the unrolled fast body, self-modifying stores abort the
running trace, the write snoop and the EA-MPU epoch drop cached
traces, and the trace counters land on the platform's obs registry.
"""

import ast
import re

import pytest

from conftest import SPAN_EDGE_WRITES
from repro.hw.platform import MachineConfig, Platform
from repro.image.linker import link
from repro.isa.assembler import assemble
from repro.perf.bench_core import (
    CODE_BASE,
    DATA_BASE,
    _build_mode_rig,
    _irq_source,
    _mem_source,
    _run,
    _snapshot,
)
from repro.perf.traces import (
    TRACE_HOT_EDGE,
    EdgeProfile,
    _FoldEmitter,
    _Source,
    build_trace,
    generate_trace,
)

#: A loop whose conditional branch flips direction partway through:
#: ``jl skip`` is taken for the first 20 iterations and falls through
#: for the rest, so whichever direction the trace records, the other
#: direction exercises the guard's side exit mid-trace.
_GUARD_FLIP_SOURCE = """\
start:
    movi ecx, 60
    movi ebx, %d
loop:
    addi eax, 1
    cmpi eax, 20
    jl skip
    addi edx, 5
    st [ebx+0], edx
skip:
    xori esi, 0x33
    subi ecx, 1
    jnz loop
    hlt
""" % DATA_BASE

#: Pure counted ALU loop: no memory traffic, counter in ecx - the
#: shape the unrolled ``run_fast`` body requires.
_COUNTED_SOURCE = """\
start:
    movi ecx, 500
loop:
    addi eax, 3
    xori edx, 0x0F0F
    add esi, eax
    subi ecx, 1
    jnz loop
    hlt
"""

#: Rewrites its own loop body (the ``addi eax, 1`` at ``patch``) from
#: *inside* the loop, so a compiled trace over the body must notice
#: the store and abort before running the stale code again.
_SELF_PATCH_SOURCE = """\
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


#: ``mov ebp, edi`` copies edi's pending chain ``(edi + esi)`` while
#: esi's own pending chain reads ebp: spilling the chains that read
#: ebp's local reassigns esi and edi, so the copy must be rendered after
#: that spill, not before.
_MOV_SPILL_SOURCE = """\
start:
    movi ecx, 50
    movi esi, 3
    movi edi, 5
    movi ebp, 7
loop:
    shli ebp, 12
    add edi, esi
    add esi, ebp
    mov ebp, edi
    subi ecx, 1
    jnz loop
    hlt
"""


#: ``push ebx`` stores a copy of eax's old value, while eax's own
#: pending chain reads esp: the push's esp spill reassigns eax's local,
#: so the copy must be rendered from a local no spill can touch.
_PUSH_COPY_SOURCE = """\
start:
    movi ecx, 50
    movi eax, 1000
loop:
    mov ebx, eax
    add eax, esp
    xori edi, 1
    push ebx
    pop edx
    movi eax, 7
    subi ecx, 1
    jnz loop
    hlt
"""

#: perfbench compute's ALU task loop: closed by ``jmp``, so the two
#: stores' exits and the final writeback are the only flag observers.
_ALU_MIX_SOURCE = """\
start:
    movi eax, 7
    movi edi, 0
    movi ecx, 0
    movi edx, 1103515245
    movi esi, %d
mix:
    mul eax, edx
    addi eax, 12345
    mov ebx, eax
    shri ebx, 7
    xor edi, ebx
    addi ecx, 1
    st [esi], edi
    st [esi+4], ecx
    jmp mix
""" % DATA_BASE

#: perfbench compute's memory walk: a read-modify-write of a ring slot
#: whose address moves every pass, then two stores at fixed offsets from
#: ebp, which the loop never writes.
_MEMWALK_SOURCE = """\
start:
    movi eax, 7
    movi edi, 0
    movi ecx, 0
    movi ebp, %d
walk:
    mov esi, ecx
    andi esi, 252
    add esi, ebp
    ld ebx, [esi]
    add ebx, eax
    xori ebx, 0x5BD1E995
    st [esi], ebx
    add edi, ebx
    addi eax, 0x9E3779B9
    addi ecx, 4
    st [ebp+256], edi
    st [ebp+260], ecx
    jmp walk
""" % DATA_BASE

#: ``mov eax, esp`` leaves eax a copy of ESP's local, which the ``pop``
#: then moves: the copy must be spilled before the pop reassigns it.
_POP_COPY_SOURCE = """\
start:
    movi ecx, 50
    movi ebx, %d
loop:
    push ecx
    mov eax, esp
    pop edx
    st [ebx+0], eax
    add esi, eax
    subi ecx, 1
    jnz loop
    hlt
""" % DATA_BASE


def _pair(source, irq=False):
    """(block-tier-only snapshot, traces snapshot, traced cpu)."""
    ablated, ablated_timer = _build_mode_rig(source, "blocks", irq=irq)
    traced, traced_timer = _build_mode_rig(source, "traces", irq=irq)
    _run(ablated, ablated_timer)
    _run(traced, traced_timer)
    return (
        _snapshot(ablated, ablated_timer),
        _snapshot(traced, traced_timer),
        traced,
    )


def _trace_stats(cpu):
    return cpu.block_engine.snapshot()["traces"]


class TestDifferential:
    def test_counted_loop_identical_and_fast(self):
        plain, traced, cpu = _pair(_COUNTED_SOURCE)
        assert plain == traced
        stats = _trace_stats(cpu)
        assert stats["compiles"] > 0
        fast = [
            trace
            for trace in cpu.block_engine.traces.cache.entries.values()
            if trace.run_fast is not None
        ]
        assert fast, "counted ALU loop should compile an unrolled fast body"
        assert fast[0].counter_reg == 1  # ecx

    def test_mov_rendered_after_the_spill_it_forces(self):
        # Regression: ebp got the post-spill ``edi + esi`` (found by the
        # resume-into-trace CFA property, at every trace body kind).
        plain, traced, cpu = _pair(_MOV_SPILL_SOURCE)
        assert plain == traced
        assert _trace_stats(cpu)["compiles"] > 0

    def test_pushed_copy_survives_the_esp_spill(self):
        # Regression: blocks and traces alike pushed eax's new value,
        # eax + esp, so only the interpreter tells them wrong.
        interpreted, _ = _build_mode_rig(_PUSH_COPY_SOURCE, "baseline")
        _run(interpreted, None)
        plain, traced, cpu = _pair(_PUSH_COPY_SOURCE)
        assert _snapshot(interpreted, None) == plain == traced
        assert _trace_stats(cpu)["compiles"] > 0

    def test_esp_copy_survives_the_pop(self):
        # Regression: blocks and traces alike stored and summed ESP's
        # value after the pop instead of the copy taken before it.
        interpreted, _ = _build_mode_rig(_POP_COPY_SOURCE, "baseline")
        _run(interpreted, None)
        plain, traced, cpu = _pair(_POP_COPY_SOURCE)
        assert _snapshot(interpreted, None) == plain == traced
        assert _trace_stats(cpu)["compiles"] > 0

    def test_guard_side_exit_identical(self):
        plain, traced, cpu = _pair(_GUARD_FLIP_SOURCE)
        assert plain == traced
        stats = _trace_stats(cpu)
        assert stats["compiles"] > 0
        # The branch flips direction at iteration 20, so the recorded
        # direction's guard failed at least once - and the equality
        # above proves the side exit restored exact register, flag,
        # and cycle state.
        assert stats["guard_exits"] > 0

    def test_irq_workload_identical(self):
        plain, traced, cpu = _pair(_irq_source(ticks=12), irq=True)
        assert plain == traced
        assert plain["ticks"] == traced["ticks"] == 12

    def test_irq_workload_admits_prefixes(self):
        """The 400-cycle tick horizon rarely fits a whole loop body, so
        the dispatcher must land on the checkpoint-prefix path - and the
        differential above proves each cut is architecturally exact."""
        plain, traced, cpu = _pair(_irq_source(ticks=12), irq=True)
        assert plain == traced
        stats = _trace_stats(cpu)
        assert stats["admit"]["prefix"] > 0
        # Admission telemetry is exhaustive: every admitted dispatch is
        # either whole-body or prefix, every refusal a reject.
        assert stats["admit"]["full"] >= 0
        assert stats["admit"]["reject"] >= 0

    def test_unbounded_run_admits_only_full_bodies(self):
        plain, traced, cpu = _pair(_COUNTED_SOURCE)
        assert plain == traced
        stats = _trace_stats(cpu)
        assert stats["admit"]["full"] > 0
        assert stats["admit"]["prefix"] == 0
        assert stats["admit"]["reject"] == 0

    def test_mixed_width_slab_traffic_identical(self):
        source = """\
start:
    movi ebx, %d
    movi ecx, 300
loop:
    ld eax, [ebx+0]
    addi eax, 1
    st [ebx+0], eax
    ldh edx, [ebx+4]
    addi edx, 3
    sth [ebx+4], edx
    ldb esi, [ebx+6]
    stb [ebx+7], esi
    ldh edi, [ebx+9]
    sth [ebx+9], edi
    subi ecx, 1
    jnz loop
    hlt
""" % DATA_BASE
        plain, traced, cpu = _pair(source)
        assert plain == traced
        stats = _trace_stats(cpu)
        # Aligned u16/u8 sites ride the slab.  The deliberately
        # misaligned [ebx+9] pair splits: the *load* is served inline
        # too (an in-window misaligned read goes through the region's
        # byte slab - the window range already proves MPU permission),
        # while the *store* must stay on the checked slow path (a
        # misaligned store may cross a 256-byte snoop page, so the
        # single-probe fast path cannot cover it).
        assert stats["slab_load_u16"]["hits"] > 0
        assert stats["slab_store_u16"]["hits"] > 0
        assert stats["slab_load_u8"]["hits"] > 0
        assert stats["slab_store_u8"]["hits"] > 0
        # (a handful of warmup iterations run below the trace tier, so
        # the floor is a little under the 300 loop trips)
        assert stats["slab_load_u16"]["misses"] <= 50
        assert stats["slab_store_u16"]["misses"] >= 250


def _loop_of(source, head):
    """The ``while n:`` loop of the looping trace headed at ``head``."""
    cpu, _ = _build_mode_rig(source, "traces")
    start = link(assemble(source), entry_symbol=head, stack_size=64).entry
    trace = build_trace(cpu.memory, CODE_BASE + start, EdgeProfile())
    assert trace.looping
    tree = ast.parse(generate_trace(trace))
    return next(node for node in ast.walk(tree) if isinstance(node, ast.While))


def _hot_path(statements):
    """The nodes an iteration runs when every ``if`` test holds: each
    statement outside an ``if``, and each ``if``'s test and body, never
    its ``else``."""
    for statement in statements:
        if isinstance(statement, ast.If):
            yield from ast.walk(statement.test)
            yield from _hot_path(statement.body)
        else:
            yield from ast.walk(statement)


def _slab_writes(nodes):
    """``(view, index, value)`` of every plain ``m<k>[i<k>] = value``."""
    return [
        (node.targets[0].value.id, node.targets[0].slice.id, ast.unparse(node.value))
        for node in nodes
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Subscript)
        and isinstance(node.targets[0].slice, ast.Name)
    ]


def _fresh_or_parallel(loop):
    """Assignments in ``loop`` to a fresh register local (``r3_1``) or
    to several register locals at once."""
    return [
        ast.unparse(node)
        for node in ast.walk(loop)
        if isinstance(node, ast.Assign)
        and re.fullmatch(r"r\d_\d+|\(r\d(, r\d)+\)", ast.unparse(node.targets[0]))
    ]


class TestGeneratedShape:
    def test_loop_body_computes_each_value_once(self):
        """The product feeds ``mov``, the xor chain and the store; it is
        rendered once per iteration, and the main line computes no flag
        (the exits rebuild EFLAGS from the kept operands).  No write
        lands under a pending reader, so every value stays in its own
        local and the loop bottom rebinds nothing."""
        loop = _loop_of(_ALU_MIX_SOURCE, "mix")
        assert not _fresh_or_parallel(loop)
        main_line = [
            node
            for statement in loop.body
            if not isinstance(statement, ast.If)
            for node in ast.walk(statement)
        ]
        products = [
            node
            for node in main_line
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        ]
        assert len(products) == 1
        assert "fl" not in {node.id for node in main_line if isinstance(node, ast.Name)}

    def test_invariant_sites_checked_once_per_dispatch(self):
        """The ALU loop's two stores have loop-invariant addresses: the
        prologue checks their window, alignment and snoop page, so an
        iteration that hits runs no bounds test, no ``>> 8 in S`` probe
        and no per-iteration cycle or retire tally, only two plain slab
        writes."""
        hot = list(_hot_path(_loop_of(_ALU_MIX_SOURCE, "mix").body))
        compares = [node for node in hot if isinstance(node, ast.Compare)]
        assert not [node for node in compares if len(node.ops) == 2]  # lo <= ea <= hi
        assert not [node for node in compares if isinstance(node.ops[0], (ast.In, ast.NotIn))]
        assert not [
            node
            for node in hot
            if isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id in ("p", "ret")
        ]
        assert _slab_writes(hot) == [("m0", "i0", "r7"), ("m1", "i1", "r1")]

    def test_memwalk_fixed_stores_are_plain_slab_writes(self):
        """The ring slot's load and store move every pass and keep their
        window test; the ``[ebp+256]``/``[ebp+260]`` stores do not."""
        loop = _loop_of(_MEMWALK_SOURCE, "walk")
        assert _slab_writes(list(_hot_path(loop.body))) == [("m2", "i2", "r7"), ("m3", "i3", "r1")]
        assert not _fresh_or_parallel(loop)

    def test_a_write_under_a_pending_reader_takes_a_fresh_local(self):
        """``add edx, eax`` folds into a chain that reads eax's local; a
        write of eax then goes to a fresh local, and the chain still
        renders against the value it was captured from."""
        em = _FoldEmitter(_Source(), 1)
        em.apply_add(2, 1, em.operand(0))
        chain = em.render(2)
        em.assign(0, "7")
        em.assign(1, "5")
        assert em.out.lines == ["    r0_1 = 7", "    r1 = 5"]
        assert em.render(2) == chain
        assert em.value_expr(0) == ("r0_1", {"r0_1"})

    @pytest.mark.parametrize(
        "source, head, sites",
        [
            pytest.param(_ALU_MIX_SOURCE, "mix", 2, id="alu-stores"),
            pytest.param(_mem_source(10), "loop", 10, id="mem-loads-stores-stack"),
        ],
    )
    def test_checked_path_rebinds_the_invariant_index(self, source, head, sites):
        """A site whose prologue check failed runs its checked path;
        once the slow call has installed the window, that path binds the
        site's index again, so the rest of the dispatch accesses the
        slab directly instead of re-testing the window every pass."""
        loop = _loop_of(source, head)
        for site in range(sites):
            steady = next(
                node
                for node in ast.walk(loop)
                if isinstance(node, ast.If) and ast.unparse(node.test) == "i%d >= 0" % site
            )
            checked = ast.Module(steady.orelse, [])
            slow = [
                node.lineno
                for node in ast.walk(checked)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("slow_load", "slow_store")
            ]
            rebinds = [
                node.lineno
                for node in ast.walk(checked)
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "i%d" % site
            ]
            assert slow and rebinds and max(rebinds) > max(slow)


class TestSelfModification:
    def test_self_patching_loop_identical(self):
        plain = Platform(MachineConfig(blocks=True, traces=False))
        traced = Platform(MachineConfig(blocks=True, traces=True))
        results = []
        for platform in (plain, traced):
            from repro.image.linker import link
            from repro.isa.assembler import assemble

            base = platform.config.task_ram_base
            image = link(assemble(_SELF_PATCH_SOURCE), stack_size=64)
            blob = bytearray(image.blob)
            for offset in image.relocations:
                value = int.from_bytes(blob[offset : offset + 4], "little")
                blob[offset : offset + 4] = (
                    (value + base) & 0xFFFFFFFF
                ).to_bytes(4, "little")
            platform.memory.write_raw(base, bytes(blob))
            platform.cpu.regs.eip = base + image.entry
            platform.cpu.regs.esp = base + 0x8000
            entry = platform.run_isa_until_event(max_cycles=200_000)
            assert entry.kind == "halt"
            cpu = platform.cpu
            results.append(
                (
                    cpu.retired,
                    platform.clock.now,
                    list(cpu.regs.gpr),
                    cpu.regs.eflags,
                )
            )
        assert results[0] == results[1]

    def test_note_write_drops_spanning_trace(self):
        _, _, cpu = _pair(_COUNTED_SOURCE)
        cache = cpu.block_engine.traces.cache
        victims = [t for t in cache.entries.values() if t.run is not None]
        assert victims
        victim = victims[0]
        cache.index.note_write(victim.start, 1)
        assert victim.start not in cache.entries
        assert not victim.valid

    @pytest.mark.parametrize("at, size, dropped", SPAN_EDGE_WRITES)
    def test_note_write_drops_spanning_trace_exact_span(self, at, size, dropped):
        _, _, cpu = _pair(_COUNTED_SOURCE)
        cache = cpu.block_engine.traces.cache
        victim = next(t for t in cache.entries.values() if t.run is not None)
        lo = min(item[1] for item in victim.items)
        hi = max(item[1] + item[2].length for item in victim.items)
        address = at(lo, hi)
        cpu.memory.write_raw(address, cpu.memory.read_raw(address, size))
        assert (victim.start not in cache.entries) == dropped
        assert victim.valid != dropped


class TestCacheLifecycle:
    def test_epoch_flush_drops_traces(self):
        from repro.hw.ea_mpu import MpuRule, Perm

        _, _, cpu = _pair(_COUNTED_SOURCE)
        jit = cpu.block_engine.traces
        assert len(jit.cache.entries) > 0
        cpu.memory.mpu.program_slot(
            7, MpuRule("late", 0x8F00, 0x8F10, 0x8F00, 0x8F10, Perm.RW)
        )
        # The next dispatch syncs the epoch and flushes both caches.
        cpu.block_engine.try_execute(cpu)
        assert len(jit.cache.entries) == 0
        assert jit.counters.flushes.value > 0

    def test_hot_edge_threshold(self):
        profile = EdgeProfile()
        for _ in range(TRACE_HOT_EDGE - 1):
            assert not profile.note(0x1000, 0x2000)
        assert profile.note(0x1000, 0x2000)

    def test_build_trace_requires_hot_profile(self):
        # A cold profile gives the builder no recorded direction for
        # any conditional branch, so no multi-block trace forms off an
        # arbitrary address with no discoverable loop.
        cpu, _ = _build_mode_rig(_COUNTED_SOURCE, "traces")
        trace = build_trace(cpu.memory, cpu.regs.eip, EdgeProfile())
        assert trace is None or trace.items


class TestObsIntegration:
    def test_trace_counters_on_platform_registry(self):
        platform = Platform(MachineConfig())
        names = platform.obs.counters.names()
        for expected in (
            "trace-compiles",
            "trace-guard-exits",
            "trace-flushes",
            "slab-load",
            "slab-store",
            "trace",
        ):
            assert expected in names, expected

    def test_ablated_platform_skips_trace_counters(self):
        platform = Platform(MachineConfig(traces=False))
        assert "trace-compiles" not in platform.obs.counters.names()

    def test_ablated_platform_keeps_admission_and_slab_counters(self):
        # Blocks are admitted and hit the slab like traces, so their
        # counters exist whenever blocks are on.
        names = Platform(MachineConfig(traces=False)).obs.counters.names()
        for expected in ("trace-admit-full", "trace-admit-prefix", "trace-admit-resume",
                         "trace-admit-reject", "slab-load", "slab-store-u8"):
            assert expected in names, expected

    def test_compile_event_published(self):
        _, _, cpu = _pair(_COUNTED_SOURCE)
        # Bench rigs have no obs bus; wire one and retrigger a compile
        # via a fresh rig driven through the platform instead.
        platform = Platform(MachineConfig())
        from repro.image.linker import link
        from repro.isa.assembler import assemble

        base = platform.config.task_ram_base
        image = link(assemble(_COUNTED_SOURCE), stack_size=64)
        blob = bytearray(image.blob)
        for offset in image.relocations:
            value = int.from_bytes(blob[offset : offset + 4], "little")
            blob[offset : offset + 4] = ((value + base) & 0xFFFFFFFF).to_bytes(
                4, "little"
            )
        platform.memory.write_raw(base, bytes(blob))
        platform.cpu.regs.eip = base + image.entry
        platform.cpu.regs.esp = base + 0x8000
        entry = platform.run_isa_until_event(max_cycles=200_000)
        assert entry.kind == "halt"
        kinds = {event.kind for event in platform.obs.events}
        assert "trace-compile" in kinds
