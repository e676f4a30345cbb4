"""Fast-path cache behaviour: hits, invalidation triggers, counters.

The correctness contract under test: every cache invalidates exactly
when its inputs can change - code writes re-decode instructions, rule
reprogramming flushes EA-MPU verdicts - and denials are never served
from a cache.
"""

import pytest

from conftest import SPAN_EDGE_WRITES
from repro.errors import EntryPointFault, ProtectionFault
from repro.hw.clock import CycleClock
from repro.hw.cpu import CPU
from repro.hw.ea_mpu import EAMPU, MpuRule, Perm
from repro.hw.memory import MemoryMap, PhysicalMemory, RamRegion
from repro.hw.registers import Reg
from repro.image.linker import link
from repro.isa.assembler import assemble

CODE_BASE = 0x1000
STACK_TOP = 0x3000


def make_cpu(source, fastpath=True, mpu=None):
    """Assemble+link ``source`` at CODE_BASE; returns (cpu, labels)."""
    if "start:" not in source:
        source = "start:\n" + source
    memory = PhysicalMemory(MemoryMap())
    memory.map.cache_enabled = fastpath
    memory.map.add(RamRegion("ram", 0x0, 0x10000))
    if mpu is not None:
        memory.attach_mpu(mpu)
    cpu = CPU(memory, CycleClock(), fastpath=fastpath)
    obj = assemble(source)
    image = link(obj, stack_size=64)
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + CODE_BASE) & 0xFFFFFFFF).to_bytes(
            4, "little"
        )
    memory.write_raw(CODE_BASE, bytes(blob))
    labels = {
        name: CODE_BASE + sym.offset
        for name, sym in obj.symbols.items()
        if sym.section == ".text"
    }
    cpu.regs.eip = CODE_BASE + image.entry
    cpu.regs.esp = STACK_TOP
    return cpu, labels


def run_until_halt(cpu, max_steps=10_000):
    steps = 0
    while not cpu.halted:
        cpu.step()
        steps += 1
        assert steps < max_steps, "program did not halt"
    return cpu


def task_rule(name, code, data, perms=Perm.R | Perm.W, entry=None):
    return MpuRule(name, code[0], code[1], data[0], data[1], perms, entry_point=entry)


class TestDecodedInsnCache:
    def test_loop_hits_after_first_iteration(self):
        cpu, _ = make_cpu(
            "movi ecx, 50\nloop:\naddi eax, 1\nsubi ecx, 1\njnz loop\nhlt"
        )
        run_until_halt(cpu)
        stats = cpu.insn_cache.stats
        assert stats.hits > 100
        assert stats.hit_rate > 0.9

    def test_fastpath_off_has_no_insn_cache(self):
        cpu, _ = make_cpu("hlt", fastpath=False)
        run_until_halt(cpu)
        assert cpu.insn_cache is None

    def test_raw_write_invalidates_cached_code(self):
        cpu, _ = make_cpu("movi ebx, 5\nhlt")
        entry = cpu.regs.eip
        cpu.step()
        assert cpu.regs.read(Reg.EBX) == 5
        assert len(cpu.insn_cache) > 0
        # Patch the immediate byte of the cached `movi ebx, 5` in place.
        cpu.memory.write_raw(entry + 2, b"\x07")
        cpu.regs.eip = entry
        cpu.step()
        assert cpu.regs.read(Reg.EBX) == 7

    @pytest.mark.parametrize("at, size, dropped", SPAN_EDGE_WRITES)
    def test_raw_write_invalidates_cached_code_exact_span(self, at, size, dropped):
        cpu, _ = make_cpu("nop\nmovi ebx, 5\nnop\nhlt")
        cpu.step()
        start = cpu.regs.eip
        cpu.step()
        cache = cpu.insn_cache
        assert cache.get(start) is not None
        address = at(start, cpu.regs.eip)
        # Same bytes back: only the snoop's verdict changes.
        cpu.memory.write_raw(address, cpu.memory.read_raw(address, size))
        assert (cache.get(start) is None) == dropped
        # One count per dropped body; the nop before ``start`` is one.
        assert cache.stats.invalidations == dropped + (address < start)

    def test_self_modifying_store_is_redecoded(self):
        # The program rewrites the immediate of `movi ebx, 5` to 7 via a
        # checked store, then re-executes it: a stale decoded-instruction
        # cache would leave EBX at 5.
        cpu, _ = make_cpu(
            "start:\n"
            "movi eax, 0\n"
            "body:\n"
            "movi ebx, 5\n"
            "cmpi eax, 1\n"
            "jz done\n"
            "movi eax, 1\n"
            "movi edx, body\n"
            "movi esi, 7\n"
            "stb esi, [edx+2]\n"
            "jmp body\n"
            "done:\n"
            "hlt"
        )
        run_until_halt(cpu)
        assert cpu.regs.read(Reg.EBX) == 7
        assert cpu.insn_cache.stats.invalidations > 0


class TestDecisionCacheInvalidation:
    DATA = (0x6000, 0x6100)

    def _mpu(self):
        mpu = EAMPU()
        mpu.program_slot(0, task_rule("a", (0x1000, 0x1100), self.DATA))
        mpu.program_slot(1, task_rule("b", (0x2000, 0x2100), self.DATA))
        return mpu

    def test_clear_slot_flushes_stale_allow(self):
        mpu = self._mpu()
        mpu.check("read", 0x6000, 4, 0x1000)
        mpu.check("read", 0x6000, 4, 0x1000)  # served from the memo
        assert mpu.decisions.access_stats.hits >= 1
        mpu.clear_slot(0)
        # The address stays covered via rule "b", so subject A must now
        # be denied - a stale cached allow would let it through.
        with pytest.raises(ProtectionFault):
            mpu.check("read", 0x6000, 4, 0x1000)
        assert len(mpu.fault_log) == 1

    def test_denials_are_never_cached(self):
        mpu = self._mpu()
        for _ in range(3):
            with pytest.raises(ProtectionFault):
                mpu.check("write", 0x6000, 4, 0x5000)
        assert len(mpu.fault_log) == 3

    def test_program_slot_flushes_transfer_verdicts(self):
        mpu = EAMPU()
        mpu.check_transfer(0x1000, 0x2050)  # no rules: allowed, memoized
        mpu.check_transfer(0x1000, 0x2050)
        mpu.program_slot(
            0,
            task_rule("prot", (0x2000, 0x2100), (0x2000, 0x2100), Perm.RX, entry=0x2000),
        )
        with pytest.raises(EntryPointFault):
            mpu.check_transfer(0x1000, 0x2050)
        mpu.check_transfer(0x1000, 0x2000)  # the dedicated entry is fine
        assert len(mpu.fault_log) == 1

    def test_previously_allowed_access_faults_after_rule_cleared(self):
        # The ISSUE scenario end-to-end: a task's execute verdict is
        # cached, then its rule is cleared and execution must fault.
        mpu = EAMPU()
        code = (CODE_BASE, CODE_BASE + 0x100)
        mpu.program_slot(0, task_rule("task", code, code, Perm.RX))
        mpu.program_slot(1, task_rule("other", (0x5000, 0x5100), code, Perm.RX))
        cpu, _ = make_cpu("loop:\naddi eax, 1\njmp loop", mpu=mpu)
        for _ in range(6):
            cpu.step()
        mpu.clear_slot(0)
        # Code range is still covered (rule "other") but no rule allows
        # this EIP to execute any more.
        with pytest.raises(ProtectionFault):
            cpu.step()


class TestRegionLookupCache:
    def test_last_hit_memo(self):
        mapping = MemoryMap()
        low = mapping.add(RamRegion("low", 0x1000, 0x1000))
        high = mapping.add(RamRegion("high", 0x8000, 0x1000))
        assert mapping.find(0x1004) is low
        before = mapping.stats.hits
        assert mapping.find(0x1008) is low
        assert mapping.stats.hits == before + 1
        assert mapping.find(0x8004) is high
        assert mapping.try_find(0x4000) is None

    def test_cache_disabled_still_correct(self):
        mapping = MemoryMap()
        mapping.cache_enabled = False
        low = mapping.add(RamRegion("low", 0x1000, 0x1000))
        assert mapping.find(0x1004) is low
        assert mapping.find(0x1004) is low
        assert mapping.stats.hits == 0


class TestCounters:
    def test_cache_stats_snapshot_keys(self):
        mpu = EAMPU()
        cpu, _ = make_cpu("movi eax, 1\nhlt", mpu=mpu)
        run_until_halt(cpu)
        stats = cpu.cache_stats()
        assert set(stats) == {"region", "insn", "mpu_access", "mpu_transfer"}
        for snapshot in stats.values():
            assert {"hits", "misses", "invalidations", "hit_rate"} <= set(snapshot)


class TestFillFastWipe:
    def test_fill_value_and_zero(self):
        region = RamRegion("r", 0, 64)
        region.fill(0xAB)
        assert region.read(0, 64) == b"\xab" * 64
        region.fill()
        assert region.read(0, 64) == bytes(64)
