"""The exact-span write snoop shared by the three code caches.

A write drops exactly the cached bodies whose bytes it overlaps, so a
store to a data word that only shares a snoop granule with code keeps
that code cached.  That is sound only while every page any cached body
spans is in ``memory.snooped_pages`` - compiled store fast paths skip
the write broadcast on every other page - which the firmware-shaped
run below asserts.
"""

from repro import TyTAN
from repro.hw.memory import SNOOP_PAGE_SHIFT, MemoryMap, PhysicalMemory
from repro.perf.spans import SpanIndex
from repro.tools.trace import _load_demo
from repro.uc.cruise_control import CruiseControlSystem


class _Cache:
    """Records the keys the index drops."""

    def __init__(self):
        self.dropped = []

    def drop(self, key):
        self.dropped.append(key)


class TestSpanIndex:
    def test_write_drops_only_overlapped_bodies(self):
        memory = PhysicalMemory(MemoryMap())
        index = SpanIndex(memory)
        cache = _Cache()
        index.add(cache, "a", [(0x104, 0x108), (0x100, 0x104)])
        index.add(cache, "b", [(0x108, 0x10B)])
        index.add(cache, "c", [(0x3F0, 0x402)])
        assert memory.snooped_pages == {0x1, 0x3, 0x4}
        assert index.note_write(0x10B, 4) == []
        assert index.note_write(0x0FC, 4) == []
        # One write across both bodies' shared edge.
        assert index.note_write(0x107, 2) == [(cache, "a"), (cache, "b")]
        # A body on both lines a write touches is dropped once.
        assert index.note_write(0x3FF, 2) == [(cache, "c")]
        assert cache.dropped == ["a", "b", "c"]
        assert index.note_write(0x401, 1) == []
        # The page filter is add-only: dropped bodies leave it a superset.
        assert memory.snooped_pages == {0x1, 0x3, 0x4}

    def test_discard_unregisters_one_cache(self):
        index = SpanIndex(PhysicalMemory(MemoryMap()))
        flushed, kept = _Cache(), _Cache()
        index.add(flushed, 1, [(0x200, 0x210)])
        index.add(kept, 1, [(0x200, 0x210)])
        index.discard(flushed)
        assert index.note_write(0x20F, 1) == [(kept, 1)]
        assert flushed.dropped == [] and kept.dropped == [1]


def _cached_spans(cpu):
    """``(lo, hi)`` code bytes of every cached instruction, block and
    trace, read off the caches themselves."""
    spans = [(eip, eip + entry[0].length) for eip, entry in cpu.insn_cache._insns.items()]
    engine = cpu.block_engine
    spans += [span for block in engine.cache.entries.values() for span in block.spans]
    for trace in engine.traces.cache.entries.values():
        spans += [(item[1], item[1] + item[2].length) for item in trace.items]
        if not trace.items:
            spans.append((trace.start, trace.start + 1))
    return spans


class TestFirmwareSnoopCoverage:
    def test_every_cached_body_page_is_snooped(self):
        # Cruise control (t2 loaded mid-run), the trace demo's counters
        # (stores in their own code's granule) and a background task,
        # under the default tiers.
        system = TyTAN()
        uc = CruiseControlSystem(system)
        _load_demo(system)
        ms = system.platform.config.hz // 1000
        system.run(max_cycles=5 * ms)
        uc.activate_cruise_control()
        system.run(max_cycles=25 * ms)
        cpu = system.platform.cpu
        engine = cpu.block_engine
        assert len(cpu.insn_cache) and len(engine.cache)
        assert any(trace.items for trace in engine.traces.cache.entries.values())
        pages = {
            page
            for lo, hi in _cached_spans(cpu)
            for page in range(lo >> SNOOP_PAGE_SHIFT, ((hi - 1) >> SNOOP_PAGE_SHIFT) + 1)
        }
        assert pages <= system.platform.memory.snooped_pages


class TestTraceDemo:
    def test_counter_stores_keep_their_code_cached(self):
        # The 100 ms ``tools.trace --demo`` run: under 256-byte granule
        # invalidation the counters' stores dropped their own code
        # (insn hit rate 0.009, 340 block translations).
        system = TyTAN()
        _load_demo(system)
        system.run(max_cycles=100 * system.platform.config.hz // 1000)
        cpu = system.platform.cpu
        assert cpu.insn_cache.stats.hit_rate >= 0.9
        assert cpu.insn_cache.stats.invalidations == 0
        assert cpu.block_engine.translations.value <= 20
