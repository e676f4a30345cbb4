"""Flat physical memory with a region map.

Siskiyou Peak uses a flat, physical addressing model: no MMU, no virtual
memory.  :class:`PhysicalMemory` models the bus: it routes each access to
a RAM region or an MMIO region, and (when an EA-MPU is attached) runs the
execution-aware access check before the access is performed.

Context frames and IPC inbox entries move as runs of consecutive 32-bit
words.  :meth:`PhysicalMemory.read_words` and
:meth:`PhysicalMemory.write_words` check such a run once and copy it
straight to or from the RAM slab.  When one check cannot stand for every
word (an EA-MPU denial or partial cover, an MMIO window, a region
straddle), they run the checked word accessors one by one in the
caller's order, so faults, the fault log, denial events and partial
writes are exactly those of the per-word code.

All multi-byte values are little-endian, matching the x86 lineage of the
platform.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_right
from functools import lru_cache

from repro.errors import ConfigurationError, MemoryFault
from repro.obs.counters import HitMissCounter

MASK32 = 0xFFFFFFFF

#: log2 of the :attr:`PhysicalMemory.snooped_pages` granule, the
#: page-level filter compiled stores probe: 256-byte pages.
SNOOP_PAGE_SHIFT = 8


def u32(value):
    """Truncate ``value`` to an unsigned 32-bit integer."""
    return value & MASK32


@lru_cache(maxsize=None)
def _word_run(count):
    """The little-endian ``struct`` layout of ``count`` 32-bit words."""
    return struct.Struct("<%dI" % count)


class RamRegion:
    """A contiguous range of byte-addressable RAM.

    The backing store is one ``bytearray`` *slab* plus zero-copy
    ``memoryview``s over it: a byte view and (on little-endian hosts,
    for suitably sized regions) struct-specialized ``'I'`` and ``'H'``
    casts.  The typed views are what make translated loads/stores a
    single Python index expression: an aligned 32-bit access inside a
    hoisted EA-MPU allow window is ``words[offset >> 2]`` (16-bit:
    ``halves[offset >> 1]``) with no bytes object, no
    ``int.from_bytes``, and no method call.  Every mutation path
    (checked writes, raw writes, translated stores) writes the same
    slab, so the views never go stale.

    Parameters
    ----------
    name:
        Human-readable region name (shows up in traces and faults).
    base:
        First physical address of the region.
    size:
        Region length in bytes.
    """

    def __init__(self, name, base, size):
        if size <= 0:
            raise ConfigurationError("region %r has non-positive size" % name)
        self.name = name
        self.base = u32(base)
        self.size = size
        self.data = bytearray(size)
        #: Zero-copy byte view of the slab (slice reads without copies)
        #: and, on little-endian hosts for word-multiple sizes, the
        #: struct-specialized ``'I'`` cast - both built by
        #: :meth:`_rebuild_views` (also used on unpickle/fork, since
        #: memoryviews cannot be copied).
        self._rebuild_views()

    @property
    def end(self):
        """One past the last address of the region."""
        return self.base + self.size

    def contains(self, address, size=1):
        """Whether ``[address, address + size)`` lies inside the region."""
        return self.base <= address and address + size <= self.end

    def read(self, address, size):
        """Read ``size`` bytes starting at physical ``address``."""
        offset = address - self.base
        return bytes(self.data[offset : offset + size])

    def write(self, address, payload):
        """Write ``payload`` starting at physical ``address``."""
        offset = address - self.base
        self.data[offset : offset + len(payload)] = payload

    def fill(self, value=0):
        """Overwrite the whole region with ``value`` (for wipes)."""
        self.data[:] = bytes([value & 0xFF]) * self.size

    # -- slab accessors (fast paths; semantics identical to read/write) --

    def load_u32(self, address):
        """Little-endian 32-bit load straight from the slab."""
        offset = address - self.base
        words = self.words
        if words is not None and not offset & 3:
            return words[offset >> 2]
        return int.from_bytes(self.data[offset : offset + 4], "little")

    def store_u32(self, address, value):
        """Little-endian 32-bit store straight into the slab."""
        offset = address - self.base
        words = self.words
        if words is not None and not offset & 3:
            words[offset >> 2] = value
        else:
            self.data[offset : offset + 4] = value.to_bytes(4, "little")

    def load_u16(self, address):
        """Little-endian 16-bit load straight from the slab."""
        offset = address - self.base
        halves = self.halves
        if halves is not None and not offset & 1:
            return halves[offset >> 1]
        return int.from_bytes(self.data[offset : offset + 2], "little")

    def store_u16(self, address, value):
        """Little-endian 16-bit store straight into the slab."""
        offset = address - self.base
        halves = self.halves
        if halves is not None and not offset & 1:
            halves[offset >> 1] = value
        else:
            self.data[offset : offset + 2] = value.to_bytes(2, "little")

    def load_u8(self, address):
        """Byte load straight from the slab."""
        return self.data[address - self.base]

    def store_u8(self, address, value):
        """Byte store straight into the slab."""
        self.data[address - self.base] = value

    # -- snapshot support ---------------------------------------------------

    def __getstate__(self):
        """Pickle/deepcopy support: drop the zero-copy views.

        ``memoryview`` objects cannot be pickled or deep-copied; the
        slab (``data``) carries all the state, and the views are
        rebuilt verbatim on restore.  This is what lets a booted
        machine be snapshotted and forked (:mod:`repro.fleet.snapshot`).
        """
        state = self.__dict__.copy()
        state["view"] = None
        state["words"] = None
        state["halves"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rebuild_views()

    def _rebuild_views(self):
        """Recreate the byte, half, and word views over the current slab."""
        self.view = memoryview(self.data)
        self.words = None
        self.halves = None
        if sys.byteorder == "little":
            if self.size % 4 == 0:
                cast = self.view.cast("I")
                if cast.itemsize == 4:
                    self.words = cast
            if self.size % 2 == 0:
                cast = self.view.cast("H")
                if cast.itemsize == 2:
                    self.halves = cast

    def __repr__(self):
        return "RamRegion(%s, 0x%08X..0x%08X)" % (self.name, self.base, self.end)


class MemoryMap:
    """Ordered collection of non-overlapping regions.

    The map is the single source of truth for what exists at each physical
    address.  Regions may be :class:`RamRegion` or any object exposing the
    same ``base``/``size``/``contains``/``read``/``write`` protocol (MMIO
    regions do).
    """

    def __init__(self):
        self._regions = []
        self._bases = []
        #: Last region a lookup resolved to (cleared on :meth:`add`).
        self._last = None
        #: Disable the last-hit memo (the bench's uncached baseline).
        self.cache_enabled = True
        self.stats = HitMissCounter("region")

    def add(self, region):
        """Register ``region``, refusing overlaps with existing regions."""
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise ConfigurationError(
                    "region %r overlaps %r" % (region.name, existing.name)
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        self._bases = [r.base for r in self._regions]
        self._last = None
        return region

    def _locate(self, address, size):
        """The region containing the range, or ``None``.

        Fast path: the last region any lookup resolved to (instruction
        streams and data accesses are strongly region-local).  Fallback
        is a binary search on the sorted, non-overlapping region bases -
        only the region with the greatest ``base <= address`` can
        contain the range.
        """
        last = self._last
        if last is not None and last.contains(address, size):
            self.stats.hits += 1
            return last
        self.stats.misses += 1
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            region = self._regions[index]
            if region.contains(address, size):
                if self.cache_enabled:
                    self._last = region
                return region
        return None

    def find(self, address, size=1):
        """Return the region containing ``[address, address + size)``.

        Raises :class:`MemoryFault` if no region contains the full range.
        """
        region = self._locate(address, size)
        if region is None:
            raise MemoryFault(address, size)
        return region

    def try_find(self, address, size=1):
        """Like :meth:`find` but returns ``None`` instead of raising."""
        return self._locate(address, size)

    def regions(self):
        """All regions, ordered by base address."""
        return list(self._regions)

    def region_named(self, name):
        """Return the region called ``name`` or raise ``KeyError``."""
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)


class PhysicalMemory:
    """The memory bus: routes accesses, enforces the EA-MPU.

    Every access carries an *actor*: the identifier of the code region the
    access is executed from.  This is what makes the MPU execution-aware -
    the same address may be accessible from one task's code and forbidden
    from another's.  Hardware agents (the exception engine, DMA-less
    device models) use the reserved actor :data:`HW_ACTOR`, which bypasses
    the MPU exactly as bus-master hardware does on the real platform.
    """

    #: Actor identifier for hardware-initiated accesses (exception engine
    #: pushing EIP/EFLAGS, device models updating their MMIO windows).
    HW_ACTOR = "<hardware>"

    def __init__(self, memory_map=None):
        self.map = memory_map if memory_map is not None else MemoryMap()
        self.mpu = None
        self._write_listeners = []
        #: Word-run transfers (:meth:`read_words`/:meth:`write_words`):
        #: hits copied the slab after one check, misses ran the
        #: per-word accessors.
        self.range_stats = HitMissCounter("bus-range")
        #: Pages (address >> :data:`SNOOP_PAGE_SHIFT`) that ever held a
        #: cached code artifact (decoded instructions, blocks,
        #: traces).  The code caches' span index
        #: (:class:`repro.perf.spans.SpanIndex`) records every page a
        #: cached body's bytes touch here, so a translated store fast
        #: path may skip the listener fan-out entirely when its target
        #: page was never cached: no listener could have anything to
        #: invalidate.  The set is add-only (entries may go stale when
        #: a body is dropped); staleness only costs a redundant
        #: listener round, never a missed invalidation.
        self.snooped_pages = set()

    def note_snooped_range(self, start, end):
        """Record that ``[start, end)`` now backs a cached code artifact."""
        first = start >> SNOOP_PAGE_SHIFT
        last = (end - 1) >> SNOOP_PAGE_SHIFT
        self.snooped_pages.update(range(first, last + 1))

    def attach_mpu(self, mpu):
        """Install the EA-MPU; all subsequent accesses are checked."""
        self.mpu = mpu

    def add_write_listener(self, callback):
        """Register ``callback(address, size)`` run after **every** write.

        Both checked and raw writes funnel through :meth:`write_raw`, so
        listeners observe loader writes, hardware pushes, and MMIO
        stores too.  This is the snoop port the decoded-instruction
        cache uses to invalidate on stores into code.
        """
        self._write_listeners.append(callback)

    # -- raw (unchecked) accessors used by loaders and device models -----

    def read_raw(self, address, size):
        """Read without an MPU check (hardware/bootloader privilege)."""
        region = self.map.find(address, size)
        return region.read(address, size)

    def write_raw(self, address, payload):
        """Write without an MPU check (hardware/bootloader privilege)."""
        size = len(payload)
        region = self.map.find(address, size)
        region.write(address, bytes(payload))
        if self._write_listeners:
            for callback in self._write_listeners:
                callback(address, size)

    # -- checked accessors -------------------------------------------------

    def read(self, address, size, actor=HW_ACTOR):
        """Read ``size`` bytes as ``actor``, enforcing the EA-MPU."""
        address = u32(address)
        self._check("read", address, size, actor)
        return self.read_raw(address, size)

    def write(self, address, payload, actor=HW_ACTOR):
        """Write ``payload`` as ``actor``, enforcing the EA-MPU."""
        address = u32(address)
        self._check("write", address, len(payload), actor)
        self.write_raw(address, payload)

    def check_execute(self, address, actor):
        """Run the MPU execute check for an instruction fetch."""
        if self.mpu is not None:
            self.mpu.check(
                "execute", u32(address), 1, actor
            )

    def _check(self, kind, address, size, actor):
        if self.mpu is not None and actor != self.HW_ACTOR:
            self.mpu.check(kind, address, size, actor)

    # -- typed helpers ------------------------------------------------------

    def read_u8(self, address, actor=HW_ACTOR):
        """Read an unsigned byte."""
        return self.read(address, 1, actor)[0]

    def read_u16(self, address, actor=HW_ACTOR):
        """Read an unsigned little-endian 16-bit value."""
        return int.from_bytes(self.read(address, 2, actor), "little")

    def read_u32(self, address, actor=HW_ACTOR):
        """Read an unsigned little-endian 32-bit value."""
        return int.from_bytes(self.read(address, 4, actor), "little")

    def write_u8(self, address, value, actor=HW_ACTOR):
        """Write an unsigned byte."""
        self.write(address, bytes([value & 0xFF]), actor)

    def write_u16(self, address, value, actor=HW_ACTOR):
        """Write an unsigned little-endian 16-bit value."""
        self.write(address, (value & 0xFFFF).to_bytes(2, "little"), actor)

    def write_u32(self, address, value, actor=HW_ACTOR):
        """Write an unsigned little-endian 32-bit value."""
        self.write(address, u32(value).to_bytes(4, "little"), actor)

    # -- word runs (context frames, inbox entries) --------------------------

    def read_words(self, address, count, actor=HW_ACTOR, descending=False):
        """Read ``count`` consecutive 32-bit words from ``address`` up.

        Returns a tuple in ascending address order.  One check of the
        whole range stands for every word (see :meth:`_slab_for`);
        otherwise the words are read one by one with :meth:`read_u32`,
        highest address first when ``descending``, which is the order
        a caller popping a frame from the top uses.
        """
        address = u32(address)
        region = self._slab_for("read", address, 4 * count, actor)
        if region is not None:
            return _word_run(count).unpack_from(region.data, address - region.base)
        values = [0] * count
        for index in range(count - 1, -1, -1) if descending else range(count):
            values[index] = self.read_u32(address + 4 * index, actor)
        return tuple(values)

    def write_words(self, address, values, actor=HW_ACTOR, descending=False):
        """Write ``values`` to consecutive 32-bit words from ``address`` up.

        ``values`` are in ascending address order.  On the slab path
        the write listeners hear one call over the whole range;
        otherwise every word goes through :meth:`write_u32`, highest
        address first when ``descending`` (a stack push), so a fault
        leaves exactly the words the per-word code would have written.
        """
        address = u32(address)
        count = len(values)
        size = 4 * count
        region = self._slab_for("write", address, size, actor)
        if region is not None:
            _word_run(count).pack_into(
                region.data, address - region.base, *[u32(value) for value in values]
            )
            for callback in self._write_listeners:
                callback(address, size)
            return
        for index in range(count - 1, -1, -1) if descending else range(count):
            self.write_u32(address + 4 * index, values[index], actor)

    def _slab_for(self, kind, address, size, actor):
        """The RAM region a word run may be copied from or to, or ``None``.

        Only a range inside one RAM region (MMIO registers have side
        effects, and a straddle faults part-way) with an EA-MPU verdict
        allowing the whole range.  A rule that allows the range covers
        every word in it, and an uncovered range leaves every word
        uncovered, so each per-word check would pass too.
        """
        stats = self.range_stats
        region = self.map.try_find(address, size)
        if isinstance(region, RamRegion):
            mpu = self.mpu
            if (
                mpu is None
                or actor == self.HW_ACTOR
                or mpu.allows(kind, address, size, actor)
            ):
                stats.hits += 1
                return region
        stats.misses += 1
        return None
