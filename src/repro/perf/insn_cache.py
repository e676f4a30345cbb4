"""Decoded-instruction cache with write-snoop invalidation.

Decoding allocates a fresh :class:`~repro.isa.encoding.Instruction` on
every fetch; for loops that is pure waste.  The cache maps EIP to the
decoded object and snoops **every** memory write (checked or raw - both
funnel through :meth:`repro.hw.memory.PhysicalMemory.write_raw`) so that
self-modifying code, task loads, and live updates are re-decoded.

Invalidation is page-granular: each cached instruction registers the
256-byte page(s) its encoding occupies; a write drops every cached
instruction registered on the pages it touches.  Dropping a superset of
the strictly affected instructions is always safe - the next fetch just
decodes again.
"""

from __future__ import annotations

from repro.obs.counters import HitMissCounter

#: log2 of the invalidation granule (256-byte pages).
PAGE_SHIFT = 8


class DecodedInsnCache:
    """EIP -> ``[Instruction, exec_epoch]``, invalidated by code writes.

    Each entry carries the EA-MPU rule-table epoch at which the execute
    check for its EIP last passed.  While the epoch is unchanged the
    check is provably still an allow, so the CPU skips it entirely; a
    stale epoch forces a re-check (which updates the entry in place).
    """

    __slots__ = ("stats", "_insns", "_pages")

    #: Epoch sentinel for entries cached with no MPU attached; never
    #: equals a real MPU epoch, so attaching an MPU forces re-checks.
    NO_MPU_EPOCH = -1

    def __init__(self):
        self.stats = HitMissCounter("insn")
        self._insns = {}
        #: page index -> set of cached EIPs whose encoding touches it.
        self._pages = {}

    def __len__(self):
        return len(self._insns)

    def get(self, eip):
        """The ``[insn, epoch]`` entry at ``eip`` or ``None`` (counted)."""
        entry = self._insns.get(eip)
        if entry is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return entry

    def put(self, eip, insn, epoch=NO_MPU_EPOCH):
        """Cache ``insn`` as the decoding of the bytes at ``eip``."""
        self._insns[eip] = [insn, epoch]
        pages = self._pages
        for page in range(eip >> PAGE_SHIFT, ((eip + insn.length - 1) >> PAGE_SHIFT) + 1):
            bucket = pages.get(page)
            if bucket is None:
                bucket = pages[page] = set()
            bucket.add(eip)

    def note_write(self, address, size):
        """Snoop a write of ``size`` bytes at ``address``.

        Wired as a :class:`~repro.hw.memory.PhysicalMemory` write
        listener; drops every cached instruction on a touched page.
        """
        pages = self._pages
        if not pages or size <= 0:
            return
        first = address >> PAGE_SHIFT
        last = (address + size - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            bucket = pages.pop(page, None)
            if bucket is None:
                continue
            insns = self._insns
            for eip in bucket:
                insns.pop(eip, None)
            self.stats.invalidations += 1

    def clear(self):
        """Drop every cached instruction (keeps the counters)."""
        self._insns.clear()
        self._pages.clear()
