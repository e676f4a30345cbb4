"""Decoded-instruction cache with write-snoop invalidation.

Decoding allocates a fresh :class:`~repro.isa.encoding.Instruction` on
every fetch; for loops that is pure waste.  The cache maps EIP to the
decoded object and registers each instruction's exact encoding bytes
``[eip, eip + length)`` with the shared
:class:`~repro.perf.spans.SpanIndex`, which snoops **every** memory
write (checked or raw) and drops exactly the instructions whose bytes
a write overlaps, so self-modifying code, task loads, and live updates
are re-decoded while a store to neighbouring data leaves them cached.
"""

from __future__ import annotations

from repro.obs.counters import HitMissCounter


class DecodedInsnCache:
    """EIP -> ``[Instruction, exec_epoch]``, invalidated by code writes.

    Each entry carries the EA-MPU rule-table epoch at which the execute
    check for its EIP last passed.  While the epoch is unchanged the
    check is provably still an allow, so the CPU skips it entirely; a
    stale epoch forces a re-check (which updates the entry in place).
    """

    __slots__ = ("stats", "_insns", "_index")

    #: Epoch sentinel for entries cached with no MPU attached; never
    #: equals a real MPU epoch, so attaching an MPU forces re-checks.
    NO_MPU_EPOCH = -1

    def __init__(self, index):
        self.stats = HitMissCounter("insn")
        self._insns = {}
        #: The :class:`~repro.perf.spans.SpanIndex` snooping the bytes.
        self._index = index

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

    def peek(self, eip):
        """The cached instruction at ``eip`` or ``None`` (not counted)."""
        entry = self._insns.get(eip)
        return None if entry is None else entry[0]

    def put(self, eip, insn, epoch=NO_MPU_EPOCH):
        """Cache ``insn`` as the decoding of the bytes at ``eip``."""
        self._insns[eip] = [insn, epoch]
        self._index.add(self, eip, ((eip, eip + insn.length),))

    def drop(self, eip):
        """Span-index callback: a write changed the bytes at ``eip``."""
        del self._insns[eip]
        self.stats.invalidations += 1
