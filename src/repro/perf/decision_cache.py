"""Memoized EA-MPU verdicts, invalidated by the rule-table epoch.

The EA-MPU's ``check``/``check_transfer`` scan every rule slot on every
access; for the per-instruction execute check and the sequential-advance
transfer check that linear scan dominates simulation time.  This cache
memoizes **allow** verdicts only:

* denials are never cached - a denied access must re-run the full check
  so it raises and appends to ``fault_log`` every single time, exactly
  as the uncached hardware model does;
* allow verdicts are valid precisely until the rule table changes, so
  the whole cache is flushed lazily whenever the MPU's ``epoch``
  counter (bumped by every successful ``program_slot``/``clear_slot``)
  moves.

For control transfers there is additionally a *coverage-cell* fast
path: the object ranges of all entry-point rules partition the address
space into cells inside which every rule's subject/object membership is
constant.  A transfer whose source and target lie in the same cell can
never trip an entry-point check, so it is provably allowed without
consulting any rule.  The CPU uses :meth:`MPUDecisionCache.cell_bounds`
to skip the sequential-advance transfer check entirely while execution
stays inside one cell.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.obs.counters import HitMissCounter

#: One past the top of the 32-bit physical address space.
_TOP = 0x1_0000_0000


class MPUDecisionCache:
    """Allow-verdict memo for one :class:`~repro.hw.ea_mpu.EAMPU`."""

    __slots__ = (
        "_mpu",
        "_epoch",
        "_access",
        "_transfer",
        "_bounds",
        "_data_bounds",
        "access_stats",
        "transfer_stats",
    )

    def __init__(self, mpu):
        self._mpu = mpu
        self._epoch = mpu.epoch
        #: (kind, address, size, eip) -> True (allow verdicts only).
        self._access = {}
        #: {(from_eip, to_eip)} transfers proven allowed.
        self._transfer = set()
        #: Sorted entry-point rule boundaries (built lazily per epoch).
        self._bounds = None
        #: Sorted object-range boundaries of *all* rules (lazy, per
        #: epoch); partitions the address space into data cells inside
        #: which every rule's object membership is constant.
        self._data_bounds = None
        self.access_stats = HitMissCounter("mpu-access")
        self.transfer_stats = HitMissCounter("mpu-transfer")

    # -- epoch bookkeeping ---------------------------------------------------

    def _sync(self):
        """Flush everything if the rule table changed since last use."""
        epoch = self._mpu.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self._access.clear()
            self._transfer.clear()
            self._bounds = None
            self._data_bounds = None
            self.access_stats.invalidations += 1
            self.transfer_stats.invalidations += 1

    @property
    def epoch(self):
        """Rule-table epoch the cached verdicts are valid for."""
        return self._epoch

    # -- data/execute access verdicts ---------------------------------------

    def lookup_access(self, key):
        """Whether ``key = (kind, address, size, eip)`` is a known allow."""
        self._sync()
        if key in self._access:
            self.access_stats.hits += 1
            return True
        self.access_stats.misses += 1
        return False

    def store_access(self, key):
        """Record an allow verdict computed by the full check."""
        self._access[key] = True

    # -- control-transfer verdicts ------------------------------------------

    def lookup_transfer(self, from_eip, to_eip):
        """Whether the transfer is provably allowed (cell or memo hit)."""
        self._sync()
        bounds = self._bounds
        if bounds is None:
            bounds = self._rebuild_bounds()
        if bisect_right(bounds, from_eip) == bisect_right(bounds, to_eip):
            self.transfer_stats.hits += 1
            return True
        if (from_eip, to_eip) in self._transfer:
            self.transfer_stats.hits += 1
            return True
        self.transfer_stats.misses += 1
        return False

    def store_transfer(self, from_eip, to_eip):
        """Record a transfer the full check allowed."""
        self._transfer.add((from_eip, to_eip))

    # -- coverage cells ------------------------------------------------------

    def _rebuild_bounds(self):
        edges = set()
        for rule in self._mpu.slots:
            if rule is not None and rule.entry_point is not None:
                edges.add(rule.data_start)
                edges.add(rule.data_end)
        bounds = sorted(edges)
        self._bounds = bounds
        return bounds

    def _rebuild_data_bounds(self):
        edges = set()
        for rule in self._mpu.slots:
            if rule is not None:
                edges.add(rule.data_start)
                edges.add(rule.data_end)
        bounds = sorted(edges)
        self._data_bounds = bounds
        return bounds

    def allow_window(self, address):
        """``(lo, hi)``: the data cell containing ``address``.

        The object ranges of **all** programmed rules partition the
        address space; within ``[lo, hi)`` every rule's object
        membership is constant, so an *allow* verdict for one access
        ``(kind, size, eip)`` at ``address`` holds for the same access
        at any address whose whole ``size``-byte span stays inside the
        cell.  The block-translation engine hoists one full
        :meth:`~repro.hw.ea_mpu.EAMPU.check` per memory instruction
        into such a window (further clamped to the backing RAM region)
        and re-validates it only when the rule-table epoch moves.
        """
        self._sync()
        bounds = self._data_bounds
        if bounds is None:
            bounds = self._rebuild_data_bounds()
        index = bisect_right(bounds, address)
        lo = bounds[index - 1] if index > 0 else 0
        hi = bounds[index] if index < len(bounds) else _TOP
        return lo, hi

    def cell_bounds(self, address):
        """``(lo, hi, epoch)``: the coverage cell containing ``address``.

        Any control transfer with both endpoints in ``[lo, hi)`` is
        allowed while the MPU's epoch still equals ``epoch`` - no
        entry-point rule boundary lies strictly inside the cell, so
        source and target always share every rule's object membership.
        """
        self._sync()
        bounds = self._bounds
        if bounds is None:
            bounds = self._rebuild_bounds()
        index = bisect_right(bounds, address)
        lo = bounds[index - 1] if index > 0 else 0
        hi = bounds[index] if index < len(bounds) else _TOP
        return lo, hi, self._epoch
