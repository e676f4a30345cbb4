"""The JIT's counter bundle.

:class:`TraceCounters` groups the JIT's :mod:`repro.obs.counters`
instances for registration with a
:class:`~repro.obs.counters.CounterRegistry` (every platform exposes
one at ``platform.obs.counters``).  Compiled code is otherwise
invisible by design (bit-identical architectural state), so these
counters are the only way ``repro.tools.trace`` summaries and benches
can show what the JIT actually did: how many traces were compiled and
flushed, how often guards bailed to the interpreter, how horizon
admission of every compiled body - block or trace - split between
whole bodies, prefix checkpoints and resumed segments, and what
fraction of translated loads/stores (per access width) hit the direct
memory-slab fast path.
"""

from __future__ import annotations

from repro.obs.counters import Counter, HitMissCounter


class TraceCounters:
    """The JIT counter bundle, registry-ready.

    * ``compiles`` - traces stitched and compiled;
    * ``guard_exits`` - side exits taken because a guard's recorded
      branch direction did not match at run time;
    * ``flushes`` - wholesale trace-cache flushes (EA-MPU epoch moves);
    * ``admits_full`` / ``admits_prefix`` / ``admits_resume`` /
      ``admits_reject`` - event-horizon admission outcomes of every
      block and trace dispatch: the whole body (or whole loop
      iterations) fit, only a checkpoint prefix fit, a resumed task
      re-entered a cached body at a checkpoint boundary and ran the
      segment from there that fit, or not even the next checkpoint fit
      (the dispatch fell back a tier);
    * ``slab_loads`` / ``slab_stores`` (32-bit) and their ``_u16`` /
      ``_u8`` twins - translated memory accesses served by direct slab
      indexing (hits) vs. the checked slow path, a misaligned-access
      bail, or the write-snoop broadcast path (misses).
    """

    __slots__ = (
        "compiles",
        "guard_exits",
        "flushes",
        "admits_full",
        "admits_prefix",
        "admits_resume",
        "admits_reject",
        "slab_loads",
        "slab_stores",
        "slab_loads_u16",
        "slab_stores_u16",
        "slab_loads_u8",
        "slab_stores_u8",
    )

    def __init__(self):
        self.compiles = Counter("trace-compiles")
        self.guard_exits = Counter("trace-guard-exits")
        self.flushes = Counter("trace-flushes")
        self.admits_full = Counter("trace-admit-full")
        self.admits_prefix = Counter("trace-admit-prefix")
        self.admits_resume = Counter("trace-admit-resume")
        self.admits_reject = Counter("trace-admit-reject")
        self.slab_loads = HitMissCounter("slab-load")
        self.slab_stores = HitMissCounter("slab-store")
        self.slab_loads_u16 = HitMissCounter("slab-load-u16")
        self.slab_stores_u16 = HitMissCounter("slab-store-u16")
        self.slab_loads_u8 = HitMissCounter("slab-load-u8")
        self.slab_stores_u8 = HitMissCounter("slab-store-u8")

    def all(self, stitching=True):
        """Every counter, for registration with an obs registry; without
        trace stitching only those blocks feed too (admission, slab)."""
        stitched = [self.compiles, self.guard_exits, self.flushes] if stitching else []
        return stitched + [
            self.admits_full,
            self.admits_prefix,
            self.admits_resume,
            self.admits_reject,
            self.slab_loads,
            self.slab_stores,
            self.slab_loads_u16,
            self.slab_stores_u16,
            self.slab_loads_u8,
            self.slab_stores_u8,
        ]

    def snapshot(self):
        """Plain-dict view for benches and assertions."""
        return {
            "compiles": self.compiles.value,
            "guard_exits": self.guard_exits.value,
            "flushes": self.flushes.value,
            "admit": {
                "full": self.admits_full.value,
                "prefix": self.admits_prefix.value,
                "resume": self.admits_resume.value,
                "reject": self.admits_reject.value,
            },
            "slab_load": self.slab_loads.snapshot(),
            "slab_store": self.slab_stores.snapshot(),
            "slab_load_u16": self.slab_loads_u16.snapshot(),
            "slab_store_u16": self.slab_stores_u16.snapshot(),
            "slab_load_u8": self.slab_loads_u8.snapshot(),
            "slab_store_u8": self.slab_stores_u8.snapshot(),
        }


__all__ = ["TraceCounters"]
