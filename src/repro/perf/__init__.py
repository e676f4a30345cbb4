"""Fast-path caching layer for the simulator's per-instruction hot path.

The simulator's value is running TyTAN workloads (attestation, IPC,
real-time latency benches) at scale, so the per-instruction enforcement
path must be cached rather than recomputed.  This package holds the
cache structures shared by the CPU, the EA-MPU, and the memory map:

* :class:`~repro.perf.insn_cache.DecodedInsnCache` - decoded
  instructions keyed by EIP;
* :class:`~repro.perf.spans.SpanIndex` - the write snoop shared by the
  instruction, block and trace caches: a write (checked or raw) drops
  exactly the cached bodies whose code bytes it overlaps, and every
  page a cached span touches is kept in ``memory.snooped_pages``, the
  page-level filter compiled store fast paths probe before skipping
  the broadcast;
* :class:`~repro.perf.decision_cache.MPUDecisionCache` - memoized
  EA-MPU *allow* verdicts for data accesses and control transfers,
  invalidated by the MPU's epoch counter (bumped on every
  ``program_slot``/``clear_slot``);
* :mod:`repro.perf.blocks` / :mod:`repro.perf.translate` - the
  block tier: hot straight-line blocks, each a linear
  :class:`~repro.perf.blocks.Trace`, compiled by the trace emitter with
  hoisted EA-MPU checks and batched cycle charging.  Exposed lazily
  here to keep the package import-light (``repro.hw.memory`` imports
  this package);
* :mod:`repro.perf.traces` - the one code generator and the JIT
  stacked on the block tier: hot block-to-block edges stitched into
  multi-block traces with guarded side exits, registers held in Python
  locals, counted loops unrolled, and loads/stores served by direct
  memory-slab indexing inside the hoisted allow windows.  Every
  compiled body - block or trace - runs only as far as fits inside the
  event horizon (``CycleClock.next_event_horizon``): whole, or up to a
  checkpoint.  Also exposed lazily.

The invariant all of these preserve: **caches change wall-clock speed
only, never simulated semantics**.  Faults, fault logs, trace and
transfer hooks, and cycle accounting are bit-for-bit identical with
caches on or off (``tests/test_perf_equivalence.py`` and
``tests/test_perf_blocks.py`` assert this).
"""

from repro.perf.decision_cache import MPUDecisionCache
from repro.perf.insn_cache import DecodedInsnCache
from repro.perf.spans import SpanIndex

__all__ = [
    "BlockCache",
    "BlockEngine",
    "DecodedInsnCache",
    "MPUDecisionCache",
    "SpanIndex",
    "Trace",
    "TraceJIT",
]


def __getattr__(name):
    # Lazy exports: repro.hw.memory imports this package, and the block
    # modules import repro.hw.memory, so eager imports here would cycle.
    if name in ("BlockCache", "Trace"):
        from repro.perf import blocks

        return getattr(blocks, name)
    if name == "BlockEngine":
        from repro.perf.translate import BlockEngine

        return BlockEngine
    if name == "TraceJIT":
        from repro.perf.traces import TraceJIT

        return TraceJIT
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
