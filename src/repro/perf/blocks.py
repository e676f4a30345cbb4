"""Straight-line discovery and the compiled-body record both JIT tiers use.

A *block* is a maximal straight-line run of translatable instructions
starting at a dispatch address (typically a branch target or loop
head).  Discovery terminates at:

* control transfers (``jmp``/``call``/``ret``/``iret``/conditional
  branches) and software traps (``int``);
* privileged / interrupt-window opcodes (``hlt``/``cli``/``sti``) -
  blocks therefore execute with EFLAGS.IF provably constant;
* ``div`` (it can deliver a divide-error exception mid-stream);
* the end of the backing RAM region (MMIO windows are never treated as
  code, mirroring the decoded-instruction cache);
* the boundary of the EA-MPU *entry-point coverage cell* containing the
  block (see :meth:`repro.perf.decision_cache.MPUDecisionCache.cell_bounds`),
  so every sequential advance inside the block is provably free of
  entry-point checks - the hoisted form of the CPU's per-instruction
  ``_advance`` check;
* any instruction whose execute permission cannot be proven
  (:meth:`repro.hw.ea_mpu.EAMPU.probe` - a pure probe, so a denial is
  still raised and logged by the single-step path when the instruction
  is actually reached).

A discovered block is a linear :class:`Trace` of ``insn`` items that
exits where the run ends.  The trace builder stitches the same runs
into multi-block traces, and every body - block or trace - is compiled
by the one trace emitter and admitted by the same event-horizon rule
(:mod:`repro.perf.traces`).

All hoisted verdicts are valid for exactly one EA-MPU rule-table epoch;
a :class:`BlockCache` is flushed wholesale when the epoch moves, and
individual bodies are invalidated through the same
:class:`~repro.perf.spans.SpanIndex` the decoded-instruction cache
uses: a write (checked or raw) drops exactly the bodies whose bytes it
overlaps.  Addresses where discovery cannot form a worthwhile block are
remembered as *no-block markers* so dispatch stays a single dict probe.
"""

from __future__ import annotations

from repro.cycles import CFA_EDGE_CYCLES, INSN_BRANCH_TAKEN
from repro.errors import IllegalInstruction
from repro.hw.memory import RamRegion
from repro.isa.encoding import decode
from repro.isa.opcodes import BASE_CYCLES, CONDITIONAL_BRANCHES, LENGTHS, Op
from repro.obs.counters import HitMissCounter

#: Longest instruction encoding; discovery reads this many bytes.
_MAX_INSN_BYTES = max(LENGTHS.values())

#: One past the top of the 32-bit physical address space.
_TOP = 0x1_0000_0000

#: Upper bound on instructions per block (keeps the static cycle cost
#: small relative to realistic event horizons).
MAX_BLOCK_INSNS = 64

#: Blocks shorter than this are not worth the dispatch overhead; the
#: address gets a no-block marker instead.
MIN_BLOCK_INSNS = 3

#: Dispatch misses at one address before it is considered hot enough to
#: translate (cold straight-line code is visited once per address and
#: never translated; loop heads reach the threshold on re-entry).  Only
#: *entries* count inside cached bodies: see
#: :class:`~repro.perf.translate.BlockEngine`.
HOT_THRESHOLD = 2

#: Bound on the visit-count table (cleared wholesale when exceeded).
HEAT_LIMIT = 65_536

#: Straight-line instructions between checkpoints in the segment body
#: (stitched branches always get one).
CHECKPOINT_INSNS = 4

#: Opcodes that end a block (never included in one).
BLOCK_ENDERS = (
    frozenset(
        {Op.HLT, Op.CLI, Op.STI, Op.RET, Op.IRET, Op.JMP, Op.CALL, Op.INT, Op.DIV}
    )
    | CONDITIONAL_BRANCHES
)

#: Pure register/ALU opcodes translated to inline statements.
ALU_OPS = frozenset(
    {
        Op.NOP,
        Op.MOV,
        Op.ADD,
        Op.SUB,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.CMP,
        Op.SHL,
        Op.SHR,
        Op.MUL,
        Op.MOVI,
        Op.ADDI,
        Op.SUBI,
        Op.ANDI,
        Op.ORI,
        Op.XORI,
        Op.CMPI,
        Op.SHLI,
        Op.SHRI,
        Op.NOT,
        Op.NEG,
    }
)

#: Memory-touching opcodes translated with a hoisted EA-MPU window.
MEM_OPS = frozenset(
    {Op.LD, Op.ST, Op.LDB, Op.STB, Op.LDH, Op.STH, Op.PUSH, Op.POP, Op.PUSHI}
)

#: Everything a block may contain.
TRANSLATABLE_OPS = ALU_OPS | MEM_OPS


class Trace:
    """One compiled body - a block or a stitched trace - or a marker.

    ``items`` is the flattened path: ``("insn", address, insn)`` for
    straight-line instructions, ``("guard", address, insn,
    chosen_taken, target)`` for stitched conditional branches, and
    ``("jmp", address, insn, target)`` for stitched unconditional
    jumps; a block holds ``insn`` items only.  An empty ``items`` marks
    an address where no worthwhile body exists (``run`` stays
    ``None``).  ``iter_cost``/``iter_retire`` are the exact cycle/retire
    totals of the full straight path (one iteration, for looping
    traces) - upper bounds for every admitted execution, which is what
    the event-horizon test relies on.  ``spans`` are the ``(lo, hi)``
    bytes the body was built from, for the write snoop.

    ``cfa`` holds the item indices whose stitched taken transfer is
    recorded by the CFA monitor (both endpoints inside an enrolled
    region at build time).  The compiled bodies emit the same hash
    update the interpreter performs, and the per-edge cost is baked
    into ``iter_cost``/``checkpoints``; the generation check in the
    block engine flushes traces when enrolment changes.

    Bodies keep no generated source.  For debugging, regenerate it
    from the body with :func:`repro.perf.traces.generate_trace`:
    ``generate_trace(body)`` for the main body,
    ``generate_trace(body, fast=True)`` for the counted-loop body and
    ``generate_trace(body, segment=True)`` for the segment body.
    """

    __slots__ = (
        "start",
        "items",
        "looping",
        "exit_eip",
        "iter_cost",
        "iter_retire",
        "counter_reg",
        "windows",
        "windows2",
        "spans",
        "valid",
        "run",
        "run_fast",
        "run_segment",
        "checkpoints",
        "boundaries",
        "cfa",
    )

    def __init__(self, start, items, looping, exit_eip, spans, cfa=frozenset()):
        self.start = start
        self.items = items
        self.looping = looping
        #: EIP a linear body exits at (``None`` for looping traces,
        #: which exit at their own head, and for markers).
        self.exit_eip = exit_eip
        self.spans = spans
        self.cfa = cfa
        self.iter_retire = len(items)
        _, costs, eips, self.iter_cost = _checkpoint_plan(items, cfa)
        #: Cumulative cycle cost at each checkpoint, in body order
        #: (strictly increasing; the admission table).
        self.checkpoints = costs
        #: Entry-checkpoint table: boundary EIP -> checkpoint number
        #: (1-based), where a resumed dispatch may enter the segment
        #: body.
        self.boundaries = {}
        for number, eip in enumerate(eips, 1):
            self.boundaries.setdefault(eip, number)
        #: Loop-counter register proven by the constprop pass, or None.
        self.counter_reg = None
        sites = sum(1 for item in items if item[0] == "insn" and item[2].opcode in MEM_OPS)
        #: Per-memory-site hoisted allow windows, filled at run time:
        #: ``(lo, hi_minus_size, slab_view, shifted_base, ...)`` or None
        #: (see :func:`repro.perf.translate._window_tuple`).
        self.windows = [None] * sites
        #: Per-load-site *victim* windows: when a slow load installs a
        #: fresh window it demotes the old one here, so a site whose EA
        #: alternates between two regions (a poll flipping between data
        #: and stack, say) hits slab speed on both instead of thrashing
        #: the single slot into a slow call every iteration.
        self.windows2 = [None] * sites
        #: Cleared by the write snoop; checked after broadcast stores,
        #: so self-modifying code aborts the running body.
        self.valid = True
        #: Compiled main body: ``__trace__(cpu, tr)`` for a linear body,
        #: ``__trace__(cpu, tr, n)`` for a looping trace running ``n``
        #: iterations.  A block compiles on its first whole admission.
        self.run = None
        #: Specialized counted-loop body (guard and dead flags elided).
        self.run_fast = None
        #: Segment body ``__trace_segment__(cpu, tr, first, last)``:
        #: enters the straight path at checkpoint boundary ``first``
        #: (0 = the head) and exits at boundary ``last`` (past the last
        #: checkpoint = the path's end).  Compiled lazily on the first
        #: prefix or resume admission.
        self.run_segment = None

    def is_marker(self):
        """Whether this entry marks an address with no body."""
        return not self.items

    def __repr__(self):
        return "Trace(0x%X, %d items%s%s)" % (
            self.start,
            len(self.items),
            ", looping" if self.looping else "",
            ", marker" if not self.items else "",
        )


def _checkpoint_plan(items, cfa_flags=frozenset()):
    """Checkpoint placement for the segment body.

    Returns ``(cuts, costs, eips, total)``: ``cuts[idx]`` marks a
    checkpoint *after* item ``idx``, ``costs`` holds the exact
    cumulative cycle cost at each checkpoint in body order (strictly
    increasing - the dispatcher bisects it against the remaining
    horizon budget), ``eips`` the EIP each checkpoint's boundary exits
    at (and a resumed dispatch may enter at), and ``total`` the cost of
    the whole path.  A checkpoint lands after every stitched branch and
    after every :data:`CHECKPOINT_INSNS` straight-line instructions;
    the final item gets none (the body's own exit already covers the
    full path).  ``cfa_flags`` (``Trace.cfa``) adds the modelled CFA
    hash-update cost at the flagged stitched transfers, keeping the
    cumulative table exact when recording is on.
    """
    cuts = [False] * len(items)
    costs = []
    eips = []
    cost = 0
    since = 0
    last = len(items) - 1
    for idx, item in enumerate(items):
        cost += BASE_CYCLES[item[2].opcode]
        if item[0] == "jmp" or (item[0] == "guard" and item[3]):
            cost += INSN_BRANCH_TAKEN
            if idx in cfa_flags:
                cost += CFA_EDGE_CYCLES
        since += 1
        if idx == last:
            break
        if item[0] != "insn" or since >= CHECKPOINT_INSNS:
            cuts[idx] = True
            costs.append(cost)
            eips.append(_boundary_eip(item))
            since = 0
    return cuts, tuple(costs), eips, cost


def _boundary_eip(item):
    """Where execution continues after ``item`` on the stitched path."""
    if item[0] == "guard":
        return item[4]
    if item[0] == "jmp":
        return item[3]
    return item[1] + item[2].length


def discover(memory, eip, min_insns=MIN_BLOCK_INSNS):
    """Discover the block starting at ``eip``.

    Always returns a :class:`Trace`; one with no items is a no-block
    marker (its ``spans`` still cover the bytes whose change would make
    the verdict stale, so the write snoop invalidates it).

    ``min_insns`` is the shortest run worth returning (shorter runs
    become markers).  The block tier uses :data:`MIN_BLOCK_INSNS`; the
    trace builder passes 1, because even a one-instruction segment is
    worth stitching when it extends a multi-block trace.
    """
    mpu = memory.mpu
    region = memory.map.try_find(eip, 1)
    marker_end = eip + 1
    items = []
    pc = eip
    if isinstance(region, RamRegion):
        if mpu is not None and mpu.decisions is not None:
            _, cell_hi, _ = mpu.decisions.cell_bounds(eip)
        else:
            cell_hi = _TOP
        limit = region.end
        while len(items) < MAX_BLOCK_INSNS:
            if pc >= limit:
                break
            window = limit - pc
            if window > _MAX_INSN_BYTES:
                window = _MAX_INSN_BYTES
            try:
                insn = decode(region.read(pc, window), 0, address=pc)
            except IllegalInstruction:
                break
            marker_end = pc + 1
            if insn.opcode not in TRANSLATABLE_OPS:
                break
            nxt = pc + insn.length
            if nxt >= cell_hi:
                # The sequential advance out of this instruction would
                # cross an entry-point rule boundary: that advance needs
                # a real transfer check, so it stays on the single-step
                # path.
                break
            if mpu is not None and not mpu.probe("execute", pc, 1, pc):
                break
            items.append(("insn", pc, insn))
            pc = nxt
    if len(items) < min_insns:
        return Trace(eip, (), False, None, ((eip, marker_end),))
    return Trace(eip, tuple(items), False, pc, ((eip, pc),))


class BlockCache:
    """Entry-EIP -> :class:`Trace`, snooped and epoch-flushed.

    Mirrors the decoded-instruction cache's invalidation contract:
    every bus write (checked or raw) drops the bodies whose ``spans``
    it overlaps (markers included), and marks them invalid so a body
    that is *currently executing* aborts at its next store.  The block
    engine keeps its blocks in one cache and the trace JIT its stitched
    traces in another; each also indexes its bodies' checkpoint
    boundaries for resumed dispatches.
    """

    def __init__(self, index, name="block"):
        self.entries = {}
        #: The :class:`~repro.perf.spans.SpanIndex` snooping the bytes.
        self.index = index
        #: Dispatch-miss visit counts (the hot-threshold heuristic);
        #: forgotten with the bodies on a wholesale flush.
        self.heat = {}
        #: EA-MPU rule-table epoch the cached blocks were built under
        #: (``None`` until the first sync; blocks survive exactly one
        #: epoch, like the decision cache's memoized verdicts).
        self.epoch = None
        #: Boundary EIP -> the cached body a resume may enter there.
        self.boundaries = {}
        self.stats = HitMissCounter(name)

    def __len__(self):
        return len(self.entries)

    def put(self, body):
        """Register ``body`` (or marker) for dispatch and snooping."""
        self.entries[body.start] = body
        self.index.add(self, body.start, body.spans)
        for eip in body.boundaries:
            self.boundaries.setdefault(eip, body)

    def drop(self, start):
        """Span-index callback: a write changed the body's bytes."""
        body = self.entries.pop(start)
        body.valid = False
        self.stats.invalidations += 1
        for eip in body.boundaries:
            if self.boundaries.get(eip) is body:
                del self.boundaries[eip]

    def flush(self):
        """Drop everything (EA-MPU epoch change), heat included: visits
        counted against the old bodies must not carry over."""
        for body in self.entries.values():
            body.valid = False
        self.entries.clear()
        self.heat.clear()
        self.boundaries.clear()
        self.index.discard(self)
        self.stats.invalidations += 1

    def note_miss(self, eip):
        """Count a dispatch miss; returns True once ``eip`` is hot."""
        heat = self.heat
        count = heat.get(eip, 0) + 1
        if count >= HOT_THRESHOLD:
            heat.pop(eip, None)
            return True
        if len(heat) >= HEAT_LIMIT:
            heat.clear()
        heat[eip] = count
        return False
