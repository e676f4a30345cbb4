"""Superblock discovery: hot straight-line runs of the instruction stream.

A *superblock* is a maximal straight-line run of translatable
instructions starting at a dispatch address (typically a branch target
or loop head).  Discovery terminates at:

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

All hoisted verdicts are valid for exactly one EA-MPU rule-table epoch;
the :class:`BlockCache` is flushed wholesale when the epoch moves, and
individual blocks are invalidated through the same
:class:`~repro.perf.spans.SpanIndex` the decoded-instruction cache
uses: a write (checked or raw) drops exactly the blocks whose
``[start, end)`` bytes it overlaps.  Addresses where discovery cannot
form a worthwhile block are remembered as *no-block markers* so
dispatch stays a single dict probe.
"""

from __future__ import annotations

from repro.errors import IllegalInstruction
from repro.hw.memory import RamRegion
from repro.isa.encoding import decode
from repro.isa.opcodes import BASE_CYCLES, CONDITIONAL_BRANCHES, LENGTHS, Op
from repro.obs.counters import HitMissCounter

#: Longest instruction encoding; discovery reads this many bytes.
_MAX_INSN_BYTES = max(LENGTHS.values())

#: One past the top of the 32-bit physical address space.
_TOP = 0x1_0000_0000

#: Upper bound on instructions per superblock (keeps the static cycle
#: cost small relative to realistic event horizons).
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

#: Opcodes that end a superblock (never included in one).
BLOCK_ENDERS = (
    frozenset(
        {Op.HLT, Op.CLI, Op.STI, Op.RET, Op.IRET, Op.JMP, Op.CALL, Op.INT, Op.DIV}
    )
    | CONDITIONAL_BRANCHES
)

#: Pure register/ALU opcodes translated to inline closure statements.
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

#: Everything a superblock may contain.
TRANSLATABLE_OPS = ALU_OPS | MEM_OPS


class SuperBlock:
    """One discovered straight-line run, translated or marker.

    ``insns`` is a tuple of ``(address, Instruction)`` pairs; an empty
    tuple marks an address where no worthwhile block exists (``run``
    stays ``None``).  ``cost`` is the exact simulated cycle total the
    block charges when no instruction takes a fault or fallback exit -
    and an upper bound in every case, which is what the event-horizon
    admission test relies on.
    """

    __slots__ = ("start", "end", "spans", "insns", "cost", "windows", "valid", "run", "source")

    def __init__(self, start, end, insns, cost):
        self.start = start
        self.end = end
        #: The bytes the verdict was built from, for the write snoop.
        self.spans = ((start, end),)
        self.insns = insns
        self.cost = cost
        #: Per-memory-instruction hoisted allow windows, filled lazily
        #: at run time: ``(lo, hi_minus_size, region)`` or ``None``.
        self.windows = []
        #: Cleared by the write snoop; checked by the running closure
        #: after every store so self-modifying code aborts the block.
        self.valid = True
        #: The compiled closure ``run(cpu, block)``: ``None`` until the
        #: block's first horizon-admitted dispatch compiles it, and
        #: always for a marker.
        self.run = None
        #: Generated Python source (debugging / obs).
        self.source = None

    def is_marker(self):
        """Whether this entry marks a no-block address."""
        return not self.insns

    def __repr__(self):
        return "SuperBlock(0x%X..0x%X, %d insns, %d cycles%s)" % (
            self.start,
            self.end,
            len(self.insns),
            self.cost,
            ", marker" if not self.insns else "",
        )


def discover(memory, eip, min_insns=MIN_BLOCK_INSNS):
    """Discover the superblock starting at ``eip``.

    Always returns a :class:`SuperBlock`; one with no instructions is a
    no-block marker (its ``end`` still spans the bytes whose change
    would make the verdict stale, so the write snoop invalidates it).

    ``min_insns`` is the shortest run worth returning (shorter runs
    become markers).  The block tier uses :data:`MIN_BLOCK_INSNS`; the
    trace builder passes 1, because even a one-instruction segment is
    worth stitching when it extends a multi-block trace.
    """
    mpu = memory.mpu
    region = memory.map.try_find(eip, 1)
    marker_end = eip + 1
    insns = []
    cost = 0
    pc = eip
    if isinstance(region, RamRegion):
        if mpu is not None and mpu.decisions is not None:
            _, cell_hi, _ = mpu.decisions.cell_bounds(eip)
        else:
            cell_hi = _TOP
        limit = region.end
        while len(insns) < MAX_BLOCK_INSNS:
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
            opcode = insn.opcode
            if opcode not in TRANSLATABLE_OPS:
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
            insns.append((pc, insn))
            cost += BASE_CYCLES[opcode]
            pc = nxt
    if len(insns) < min_insns:
        end = marker_end if marker_end > eip else eip + 1
        return SuperBlock(eip, end, (), 0)
    return SuperBlock(eip, pc, tuple(insns), cost)


class BlockCache:
    """Entry-EIP -> :class:`SuperBlock`, snooped and epoch-flushed.

    Mirrors the decoded-instruction cache's invalidation contract:
    every bus write (checked or raw) drops the blocks whose
    ``[start, end)`` bytes it overlaps (markers included), and marks
    them invalid so a block that is *currently executing* aborts at its
    next store.  The trace tier keeps its
    :class:`~repro.perf.traces.Trace` bodies in the
    :class:`~repro.perf.traces.TraceCache` subclass, snooped by their
    ``spans`` too.
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
        self.stats = HitMissCounter(name)

    def __len__(self):
        return len(self.entries)

    def put(self, body):
        """Register ``body`` (or marker) for dispatch and snooping."""
        self.entries[body.start] = body
        self.index.add(self, body.start, body.spans)

    def drop(self, start):
        """Span-index callback: a write changed the body's bytes."""
        self.entries.pop(start).valid = False
        self.stats.invalidations += 1

    def flush(self):
        """Drop everything (EA-MPU epoch change), heat included: visits
        counted against the old bodies must not carry over."""
        for body in self.entries.values():
            body.valid = False
        self.entries.clear()
        self.heat.clear()
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
