"""Trace-recording JIT: hot block-to-block paths compiled as one unit.

The block tier (PR 4) stops compiling at every branch, so block-to-block
dispatch and per-block entry/exit bookkeeping dominate loop-heavy
workloads.  This module adds the classic meta-tracing tier on top, and
holds the JIT's one code generator (:func:`generate_trace`) and its
admission logic (:class:`TraceJIT`): a block is compiled and admitted
as a linear trace whose items are all straight-line instructions.

* the :class:`TraceJIT` counts **edges** in its :class:`EdgeProfile`:
  a compiled body's exit address paired with the next dispatch at
  another address, which is where the instruction single-stepped at
  the exit went (a branch target, or the next instruction after a
  horizon cut), and a task's ``int`` paired with the point its syscall
  returns to.  A kernel context restore closes no edge (see
  :class:`~repro.perf.translate.BlockEngine`);
* when an edge gets hot, :func:`build_trace` stitches a
  *trace* starting at the edge target: straight-line segments (reusing
  :func:`repro.perf.blocks.discover`) joined across conditional
  branches in their observed-hot direction, each protected by a
  **guard**; a trace whose stitched path returns to its own head is a
  *looping trace* and compiles to a counted ``while`` loop;
* the whole trace compiles to one Python function (emitted by
  :class:`_TraceEmitter`) that keeps the CPU registers in **Python
  locals**, folds chains of register operations symbolically (six
  ``subi edi, 1`` become one ``r7 = (r7 - 6) & 0xFFFFFFFF``) and
  computes each value once - a write never reassigns a local that a
  pending chain still reads, but takes a fresh one (``r3_1``) that the
  loop bottom binds back to ``r3`` (:class:`_FoldEmitter`) - elides dead flag
  computation and defers EFLAGS a body reads only on its way out to
  the exits that write them back, performs translated
  loads/stores as **direct slab indexing** (:class:`repro.hw.memory`'s
  ``memoryview`` word views) inside hoisted EA-MPU allow windows -
  checked once per dispatch for a loop-invariant address - and charges
  cycles in one batch per trace segment;
* counted loops proven by :func:`repro.analysis.constprop.counted_loop_counter`
  get a second, *specialized* loop body with the guard and every dead
  flag update removed - the unrolled fast path for the first
  ``counter - 1`` iterations.

Guard semantics (the correctness core): a guard tests the recorded
branch direction against the live EFLAGS.  On mismatch the trace takes
a **side exit**: it writes back every register, EFLAGS, the retired
count, and the batched cycles, sets EIP to the *branch address itself*,
and returns - the branch has not executed, so the interpreter (or the
block tier) re-executes it with full transfer checks, hooks, and fault
semantics.  The architectural state at a side exit is therefore
bit-identical to single-stepping up to that branch, by construction.

Event-horizon admission is *granular*: a linear body (block or trace)
whose whole cycle cost fits before the horizon runs in full; a looping
trace computes how many whole iterations fit (``(horizon - now) //
iter_cost``) and runs at most that many, exiting at the loop head.
What does **not** fit whole falls to the *segment body*: every body
also carries a checkpoint table (a cut after each stitched branch and
every :data:`~repro.perf.blocks.CHECKPOINT_INSNS` straight-line
instructions, with its exact cumulative cost and boundary EIP) and a
third compiled function that enters the straight path at one
checkpoint boundary and runs exactly the largest checkpoint segment
from there fitting the remaining budget, writing back registers,
EFLAGS, the exact cycle/retire charge, and the boundary EIP -
bit-identical to single-stepping the same instructions.  A horizon
prefix is the segment entered at the head.  Interrupt delivery
therefore lands on exactly the same instruction boundary as
single-stepping, while the 400-cycle-tick tail that used to
single-step now runs at compiled speed.  The same body serves a task
*resumed* mid-body after an interrupt: the engine re-enters the cached
trace or block at the checkpoint boundary the task resumes at (or
single-steps to within at most ``CHECKPOINT_INSNS - 1``
instructions), instead of compiling a block at the resume point.

Invalidation mirrors the block cache: the shared
:class:`~repro.perf.spans.SpanIndex` drops a trace when a write
(checked or raw) overlaps the exact bytes of one of its stitched
instructions, and the cache is flushed wholesale when the EA-MPU
rule-table epoch moves.  A store issued from *inside* a running trace
that lands in a snooped page (``memory.snooped_pages``, the
page-granular filter over every cached span) takes the broadcast
``write_raw`` path and aborts the trace at the next instruction
boundary when the trace invalidated itself (self-modifying code); a
store that only shares the page with trace code leaves it cached.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from hashlib import blake2b

from repro.analysis.constprop import _FLAG_WRITERS, counted_loop_counter
from repro.errors import IllegalInstruction
from repro.hw.memory import RamRegion
from repro.isa.encoding import decode
from repro.isa.opcodes import BASE_CYCLES, CONDITIONAL_BRANCHES, LENGTHS, Op
from repro.cycles import CFA_EDGE_CYCLES, INSN_BRANCH_TAKEN
from repro.perf.blocks import (
    ALU_OPS,
    MEM_OPS,
    BlockCache,
    Trace,
    _boundary_eip,
    _checkpoint_plan,
    discover,
)
from repro.perf.counters import TraceCounters

_M = 0xFFFFFFFF
_SIGN = 0x80000000
#: EFLAGS with the four ALU result flags (CF|ZF|SF|OF) cleared.
_FLAG_KEEP = 0xFFFFF73E

_MAX_INSN_BYTES = max(LENGTHS.values())

#: Edge visit count before the target is considered a trace head.
TRACE_HOT_EDGE = 8

#: Bound on the edge-profile table (cleared wholesale when exceeded).
EDGE_TABLE_LIMIT = 4096

#: Caps on trace size (segments stitched / total instructions).
MAX_TRACE_BLOCKS = 8
MAX_TRACE_INSNS = 192

#: Traces shorter than this are not worth the dispatch overhead.
MIN_TRACE_INSNS = 3

#: Iterations a looping trace may run per dispatch with no event
#: horizon (bench rigs without timers; bounds single-step latency).
DEFAULT_LOOP_ITERS = 16_384

#: Hard per-dispatch iteration cap even under a distant horizon.
MAX_LOOP_ITERS = 65_536

#: Branch opcodes a trace may stitch through.
_STITCHABLE = CONDITIONAL_BRANCHES | {Op.JMP}

#: opcode -> expression over the local ``fl`` that is truthy exactly
#: when the branch is taken (mirrors ``repro.hw.cpu._CONDITIONS``;
#: CF=bit0, ZF=bit6, SF=bit7, OF=bit11).
_COND_EXPR = {
    Op.JZ: "fl & 64",
    Op.JNZ: "not fl & 64",
    Op.JC: "fl & 1",
    Op.JNC: "not fl & 1",
    Op.JS: "fl & 128",
    Op.JNS: "not fl & 128",
    Op.JG: "not fl & 64 and not (fl >> 7 ^ fl >> 11) & 1",
    Op.JL: "(fl >> 7 ^ fl >> 11) & 1",
    Op.JGE: "not (fl >> 7 ^ fl >> 11) & 1",
    Op.JLE: "fl & 64 or (fl >> 7 ^ fl >> 11) & 1",
}


class EdgeProfile:
    """Edge counts: the trace-head heuristic.

    ``edges[source][target] = count``: ``source`` is a compiled body's
    exit address or a syscall's ``int``, and ``target`` the next
    dispatch address past it (:class:`TraceJIT`).  An edge that reaches
    :data:`TRACE_HOT_EDGE` heads a trace at its target.  The same table
    feeds the trace builder's direction choice at each stitched
    conditional (hot direction inlined, cold direction guarded out).
    """

    def __init__(self):
        self.edges = {}

    def note(self, source, target):
        """Count one traversal; returns True when the edge just got hot."""
        edges = self.edges
        bucket = edges.get(source)
        if bucket is None:
            if len(edges) >= EDGE_TABLE_LIMIT:
                edges.clear()
            bucket = edges[source] = {}
        count = bucket.get(target, 0) + 1
        bucket[target] = count
        return count >= TRACE_HOT_EDGE

    def flush(self):
        """Forget all counts (trace-cache flush keeps profiles fresh)."""
        self.edges.clear()


def _decode_at(memory, pc):
    """Decode the instruction at ``pc`` from RAM, or ``None``."""
    region = memory.map.try_find(pc, 1)
    if not isinstance(region, RamRegion):
        return None
    window = region.end - pc
    if window <= 0:
        return None
    if window > _MAX_INSN_BYTES:
        window = _MAX_INSN_BYTES
    try:
        return decode(region.read(pc, window), 0, address=pc)
    except IllegalInstruction:
        return None


def build_trace(memory, head, profile, cfa=None):
    """Stitch the hot path starting at ``head``; returns Trace or None.

    Every hoisted verdict consulted here (execute probes inside
    :func:`~repro.perf.blocks.discover`, transfer proofs via
    ``decisions.lookup_transfer``) is valid for exactly the current
    EA-MPU epoch; the cache holding the result is flushed when the
    epoch moves, which is what makes building-time hoisting sound.

    ``cfa`` is the CPU's CFA monitor port (or ``None``): stitched taken
    transfers it covers are flagged on ``trace.cfa`` so codegen emits
    the matching hash updates, and their modelled cost joins the static
    cycle totals.  The flags are valid for exactly one CFA enrolment
    generation, enforced the same way as the MPU epoch (cache flush on
    generation change in the block engine's dispatch).
    """
    mpu = memory.mpu
    decisions = mpu.decisions if mpu is not None else None
    edges = profile.edges
    items = []
    pc = head
    seen = set()
    looping = False
    exit_eip = None
    total = 0
    segments = 0
    while True:
        if pc in seen:
            exit_eip = pc  # inner cycle not through the head: stop here
            break
        seen.add(pc)
        segment = discover(memory, pc, min_insns=1)
        end = pc if segment.is_marker() else segment.exit_eip
        items.extend(segment.items)
        total += len(segment.items)
        segments += 1
        if total > MAX_TRACE_INSNS or segments > MAX_TRACE_BLOCKS:
            exit_eip = end
            break
        ender = _decode_at(memory, end)
        if ender is None or ender.opcode not in _STITCHABLE:
            exit_eip = end
            break
        if mpu is not None and not mpu.probe("execute", end, 1, end):
            exit_eip = end
            break
        if ender.opcode is Op.JMP:
            target = ender.imm
            if decisions is None or not decisions.lookup_transfer(end, target):
                exit_eip = end
                break
            items.append(("jmp", end, ender, target))
            total += 1
            if target == head:
                looping = True
                break
            pc = target
            continue
        taken = ender.imm
        fallthrough = end + ender.length
        bucket = edges.get(end) or {}
        chosen_taken = bucket.get(taken, 0) >= bucket.get(fallthrough, 0)
        chosen = taken if chosen_taken else fallthrough
        if decisions is None or not decisions.lookup_transfer(end, chosen):
            exit_eip = end
            break
        items.append(("guard", end, ender, chosen_taken, chosen))
        total += 1
        if chosen == head:
            looping = True
            break
        pc = chosen
    if total < MIN_TRACE_INSNS:
        return None
    if not any(item[0] != "insn" for item in items):
        return None  # a single unstitched segment is the block tier's job
    flagged = set()
    if cfa is not None:
        for idx, item in enumerate(items):
            if item[0] == "jmp":
                if cfa.covers(item[1], item[3]):
                    flagged.add(idx)
            elif item[0] == "guard" and item[3]:
                if cfa.covers(item[1], item[4]):
                    flagged.add(idx)
    trace = Trace(
        head,
        tuple(items),
        looping,
        None if looping else exit_eip,
        tuple((item[1], item[1] + item[2].length) for item in items),
        frozenset(flagged),
    )
    if looping and items[-1][0] == "guard" and items[-1][3]:
        body = items[:-1]
        if all(item[0] == "insn" for item in body):
            trace.counter_reg = counted_loop_counter(
                [(address, insn) for _, address, insn in body],
                items[-1][2].opcode,
            )
    return trace


# -- trace code generation: symbolic register-chain folding ----------------


class _Source:
    """Tiny indented-source builder (block and trace codegen)."""

    def __init__(self):
        self.lines = []

    def emit(self, indent, text):
        self.lines.append("    " * indent + text)

    def source(self):
        return "\n".join(self.lines) + "\n"


#: Operator of a chain op by tag, and of a constant logic fold.
_SYMBOL = {"shl": "<<", "shr": ">>", "mul": "*", "and": "&", "or": "|", "xor": "^"}
_LOGIC_FN = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}


class _FoldEmitter:
    """Emits register values held in Python locals, folding flag-dead ops.

    Each GPR's value lives in its *home* local, ``r0``..``r7`` on entry.
    Flag-dead register operations do not emit statements immediately:
    they accumulate *symbolically* as a base (the home, a known
    constant, or the local a ``mov`` copied) plus a chain of pending
    ops, and adjacent ops fold (``subi edi,1`` six times renders as one
    ``r7 = (r7 - 6) & 4294967295``).  Pending text stays valid because
    no local it reads is ever reassigned: every write of a register's
    value goes to the local :meth:`target` picks - the register's home
    when no pending chain, copy or text the caller still holds reads
    it, otherwise a fresh local (``r3_1``, ``r3_2``, ...) that becomes
    the register's home for the rest of the body.  So no emit site has
    to order its writes against the chains it might invalidate.

    A chain materializes into a single assignment only when forced:

    * a second consumer takes the value - a ``mov``, another chain's
      operand, a store value or an address (:meth:`value_expr`): the
      register itself is the first, so the chain is spilled once into
      its home and every consumer reads that, instead of rendering the
      same expression twice in one iteration;
    * a flag-live computation on the register (its chain becomes the
      computation's operand);
    * the chain is full (:attr:`CHAIN_LIMIT` pending ops);
    * a boundary (:meth:`rebind`): the loop bottom restores the loop-top
      assumption, every register in its canonical local ``rK``, and so
      does each segment checkpoint, where a resumed dispatch may enter;
    * an exit writeback - which *peeks* (renders without resetting), so
      the main line keeps folding across guard side exits.

    Truncation to 32 bits commutes with ``+ - * & | ^ <<`` and with
    ``& 31`` shift amounts, so intermediate values may run dirty
    (negative / over-wide); the emitter tracks cleanliness and masks
    only where required - before a ``>>`` and at materialization.
    """

    CHAIN_LIMIT = 6  # pending ops per register before forced spill

    def __init__(self, out, indent):
        self.out = out
        self.indent = indent
        self.home = ["r%d" % i for i in range(8)]
        self.fresh = [0] * 8  # fresh homes handed out, per register
        # base[i]: None = the home holds the value; int = known constant;
        # str = the value the named local holds (a ``mov`` copy).
        self.base = [None] * 8
        self.ops = [[] for _ in range(8)]

    def emit(self, text):
        self.out.emit(self.indent, text)

    # -- rendering ---------------------------------------------------

    def render(self, j):
        """Peek ``j``'s current value: ``(expr, deps, clean)``.

        ``deps`` is the set of locals the text references; ``clean``
        says the value is already in ``[0, 2^32)``.
        """
        base = self.base[j]
        if isinstance(base, int):
            expr, deps = str(base), set()
        else:
            expr = self.home[j] if base is None else base
            deps = {expr}
        clean = True
        for op in self.ops[j]:
            tag = op[0]
            if tag == "add":
                parts = [expr]
                for sign, term, tdeps in op[1]:
                    parts.append("+" if sign > 0 else "-")
                    parts.append(term)
                    deps |= tdeps
                const = op[2]
                if const:
                    parts.append("+" if const > 0 else "-")
                    parts.append(str(abs(const)))
                expr = "(%s)" % " ".join(parts)
                clean = False
            elif tag == "neg":
                expr = "(-%s)" % expr
                clean = False
            else:  # shl / shr / mul / and / or / xor, with a clean operand
                operand, odeps = (str(op[1]), set()) if len(op) == 2 else op[1:]
                if tag == "shr" and not clean:
                    expr = "(%s & 4294967295)" % expr
                expr = "(%s %s %s)" % (expr, _SYMBOL[tag], operand)
                deps |= odeps
                if tag in ("shl", "mul"):
                    clean = False
                elif tag in ("shr", "and"):
                    clean = True  # shifted in zeros / masked by a clean operand
        return expr, deps, clean

    def render_clean(self, j):
        # Parenthesized: callers embed this text inside higher-precedence
        # contexts (``>>``, ``*``), where a bare ``expr & 4294967295``
        # would rebind - e.g. ``X & 4294967295 >> 24`` masks by 255.
        expr, _, clean = self.render(j)
        return expr if clean else "(%s & 4294967295)" % expr

    def _pending(self, j):
        return self.base[j] is not None or bool(self.ops[j])

    # -- writes --------------------------------------------------------

    def target(self, j, held=()):
        """The local to write ``j``'s next value to.

        That is ``j``'s home, unless another register's pending chain or
        copy, or ``held`` (the locals of text the caller emits after the
        write), reads the home: then a fresh local.  ``j``'s own pending
        value does not count - the write replaces it.  The caller emits
        the write, then :meth:`settle` makes the local ``j``'s value.
        """
        home = self.home[j]
        if home in held or any(
            i != j and self._pending(i) and home in self.render(i)[1] for i in range(8)
        ):
            self.fresh[j] += 1
            home = "r%d_%d" % (j, self.fresh[j])
        return home

    def settle(self, j, local):
        """``j``'s value is now in ``local``, its home from here on."""
        self.home[j] = local
        self.base[j] = None
        self.ops[j] = []

    def assign(self, j, text, held=()):
        """Emit ``j``'s new value ``text`` into :meth:`target`'s local."""
        local = self.target(j, held)
        self.emit("%s = %s" % (local, text))
        self.settle(j, local)

    def materialize(self, j, held=()):
        """Spill ``j``'s pending value into a local (see :meth:`target`)."""
        if self._pending(j):
            self.assign(j, self.render_clean(j), held)

    def rebind(self):
        """Bind every register's value to its canonical local ``rK``.

        One statement per register, in register order; a tuple
        assignment instead when a value reads another target, which the
        tuple reads before any target is rebound.
        """
        group = [j for j in range(8) if self.render(j)[0] != "r%d" % j]
        targets = ["r%d" % j for j in group]
        values = [self.render_clean(j) for j in group]
        if any(t in self.render(j)[1] for j in group for t in targets if t != "r%d" % j):
            self.emit("%s = %s" % (", ".join(targets), ", ".join(values)))
        else:
            for target, value in zip(targets, values):
                self.emit("%s = %s" % (target, value))
        for j in range(8):
            self.settle(j, "r%d" % j)

    def value_expr(self, j):
        """``j``'s value as an operand: ``(text, deps)``, always clean.

        A constant is its literal, and a register in its home (or a copy)
        that local's name.  A pending chain is spilled into a local first,
        so the value is computed once however many consumers read it.
        """
        if self.ops[j]:
            self.materialize(j)
        base = self.base[j]
        if isinstance(base, int):
            return str(base), set()
        text = self.home[j] if base is None else base
        return text, {text}

    def operand(self, j):
        """Flag-dead operand: const int, or ``(expr, deps)``."""
        expr, deps = self.value_expr(j)
        return (expr, deps) if deps else int(expr)

    # -- op application (flag-dead folding) --------------------------

    def _push(self, x, op, held=()):
        """Append ``op`` (whose operand reads ``held``) to ``x``'s chain,
        spilling the chain first when it is full."""
        if len(self.ops[x]) >= self.CHAIN_LIMIT:
            self.materialize(x, held)
        self.ops[x].append(op)

    def apply_add(self, x, sign, operand):
        """``operand`` is an unsigned const int or ``(expr, deps)``."""
        ops = self.ops[x]
        if isinstance(operand, int):
            delta = operand & _M
            if delta >= _SIGN:
                delta -= _M + 1
            if sign < 0:
                delta = -delta
            if delta == 0:
                return
            base = self.base[x]
            if not ops and isinstance(base, int):
                self.base[x] = (base + delta) & _M
                return
            if ops and ops[-1][0] == "add":
                merged = ops[-1][2] + delta
                if not merged and not ops[-1][1]:
                    # balanced const adds (push/pop pairs) cancel whole
                    ops.pop()
                else:
                    ops[-1] = ("add", ops[-1][1], merged)
                return
            self._push(x, ("add", [], delta))
            return
        expr, deps = operand
        if ops and ops[-1][0] == "add":
            ops[-1][1].append((sign, expr, deps))
            return
        self._push(x, ("add", [(sign, expr, deps)], 0), deps)

    def apply_logic(self, x, tag, operand):
        """``tag`` in and/or/xor; const int or ``(expr, deps)``."""
        ops = self.ops[x]
        if isinstance(operand, int):
            v = operand & _M
            base = self.base[x]
            if not ops and isinstance(base, int):
                self.base[x] = _LOGIC_FN[tag](base, v)
                return
            if ops and ops[-1][0] == tag and len(ops[-1]) == 2:
                merged = _LOGIC_FN[tag](ops[-1][1], v)
                if tag != "and" and merged == 0:
                    # ``xor 0`` / ``or 0`` is a no-op (paired ``xori``s
                    # cancel); ``and`` keeps even an all-ones mask - it
                    # doubles as the cleanliness bound on dirty values.
                    ops.pop()
                else:
                    ops[-1] = (tag, merged)
                return
            if tag != "and" and v == 0:
                return
            self._push(x, (tag, v))
            return
        expr, deps = operand
        self._push(x, (tag, expr, deps), deps)

    def apply_shift(self, x, tag, amount):
        """``amount`` is a raw const int or ``(expr, deps)`` (& 31 added)."""
        ops = self.ops[x]
        if isinstance(amount, int):
            amount &= 31
            if amount == 0:
                return  # value unchanged mod 2^32
            base = self.base[x]
            if not ops and isinstance(base, int):
                if tag == "shl":
                    self.base[x] = (base << amount) & _M
                else:
                    self.base[x] = base >> amount
                return
            if ops and ops[-1][0] == tag and len(ops[-1]) == 2:
                ops[-1] = (tag, ops[-1][1] + amount)
                return
            self._push(x, (tag, amount))
            return
        expr, deps = amount
        self._push(x, (tag, "(%s & 31)" % expr, deps), deps)

    def apply_mul(self, x, operand):
        ops = self.ops[x]
        if isinstance(operand, int):
            v = operand & _M
            base = self.base[x]
            if not ops and isinstance(base, int):
                self.base[x] = (base * v) & _M
                return
            if ops and ops[-1][0] == "mul" and len(ops[-1]) == 2:
                ops[-1] = ("mul", (ops[-1][1] * v) & _M)
                return
            self._push(x, ("mul", v))
            return
        expr, deps = operand
        self._push(x, ("mul", expr, deps), deps)

    def apply_neg(self, x):
        ops = self.ops[x]
        base = self.base[x]
        if not ops and isinstance(base, int):
            self.base[x] = (-base) & _M
            return
        if ops and ops[-1][0] == "neg":
            ops.pop()  # double negation cancels exactly (mod 2^32)
            return
        self._push(x, ("neg",))

    def set_const(self, x, value):
        self.base[x] = value & _M
        self.ops[x] = []

    def set_copy(self, x, y):
        """``mov x, y``: adopt ``y``'s current value as ``x``'s new base.

        ``x``'s old value is dropped first, so a chain it no longer
        needs does not count as a reader of ``y``'s home."""
        self.settle(x, self.home[x])
        expr, deps = self.value_expr(y)
        self.base[x] = expr if deps else int(expr)


_ESP = 4  # Reg.ESP

#: Opcodes reading their ``reg2`` operand.
_TWO_REG = frozenset(
    {Op.MOV, Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.CMP, Op.SHL,
     Op.SHR, Op.MUL, Op.LD, Op.LDB, Op.LDH, Op.ST, Op.STB, Op.STH}
)

#: Opcodes writing their ``reg`` operand.
_REG_WRITES = frozenset(
    {Op.MOV, Op.MOVI, Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL,
     Op.SHR, Op.MUL, Op.ADDI, Op.SUBI, Op.ANDI, Op.ORI, Op.XORI,
     Op.SHLI, Op.SHRI, Op.NOT, Op.NEG, Op.LD, Op.LDB, Op.LDH, Op.POP}
)

#: Flag-writing arithmetic by deferred-EFLAGS helper family (``f<family>``
#: in :func:`_trace_namespace`); every other flag writer is ``flogic``.
_ARITH_FAMILY = {
    Op.ADD: "add", Op.ADDI: "add",
    Op.SUB: "sub", Op.SUBI: "sub", Op.CMP: "sub", Op.CMPI: "sub", Op.NEG: "sub",
    Op.MUL: "mul",
}

_LOAD_SITES = frozenset({Op.LD, Op.LDB, Op.LDH, Op.POP})
_STORE_SITES = frozenset({Op.ST, Op.STB, Op.STH, Op.PUSH, Op.PUSHI})

#: Access width by memory-site opcode (stack ops are word-sized).
_SITE_WIDTH = {
    Op.LD: 4, Op.ST: 4, Op.LDH: 2, Op.STH: 2, Op.LDB: 1, Op.STB: 1,
    Op.POP: 4, Op.PUSH: 4, Op.PUSHI: 4,
}

#: width -> (alignment mask, index shift) for slab-view indexing.
_ALIGN_SHIFT = {4: (3, 2), 2: (1, 1), 1: (0, 0)}

#: width -> store-value truncation mask (sub-word stores only).
_SIZE_MASKS = {1: 0xFF, 2: 0xFFFF}

#: Sentinel "window" whose bounds test always fails (``lo=1 > hi=0``),
#: so hoisted per-site window locals need no per-access ``None`` check.
_NO_WINDOW = (1, 0, None, 0, None, 0)

#: Generated-source -> code-object memo entries per block engine
#: (cleared wholesale when exceeded).
CODE_CACHE_LIMIT = 512

_WIDTHS = (4, 2, 1)


def _steady_plan(items):
    """Loop-invariant EA descriptors for a loop body's memory sites.

    Returns one entry per memory site, in site order: a ``(base_reg,
    offset)`` pair when the site's effective address every iteration
    is ``(r[base_reg]_at_loop_entry + offset) & 2^32-1``, ``None`` when
    it may vary.  A site is invariant when

    * it is a ``[base+disp]`` site and nothing in the body writes
      ``base``; or
    * it is a ``push``/``pop`` (or ``[esp+disp]``) site, and ESP is
      moved only by the body's own pushes and pops, with zero net
      movement over one iteration - each site's offset is the static
      ESP displacement at that point.

    Same deliberately conservative style as ``counted_loop_counter``:
    a proof, not a heuristic (a ``movi`` rebasing a pointer mid-body,
    ``pop esp``, or unbalanced stack traffic make the affected sites
    ``None``).

    :func:`generate_trace` checks an invariant site's window, alignment
    and (stores) snoop page once per dispatch, in the body's prologue,
    and inside the loop the access is a plain ``m<k>[i<k>]`` slab read
    or write.  The counted-loop fast body needs every site invariant and
    returns ``False`` when any check fails; the general looping body
    binds the sentinel index ``-1`` to a failing site, whose accesses
    then take the checked path and re-derive the index after its slow
    path installs a window.  One check per dispatch covers every
    iteration because, within one dispatch:

    * the EA is fixed, by the rule above;
    * the site's window ``tr.windows[k]`` changes only in that site's
      own slow path, which re-derives the index;
    * ``memory.snooped_pages`` only grows, and only when a body or an
      instruction is cached, which happens between dispatches: a page
      the prologue found unsnooped stays unsnooped, so the store can
      invalidate no cached code and needs no broadcast;
    * every MMIO slow path leaves the body, so whatever a device access
      changes is first seen by the next dispatch, whose prologue checks
      again.
    """
    written = set()
    moved = 0
    for item in items:
        insn = item[2]
        opcode = insn.opcode
        if opcode in _REG_WRITES:
            written.add(insn.reg)
        if opcode in (Op.PUSH, Op.PUSHI):
            moved -= 4
        elif opcode is Op.POP:
            moved += 4
    esp_steady = _ESP not in written and not moved
    plan = []
    off = 0
    for item in items:
        insn = item[2]
        opcode = insn.opcode
        if opcode in (Op.PUSH, Op.PUSHI):
            off -= 4
            plan.append((_ESP, off) if esp_steady else None)
        elif opcode is Op.POP:
            plan.append((_ESP, off) if esp_steady else None)
            off += 4
        elif opcode in _LOAD_SITES or opcode in _STORE_SITES:
            base = insn.reg2
            if base == _ESP:
                plan.append((_ESP, off + insn.imm) if esp_steady else None)
            elif base in written:
                plan.append(None)
            else:
                plan.append((base, insn.imm))
    return plan


def _reg_usage(items):
    """``(used, written)`` register sets over the trace body."""
    used = set()
    written = set()
    for item in items:
        if item[0] != "insn":
            continue
        insn = item[2]
        opcode = insn.opcode
        if opcode is Op.NOP:
            continue
        if opcode in (Op.PUSH, Op.PUSHI, Op.POP):
            used.add(_ESP)
            written.add(_ESP)
        if opcode is Op.PUSHI:
            continue
        used.add(insn.reg)
        if opcode in _TWO_REG:
            used.add(insn.reg2)
        if opcode in _REG_WRITES:
            written.add(insn.reg)
    return used | written, written


#: :func:`_flag_needs` verdicts: how a flag-writing item keeps EFLAGS.
_FLAGS_DEAD, _FLAGS_INLINE, _FLAGS_DEFERRED = 0, 1, 2


def _flag_needs(items, cuts=None, looping=False):
    """How each flag-writing item keeps EFLAGS (``_FLAGS_*`` per item).

    A backward scan from the body's end: the last flag writer before an
    observation point is observed, every earlier one is dead.  A guard
    branches on ``fl``, and a segment checkpoint (``cuts``, segment
    bodies only) writes EFLAGS back at a boundary a resumed dispatch
    may enter with only ``regs.eflags`` to go on, so the last writer
    before either computes ``fl`` inline (``_FLAGS_INLINE``).  A memory
    op's slow path and self-modification abort read EFLAGS only on the
    way out: a writer observed by nothing else keeps just its operands,
    and those exits materialize the flags from them
    (``_FLAGS_DEFERRED``).  So does a looping body's final writeback,
    which runs once per dispatch, not once per iteration; a linear
    body's runs on every pass, where computing ``fl`` inline is cheaper
    than a helper call.

    In a ``looping`` body the last writer of an iteration also reaches,
    across the back edge, every exit before the next iteration's first
    writer; its operands would have to survive the back edge, so it
    stays inline when such an exit exists (a closing guard already
    makes it inline).
    """
    needs = [_FLAGS_DEAD] * len(items)
    seen = _FLAGS_DEFERRED if looping else _FLAGS_INLINE  # the final writeback
    last = None
    for idx in range(len(items) - 1, -1, -1):
        if cuts is not None and cuts[idx]:
            seen = _FLAGS_INLINE
        kind = items[idx][0]
        if kind == "guard":
            seen = _FLAGS_INLINE
        elif kind == "insn":
            opcode = items[idx][2].opcode
            if opcode in MEM_OPS:
                seen = seen or _FLAGS_DEFERRED
            elif opcode in _FLAG_WRITERS:
                needs[idx] = seen
                seen = _FLAGS_DEAD
                if last is None:
                    last = idx
    if looping and seen and last is not None:
        needs[last] = _FLAGS_INLINE
    return needs


# -- deferred EFLAGS ---------------------------------------------------------
#
# One helper per flag family: the EFLAGS a deferred writer leaves,
# recomputed at an exit from the operands it kept, exactly as the
# interpreter's ``_alu_*`` handlers set them; ``fl`` supplies every
# other bit.


def _flags_add(fl, a, b):
    raw = a + b
    res = raw & _M
    fl &= _FLAG_KEEP
    if raw > _M:
        fl |= 1
    if res == 0:
        fl |= 64
    if res & _SIGN:
        fl |= 128
    if not (a ^ b) & _SIGN and (a ^ res) & _SIGN:
        fl |= 2048
    return fl


def _flags_sub(fl, a, b):
    raw = a - b
    res = raw & _M
    fl &= _FLAG_KEEP
    if raw < 0:
        fl |= 1
    if res == 0:
        fl |= 64
    if res & _SIGN:
        fl |= 128
    if (a ^ b) & _SIGN and (a ^ res) & _SIGN:
        fl |= 2048
    return fl


def _flags_mul(fl, a, b):
    raw = a * b
    res = raw & _M
    fl &= _FLAG_KEEP
    if raw > _M:
        fl |= 2049  # CF and OF together
    if res == 0:
        fl |= 64
    if res & _SIGN:
        fl |= 128
    return fl


def _flags_logic(fl, res):
    fl &= _FLAG_KEEP  # logic clears CF and OF
    if res == 0:
        fl |= 64
    if res & _SIGN:
        fl |= 128
    return fl


#: Flag-dead fold by opcode: the fold emitter's op (``+``/``-`` add).
_FOLD_TAG = {
    Op.ADD: "+", Op.ADDI: "+", Op.SUB: "-", Op.SUBI: "-",
    Op.AND: "and", Op.ANDI: "and", Op.OR: "or", Op.ORI: "or",
    Op.XOR: "xor", Op.XORI: "xor", Op.SHL: "shl", Op.SHLI: "shl",
    Op.SHR: "shr", Op.SHRI: "shr", Op.MUL: "mul",
}

#: Flag-live logic result by fold tag, over ``(a, b)`` operand texts.
_LOGIC_TEXT = {
    "and": "%s & %s", "or": "%s | %s", "xor": "%s ^ %s",
    "shl": "(%s << %s) & 4294967295", "shr": "%s >> %s",
}


#: Memory item kind by opcode (:class:`_TraceEmitter` method names).
_MEM_KIND = {
    Op.LD: "load", Op.LDH: "load", Op.LDB: "load", Op.POP: "pop",
    Op.ST: "store", Op.STH: "store", Op.STB: "store", Op.PUSH: "push", Op.PUSHI: "push",
}


def _negated(count):
    return "-" + count if count.isdigit() else "-(%s)" % count


def _aligned(cond, width, ea):
    """``cond`` and, for a multi-byte access, ``ea``'s alignment test."""
    mask = _ALIGN_SHIFT[width][0]
    return cond + " and not %s & %d" % (ea, mask) if mask else cond


def _index(base, width, ea):
    """Slab-view index of ``ea`` in a window whose view starts at ``base``."""
    shift = _ALIGN_SHIFT[width][1]
    return "(%s >> %d) - %s" % (ea, shift, base) if shift else "%s - %s" % (ea, base)


def _counter_lone(items, counter):
    """Whether ``counter`` is touched by nothing but its own ``subi
    counter, 1`` (the common dedicated-counter loop).  Then even the
    per-iteration decrement is dead inside the fast body: no other item
    observes the intermediate values, so the whole countdown is applied
    closed-form (``r -= n``) after the loop."""
    for item in items:
        insn = item[2]
        if item[0] != "insn" or insn.opcode in (Op.PUSHI, Op.NOP):
            continue
        if insn.reg == counter and not (insn.opcode is Op.SUBI and insn.imm == 1):
            return False
        if insn.opcode in _TWO_REG and insn.reg2 == counter:
            return False
    return True


class _TraceEmitter:
    """Emits one body of a trace (see :func:`generate_trace`).

    The constructor fixes the body's shape: its registers, which flag
    writers something observes (:func:`_flag_needs`) and which memory
    sites are loop-invariant (:func:`_steady_plan`).  :meth:`prologue`,
    one method per item kind and :meth:`finish` then append to ``out``,
    with the register values in the fold emitter ``em``.  While items
    are emitted, ``K``/``C`` count the instructions retired and cycles
    accrued before the current item in one iteration, ``KL``/``KS`` the
    load and store sites passed so far (by width), and ``k`` is the next
    memory site (window slot).  ``flags_now`` is the EFLAGS an exit
    writes back: ``fl`` itself, or the helper call that materializes
    them from the last deferred writer's operands.
    """

    def __init__(self, trace, fast, segment):
        self.trace = trace
        self.fast = fast
        self.segment = segment
        self.items = items = trace.items[:-1] if fast else trace.items
        self.looping = trace.looping and not segment  # the segment body is linear
        self.used, self.written = _reg_usage(items)
        #: Register locals the body never reassigns.
        self.fixed = {"r%d" % j for j in range(8) if j not in self.written}
        self.cuts = _checkpoint_plan(items)[0] if segment else None
        if fast:
            self.needs = [_FLAGS_DEAD] * len(items)
        else:
            self.needs = _flag_needs(items, self.cuts, self.looping)
        self.load_n = {1: 0, 2: 0, 4: 0}
        self.store_n = {1: 0, 2: 0, 4: 0}
        self.site_meta = []  # (width, is_store) per memory site, in site order
        for item in items:
            width = _SITE_WIDTH.get(item[2].opcode)
            if width is not None:
                is_store = item[2].opcode in _STORE_SITES
                (self.store_n if is_store else self.load_n)[width] += 1
                self.site_meta.append((width, is_store))
        #: A looping body's loop-invariant memory sites (:func:`_steady_plan`)
        #: are checked once per dispatch, in the prologue, and run as raw
        #: slab indexing inside the loop.  The fast body needs every site
        #: invariant: any failed check returns ``False`` before touching
        #: state, and the dispatcher falls back to the general body, whose
        #: slow paths install the windows.  The general body gives a site
        #: that fails the index ``-1``, and the site's slow path re-derives
        #: it.
        self.plan = _steady_plan(items) if self.looping else [None] * len(self.site_meta)
        assert not fast or None not in self.plan
        #: The general looping body re-runs its memory sites every
        #: iteration, so each site's window bounds/view/base are hoisted into
        #: per-site locals once per dispatch (refreshed whenever a slow path
        #: installs a window): a varying site tests them every iteration, an
        #: invariant one in its prologue check and its checked path.
        self.hoist = self.looping and not fast
        self.counter_lone = fast and _counter_lone(items, trace.counter_reg)
        if fast:
            self.cfa_used = (len(trace.items) - 1) in trace.cfa
        else:
            self.cfa_used = bool(trace.cfa)
        self.out = _Source()
        self.em = None
        self.flags_now = "fl"
        self.K = self.C = self.k = 0
        self.KL = {1: 0, 2: 0, 4: 0}
        self.KS = {1: 0, 2: 0, 4: 0}
        #: ``(K, C, KL, KS)`` at each checkpoint boundary (segment bodies).
        self.bounds = [(0, 0, dict(self.KL), dict(self.KS))]

    # -- slab windows --------------------------------------------------

    def win_cond(self, site, width, ea):
        """Window-hit test (bounds + alignment) for memory site ``site``."""
        return _aligned(self.win_bounds(site, ea), width, ea)

    def win_bounds(self, site, ea):
        if self.hoist:
            return "w%dl <= %s <= w%dh" % (site, ea, site)
        return "w is not None and w[0] <= %s <= w[1]" % ea

    def win_slot(self, site, width, ea):
        """``(view, index)`` of the slab slot a window hit accesses."""
        if self.hoist:
            return "w%dv" % site, _index("w%db" % site, width, ea)
        return "w[2]", _index("w[3]", width, ea)

    def win_index(self, site, width, ea):
        """Direct slab-view index expression for a window hit."""
        return "%s[%s]" % self.win_slot(site, width, ea)

    def site_index(self, ind, site, ea):
        """Bind invariant site ``site``'s slab view ``m<k>`` and index
        ``i<k>`` when its window covers ``ea``, aligned, and - for a
        store - off every snooped page; opens the ``if``, whose
        ``else:`` the caller may add."""
        out = self.out
        width, is_store = self.site_meta[site]
        cond = self.win_cond(site, width, ea)
        if is_store:
            cond += " and %s >> 8 not in S" % ea
        if not self.hoist:
            out.emit(ind, "w = W[%d]" % site)
        out.emit(ind, "if %s:" % cond)
        view, index = self.win_slot(site, width, ea)
        out.emit(ind + 1, "m%d = %s" % (site, view))
        out.emit(ind + 1, "i%d = %s" % (site, index))

    def win_refresh(self, ind, site, ea):
        """After a slow path (which may have installed or re-installed
        the window), re-read the site's hoisted window locals, and
        re-derive an invariant site's slab index."""
        if self.hoist:
            self.out.emit(ind, "w = W[%d]" % site)
            self.out.emit(ind, "if w is not None:")
            self.out.emit(ind + 1, "w%dl, w%dh, w%dv, w%db = w[:4]" % ((site,) * 4))
        if self.plan[site] is not None:
            self.site_index(ind, site, ea)

    # -- exits -----------------------------------------------------------

    def writebacks(self, ind):
        for j in sorted(self.written):
            expr, _, clean = self.em.render(j)
            self.out.emit(ind, "r[%d] = %s" % (j, expr if clean else "%s & 4294967295" % expr))

    def tally(self, per_iter, extra, loop_end=False):
        """Closed-form count at an exit: ``extra`` in the current
        iteration plus, in a looping body, ``per_iter`` for each
        completed one (all ``n0`` at the natural ``loop_end``)."""
        if not self.looping:
            return "%d" % extra
        if loop_end:
            return "n0 * %d" % per_iter
        if extra:
            return "(n0 - n - 1) * %d + %d" % (per_iter, extra)
        return "(n0 - n - 1) * %d" % per_iter

    def plus(self, var, per_iter, extra, loop_end=False):
        """``var`` plus the :meth:`tally` of cycles or retires so far."""
        count = self.tally(per_iter, extra, loop_end)
        return var if count == "0" else "%s + %s" % (var, count)

    def slab_hits(self, ind, kl, ks, loop_end=False):
        """Per-width slab hit credit at an exit point.

        ``kl``/``ks`` count the load/store sites *passed* at this point
        in the current iteration (miss paths pre-decrement the counter,
        so passed == hit).
        """
        for name, totals, counts in (("SL", self.load_n, kl), ("SS", self.store_n, ks)):
            for width in _WIDTHS:
                passed = counts.get(width, 0)
                if passed or (self.looping and totals[width]):
                    count = self.tally(totals[width], passed, loop_end)
                    self.out.emit(ind, "%s%d.hits += %s" % (name, width, count))

    def exit(self, ind, eip, ret_k, cyc, ks=None, guard=False, loop_end=False):
        """Write back the architectural state and leave at ``eip``
        (``loop_end``: the natural end of a looping body's ``n0``
        iterations, which falls off the function instead)."""
        out, trace = self.out, self.trace
        self.writebacks(ind)
        out.emit(ind, "regs.eflags = %s" % self.flags_now)
        out.emit(ind, "cpu.retired += %s" % self.plus("ret", trace.iter_retire, ret_k, loop_end))
        out.emit(ind, "q = %s" % self.plus("p", trace.iter_cost, cyc, loop_end))
        out.emit(ind, "if q:")
        out.emit(ind + 1, "clock.charge(q)")
        self.slab_hits(ind, self.KL, ks or self.KS, loop_end)
        out.emit(ind, "regs.eip = %d" % eip)
        if guard:
            out.emit(ind, "ge()")
        if not loop_end:
            out.emit(ind, "return")

    def slow_entry(self, ind, address, base_c):
        """Bit-identical single-step state before a checked bus access;
        ``p``/``ret`` then take back everything charged so far (the
        access itself retires after the call)."""
        out, trace = self.out, self.trace
        cycles = self.tally(trace.iter_cost, self.C + base_c)
        out.emit(ind, "q = p + %s" % cycles)
        out.emit(ind, "if q:")
        out.emit(ind + 1, "clock.charge(q)")
        out.emit(ind, "p = %s" % _negated(cycles))
        out.emit(ind, "cpu.retired += %s" % self.plus("ret", trace.iter_retire, self.K))
        out.emit(ind, "ret = %s" % _negated(self.tally(trace.iter_retire, self.K + 1)))
        out.emit(ind, "regs.eip = %d" % address)
        out.emit(ind, "regs.eflags = %s" % self.flags_now)
        self.writebacks(ind)

    # -- the body ------------------------------------------------------

    def prologue(self):
        """The header, the register loads, each invariant site's check
        and the loop head; creates the fold emitter."""
        out, fast = self.out, self.fast
        if self.segment:
            out.emit(0, "def __trace_segment__(cpu, tr, first, last):")
        else:
            name = "__trace_fast__" if fast else "__trace__"
            out.emit(0, "def %s(cpu, tr%s):" % (name, ", n" if self.looping or fast else ""))
        out.emit(1, "regs = cpu.regs")
        out.emit(1, "r = regs.gpr")
        if self.site_meta:
            out.emit(1, "memory = cpu.memory")
            out.emit(1, "W = tr.windows")
            if any(self.load_n.values()) and not fast:
                out.emit(1, "W2 = tr.windows2")
        if any(self.store_n.values()):
            out.emit(1, "S = memory.snooped_pages")
        out.emit(1, "clock = cpu.clock")
        if self.cfa_used:
            # Bound once per dispatch; the enrolment-generation flush in
            # the block engine guarantees cpu.cfa is live whenever a body
            # compiled with CFA flags runs.
            out.emit(1, "CF = cpu.cfa")
        out.emit(1, "fl = regs.eflags")
        for j in sorted(self.used):
            out.emit(1, "r%d = r[%d]" % (j, j))
        if self.segment:
            # The per-boundary entry offsets are only known once the chunks
            # are emitted; :meth:`finish` inserts them here.
            self.entry_at = len(out.lines)
        elif not fast:
            # Looping bodies count cycles and retires closed-form from the
            # iterations done (``n0 - n``); ``p``/``ret`` only take back
            # what a slow path has charged already.
            out.emit(1, "p = 0")
            out.emit(1, "ret = 0")
            if self.looping:
                out.emit(1, "n0 = n")
        for site, desc in enumerate(self.plan):
            if self.hoist:
                out.emit(1, "w = W[%d]" % site)
                out.emit(1, "if w is None:")
                out.emit(2, "w = NW")
                out.emit(1, "w%dl, w%dh, w%dv, w%db = w[:4]" % ((site,) * 4))
            if desc is not None:
                # One check covers all n iterations: the EA is invariant.
                # Pure reads only before a return False.
                breg, off = desc
                if not off:
                    ea = "r%d" % breg
                else:
                    sign = "-" if off < 0 else "+"
                    out.emit(1, "e = (r%d %s %d) & 4294967295" % (breg, sign, abs(off)))
                    ea = "e"
                self.site_index(1, site, ea)
                out.emit(1, "else:")
                out.emit(2, "return False" if fast else "i%d = -1" % site)
        indent = 2
        if fast:
            out.emit(1, "for _ in range(n):")
        elif self.looping:
            out.emit(1, "while n:")
            out.emit(2, "n -= 1")
        elif self.segment and any(self.cuts):
            out.emit(1, "if not first:")
        else:
            indent = 1
        self.em = _FoldEmitter(out, indent)

    def guard(self, idx, item):
        _, address, insn, chosen_taken, chosen = item
        em = self.em
        cond = _COND_EXPR[insn.opcode]
        em.emit(("if not (%s):" if chosen_taken else "if %s:") % cond)
        self.exit(em.indent + 1, address, self.K, self.C, guard=True)
        if chosen_taken:
            self.C += INSN_BRANCH_TAKEN
        if idx in self.trace.cfa:
            # The guard passed, so the stitched taken transfer is
            # committed: fold it into the CFA path hash exactly as
            # the interpreter would (its cost is already in C; a
            # guard *failure* exits with the branch unexecuted, and
            # the interpreter records it on re-execution).
            em.emit("CF.record_edge(%d, %d)" % (address, chosen))
            self.C += CFA_EDGE_CYCLES

    def jmp(self, idx, item):
        self.C += INSN_BRANCH_TAKEN
        if idx in self.trace.cfa:
            self.em.emit("CF.record_edge(%d, %d)" % (item[1], item[3]))
            self.C += CFA_EDGE_CYCLES

    def alu(self, idx, item):
        insn = item[2]
        em, opcode, x, y = self.em, insn.opcode, insn.reg, insn.reg2
        flags = self.needs[idx]
        if self.counter_lone and opcode is Op.SUBI and x == self.trace.counter_reg:
            pass  # a lone counter's ``subi 1``: counted down after the loop
        elif opcode is Op.NOP or opcode in (Op.CMP, Op.CMPI) and not flags:
            pass
        elif opcode is Op.MOVI:
            em.set_const(x, insn.imm)
        elif opcode is Op.MOV:
            if x != y:
                em.set_copy(x, y)
        elif not flags:
            tag = _FOLD_TAG.get(opcode)
            value = em.operand(y) if opcode in _TWO_REG else insn.imm
            if opcode is Op.NOT:
                em.apply_logic(x, "xor", _M)
            elif opcode is Op.NEG:
                em.apply_neg(x)
            elif tag in ("+", "-"):
                em.apply_add(x, 1 if tag == "+" else -1, value)
            elif tag in ("shl", "shr"):
                em.apply_shift(x, tag, value)
            elif tag == "mul":
                em.apply_mul(x, value)
            else:
                em.apply_logic(x, tag, value)
        else:
            self.flag_live(insn, flags)

    def flag_live(self, insn, flags):
        """An ALU op whose flags something observes: the result into a
        local, and the flags into ``fl`` (inline) or, deferred, only the
        operands the exits rebuild them from."""
        em, opcode, x = self.em, insn.opcode, insn.reg
        b = em.value_expr(insn.reg2)[0] if opcode in _TWO_REG else str(insn.imm & _M)
        a = em.render_clean(x)
        family = _ARITH_FAMILY.get(opcode)
        if family is None:  # AND/OR/XOR/SHL/SHR (+imm), NOT
            if opcode is Op.NOT:
                expr = "(~%s) & 4294967295" % a
            else:
                tag = _FOLD_TAG[opcode]
                if tag in ("shl", "shr"):
                    b = "(%s & 31)" % b if opcode in _TWO_REG else str(insn.imm & 31)
                expr = _LOGIC_TEXT[tag] % (a, b)
            if flags == _FLAGS_DEFERRED:
                em.emit("fa = %s" % expr)
                em.assign(x, "fa")
                self.flags_now = "flogic(fl, fa)"
                return
            em.emit("res = %s" % expr)
            em.assign(x, "res")
            self.emit_fl()  # logic clears CF and OF
            self.flags_now = "fl"
            return
        if opcode is Op.NEG:
            a, b = "0", a
        symbol = {"add": "+", "sub": "-", "mul": "*"}[family]
        writes = opcode not in (Op.CMP, Op.CMPI)
        if flags == _FLAGS_DEFERRED:
            a = self.kept(a, "fa")
            b = self.kept(b, "fb")
            if writes:
                em.assign(x, "(%s %s %s) & 4294967295" % (a, symbol, b))
            self.flags_now = "f%s(fl, %s, %s)" % (family, a, b)
            return
        if family == "mul":
            em.emit("raw = %s * %s" % (a, b))
        else:
            em.emit("a = %s" % a)
            em.emit("b = %s" % b)
            em.emit("raw = a %s b" % symbol)
        em.emit("res = raw & 4294967295")
        if writes:
            em.assign(x, "res")
        if family == "add":
            self.emit_fl(
                "raw > %d" % _M, "not ((a ^ b) & %d) and ((a ^ res) & %d)" % (_SIGN, _SIGN)
            )
        elif family == "sub":
            self.emit_fl("raw < 0", "((a ^ b) & %d) and ((a ^ res) & %d)" % (_SIGN, _SIGN))
        else:
            self.emit_fl("raw > %d" % _M, carry_bits=2049)  # CF and OF
        self.flags_now = "fl"

    def emit_fl(self, carry=None, overflow=None, carry_bits=1):
        em = self.em
        em.emit("fl = fl & %d" % _FLAG_KEEP)
        for cond, bits in (
            (carry, carry_bits), ("res == 0", 64), ("res & %d" % _SIGN, 128), (overflow, 2048)
        ):
            if cond is not None:
                em.emit("if %s:" % cond)
                self.out.emit(em.indent + 1, "fl |= %d" % bits)

    def kept(self, text, name):
        """A deferred writer's operand as exits will read it: a literal
        or a register local the body never reassigns as is, anything
        else saved into the local ``name`` first."""
        if text.isdigit() or text in self.fixed:
            return text
        self.em.emit("%s = %s" % (name, text))
        return name

    def bind(self, name, text):
        """``text`` as an operand: as is when it is a bare local or a
        literal, else bound to the local ``name`` first."""
        if text.isdigit() or text.isidentifier():
            return text
        self.em.emit("%s = %s" % (name, text))
        return name

    def site_ea(self, insn):
        """A ``ld``/``st`` site's effective address (clean), bound to
        ``ea`` at once unless the site is invariant, whose checked path
        binds it (:meth:`open_steady`); ``None`` in the fast body, whose
        prologue proved it."""
        if self.fast:
            return None
        em, y = self.em, insn.reg2
        if not em.ops[y] and isinstance(em.base[y], int):
            ea = str((em.base[y] + insn.imm) & _M)
        else:
            ea = em.value_expr(y)[0]
            if insn.imm:
                ea = "(%s + %d) & 4294967295" % (ea, insn.imm)
        return ea if self.plan[self.k] is not None else self.bind("ea", ea)

    def open_steady(self, access):
        """Emit the current invariant site's ``access`` - a plain
        ``m<k>[i<k>]`` slab read or write - behind its one index test,
        and open the ``else:`` arm one level deeper for the checked path
        (the caller closes it with ``em.indent -= 1``).  The checked path
        binds the EA only there: it is loop-invariant, so its text reads
        only locals the main line does not reassign in between."""
        em = self.em
        em.emit("if i%d >= 0:" % self.k)
        self.out.emit(em.indent + 1, access)
        em.emit("else:")
        em.indent += 1

    def load(self, idx, item):
        self.read_site(item, self.site_ea(item[2]))

    def pop(self, idx, item):
        # pop loads first (a faulting load leaves ESP and the
        # destination untouched), then bumps ESP, then writes the
        # destination - so ``pop esp`` ends with the loaded value.
        em = self.em
        if not self.fast:
            em.materialize(_ESP)
        self.read_site(item, em.home[_ESP])
        if item[2].reg != _ESP:
            em.apply_add(_ESP, 1, 4)

    def store(self, idx, item):
        insn = item[2]
        size = _SITE_WIDTH[insn.opcode]
        ea = self.site_ea(insn)
        value = self.em.value_expr(insn.reg)[0]
        if size != 4:
            mask = _SIZE_MASKS[size]
            value = str(int(value) & mask) if value.isdigit() else "(%s & %d)" % (value, mask)
        self.write_site(item, size, ea, value)

    def push(self, idx, item):
        # push reads its operand *before* decrementing ESP (so
        # ``push esp`` stores the old value), and a faulting store
        # leaves ESP already decremented - exactly as CPU.push does.
        em, insn = self.em, item[2]
        if insn.opcode is Op.PUSHI:
            value, held = str(insn.imm & _M), ()
        else:
            value, held = em.value_expr(insn.reg)
        em.apply_add(_ESP, -1, 4)
        if not self.fast:
            em.materialize(_ESP, held)
        self.write_site(item, 4, em.home[_ESP], value)

    def read_site(self, item, ea):
        """Load the current memory site at ``ea`` into the item's
        register: in the fast body straight off the slab, else off the
        window or the victim window, by an in-window misaligned read, or
        on the checked slow path."""
        _, address, insn = item
        em, out, k, x = self.em, self.out, self.k, insn.reg
        size = _SITE_WIDTH[insn.opcode]
        if self.fast:
            em.assign(x, "m%d[i%d]" % (k, k))
        else:
            steady = self.plan[k] is not None
            dest = em.target(x)
            if steady:
                self.open_steady("%s = m%d[i%d]" % (dest, k, k))
                ea = self.bind("ea", ea)
            if not self.hoist:
                em.emit("w = W[%d]" % k)
            em.emit("if %s:" % self.win_cond(k, size, ea))
            ind = em.indent + 1
            out.emit(ind, "%s = %s" % (dest, self.win_index(k, size, ea)))
            em.emit("else:")
            out.emit(ind, "w2 = W2[%d]" % k)
            victim = "w2 is not None and w2[0] <= %s <= w2[1]" % ea
            out.emit(ind, "if %s:" % _aligned(victim, size, ea))
            out.emit(ind + 1, "%s = w2[2][%s]" % (dest, _index("w2[3]", size, ea)))
            if _ALIGN_SHIFT[size][0]:
                # In-window *misaligned* reads: the window's range already
                # proves MPU read permission for any start address in
                # ``[lo, hi - size]`` - only the typed slab view needs
                # alignment - so the span comes off the region's byte slab
                # (``w[4]``/``w[5]`` of the window tuple) instead of a
                # checked slow call.  Without this, an EA that alternates
                # between an aligned and a misaligned target takes the slow
                # path every other access even with both windows held.
                out.emit(ind, "elif %s:" % self.win_bounds(k, ea))
                if self.hoist:
                    out.emit(ind + 1, "w = W[%d]" % k)
                out.emit(ind + 1, "j = %s - w[5]" % ea)
                out.emit(ind + 1, '%s = int.from_bytes(w[4][j:j + %d], "little")' % (dest, size))
                out.emit(ind, "elif %s:" % victim)
                out.emit(ind + 1, "j = %s - w2[5]" % ea)
                out.emit(ind + 1, '%s = int.from_bytes(w2[4][j:j + %d], "little")' % (dest, size))
            out.emit(ind, "else:")
            ind += 1
            self.slow_entry(ind, address, BASE_CYCLES[insn.opcode])
            out.emit(ind, "v, ram = slow_load(cpu, tr, %d, %s, %d, %d)" % (k, ea, size, address))
            out.emit(ind, "cpu.retired += 1")
            out.emit(ind, "SL%d.misses += 1" % size)
            out.emit(ind, "%s = v" % dest)
            out.emit(ind, "if not ram:")
            if insn.opcode is Op.POP and x != _ESP:
                out.emit(ind + 1, "r[4] = (%s + 4) & 4294967295" % ea)
            out.emit(ind + 1, "r[%d] = v" % x)
            self.slab_hits(ind + 1, self.KL, self.KS)
            out.emit(ind + 1, "regs.eip = %d" % (address + insn.length))
            out.emit(ind + 1, "return")
            out.emit(ind, "SL%d.hits -= 1" % size)
            self.win_refresh(ind, k, ea)
            if steady:
                em.indent -= 1
            em.settle(x, dest)
        self.KL[size] += 1
        self.k += 1

    def write_site(self, item, size, ea, value):
        """Store ``value`` at the current memory site: in the fast body
        straight onto the slab, else on a window hit with a single
        snoop-page probe, or on the checked slow path; both end with the
        self-modification abort.  An access aligned to its own width
        never crosses a 256-byte snoop page, so one probe suffices - the
        window test already proved the alignment."""
        _, address, insn = item
        em, out, k = self.em, self.out, self.k
        access = "m%d[i%d] = %s" % (k, k, value)
        if self.fast:
            em.emit(access)
        else:
            steady = self.plan[k] is not None
            if steady:
                self.open_steady(access)
                ea = self.bind("ea", ea)
            value = self.bind("v", value)
            nxt = address + insn.length
            base_c = BASE_CYCLES[insn.opcode]
            if not self.hoist:
                em.emit("w = W[%d]" % k)
            em.emit("if %s:" % self.win_cond(k, size, ea))
            ind = em.indent + 1
            out.emit(ind, "if %s >> 8 in S:" % ea)
            bytes_of = "(%s)" % value if value.isdigit() else value
            out.emit(
                ind + 1, 'memory.write_raw(%s, %s.to_bytes(%d, "little"))' % (ea, bytes_of, size)
            )
            out.emit(ind + 1, "SS%d.misses += 1" % size)
            out.emit(ind + 1, "SS%d.hits -= 1" % size)
            out.emit(ind + 1, "if not tr.valid:")
            stored = dict(self.KS)
            stored[size] += 1
            self.exit(ind + 2, nxt, self.K + 1, self.C + base_c, ks=stored)
            out.emit(ind, "else:")
            out.emit(ind + 1, "%s = %s" % (self.win_index(k, size, ea), value))
            em.emit("else:")
            self.slow_entry(ind, address, base_c)
            out.emit(
                ind, "ram = slow_store(cpu, tr, %d, %s, %s, %d, %d)" % (k, ea, value, size, address)
            )
            out.emit(ind, "cpu.retired += 1")
            out.emit(ind, "SS%d.misses += 1" % size)
            out.emit(ind, "if not ram or not tr.valid:")
            self.slab_hits(ind + 1, self.KL, self.KS)
            out.emit(ind + 1, "regs.eip = %d" % nxt)
            out.emit(ind + 1, "return")
            out.emit(ind, "SS%d.hits -= 1" % size)
            self.win_refresh(ind, k, ea)
            if steady:
                em.indent -= 1
        self.KS[size] += 1
        self.k += 1

    def checkpoint(self, idx):
        """Checkpoint (segment bodies): exit at the boundary with exact
        architectural state when it is the admitted ``last``, else bind
        every register to its canonical local and open the next chunk,
        which a resumed dispatch may enter directly.  Runs after the item
        the cut follows."""
        cuts = self.cuts
        if cuts is None or not cuts[idx]:
            return
        em, number = self.em, len(self.bounds)
        em.emit("if last == %d:" % number)
        self.exit(em.indent + 1, _boundary_eip(self.items[idx]), self.K, self.C)
        self.bounds.append((self.K, self.C, dict(self.KL), dict(self.KS)))
        em.rebind()
        if any(cuts[idx + 1:]):
            self.out.emit(1, "if first <= %d:" % number)
        else:
            em.indent = 1  # the final chunk runs on every entry

    def finish(self):
        """Close the body and return its source."""
        em, out, trace = self.em, self.out, self.trace
        if self.fast:
            # loop-bottom fixpoint, then closed-form accounting: the body
            # ran n whole iterations with the counter's subi as the last
            # flag writer, the guard provably taken, and nothing else
            # observable in between.
            em.rebind()
            if out.lines[-1].endswith("range(n):"):
                out.emit(2, "pass")  # every body op folded away
            counter = trace.counter_reg
            if self.counter_lone:
                # the elided per-iteration decrements, applied at once
                # (the bound keeps the counter >= 1, so no wraparound)
                out.emit(1, "r%d = r%d - n" % (counter, counter))
            out.emit(1, "fl = fl & %d" % _FLAG_KEEP)
            out.emit(1, "if r%d & %d:" % (counter, _SIGN))
            out.emit(2, "fl |= 128")
            out.emit(1, "if r%d == %d:" % (counter, _SIGN - 1))
            out.emit(2, "fl |= 2048")
            out.emit(1, "cpu.retired += n * %d" % trace.iter_retire)
            out.emit(1, "clock.charge(n * %d)" % trace.iter_cost)
            if self.cfa_used:
                # Each of the n elided closing guards was provably taken:
                # one bulk hash update, exactly equivalent to n single
                # records (the PathRecorder run-fold contract).
                guard = trace.items[-1]
                out.emit(1, "CF.record_edge_run(%d, %d, n)" % (guard[1], guard[4]))
            for width in _WIDTHS:
                if self.load_n[width]:
                    out.emit(1, "SL%d.hits += n * %d" % (width, self.load_n[width]))
                if self.store_n[width]:
                    out.emit(1, "SS%d.hits += n * %d" % (width, self.store_n[width]))
            self.writebacks(1)
            out.emit(1, "regs.eflags = fl")
            out.emit(1, "regs.eip = %d" % trace.start)
        elif self.looping:
            # fixpoint: restore the loop-top assumption (all registers in
            # their canonical locals), then the natural exit at the head
            # after n0 iterations, charged closed-form (n0 >= 1: every
            # dispatch admits a whole iteration, so a deferred last writer
            # has bound its operands)
            em.rebind()
            self.exit(1, trace.start, 0, 0, loop_end=True)
        else:
            # linear trace, or the linearized segment body: a segment that
            # outlives the last checkpoint ran the rest of the straight
            # path, so a looping trace's segment ends back at the head.
            self.exit(1, trace.start if trace.looping else trace.exit_eip, self.K, self.C)
        if self.segment:
            # Entering at boundary ``first`` skips the chunks before it:
            # offset the cycle/retire tallies and pre-debit the slab hits
            # every exit credits from the head.
            bounds = self.bounds
            entry = [
                "    p = %r[first]" % (tuple(-c for _, c, _, _ in bounds),),
                "    ret = %r[first]" % (tuple(-r for r, _, _, _ in bounds),),
            ]
            for name, slot in (("SL", 2), ("SS", 3)):
                for width in _WIDTHS:
                    skipped = tuple(bound[slot][width] for bound in bounds)
                    if any(skipped):
                        entry.append("    %s%d.hits -= %r[first]" % (name, width, skipped))
            out.lines[self.entry_at:self.entry_at] = entry
        return out.source()


def generate_trace(trace, fast=False, segment=False):
    """Generate the Python source for one of ``trace``'s bodies.

    This is the one code generator of the JIT: blocks (linear traces of
    ``insn`` items), stitched traces, counted-loop fast bodies and
    segment bodies all come from here.  The main body's signature is
    ``__trace__(cpu, tr, n)`` for a looping trace, ``n`` being the
    admitted iteration budget, and ``__trace__(cpu, tr)`` for a linear
    body, which runs its straight path once.  With
    ``fast=True`` the *counted-loop specialization* is generated
    instead: the closing guard and every dead flag update are elided,
    valid for up to ``counter - 1`` iterations (the engine enforces the
    bound), with the counter's final flags reconstructed closed-form.

    Both looping bodies check a memory site whose address is
    loop-invariant (:func:`_steady_plan`, which also gives the
    soundness argument) once per dispatch, in the prologue, and access
    it inside the loop as a plain ``m<k>[i<k>]`` slab read or write -
    the general body behind one ``i<k> >= 0`` test, falling back to the
    checked path when the check failed.  The general body hoists every
    site's window bounds once per dispatch: its varying sites test them
    every iteration, its invariant sites in the prologue check and the
    checked path.
    Every exit of the general looping body charges cycles and retires
    closed-form from the iterations done (``n0 - n``), so an iteration
    that takes no slow path updates no tally.

    With ``segment=True`` the *segment* body is generated: the straight
    path rendered linearly (one iteration, for looping traces) as one
    chunk per :func:`_checkpoint_plan` cut.  Called as
    ``__trace_segment__(cpu, tr, first, last)`` it enters at checkpoint
    boundary ``first`` (0 = the head; every register is in its canonical
    local at a boundary, and the cycle/retire/slab tallies start offset
    by the skipped chunks), runs to boundary ``last`` (past the final
    checkpoint: to the path's end), then writes back every register,
    EFLAGS, the exact cycle/retire charge, and the boundary EIP -
    architectural state bit-identical to single-stepping the same
    instructions.  Checkpoints are flag observation points and
    register spill points, so the segment body folds less than the
    full body; it only ever runs for a horizon-cut prefix or the rest
    of a path a resumed task re-enters mid-way.

    The body is emitted item by item by one :class:`_TraceEmitter`.
    """
    body = _TraceEmitter(trace, fast, segment)
    body.prologue()
    for idx, item in enumerate(body.items):
        opcode = item[2].opcode
        if item[0] != "insn":
            kind = item[0]  # guard or jmp
        elif opcode in ALU_OPS:
            kind = "alu"
        else:
            kind = _MEM_KIND[opcode]
        getattr(body, kind)(idx, item)
        body.K += 1
        body.C += BASE_CYCLES[opcode]
        body.checkpoint(idx)
    return body.finish()


def _trace_namespace(counters):
    """Globals shared by every generated body."""
    # Deferred import: repro.perf.translate imports this module at load
    # time (the engine owns the JIT), so the module-level direction of
    # the dependency has to stay one-way.
    from repro.perf.translate import _slow_load, _slow_store

    return {
        "slow_load": _slow_load,
        "slow_store": _slow_store,
        "NW": _NO_WINDOW,
        "SL4": counters.slab_loads,
        "SS4": counters.slab_stores,
        "SL2": counters.slab_loads_u16,
        "SS2": counters.slab_stores_u16,
        "SL1": counters.slab_loads_u8,
        "SS1": counters.slab_stores_u8,
        "ge": counters.guard_exits.add,
        "fadd": _flags_add,
        "fsub": _flags_sub,
        "fmul": _flags_mul,
        "flogic": _flags_logic,
    }


def _load(source, filename, name, counters, codes):
    """Compile ``source`` and return the function ``name`` it defines.

    ``codes`` is one block engine's generated-source -> code-object
    memo, keyed by a 128-bit digest of the source: a body regenerated
    after a wholesale flush (EA-MPU epoch, CFA generation) re-runs
    ``exec`` on the cached code instead of compiling again.  It lives
    on the engine, never at module level, so separate machines never
    share compiled code.  ``counters`` are the engine's slab and
    guard-exit counters the body credits.
    """
    key = blake2b(source.encode(), digest_size=16).digest()
    code = codes.get(key)
    if code is None:
        if len(codes) >= CODE_CACHE_LIMIT:
            codes.clear()
        code = codes[key] = compile(source, filename, "exec")
    namespace = _trace_namespace(counters)
    exec(code, namespace)
    return namespace[name]


def _translate(body, counters, codes, kind):
    """Compile ``body`` - a block or a stitched trace - in place: fills
    ``run`` (and ``run_fast`` for provably counted loop
    bodies whose every memory EA, if any, is loop-invariant, see
    :func:`_steady_plan`).  The segment body
    compiles lazily on first prefix or resume admission
    (:meth:`TraceJIT._compile_prefix`) - most bodies never need one.
    ``kind`` names the body in tracebacks."""
    source = generate_trace(body)
    body.run = _load(source, "<%s@0x%X>" % (kind, body.start), "__trace__", counters, codes)
    if body.counter_reg is not None and None not in _steady_plan(body.items[:-1]):
        fast_source = generate_trace(body, fast=True)
        filename = "<%s-fast@0x%X>" % (kind, body.start)
        body.run_fast = _load(fast_source, filename, "__trace_fast__", counters, codes)
    return body


def translate_trace(trace, counters, codes):
    """Compile the stitched ``trace`` in place (see :func:`_translate`);
    ``codes`` is the engine's code-object memo (:func:`_load`)."""
    return _translate(trace, counters, codes, "trace")


class TraceJIT:
    """Compiled-body dispatcher: trace cache, edge profile, admission.

    Owned by the :class:`~repro.perf.translate.BlockEngine` (dispatch
    order per step: trace head, then a resume segment, then block, then
    single-step), which consults it only after its own refusal checks
    (no transfer hook, decision cache present, epoch synced).  It
    admits every compiled body by one event-horizon rule - the engine's
    blocks through :meth:`run_linear` like linear traces, looping traces
    by whole iterations, and resumed tasks through :meth:`resume`.
    ``stitch`` turns trace stitching on; with it off
    (``MachineConfig.traces=False``) no edge is profiled, the trace
    cache stays empty, and the JIT runs blocks only.
    """

    def __init__(self, engine, cpu, stitch=True):
        self.engine = engine
        self.cpu = cpu
        self.stitch = stitch
        self.cache = BlockCache(cpu.spans, "trace")
        self.profile = EdgeProfile()
        #: Admission and slab counters of every body, plus the trace
        #: tier's own (compiles, guard exits, flushes).
        self.counters = TraceCounters()
        #: Exit address of the last trace/block execution (or the
        #: ``int`` a resumed task returns from, set by the engine); the
        #: next dispatch at a *different* address closes the edge.
        self.pending_edge = None
        #: Whether this dispatch ran a body only up to a checkpoint (its
        #: exit is the event horizon's, not the code's); reset by
        #: :meth:`dispatch`, which every engine dispatch calls first.
        self.cut = False

    def epoch_flush(self, reason="mpu-epoch"):
        """Drop all traces and profiles (EA-MPU rule-table epoch moved,
        or the CFA enrolment generation changed)."""
        if self.cache.entries:
            self.cache.flush()
            self.counters.flushes.add()
            obs = self.engine.obs
            if obs is not None:
                obs.publish("perf", "trace-flush", reason=reason)
        self.profile.flush()
        self.pending_edge = None

    def maybe_build(self, eip):
        """Stitch, compile, and cache the trace headed at ``eip``."""
        memory = self.cpu.memory
        mpu = memory.mpu
        if mpu is not None and mpu.decisions is None:
            return
        cache = self.cache
        if eip in cache.entries:
            return
        trace = build_trace(memory, eip, self.profile, self.cpu.cfa)
        if trace is None:
            # Remember the refusal, but snoop the head instruction so
            # the marker drops when the code there changes.
            head = _decode_at(memory, eip)
            span = (eip, eip + (head.length if head is not None else 1))
            cache.put(Trace(eip, (), False, None, (span,)))
            return
        translate_trace(trace, self.counters, self.engine.codes)
        cache.put(trace)
        self.counters.compiles.add()
        obs = self.engine.obs
        if obs is not None:
            obs.publish(
                "perf",
                "trace-compile",
                start=trace.start,
                insns=len(trace.items),
                looping=trace.looping,
                cost=trace.iter_cost,
                counted=trace.counter_reg is not None,
            )

    def dispatch(self, cpu, eip):
        """Run the trace headed at ``eip`` if present and admitted.

        Returns the cycles charged, or ``None`` to fall through to the
        block tier.  Also consumes the pending exit edge (building a
        new trace when the edge crosses the hot threshold).
        """
        self.cut = False
        pending = self.pending_edge
        if pending is not None and pending != eip:
            self.pending_edge = None
            if self.stitch and self.profile.note(pending, eip):
                self.maybe_build(eip)
        cache = self.cache
        trace = cache.entries.get(eip)
        if trace is None or trace.run is None:
            return None
        if not trace.looping:
            return self.run_linear(cpu, cache, trace)
        clock = cpu.clock
        limit = self._limit()
        counters = self.counters
        if limit is None:
            iters = DEFAULT_LOOP_ITERS
        else:
            iters = (limit - clock.now) // trace.iter_cost
            if iters <= 0:
                # Not even one whole iteration fits before an IRQ can
                # become pending: admit a checkpoint prefix of a single
                # iteration instead of falling back a tier.
                return self._dispatch_segment(
                    cpu, cache, trace, 0, limit - clock.now, counters.admits_prefix
                )
            if iters > MAX_LOOP_ITERS:
                iters = MAX_LOOP_ITERS
        cache.stats.hits += 1
        counters.admits_full.add()
        before = clock.now
        if trace.run_fast is not None:
            bound = cpu.regs.gpr[trace.counter_reg] - 1
            if bound > iters:
                bound = iters
            # A steady body (counted loop with memory) returns False
            # without touching state when a window/alignment/snoop
            # precondition fails; the general body below then runs
            # and its slow paths install the missing windows.
            if bound >= 1 and trace.run_fast(cpu, trace, bound) is not False:
                self._prefix_tail(cpu, trace, limit)
                self.pending_edge = cpu.regs.eip
                return clock.now - before
        trace.run(cpu, trace, iters)
        self._prefix_tail(cpu, trace, limit)
        self.pending_edge = cpu.regs.eip
        return clock.now - before

    def run_linear(self, cpu, cache, body):
        """Admit the linear ``body`` (a block or a linear trace, held in
        ``cache``) at its head.

        The whole body runs when its cost fits before the event horizon;
        otherwise its largest checkpoint prefix runs through the segment
        body, or - when not even the first checkpoint fits - the
        dispatch is rejected.  A block compiles on its first whole
        admission.  Returns the cycles charged, or ``None`` to fall back
        a tier.
        """
        clock = cpu.clock
        limit = self._limit()
        if limit is not None and clock.now + body.iter_cost > limit:
            return self._dispatch_segment(
                cpu, cache, body, 0, limit - clock.now, self.counters.admits_prefix
            )
        if body.run is None:
            self.engine.compile_block(body)
        cache.stats.hits += 1
        self.counters.admits_full.add()
        before = clock.now
        body.run(cpu, body)
        self.pending_edge = cpu.regs.eip
        return clock.now - before

    def resume(self, cpu, eip):
        """Re-enter a cached body at checkpoint boundary ``eip``.

        Called by the engine for a dispatch that resumes an interrupted
        task (or one of the few single steps after it) and found no
        trace headed at ``eip``.  A trace's boundary is preferred to a
        block's.  Runs the largest segment from the boundary that fits
        the horizon; returns the cycles charged, or ``None`` when no
        cached body has a boundary at ``eip`` or not even its next
        checkpoint fits.
        """
        for cache in (self.cache, self.engine.cache):
            body = cache.boundaries.get(eip)
            if body is not None:
                limit = self._limit()
                budget = None if limit is None else limit - cpu.clock.now
                return self._dispatch_segment(
                    cpu, cache, body, body.boundaries[eip], budget, self.counters.admits_resume
                )
        return None

    def _limit(self):
        """The event horizon: the earliest cycle an IRQ can become
        pending, or ``None`` for "no scheduled events"."""
        horizon = self.engine.horizon
        return None if horizon is None else horizon()

    def _compile_prefix(self, trace):
        """Lazily compile the segment body of ``trace`` (a block or a
        stitched trace; most bodies never need one, so
        :func:`_translate` skips it)."""
        source = generate_trace(trace, segment=True)
        filename = "<trace-segment@0x%X>" % trace.start
        trace.run_segment = _load(
            source, filename, "__trace_segment__", self.counters, self.engine.codes
        )
        return trace.run_segment

    def _segment_end(self, trace, first, budget):
        """The boundary a segment entered at ``first`` may run to.

        ``trace.checkpoints`` holds the exact cumulative cycle cost at
        each checkpoint, strictly increasing, so one bisect finds the
        last checkpoint that fits ``budget`` cycles past boundary
        ``first``; the path's end counts as the boundary after the
        last checkpoint (``None`` = no horizon).  A result not past
        ``first`` means nothing fits.
        """
        checkpoints = trace.checkpoints
        if budget is None:
            return len(checkpoints) + 1
        reach = budget + (checkpoints[first - 1] if first else 0)
        if reach >= trace.iter_cost:
            return len(checkpoints) + 1
        return bisect_right(checkpoints, reach)

    def _dispatch_segment(self, cpu, cache, body, first, budget, admitted):
        """Admit the largest segment of ``body`` (held in ``cache``)
        from boundary ``first``.

        ``admitted`` counts the dispatch (prefix or resume).  When not
        even the next checkpoint fits, the dispatch falls back a tier,
        counted as a reject.
        """
        last = self._segment_end(body, first, budget)
        if last <= first:
            self.counters.admits_reject.add()
            return None
        cache.stats.hits += 1
        admitted.add()
        self.cut = last <= len(body.checkpoints)
        clock = cpu.clock
        before = clock.now
        (body.run_segment or self._compile_prefix(body))(cpu, body, first, last)
        self.pending_edge = cpu.regs.eip
        return clock.now - before

    def _prefix_tail(self, cpu, trace, limit):
        """Spend the sub-iteration remainder of the horizon budget.

        Called after a fully-admitted looping run: when the trace is
        still valid and execution ended back at the loop head with less
        than one whole iteration of budget left, the largest checkpoint
        prefix of the next iteration still fits by construction - the
        checkpoint costs are a prefix of the iteration cost the
        admission test already bounded.
        """
        if limit is None or not trace.valid:
            return
        if cpu.regs.eip != trace.start:
            return  # guard exit or self-modification abort mid-body
        budget = limit - cpu.clock.now
        if budget >= trace.iter_cost:
            # A whole iteration still fits (counted loop ran out of
            # counter, not budget): leave it to the next dispatch.
            return
        last = self._segment_end(trace, 0, budget)
        if last <= 0:
            return
        self.counters.admits_prefix.add()
        self.cut = True
        (trace.run_segment or self._compile_prefix(trace))(cpu, trace, 0, last)
