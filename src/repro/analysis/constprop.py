"""Per-block constant propagation shared by the analysis passes.

Both the MPU-safety pass and the access-summary exporter need the same
question answered: *which memory operands resolve to a provable constant
address inside one basic block?*  The walk is deliberately conservative:

* only ``movi`` defines a known register value (recorded together with
  whether the immediate is relocation-backed);
* any other opcode that writes its ``reg`` operand forgets that
  register;
* knowledge never crosses a block boundary.

:func:`resolved_accesses` is a generator so callers keep their own
control flow (the safety pass reports findings, the summary exporter
collects rows) while the propagation logic lives in exactly one place.
"""

from __future__ import annotations

from repro.analysis.cfg import LOAD_OPS, REG_WRITERS, STORE_OPS
from repro.isa.opcodes import Op


def access_width(opcode):
    """Bytes moved by a load/store opcode (1/2 for byte/half forms)."""
    if opcode in (Op.LDB, Op.STB):
        return 1
    if opcode in (Op.LDH, Op.STH):
        return 2
    return 4


#: Opcodes whose handlers write the EFLAGS result flags (static twin of
#: the translator's flag-liveness set).
_FLAG_WRITERS = frozenset(
    {
        Op.ADD,
        Op.SUB,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.CMP,
        Op.SHL,
        Op.SHR,
        Op.MUL,
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


def counted_loop_counter(insns, closing_opcode):
    """The loop-counter register of a provably counted loop, or ``None``.

    ``insns`` is one loop iteration's ``(address, Instruction)`` body,
    *excluding* the closing conditional branch whose opcode is
    ``closing_opcode``.  The loop is *counted* when

    * the closing branch is ``jnz`` (loops while the counter is
      non-zero);
    * the body's **last** flag-writing instruction is ``subi reg, 1``
      (so the branch tests exactly the counter's zero-ness); and
    * no other instruction in the body writes ``reg``.

    Under those conditions the counter strictly decreases by one per
    iteration (mod 2^32) and the loop runs exactly ``r[reg]`` more
    iterations whenever ``r[reg] >= 1`` at the loop head.  Its one
    caller is the trace JIT (:func:`repro.perf.traces.build_trace`),
    which unrolls the first ``r[reg] - 1`` iterations with the guard
    (and all dead flag updates) elided.  This is the same deliberately
    conservative style as :func:`resolved_accesses`: a proof, not a
    heuristic.
    """
    if closing_opcode != Op.JNZ:
        return None
    last_writer = None
    for index in range(len(insns) - 1, -1, -1):
        if insns[index][1].opcode in _FLAG_WRITERS:
            last_writer = index
            break
    if last_writer is None:
        return None
    counter = insns[last_writer][1]
    if counter.opcode != Op.SUBI or counter.imm != 1:
        return None
    reg = counter.reg
    if reg == 4:  # ESP: push/pop/pushi mutate it without being REG_WRITERS
        return None
    for index, (_, insn) in enumerate(insns):
        if index == last_writer:
            continue
        if insn.opcode in REG_WRITERS and insn.reg == reg:
            return None
    return reg


def resolved_accesses(block):
    """Yield ``(view, resolved)`` for each load/store in ``block``.

    ``resolved`` is ``(value, relocated)`` when the base register is
    provably the result of a ``movi`` still in effect, else ``None``.
    ``value`` is the raw ``movi`` immediate (the caller adds the
    displacement); ``relocated`` says whether the loader rebases it.
    """
    known = {}
    for view in block.insns:
        insn = view.insn
        opcode = insn.opcode
        if opcode == Op.MOVI:
            known[insn.reg] = (insn.imm, view.relocated_imm)
            continue
        if opcode in LOAD_OPS or opcode in STORE_OPS:
            yield view, known.get(insn.reg2)
        if opcode in REG_WRITERS:
            known.pop(insn.reg, None)
