"""Static worst-case execution time over the task CFG.

The bound composes the same per-instruction costs the simulated core
charges at run time (:data:`repro.isa.opcodes.BASE_CYCLES` plus the
:data:`repro.cycles.INSN_BRANCH_TAKEN` surcharge), but pessimistically:
every branch is assumed taken, every conditional path is paid for, and
every block inside a loop is charged ``bound`` times for each annotated
loop bound.  The result is therefore an over-approximation - never an
underestimate - of the cycles the core will actually charge, which is
the soundness property ``tests/test_analysis_wcet.py`` asserts against
dynamic runs.

Bounds require structure:

* the CFG must be *reducible* (every retreating edge's target dominates
  its source) - otherwise no loop-bound annotation is meaningful and
  the verdict is "no static WCET";
* every natural-loop header needs an entry in the ``loop_bounds``
  mapping (header blob offset -> maximum header executions per loop
  entry); a missing bound makes the function - and the task - unbounded;
* the call graph must be acyclic (recursion has no static bound); call
  costs compose bottom-up, each ``call`` charging its own cost plus the
  callee's whole-function WCET.

``int`` is charged its dispatch cost (the exception-entry latency);
time spent *inside* the OS service handler belongs to the OS budget,
not the task's, and is out of scope for a task-image bound.
"""

from __future__ import annotations

from repro import cycles
from repro.isa.opcodes import BASE_CYCLES, CONDITIONAL_BRANCHES, Op

#: Opcodes whose execution redirects the PC (always pay the taken
#: surcharge in the static model; conditionals pay it pessimistically).
_BRANCHING = frozenset({Op.JMP, Op.CALL, Op.RET}) | CONDITIONAL_BRANCHES


class WcetResult:
    """The verdict of one WCET computation."""

    __slots__ = ("bounded", "cycles", "reason", "per_function")

    def __init__(self, bounded, cycles_=None, reason=None, per_function=None):
        self.bounded = bounded
        self.cycles = cycles_
        self.reason = reason
        #: function entry offset -> cycle bound (bounded functions only).
        self.per_function = per_function or {}

    def to_dict(self):
        """JSON-ready representation."""
        out = {"bounded": self.bounded}
        if self.bounded:
            out["cycles"] = self.cycles
        else:
            out["reason"] = self.reason
        if self.per_function:
            out["per_function"] = {
                "0x%X" % entry: bound
                for entry, bound in sorted(self.per_function.items())
            }
        return out

    def __repr__(self):
        if self.bounded:
            return "WcetResult(%d cycles)" % self.cycles
        return "WcetResult(unbounded: %s)" % self.reason


def insn_cost(view, callee_wcet=None):
    """Static worst-case cycle cost of one instruction.

    Matches the dynamic charge model of :class:`repro.hw.cpu.CPU`: the
    opcode's base cost, plus the branch-taken surcharge for every
    control transfer (charged unconditionally here - the static model
    assumes the expensive direction), plus the callee's WCET for
    resolved calls.
    """
    opcode = view.insn.opcode
    cost = BASE_CYCLES[opcode]
    if opcode in _BRANCHING:
        cost += cycles.INSN_BRANCH_TAKEN
    if opcode == Op.CALL and callee_wcet is not None and view.target is not None:
        cost += callee_wcet.get(view.target, 0)
    return cost


def block_cost(block, callee_wcet=None):
    """Static worst-case cycle cost of one basic block."""
    return sum(insn_cost(view, callee_wcet) for view in block.insns)


def call_order(functions):
    """Bottom-up (callee-first) ordering of the function entries.

    Returns ``(order, recursive)``; ``recursive`` is ``True`` when the
    call graph has a cycle, in which case neither stack depth nor WCET
    has a static bound.
    """
    VISITING, DONE = 0, 1
    state = {}
    order = []
    recursive = False

    def visit(entry):
        nonlocal recursive
        status = state.get(entry)
        if status == DONE:
            return
        if status == VISITING:
            recursive = True
            return
        state[entry] = VISITING
        for _site, target in functions[entry].calls:
            if target in functions:
                visit(target)
        state[entry] = DONE
        order.append(entry)

    for entry in sorted(functions):
        visit(entry)
    # ``visit`` reaches itself through its closure cell: deleting it
    # breaks that cycle, which would otherwise keep every function,
    # block and instruction of the image alive until the cyclic GC runs.
    del visit
    return order, recursive


def function_wcet(fn, loop_bounds, callee_wcet):
    """``(cycles_or_None, reason)`` for one function.

    ``loop_bounds`` maps loop-header blob offsets to the maximum number
    of times the header executes per entry into its loop; every block
    is charged the product of its enclosing loops' bounds.
    """
    if fn.irreducible:
        return None, "irreducible control flow in function 0x%X" % fn.entry
    total = 0
    for start, block in fn.blocks.items():
        multiplier = fn.loop_multiplier(start, loop_bounds)
        if multiplier is None:
            headers = sorted(
                header
                for header, body in fn.loops.items()
                if start in body and header not in loop_bounds
            )
            return None, (
                "loop header 0x%X has no bound annotation" % headers[0]
            )
        total += multiplier * block_cost(block, callee_wcet)
    return total, None


def compute_wcet(model, functions, loop_bounds=None):
    """Whole-task WCET: the entry function's bound, callees composed in."""
    loop_bounds = loop_bounds or {}
    order, recursive = call_order(functions)
    if recursive:
        return WcetResult(False, reason="recursive call cycle")
    callee_wcet = {}
    for entry in order:
        bound, reason = function_wcet(functions[entry], loop_bounds, callee_wcet)
        if bound is None:
            return WcetResult(False, reason=reason, per_function=callee_wcet)
        callee_wcet[entry] = bound
    task_entry = model.image.entry
    if task_entry not in callee_wcet:
        return WcetResult(False, reason="entry point is not analysable")
    return WcetResult(
        True, cycles_=callee_wcet[task_entry], per_function=callee_wcet
    )
