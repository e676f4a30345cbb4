"""Property test: folded register chains survive every write they span.

The trace emitter folds flag-dead register ops into pending chains,
text over the locals that hold register values, and it never reassigns
a local that pending text still reads: such a write goes to a fresh
local instead (``repro.perf.traces._FoldEmitter.target``).  Hypothesis
builds ``jmp``-closed loops out of the shapes that make chains span
writes:

* single ALU ops, the reg-reg ones also reading esp;
* runs of 6-10 mixed immediate ops on one register, which fill a chain
  to its limit and spill it mid-run;
* a ``mov X, Y``, ops that move Y, then a read of X (an operand, a
  store or a push): the copy must still be the old Y;
* ``push R`` ... ``pop S`` with ALU ops in between: every chain or copy
  reading ESP's local must survive the stack pointer's writes.

Only eax, edx and esi are written, so ops keep reading each other's
chains.  Interpreter, block tier and trace JIT run each program under
a random tick timer and must agree on the final state, the data, the
event stream and the EFLAGS every interrupt saw.  Loops are closed with
``jmp`` only: a counted loop's closing ``jnz`` can reach the trace-JIT
livelock pinned in ``perfbench/tests``.
"""

from hypothesis import given, settings, strategies as st

from tests.test_prop_blocks_irq import _DATA_BASE, _program, _run

_SCRATCH = ("eax", "edx", "esi")

_reg = st.sampled_from(_SCRATCH)
#: A register a reg-reg op or a push may read.
_source = st.sampled_from(_SCRATCH + ("esp",))
_imm = st.integers(min_value=0, max_value=0xFFFF)

#: ``(mnemonic, immediate)`` of one immediate op.
_imm_op = st.one_of(
    st.tuples(st.sampled_from(("addi", "subi", "xori", "andi", "ori")), _imm),
    st.tuples(st.sampled_from(("shli", "shri")), st.integers(0, 31)),
)

_alu = st.one_of(
    st.tuples(_imm_op, _reg).map(lambda t: "%s %s, %d" % (t[0][0], t[1], t[0][1])),
    st.tuples(st.sampled_from(("not", "neg")), _reg).map(" ".join),
    st.tuples(
        st.sampled_from(("mov", "add", "sub", "and", "or", "xor", "shl", "shr", "mul", "cmp")),
        _reg,
        _source,
    ).map(lambda t: "%s %s, %s" % t),
)

#: A run of immediate ops on one register, past the chain limit.
_run_of_imms = st.tuples(_reg, st.lists(_imm_op, min_size=6, max_size=10)).map(
    lambda t: "\n".join("%s %s, %d" % (op, t[0], imm) for op, imm in t[1])
)


@st.composite
def _copy_read(draw):
    """``mov X, Y``, an op moving Y, other ops, then a read of X."""
    x, y = draw(st.lists(_reg, min_size=2, max_size=2, unique=True))
    op, imm = draw(_imm_op)
    lines = ["mov %s, %s" % (x, y), "%s %s, %d" % (op, y, imm)]
    lines += draw(st.lists(_alu, max_size=3))
    read = draw(st.sampled_from(("add", "xor", "mul", "mov", "st", "push")))
    if read == "st":
        lines.append("st [ebx+%d], %s" % (draw(st.integers(0, 15)) * 4, x))
    elif read == "push":
        lines += ["push %s" % x, "pop %s" % draw(_reg)]
    else:
        lines.append("%s %s, %s" % (read, draw(_reg), x))
    return "\n".join(lines)


@st.composite
def _push_pop(draw):
    """``push R`` (or ``pushi``), ALU ops, then ``pop S``."""
    push = st.one_of(_source.map(lambda r: "push " + r), _imm.map(lambda v: "pushi %d" % v))
    pushed = draw(push)
    between = draw(st.lists(_alu, max_size=4))
    return "\n".join([pushed, *between, "pop %s" % draw(_reg)])


_unit = st.one_of(_alu, _alu, _run_of_imms, _copy_read(), _push_pop())


@settings(max_examples=25, deadline=None)
@given(
    body=st.lists(_unit, min_size=2, max_size=8),
    tick_period=st.integers(min_value=60, max_value=3000),
    budget=st.integers(min_value=2_000, max_value=20_000),
)
def test_fold_chains_invisible_under_random_irqs(body, tick_period, budget):
    """Interpreter, blocks and traces agree at the end of the cycle
    budget, including the EFLAGS every interrupt saw."""
    source = _program(body, None, _DATA_BASE)
    plain = _run(source, blocks=False, tick_period=tick_period, max_cycles=budget)
    blocked = _run(
        source, blocks=True, tick_period=tick_period, traces=False, max_cycles=budget
    )
    traced = _run(source, blocks=True, tick_period=tick_period, max_cycles=budget)
    assert plain == blocked == traced
    assert plain["ticks"] > 0 or budget < 2 * tick_period
