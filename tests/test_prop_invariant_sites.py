"""Property test: loop-invariant memory sites are JIT-invisible.

A looping trace body checks each memory site whose address cannot change
between iterations once per dispatch, and inside the loop runs it as a
plain slab access (``repro.perf.traces._steady_plan``).  A site is
invariant when the body never writes its base register, or when it is a
push, pop or ``[esp+disp]`` site under balanced stack traffic.

Hypothesis builds ``jmp``-closed loops around such sites, through
pointers set once before the loop - ebx to a data block, ebp to the
words right after the code, ecx to the loop's first instruction, edi to
the IRQ handler's tick increment - and through the stack.  Each program
runs on the interpreter, the block tier and the trace JIT under a
random tick timer.  The sites cover what the one check per dispatch
must get right:

* every site starts without a window, so its first access takes the
  slow path, and the index is derived there;
* stores next to the code share a snoop page with it and must keep
  broadcasting: one writes the loop's first word back unchanged (the
  self-modification abort), one patches the immediate of the loop's
  first instruction, which the next iteration must execute, and one
  patches the handler's increment, which stays cached while the loop
  runs, so only the broadcast drops it before the next interrupt;
* misaligned words and halves never pass the check;
* a load through a pointer the loop moves every pass reads the words
  the invariant sites write.

Final state, memory, the event stream and the EFLAGS every interrupt saw
(``_program``'s handler folds them into the data) must agree.  Loops
are closed with ``jmp`` only: a trace headed at a counted loop's
closing ``jnz`` stops the simulated clock when its head guard fails on
loop exit (the trace-JIT livelock pinned in ``perfbench/tests``).
"""

from hypothesis import example, given, settings, strategies as st

from tests.test_prop_blocks_irq import _DATA_BASE, _program, _run

#: Registers random instructions may write.  ebx, ebp, ecx, edi and esp
#: stay put, so every site based on them is loop-invariant.
_SCRATCH = ("eax", "edx", "esi")

#: The pointers the sites are based on, set once before the loop.
_POINTERS = ("movi ebp, near", "movi ecx, loop", "movi edi, tick")

_reg = st.sampled_from(_SCRATCH)
_imm = st.integers(min_value=0, max_value=0xFFFF)

_alu = st.one_of(
    st.tuples(st.sampled_from(("addi", "subi", "xori", "andi", "ori")), _reg, _imm).map(
        lambda t: "%s %s, %d" % t
    ),
    st.tuples(st.sampled_from(("shli", "shri")), _reg, st.integers(0, 31)).map(
        lambda t: "%s %s, %d" % t
    ),
    st.tuples(st.sampled_from(("mov", "add", "sub", "xor", "mul", "cmp")), _reg, _reg).map(
        lambda t: "%s %s, %s" % t
    ),
)

#: Word-aligned or byte-granular offsets into the first 64 data bytes,
#: so sites alias each other and many words and halves are misaligned.
_data_disp = st.one_of(st.integers(0, 15).map(lambda n: n * 4), st.integers(0, 63))

_data_site = st.tuples(
    st.sampled_from(("ld", "ldh", "ldb", "st", "sth", "stb")), _reg, _data_disp
).map(
    lambda t: "%s %s, [ebx+%d]" % t if t[0][0] == "l" else "%s [ebx+%d], %s" % (t[0], t[2], t[1])
)

#: Stores into the words after the code: their page is snooped.
_near_store = st.tuples(
    st.sampled_from(("st", "sth", "stb")), _reg, st.integers(0, 15).map(lambda n: n * 4)
).map(lambda t: "%s [ebp+%d], %s" % (t[0], t[2], t[1]))


def _rewrite(tmp):
    """The loop's first word, loaded and stored back unchanged through
    ecx after a flag writer that leaves ``tmp`` alone."""
    others = [reg for reg in _SCRATCH if reg != tmp]
    writer = st.tuples(st.sampled_from(("addi", "subi", "xori")), st.sampled_from(others), _imm)
    return writer.map(
        lambda t: "ld %s, [ecx+0]\n%s %s, %d\nst [ecx+0], %s" % (tmp, t[0], t[1], t[2], tmp)
    )


_self_rewrite = _reg.flatmap(_rewrite)

#: Counts passes in a data word past the other sites' and patches the
#: count's low byte into the immediate of the handler's ``addi``.
_handler_patch = _reg.map(
    lambda reg: "ld {0}, [ebx+128]\naddi {0}, 1\nst [ebx+128], {0}\nstb [edi+2], {0}".format(reg)
)

#: Stores that invalidate the running trace, so it never runs two
#: iterations in a row: the first-word rewrite, or a patch of the
#: immediate of the ``xori`` every body starts with.
_self_store = st.one_of(_self_rewrite, _reg.map(lambda reg: "stb [ecx+2], %s" % reg))

#: Balanced stack traffic, and ESP-relative words below the stack top.
_stack = st.one_of(
    st.tuples(_reg, _alu, _reg).map(lambda t: "push %s\n%s\npop %s" % t),
    st.tuples(_imm, _reg).map(lambda t: "pushi %d\npop %s" % t),
    st.tuples(st.sampled_from(("ld", "st")), _reg, st.integers(1, 8).map(lambda n: n * 4)).map(
        lambda t: (
            "ld %s, [esp-%d]" % (t[1], t[2]) if t[0] == "ld" else "st [esp-%d], %s" % (t[2], t[1])
        )
    ),
)

#: A load through a pointer the loop moves every pass, into the words
#: the invariant data sites read and write.
_varying_load = st.tuples(_reg, _reg, _reg).map(
    lambda t: "mov {0}, {1}\nandi {0}, 60\nadd {0}, ebx\nld {2}, [{0}+0]".format(*t)
)

#: Invariant data sites weigh most.
_item = st.one_of(
    _alu, _data_site, _data_site, _data_site, _near_store, _stack, _varying_load, _handler_patch
)


@settings(max_examples=25, deadline=None)
@given(
    head=_imm,
    body=st.lists(_item, min_size=3, max_size=16),
    # in one body of four: most bodies run many iterations per dispatch
    last=st.one_of(st.none(), st.none(), st.none(), _self_store),
    tick_period=st.integers(min_value=60, max_value=3000),
    budget=st.integers(min_value=2_000, max_value=20_000),
)
# The handler runs its cached increment at every tick while the loop
# patches it through a snooped page: a store that skipped the broadcast
# would leave the stale increment cached.
@example(
    head=4660,
    body=[
        "st [ebp+4], edx",
        "mul eax, edx",
        "ld esi, [ebx+128]\naddi esi, 1\nst [ebx+128], esi\nstb [edi+2], esi",
        "st [ebx+8], eax",
        "xori edx, 3",
        "add edx, eax",
    ],
    last=None,
    tick_period=400,
    budget=20_000,
)
def test_invariant_sites_invisible_under_random_irqs(head, body, last, tick_period, budget):
    """Interpreter, blocks and traces agree at the end of the cycle
    budget, including the EFLAGS every interrupt saw."""
    body = ["xori eax, %d" % head] + body + ([last] if last else [])
    source = _program(body, None, _DATA_BASE, setup=_POINTERS)
    plain = _run(source, blocks=False, tick_period=tick_period, max_cycles=budget)
    blocked = _run(
        source, blocks=True, tick_period=tick_period, traces=False, max_cycles=budget
    )
    traced = _run(source, blocks=True, tick_period=tick_period, max_cycles=budget)
    assert plain == blocked == traced
    assert plain["ticks"] > 0 or budget < 2 * tick_period
