"""Property test: the block tier is invisible under random programs + IRQs.

Hypothesis generates random straight-line loop bodies (ALU and memory
traffic) and a random tick-timer period, then runs the same program on
two full platforms - block tier on and off.  The final architectural
state (registers, flags, memory, retired count, simulated cycles,
timer ticks) and the *entire observability event stream* (excluding
the block tier's own ``perf``-source lifecycle events) must be
bit-for-bit identical: interrupts must land on exactly the same
instruction boundary whether execution single-steps or runs
horizon-admitted superblocks.

A third property adds stores to the ``near`` words placed right after
the code, which share a snoop granule with it: they take the broadcast
store path, and the exact-span snoop must never serve stale code.  A
fourth closes the loop with ``jmp`` instead of a counted ``jnz``, the
shape of perfbench's compute tasks.  The IRQ handler folds every
interrupted EFLAGS word into the compared data, so a wrong EFLAGS at any
interrupt boundary fails every property, even when the loop overwrites
it before reading it.
"""

from hypothesis import example, given, settings, strategies as st

from repro.hw.exceptions import Vector
from repro.hw.platform import MachineConfig, Platform
from repro.image.linker import link
from repro.isa.assembler import assemble

#: Registers random instructions may write (ebx holds the data pointer,
#: ecx the loop counter, esp the stack - all kept stable).
_SCRATCH = ("eax", "edx", "esi", "edi", "ebp")

_reg = st.sampled_from(_SCRATCH)
_imm = st.integers(min_value=0, max_value=0xFFFF)
_disp = st.integers(min_value=0, max_value=0x38).map(lambda n: n * 4)
#: Byte offsets into the ``near`` words right after the code.
_near = st.integers(min_value=0, max_value=15).map(lambda n: n * 4)

_alu_imm = st.tuples(st.sampled_from(("addi", "subi", "xori", "andi", "ori")), _reg, _imm).map(
    lambda t: "%s %s, %d" % t
)
_alu_shift = st.tuples(st.sampled_from(("shli", "shri")), _reg, st.integers(0, 31)).map(
    lambda t: "%s %s, %d" % t
)
_alu_unary = st.tuples(st.sampled_from(("not", "neg")), _reg).map(lambda t: "%s %s" % t)
_alu_reg = st.tuples(st.sampled_from(("mov", "add", "sub", "xor", "mul", "cmp")), _reg, _reg).map(
    lambda t: "%s %s, %s" % t
)
#: One register instruction; all but ``mov`` write the flags.
_alu = st.one_of(_alu_imm, _alu_shift, _alu_unary, _alu_reg)

_insn = st.one_of(
    _alu_imm,
    _alu_shift,
    _alu_unary,
    _alu_reg,
    st.tuples(st.sampled_from(("ld", "st")), _reg, _disp).map(
        lambda t: "%s %s, [ebx+%d]" % t if t[0] == "ld" else "st [ebx+%d], %s" % (t[2], t[1])
    ),
    st.tuples(st.sampled_from(("ldb", "stb")), _reg, _disp).map(
        lambda t: "%s %s, [ebx+%d]" % t if t[0] == "ldb" else "stb [ebx+%d], %s" % (t[2], t[1])
    ),
)

#: A store into the ``near`` words, which share a snoop granule with code.
_near_store = st.tuples(st.sampled_from(("st", "stb")), _reg, _near).map(
    lambda t: "movi ebp, near\n%s [ebp+%d], %s" % (t[0], t[2], t[1])
)

_DATA_BASE = 0x0010_4000

#: A flag writer right before a store into the ``near`` words: the
#: store's broadcast path is the only thing that reads its flags.
_flagged_near_store = st.tuples(_alu, _near_store).map("\n".join)

#: A flag writer right before a store that writes the loop's first word
#: back unchanged: it invalidates the running trace (the self-
#: modification abort) without changing the program.  ecx is free in a
#: ``jmp``-closed loop and no random instruction touches ebx or ecx.
_self_rewrite = _alu.map(
    lambda writer: "movi ebx, loop\nld ecx, [ebx+0]\n%s\nst [ebx+0], ecx\nmovi ebx, %d"
    % (writer, _DATA_BASE)
)


def _program(body, iterations, data_base, setup=()):
    """``body`` as a loop counted down in ecx, or (``iterations`` None)
    closed with ``jmp`` like compute's tasks: no guard, it runs until
    the cycle budget.  The ``setup`` lines run once before the loop.

    The IRQ handler counts ticks in ``data_base + 248`` and folds the
    interrupted EFLAGS word (``[esp+12]`` under its two pushes) into
    ``data_base + 244``, past every body displacement: the final data
    then differs if any interrupt boundary saw other flags, even ones
    the loop overwrites before reading them."""
    counter = "movi ecx, %d" % (iterations or 0)
    lines = ["start:", "movi ebx, %d" % data_base, counter, *setup, "sti", "loop:"]
    lines.extend(body)
    if iterations is None:
        lines.append("jmp loop")
    else:
        lines.extend(["subi ecx, 1", "jnz loop"])
    lines.extend(["cli", "hlt"])
    lines.extend(
        [
            "irq_handler:",
            "push eax",
            "push ebx",
            "movi ebx, %d" % data_base,
            "ld eax, [ebx+248]",
            "tick:",  # the increment, a code word data stores may patch
            "addi eax, 1",
            "st [ebx+248], eax",
            "ld eax, [ebx+244]",
            "movi ebx, 16777619",  # odd: every fold is invertible
            "mul eax, ebx",
            "ld ebx, [esp+12]",
            "xor eax, ebx",
            "movi ebx, %d" % data_base,
            "st [ebx+244], eax",
            "pop ebx",
            "pop eax",
            "iret",
            "near:",
            ".space 64",
        ]
    )
    return "\n".join(lines) + "\n"


def _run(source, blocks, tick_period, traces=True, max_cycles=500_000):
    platform = Platform(
        MachineConfig(blocks=blocks, traces=traces, tick_period=tick_period)
    )
    base = platform.config.task_ram_base
    data_base = base + 0x4000
    image = link(assemble(source), stack_size=64)
    handler = base + link(assemble(source), entry_symbol="irq_handler", stack_size=64).entry
    near = base + link(assemble(source), entry_symbol="near", stack_size=64).entry
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + base) & 0xFFFFFFFF).to_bytes(4, "little")
    platform.memory.write_raw(base, bytes(blob))
    platform.engine.install_handler(Vector.TIMER, handler)
    cpu = platform.cpu
    cpu.regs.eip = base + image.entry
    cpu.regs.esp = base + 0x8000
    platform.tick_timer.start(platform.clock.now)
    entry = platform.run_isa_until_event(max_cycles=max_cycles)
    assert entry.kind == "halt"
    return {
        "retired": cpu.retired,
        "cycles": platform.clock.now,
        "gpr": list(cpu.regs.gpr),
        "eip": cpu.regs.eip,
        "eflags": cpu.regs.eflags,
        "data": platform.memory.read_raw(data_base, 0x100),
        "near": platform.memory.read_raw(near, 64),
        "ticks": platform.tick_timer.ticks,
        "events": [
            event.to_dict()
            for event in platform.obs.events
            if event.source != "perf"
        ],
    }


@settings(max_examples=25, deadline=None)
@given(
    body=st.lists(_insn, min_size=4, max_size=24),
    iterations=st.integers(min_value=2, max_value=40),
    tick_period=st.integers(min_value=60, max_value=3000),
)
# Regression: a flag-live shri over a folded add chain once compiled to
# ``X & 4294967295 >> 24`` - Python precedence rebinds that to a mask
# by 255 (render_clean must parenthesize).
@example(
    body=[
        "addi eax, 6188",
        "addi eax, 0",
        "addi eax, 0",
        "addi eax, 0",
        "addi eax, 0",
        "shri eax, 24",
        "ld edx, [ebx+0]",
    ],
    iterations=24,
    tick_period=60,
)
def test_blocks_invisible_under_random_irqs(body, iterations, tick_period):
    source = _program(body, iterations, 0x0010_4000)
    plain = _run(source, blocks=False, tick_period=tick_period)
    blocked = _run(source, blocks=True, tick_period=tick_period)
    assert plain == blocked
    # The timer genuinely interrupted at least once on longer runs, so
    # the equality above exercised interrupt delivery, not just ALU.
    if plain["cycles"] > 2 * tick_period:
        assert plain["ticks"] > 0


@settings(max_examples=25, deadline=None)
@given(
    body=st.lists(_insn, min_size=4, max_size=24),
    iterations=st.integers(min_value=2, max_value=40),
    tick_period=st.integers(min_value=60, max_value=3000),
)
def test_traces_invisible_under_random_irqs(body, iterations, tick_period):
    """The trace JIT is architecturally invisible: traces-on vs
    traces-off (block tier in both) agree on every final-state field
    and on the whole event stream - so every interrupt was delivered
    on exactly the same instruction boundary."""
    source = _program(body, iterations, 0x0010_4000)
    ablated = _run(source, blocks=True, tick_period=tick_period, traces=False)
    traced = _run(source, blocks=True, tick_period=tick_period, traces=True)
    assert ablated == traced
    if ablated["cycles"] > 2 * tick_period:
        assert ablated["ticks"] > 0


@settings(max_examples=25, deadline=None)
@given(
    body=st.lists(st.one_of(_insn, _near_store), min_size=4, max_size=24),
    tick_period=st.integers(min_value=60, max_value=3000),
    budget=st.integers(min_value=1_000, max_value=10_000),
)
# Regression: a counted loop whose body folds away entirely once
# compiled an empty ``for`` into its fast body (IndentationError).
@example(body=["addi eax, 0"] * 4, tick_period=60, budget=1000)
def test_stores_next_to_code_invisible_under_random_irqs(body, tick_period, budget):
    """Stores into the words right after the code take the broadcast
    store path, and the exact-span snoop never leaves stale code
    running: interpreter, blocks and traces agree at the end of the
    cycle budget.

    The loop never exits within the budget: a trace headed at the
    closing ``jnz`` stops the simulated clock when its head guard fails
    on loop exit (the trace-JIT livelock pinned in ``perfbench/tests``),
    which these programs reach in a few percent of examples."""
    source = _program(body, 0x7FFFFFFF, 0x0010_4000)
    plain = _run(source, blocks=False, tick_period=tick_period, max_cycles=budget)
    blocked = _run(
        source, blocks=True, tick_period=tick_period, traces=False, max_cycles=budget
    )
    traced = _run(source, blocks=True, tick_period=tick_period, max_cycles=budget)
    assert plain == blocked == traced
    assert plain["ticks"] > 0 or budget < 2 * tick_period


@settings(max_examples=25, deadline=None)
@given(
    body=st.lists(
        st.one_of(_insn, _flagged_near_store, _self_rewrite), min_size=4, max_size=24
    ),
    tick_period=st.integers(min_value=60, max_value=3000),
    budget=st.integers(min_value=2_000, max_value=20_000),
)
def test_jmp_closed_loops_invisible_under_random_irqs(body, tick_period, budget):
    """compute's loop shape: a body closed by ``jmp``, with no guard, so
    the last flag writer of an iteration is read only on the way out -
    at a store's slow path or abort, a horizon cut, or the end of the
    admitted iterations - and the exits rebuild EFLAGS from its kept
    operands.  Interpreter, blocks and traces agree at the end of the
    cycle budget, including the EFLAGS every interrupt saw."""
    source = _program(body, None, _DATA_BASE)
    plain = _run(source, blocks=False, tick_period=tick_period, max_cycles=budget)
    blocked = _run(
        source, blocks=True, tick_period=tick_period, traces=False, max_cycles=budget
    )
    traced = _run(source, blocks=True, tick_period=tick_period, max_cycles=budget)
    assert plain == blocked == traced
    assert plain["ticks"] > 0 or budget < 2 * tick_period
