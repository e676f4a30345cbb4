"""Property test: CFA path evidence is tier-independent under IRQs.

Hypothesis generates random straight-line loop bodies and a random
tick-timer period, then runs the same program on four full platforms -
baseline interpreter, fast path, block tier, and trace JIT - each with
a :class:`~repro.cfa.recorder.CfaCore` folding every taken transfer
into the path hash.  The final path digest, edge count, segment stream,
and the entire architectural outcome (registers, memory, cycles,
retired count, timer ticks) must be bit-for-bit identical: the trace
tier's closed-form bulk recording and the interpreter's per-edge
recording must commit to exactly the same path, even when interrupts
land mid-loop.

A second property resumes every interrupt mid-trace: the tick handler
returns into the middle of the loop's cached trace instead of the
interrupted instruction, so the trace tier re-enters it through its
segment body - with CFA recording on and off.

A third property pins the recorder's bulk contract directly:
``record_run(src, dst, n)`` interleaved with preemption-style seals is
exactly equivalent to ``n`` single records with the same seals.
"""

from hypothesis import given, settings, strategies as st

from repro.cfa import CfaCore, PathRecorder
from repro.hw.exceptions import Vector
from repro.hw.platform import MachineConfig, Platform
from repro.image.linker import link
from repro.isa.assembler import assemble

_SCRATCH = ("eax", "edx", "esi", "edi", "ebp")

_reg = st.sampled_from(_SCRATCH)
_imm = st.integers(min_value=0, max_value=0xFFFF)
_disp = st.integers(min_value=0, max_value=0x38).map(lambda n: n * 4)

_insn = st.one_of(
    st.tuples(st.sampled_from(("addi", "subi", "xori", "andi", "ori")), _reg, _imm).map(
        lambda t: "%s %s, %d" % t
    ),
    st.tuples(st.sampled_from(("shli", "shri")), _reg, st.integers(0, 31)).map(
        lambda t: "%s %s, %d" % t
    ),
    st.tuples(st.sampled_from(("mov", "add", "sub", "xor", "cmp")), _reg, _reg).map(
        lambda t: "%s %s, %s" % t
    ),
    st.tuples(st.sampled_from(("ld", "st")), _reg, _disp).map(
        lambda t: "%s %s, [ebx+%d]" % t if t[0] == "ld" else "st [ebx+%d], %s" % (t[2], t[1])
    ),
)


def _program(body, iterations, data_base):
    lines = ["start:", "movi ebx, %d" % data_base, "movi ecx, %d" % iterations, "sti", "loop:"]
    lines.extend(body)
    lines.extend(["subi ecx, 1", "jnz loop", "cli", "hlt"])
    lines.extend(
        [
            "irq_handler:",
            "push eax",
            "push ebx",
            "movi ebx, %d" % data_base,
            "ld eax, [ebx+248]",
            "addi eax, 1",
            "st [ebx+248], eax",
            "pop ebx",
            "pop eax",
            "iret",
        ]
    )
    return "\n".join(lines) + "\n"


def _boot(source, *, fastpath, blocks, traces, tick_period, cfa=True):
    """A platform running ``source`` (timer stopped) and its recorder."""
    platform = Platform(
        MachineConfig(
            blocks=blocks, traces=traces, fastpath=fastpath, tick_period=tick_period
        )
    )
    base = platform.config.task_ram_base
    image = link(assemble(source), stack_size=64)
    handler = base + link(assemble(source), entry_symbol="irq_handler", stack_size=64).entry
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + base) & 0xFFFFFFFF).to_bytes(4, "little")
    platform.memory.write_raw(base, bytes(blob))
    platform.engine.install_handler(Vector.TIMER, handler)
    cpu = platform.cpu
    cpu.regs.eip = base + image.entry
    cpu.regs.esp = base + 0x8000
    recorder = None
    if cfa:
        recorder = PathRecorder(segment_runs=8)
        cpu.cfa = CfaCore(platform.clock)
        cpu.cfa.attach_region(base, base + len(image.blob), recorder)
    return platform, recorder


def _outcome(platform, recorder):
    cpu = platform.cpu
    outcome = {
        "retired": cpu.retired,
        "cycles": platform.clock.now,
        "gpr": list(cpu.regs.gpr),
        "eip": cpu.regs.eip,
        "eflags": cpu.regs.eflags,
        "data": platform.memory.read_raw(platform.config.task_ram_base + 0x4000, 0x100),
        "ticks": platform.tick_timer.ticks,
    }
    if recorder is not None:
        recorder.seal()
        outcome.update(
            digest=recorder.path_digest(),
            edges=recorder.edges,
            sealed=recorder.sealed,
            dropped=recorder.dropped,
            segments=[(s.index, s.runs, s.digest) for s in recorder.segments],
        )
    return outcome


def _run(source, *, fastpath, blocks, traces, tick_period):
    platform, recorder = _boot(
        source, fastpath=fastpath, blocks=blocks, traces=traces, tick_period=tick_period
    )
    platform.tick_timer.start(platform.clock.now)
    entry = platform.run_isa_until_event(max_cycles=500_000)
    assert entry.kind == "halt"
    return _outcome(platform, recorder)


_TIERS = (
    {"fastpath": False, "blocks": False, "traces": False},
    {"fastpath": True, "blocks": False, "traces": False},
    {"fastpath": True, "blocks": True, "traces": False},
    {"fastpath": True, "blocks": True, "traces": True},
)


@settings(max_examples=10, deadline=None)
@given(
    body=st.lists(_insn, min_size=4, max_size=20),
    iterations=st.integers(min_value=2, max_value=40),
    tick_period=st.integers(min_value=60, max_value=3000),
)
def test_path_evidence_identical_across_tiers_under_random_irqs(
    body, iterations, tick_period
):
    source = _program(body, iterations, 0x0010_4000)
    baseline = _run(source, tick_period=tick_period, **_TIERS[0])
    assert baseline["edges"] > 0  # the loop back-edge was recorded
    for config in _TIERS[1:]:
        other = _run(source, tick_period=tick_period, **config)
        assert other == baseline, config
    if baseline["cycles"] > 2 * tick_period:
        assert baseline["ticks"] > 0


def _resume_program(body, resume, data_base):
    """A loop that never exits in time; its tick handler returns to body
    instruction ``resume`` (inside the loop's trace), not to the
    interrupted one.  Too short for a block, the handler runs nothing
    compiled between the IRET and the resume."""
    lines = ["start:", "movi ebx, %d" % data_base, "movi ecx, 0x7FFFFFFF", "sti", "loop:"]
    for index, insn in enumerate(body):
        if index == resume:
            lines.append("resume:")
        lines.append(insn)
    lines += ["subi ecx, 1", "jnz loop", "cli", "hlt"]
    lines += ["irq_handler:", "pop ebp", "pushi resume", "iret"]
    return "\n".join(lines) + "\n"


def _run_resumed(source, tick_period, cfa, config):
    """Warm the loop's trace with the timer stopped, then let every tick
    resume mid-trace for a fixed cycle budget; returns the outcome and
    the block engine."""
    platform, recorder = _boot(source, tick_period=tick_period, cfa=cfa, **config)
    platform.run_isa_until_event(max_cycles=4_000)
    platform.tick_timer.start(platform.clock.now)
    platform.run_isa_until_event(max_cycles=30 * tick_period)
    return _outcome(platform, recorder), platform.cpu.block_engine


@settings(max_examples=15, deadline=None)
@given(
    body=st.lists(_insn, min_size=6, max_size=20),
    resume=st.integers(min_value=1, max_value=19),
    tick_period=st.integers(min_value=60, max_value=600),
    cfa=st.booleans(),
)
def test_resume_into_cached_trace_identical_across_tiers(body, resume, tick_period, cfa):
    """All four tiers end in the same architectural state and, with CFA
    on, the same path evidence."""
    source = _resume_program(body, resume % len(body) or 1, 0x0010_4000)
    outcomes = [_run_resumed(source, tick_period, cfa, config)[0] for config in _TIERS]
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    assert outcomes[0]["ticks"] > 0


_run_item = st.tuples(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=9),
)

#: An op stream mixing edge runs with preemption-boundary seals (None).
_ops = st.lists(st.one_of(_run_item, st.none()), max_size=40)


@settings(max_examples=100, deadline=None)
@given(ops=_ops, segment_runs=st.integers(min_value=1, max_value=8))
def test_record_run_equivalent_to_repeated_record_with_seals(ops, segment_runs):
    bulk = PathRecorder(segment_runs=segment_runs, max_segments=4)
    single = PathRecorder(segment_runs=segment_runs, max_segments=4)
    for op in ops:
        if op is None:
            bulk.seal()
            single.seal()
            continue
        src, dst, count = op
        bulk.record_run(src, dst, count)
        for _ in range(count):
            single.record(src, dst)
    assert bulk.path_digest() == single.path_digest()
    assert bulk.open_runs() == single.open_runs()
    assert (bulk.edges, bulk.sealed, bulk.dropped) == (
        single.edges,
        single.sealed,
        single.dropped,
    )
