"""Resumed tasks re-enter cached bodies; block heat counts entries only.

A tick may preempt a task at any instruction, and the context restore
resumes it there.  The JIT re-enters a cached trace or block at a
checkpoint boundary through its segment body (a resume between two
checkpoints single-steps to the next one first), so a resume point
inside a cached body never grows a block of its own.  These tests pin
that a resumed segment - entered at a checkpoint, between two, and cut
short by the event horizon, in a trace and in block-only code - ends
bit-identical to single-stepping, that a loop head inside a compiled
block still compiles (it is entered by a control transfer), and that a
firmware-shaped run compiles few blocks, every one of which runs.
"""

import pytest

from repro import TyTAN
from repro.image.linker import link
from repro.isa.assembler import assemble
from repro.perf import translate as translate_module
from repro.perf.traces import TraceJIT
from repro.tools.trace import _load_demo
from repro.uc.cruise_control import CruiseControlSystem

from test_perf_blocks import _bare_cpu, _run_to_halt
from test_prop_cfa_irq import _TIERS, _resume_program, _run_resumed

#: The looping trace headed at ``loop`` has a checkpoint after every
#: fourth body instruction: boundaries at body indices 4, 8 and 12.
_BODY = [
    "addi eax, 3",
    "ld edx, [ebx+0]",
    "xor edx, eax",
    "st [ebx+0], edx",
    "addi esi, 5",
    "shli esi, 1",
    "add edi, esi",
    "st [ebx+4], edi",
    "subi edi, 7",
    "xori eax, 0x55",
    "ld edx, [ebx+8]",
    "add edx, edi",
    "st [ebx+8], edx",
    "mul eax, esi",
]


@pytest.fixture
def resume_ends(monkeypatch):
    """``(first, last, checkpoints)`` of every resumed segment admission."""
    seen = []
    segment_end = TraceJIT._segment_end

    def recording(self, trace, first, budget):
        last = segment_end(self, trace, first, budget)
        if first:
            seen.append((first, last, len(trace.checkpoints)))
        return last

    monkeypatch.setattr(TraceJIT, "_segment_end", recording)
    return seen


class TestResumedSegments:
    @pytest.mark.parametrize("cfa", [False, True], ids=["cfa-off", "cfa-on"])
    @pytest.mark.parametrize(
        "resume_index, tick_period, cut",
        [
            pytest.param(4, 400, False, id="at-checkpoint"),
            pytest.param(6, 400, False, id="between-checkpoints"),
            pytest.param(4, 40, True, id="cut-by-horizon"),
        ],
    )
    def test_resume_matches_single_stepping(self, resume_ends, resume_index, tick_period, cut, cfa):
        source = _resume_program(_BODY, resume_index, 0x0010_4000)
        interpreted, _ = _run_resumed(source, tick_period, cfa, _TIERS[0])
        resumed, engine = _run_resumed(source, tick_period, cfa, _TIERS[-1])
        assert resumed == interpreted
        assert interpreted["ticks"] >= 25
        admits = engine.snapshot()["traces"]["admit"]
        assert admits["resume"] >= 10
        assert resume_ends and all(last > first for first, last, _ in resume_ends)
        # A resume lands on a boundary, or single-steps to the next one.
        assert {first for first, _, _ in resume_ends} == {1 if resume_index == 4 else 2}
        assert any(last <= checkpoints for _, last, checkpoints in resume_ends) == cut
        # Resumes inside the cached trace never grow blocks of their own.
        assert engine.translations.value <= 2


class TestResumeIntoBlocks:
    @pytest.mark.parametrize("tier", [_TIERS[2], _TIERS[3]], ids=["no-traces", "traces"])
    @pytest.mark.parametrize(
        "resume_index",
        [pytest.param(4, id="at-checkpoint"), pytest.param(6, id="between-checkpoints")],
    )
    def test_resume_enters_the_block_at_a_boundary(self, resume_ends, resume_index, tier):
        # A ``call`` closes the loop body: no trace can stitch through
        # it, so only the block at ``loop`` covers the resume point.
        source = _resume_program(_BODY + ["call leaf"], resume_index, 0x0010_4000)
        source += "leaf:\nret\n"
        interpreted, _ = _run_resumed(source, 400, True, _TIERS[0])
        resumed, engine = _run_resumed(source, 400, True, tier)
        assert resumed == interpreted
        assert interpreted["ticks"] >= 25
        assert not any(trace.items for trace in engine.traces.cache.entries.values())
        assert engine.snapshot()["traces"]["admit"]["resume"] >= 10
        # A resume lands on the block's boundary, or single-steps to the
        # next one, instead of growing a block of its own.
        assert {first for first, _, _ in resume_ends} == {1 if resume_index == 4 else 2}
        image = link(assemble(source), entry_symbol="resume", stack_size=64)
        block = engine.cache.entries.get(0x0010_0000 + image.entry)
        assert block is None or block.run is None


#: A loop head (``inner``) strictly inside the block that starts at
#: ``outer``: entered by the ``jnz``, so it must still earn heat.
_NESTED_SOURCE = """\
start:
    movi esi, 30
outer:
    movi ecx, 12
inner:
    addi eax, 1
    addi edx, 2
    subi ecx, 1
    jnz inner
    subi esi, 1
    jnz outer
    hlt
"""


class TestEntryHeat:
    @pytest.mark.parametrize("traces", [True, False], ids=["traces", "no-traces"])
    def test_loop_head_inside_compiled_block_compiles(self, traces):
        cpu = _bare_cpu(_NESTED_SOURCE, blocks=False)
        engine = cpu.enable_blocks(cpu.clock.next_event_horizon, traces=traces)
        _run_to_halt(cpu)
        blocks = {start: block for start, block in engine.cache.entries.items() if block.items}
        outer = blocks[min(blocks)]
        inner = outer.items[1][1]
        assert outer.run is not None
        assert inner in blocks and blocks[inner].run is not None

    def test_block_compiles_on_its_first_admitted_dispatch(self):
        cpu = _bare_cpu(_NESTED_SOURCE, blocks=False)
        budget = [0]
        engine = cpu.enable_blocks(lambda: cpu.clock.now + budget[0], traces=False)
        for _ in range(300):
            cpu.step()
        discovered = [block for block in engine.cache.entries.values() if block.items]
        assert discovered and engine.traces.counters.admits_reject.value > 0
        assert engine.translations.value == 0
        assert all(block.run is None for block in discovered)
        budget[0] = 1_000
        _run_to_halt(cpu)
        compiled = [block for block in engine.cache.entries.values() if block.run is not None]
        assert engine.translations.value == len(compiled) >= len(discovered)


#: An unrolled read-modify-write burst and a short sleep: ticks preempt
#: it at every point of the burst.
_BURST_SOURCE = """
.section .text
.global start
start:
    movi edx, 12345
    movi esi, buf
again:
%s
    movi eax, 7          ; DELAY_CYCLES
    movi ebx, 2000
    int 0x20
    jmp again
.section .data
buf:
    .word 0
""" % "\n".join(
    "    ld ebx, [esi]\n    xor ebx, edx\n    addi ebx, 7\n    st [esi], ebx\n    addi edx, 0x3C6EF372"
    for _ in range(16)
)


class TestFirmwareShapedRun:
    def test_few_block_translations_and_every_one_runs(self, monkeypatch):
        translated = []
        translate = translate_module.translate

        def recording(block, codes):
            translate(block, codes)
            runs = [0]
            compiled = block.run

            def run(cpu, blk):
                runs[0] += 1
                return compiled(cpu, blk)

            block.run = run
            translated.append(runs)

        monkeypatch.setattr(translate_module, "translate", recording)
        system = TyTAN()
        uc = CruiseControlSystem(system)
        _load_demo(system)
        system.load_source(_BURST_SOURCE, "burst", secure=False, priority=1)
        ms = system.platform.config.hz // 1000
        system.run(max_cycles=5 * ms)
        uc.activate_cruise_control()
        system.run(max_cycles=45 * ms)
        engine = system.platform.cpu.block_engine
        assert engine.snapshot()["traces"]["admit"]["resume"] > 0
        assert 0 < len(translated) <= 20
        assert all(runs[0] > 0 for runs in translated)
