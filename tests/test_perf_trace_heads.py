"""Only guest transfers feed the trace profile.

A kernel context restore resumes a task wherever the tick preempted
it, so the resume point is not a place the task's own control flow
chose, and the exit the JIT last saw belongs to whichever task ran
before.  The resume closes no profile edge, with two exceptions that
are guest transfers: a task resumed right after its ``int`` (a syscall
returning, or a sleep ending) closes the edge from that ``int``, and a
guest ISR's single-stepped ``iret`` closes the edge from the last body
exit as before.  A dispatch the engine refuses (a transfer hook is
attached) spends a resume there, so a later dispatch is not taken for
one.
"""

import collections

from repro import TyTAN
from repro.hw.exceptions import ExceptionEngine, Vector
from repro.image.linker import link
from repro.isa.assembler import assemble
from repro.perf.bench_core import (
    CODE_BASE,
    DATA_BASE,
    IDT_BASE,
    _build_mode_rig,
    _irq_source,
    _run,
    build_rig,
)
from repro.perf.traces import TRACE_HOT_EDGE

#: A three-instruction loop closed by ``jmp``: no checkpoint inside it,
#: so a task stops mid-loop only where a tick lands.
_SLICED_SOURCE = """
.section .text
.global start
start:
    movi esi, buf
    movi eax, %d
loop:
    addi eax, 3
    xori eax, 0x55
    st [esi], eax
    jmp loop
.section .data
    .space 256
buf:
    .word 0
"""

#: A task that sleeps in ``int 0x20`` and resumes at ``back``.
_SLEEPER_SOURCE = """
.section .text
.global start
start:
    movi esi, count
again:
    ld eax, [esi]
    addi eax, 1
    st [esi], eax
    movi eax, 7          ; DELAY_CYCLES
    movi ebx, 3000
    int 0x20
back:
    jmp again
.section .data
    .space 256
count:
    .word 0
"""


def _offset(source, label):
    """Offset of ``label`` in ``source``'s linked image."""
    return link(assemble(source), entry_symbol=label, stack_size=64).entry


def _heads(jit):
    """Start addresses of the compiled traces."""
    return {start for start, trace in jit.cache.entries.items() if trace.run is not None}


def _record_resumes(monkeypatch, engine):
    """Count the EIP every ``hw_return`` resumes at."""
    resumes = collections.Counter()
    hw_return = engine.hw_return

    def recording(cpu):
        eip = hw_return(cpu)
        resumes[eip] += 1
        return eip

    monkeypatch.setattr(engine, "hw_return", recording)
    return resumes


class TestResumeEdges:
    def test_time_sliced_tasks_head_no_trace_where_the_tick_landed(self, monkeypatch):
        system = TyTAN()
        resumes = _record_resumes(monkeypatch, system.platform.engine)
        loops = set()
        for x0 in (1, 2):
            source = _SLICED_SOURCE % x0
            task = system.load_source(source, "sliced-%d" % x0, secure=False, priority=2)
            loops.add(task.base + _offset(source, "loop"))
        system.run(max_cycles=25 * system.platform.config.hz // 1000)
        mid_loop = {
            eip for eip, count in resumes.items() if count >= TRACE_HOT_EDGE and eip not in loops
        }
        # Both tasks stop at the same mid-loop points again and again.
        assert len(mid_loop) >= 2
        assert _heads(system.platform.cpu.block_engine.traces) == loops

    def test_a_syscall_return_point_still_heads_a_trace(self, monkeypatch):
        system = TyTAN()
        resumes = _record_resumes(monkeypatch, system.platform.engine)
        system.load_source(_SLICED_SOURCE % 1, "sliced", secure=False, priority=2)
        sleeper = system.load_source(_SLEEPER_SOURCE, "sleeper", secure=False, priority=3)
        back = sleeper.base + _offset(_SLEEPER_SOURCE, "back")
        system.run(max_cycles=2 * system.platform.config.hz // 1000)
        assert resumes[back] >= TRACE_HOT_EDGE
        assert back in _heads(system.platform.cpu.block_engine.traces)

    def test_a_guest_isr_iret_still_closes_its_edge(self):
        source = _irq_source(ticks=750)
        cpu, timer = _build_mode_rig(source, "traces", irq=True)
        _run(cpu, timer)
        jit = cpu.block_engine.traces
        heads = _heads(jit)
        # The loop head, and the point the tick interrupts most: the
        # ISR's ``iret`` returns there, a transfer the profile keeps.
        assert jit.counters.compiles.value == len(heads) == 2
        assert CODE_BASE + _offset(source, "loop") in heads


#: Eight straight-line instructions closed by ``jmp``: one checkpoint
#: boundary after the fourth, and a guest handler that only returns.
_HOOKED_SOURCE = """\
start:
    movi ebx, %d
loop:
    addi eax, 1
    xori edx, 0x55
    addi esi, 3
    st [ebx+0], eax
    addi edi, 5
    xor eax, edx
    st [ebx+4], esi
    addi ecx, 1
    jmp loop
handler:
    iret
""" % DATA_BASE


class TestRefusedDispatch:
    def test_a_resume_under_a_transfer_hook_is_spent_there(self):
        cpu = build_rig(fastpath=True, source=_HOOKED_SOURCE)
        engine = ExceptionEngine(cpu.memory, IDT_BASE)
        cpu.attach_engine(engine)
        engine.install_handler(Vector.TIMER, CODE_BASE + _offset(_HOOKED_SOURCE, "handler"))
        blocks = cpu.enable_blocks()
        loop = CODE_BASE + _offset(_HOOKED_SOURCE, "loop")
        while loop not in _heads(blocks.traces) or cpu.regs.eip != loop:
            cpu.step()
        cpu.transfer_hook = lambda source, target: None
        engine.deliver(cpu, Vector.TIMER)
        cpu.step()  # the handler's iret resumes at the loop head
        assert cpu.regs.eip == loop
        # Three whole iterations and half of the next, all refused: the
        # last one stops at the trace's checkpoint boundary.
        for _ in range(3 * 9 + 4):
            cpu.step()
        assert cpu.regs.eip in blocks.traces.cache.boundaries
        cpu.transfer_hook = None
        cpu.step()
        assert blocks.snapshot()["traces"]["admit"]["resume"] == 0
