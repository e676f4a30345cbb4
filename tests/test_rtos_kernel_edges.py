"""Kernel edge cases: parking, round-robin, IRQ handlers, re-entrancy."""

import pytest

from repro.errors import KernelPanic
from repro.hw.exceptions import Vector
from repro.rtos.task import NativeCall

from conftest import COUNTER_TASK, read_counter


def load_isa(kernel, loader, source, name="t", priority=3):
    from repro.isa.assembler import assemble
    from repro.image.linker import link

    image = link(assemble(source, name), name=name, stack_size=256)
    return loader.load_synchronously(image, secure=False, name=name).task


class TestParking:
    def test_deadline_mid_task_parks_and_resumes(self, baseline):
        """Stopping run() mid-slice must leave the task resumable."""
        platform, kernel, loader = baseline
        task = load_isa(kernel, loader, COUNTER_TASK)
        # Stop after a budget so small the task is still mid-activation.
        kernel.run(max_cycles=700)
        assert task.tid in kernel.scheduler.tasks
        # Resume: the counter keeps advancing correctly afterwards.
        kernel.run(max_cycles=200_000)
        assert read_counter(kernel, task) >= 5
        assert not kernel.faulted

    def test_repeated_short_runs_equal_one_long_run(self, baseline):
        platform, kernel, loader = baseline
        task = load_isa(kernel, loader, COUNTER_TASK)
        for _ in range(40):
            kernel.run(max_cycles=8_000)
        total = platform.clock.now
        count = read_counter(kernel, task)
        # ~one increment per 32k cycles regardless of run granularity.
        assert abs(count - total // 32_000) <= 2


class TestRoundRobin:
    def test_equal_priority_isa_tasks_share_ticks(self, baseline):
        """Two spinners at one priority both make progress (tick
        time-slicing re-queues the preempted task)."""
        platform, kernel, loader = baseline
        spin = """
.global start
start:
    movi esi, c
again:
    ld eax, [esi]
    addi eax, 1
    st [esi], eax
    jmp again
.section .data
c:
    .word 0
"""
        a = load_isa(kernel, loader, spin, "a")
        b = load_isa(kernel, loader, spin, "b")
        kernel.run(max_cycles=320_000)
        count_a = read_counter(kernel, a)
        count_b = read_counter(kernel, b)
        assert count_a > 1_000 and count_b > 1_000
        assert abs(count_a - count_b) / max(count_a, count_b) < 0.3


class TestIrqHandlers:
    def test_registered_irq_handler_runs(self, baseline):
        platform, kernel, loader = baseline
        hits = []
        kernel.register_irq(Vector.DEVICE_BASE + 2, lambda k: hits.append(k.clock.now))

        def poker(k, task):
            yield NativeCall.delay_cycles(5_000)
            platform.engine.controller.raise_irq(Vector.DEVICE_BASE + 2)
            yield NativeCall.delay_cycles(5_000)

        kernel.create_native_task("poker", 2, poker)
        kernel.run(max_cycles=100_000)
        assert len(hits) == 1

    def test_irq_interrupts_isa_task(self, baseline):
        """A device IRQ raised while an ISA task spins is serviced."""
        platform, kernel, loader = baseline
        hits = []
        kernel.register_irq(Vector.DEVICE_BASE + 3, lambda k: hits.append(1))
        spin = ".global start\nstart:\n    jmp start"
        load_isa(kernel, loader, spin, "spin")
        # Arm the RTC alarm to raise a different IRQ as well.
        platform.engine.controller.raise_irq(Vector.DEVICE_BASE + 3)
        kernel.run(max_cycles=50_000)
        assert hits == [1]

    def test_unhandled_device_irq_is_benign(self, baseline):
        platform, kernel, loader = baseline
        load_isa(kernel, loader, COUNTER_TASK)
        platform.engine.controller.raise_irq(Vector.DEVICE_BASE + 7)
        kernel.run(max_cycles=100_000)
        assert not kernel.faulted


class TestRunLoop:
    def test_reentrant_run_rejected(self, baseline):
        platform, kernel, loader = baseline

        def nasty(k, task):
            with pytest.raises(KernelPanic):
                k.run(max_cycles=10)
            yield NativeCall.charge(10)

        kernel.create_native_task("nasty", 2, nasty)
        kernel.run(max_cycles=50_000)

    def test_stop_from_task(self, baseline):
        platform, kernel, loader = baseline

        def stopper(k, task):
            yield NativeCall.charge(1_000)
            k.stop()
            yield NativeCall.charge(1_000)

        kernel.create_native_task("stopper", 2, stopper)
        kernel.run(max_cycles=10_000_000)
        assert platform.clock.now < 1_000_000  # stopped early

    def test_until_predicate(self, baseline):
        platform, kernel, loader = baseline
        load_isa(kernel, loader, COUNTER_TASK)
        kernel.run(until=lambda: platform.clock.now >= 50_000, max_cycles=10**7)
        assert 50_000 <= platform.clock.now < 200_000

    def test_run_with_no_tasks_returns(self, baseline):
        platform, kernel, loader = baseline
        kernel.run(max_cycles=1_000_000)
        assert platform.clock.now < 1_000_000

    def test_event_sink_sees_lifecycle(self, baseline):
        platform, kernel, loader = baseline
        kinds = []
        kernel.obs.subscribe(lambda event: kinds.append(event.kind))
        task = load_isa(kernel, loader, COUNTER_TASK)
        kernel.run(max_cycles=100_000)
        assert "task-loaded" in kinds
        assert "syscall" in kinds
        assert "task-woken" in kinds
