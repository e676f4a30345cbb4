"""Priority-based preemptive scheduler.

FreeRTOS semantics: a fixed number of priority levels, one FIFO ready
list per level, the highest non-empty level runs, equal priorities
round-robin on each tick.  A delayed list keyed by absolute wake cycle
implements time-outs; the kernel consults :meth:`next_wake` so an idle
system can fast-forward to the next deadline.

Every operation here is O(priorities + delayed tasks) with small
constants - the "bounded execution time for primitives" requirement.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SchedulerError
from repro.rtos.task import TaskState

#: Number of priority levels (0 = idle, higher runs first).
PRIORITY_LEVELS = 8


class Scheduler:
    """Ready lists, delayed list, and the running task pointer."""

    def __init__(self, levels=PRIORITY_LEVELS):
        self.levels = levels
        self._ready = [deque() for _ in range(levels)]
        #: list of (wake_at, tcb), kept sorted by wake_at
        self._delayed = []
        self.current = None
        #: All tasks ever added and not yet deleted, by tid.
        self.tasks = {}
        #: Optional callback ``hook(task)`` fired after every state
        #: transition (tracing / waveform recording).
        self.state_hook = None

    def _notify(self, task):
        if self.state_hook is not None:
            self.state_hook(task)

    # -- membership -----------------------------------------------------------

    def add_task(self, task):
        """Register ``task`` and make it ready."""
        if not 0 <= task.priority < self.levels:
            raise SchedulerError(
                "priority %d outside 0..%d" % (task.priority, self.levels - 1)
            )
        self.tasks[task.tid] = task
        self.make_ready(task)
        return task

    def remove_task(self, task):
        """Forget ``task`` entirely (unload/delete)."""
        self._discard(task)
        self.tasks.pop(task.tid, None)
        task.state = TaskState.DELETED
        self._notify(task)
        if self.current is task:
            self.current = None

    def _discard(self, task):
        # Probe first: a failed ``deque.remove`` formats ``repr(task)``
        # into its ValueError, once per level it misses.
        for level in self._ready:
            if task in level:
                level.remove(task)
        self._delayed = [(t, tcb) for t, tcb in self._delayed if tcb is not task]

    # -- state transitions -----------------------------------------------------

    def make_ready(self, task):
        """Move ``task`` to the back of its priority's ready list."""
        if task.state == TaskState.DELETED:
            raise SchedulerError("cannot ready a deleted task")
        self._discard(task)
        task.state = TaskState.READY
        task.wake_at = None
        task.wait_object = None
        self._ready[task.priority].append(task)
        self._notify(task)

    def delay_until(self, task, wake_at):
        """Block ``task`` until absolute cycle ``wake_at``."""
        self._discard(task)
        task.state = TaskState.BLOCKED
        task.wake_at = wake_at
        self._notify(task)
        self._delayed.append((wake_at, task))
        self._delayed.sort(key=lambda item: item[0])
        if self.current is task:
            self.current = None

    def block(self, task, wait_object):
        """Block ``task`` on ``wait_object`` (no timeout)."""
        self._discard(task)
        task.state = TaskState.BLOCKED
        task.wait_object = wait_object
        self._notify(task)
        if self.current is task:
            self.current = None

    def suspend(self, task):
        """Suspend ``task`` (loaded but not runnable until resumed)."""
        self._discard(task)
        task.state = TaskState.SUSPENDED
        self._notify(task)
        if self.current is task:
            self.current = None

    def wake_sleepers(self, now):
        """Make every delayed task whose deadline passed ready.

        Returns the woken tasks (the tick handler charges per-task
        cycles for them).
        """
        woken = []
        while self._delayed and self._delayed[0][0] <= now:
            _, task = self._delayed.pop(0)
            task.state = TaskState.READY
            task.wake_at = None
            self._ready[task.priority].append(task)
            self._notify(task)
            woken.append(task)
        return woken

    def wake_waiters(self, wait_object, limit=None):
        """Wake tasks blocked on ``wait_object`` (all, or first ``limit``)."""
        woken = []
        for task in list(self.tasks.values()):
            if task.state == TaskState.BLOCKED and task.wait_object == wait_object:
                self.make_ready(task)
                woken.append(task)
                if limit is not None and len(woken) >= limit:
                    break
        return woken

    # -- selection -----------------------------------------------------------

    def pick(self):
        """Highest-priority ready task, or ``None``.  Does not pop."""
        for level in range(self.levels - 1, -1, -1):
            if self._ready[level]:
                return self._ready[level][0]
        return None

    def dispatch(self):
        """Pop the task :meth:`pick` would return and mark it running."""
        task = self.pick()
        if task is None:
            return None
        self._ready[task.priority].popleft()
        task.state = TaskState.RUNNING
        task.activations += 1
        self.current = task
        self._notify(task)
        return task

    def preempt_pending(self):
        """Whether a ready task outranks the current one."""
        if self.current is None:
            return self.pick() is not None
        top = self.pick()
        return top is not None and top.priority > self.current.priority

    def round_robin_pending(self):
        """Whether an equal-priority peer is waiting (tick time-slicing)."""
        if self.current is None:
            return False
        return bool(self._ready[self.current.priority])

    def next_wake(self):
        """Earliest delayed-task deadline, or ``None``."""
        return self._delayed[0][0] if self._delayed else None

    def delayed_count(self):
        """Number of delayed tasks (tick handler charges per task)."""
        return len(self._delayed)

    def ready_count(self):
        """Number of ready tasks across all levels."""
        return sum(len(level) for level in self._ready)
