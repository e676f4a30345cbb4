"""VCD (Value Change Dump) export of kernel execution traces.

Hardware people read waveforms.  :class:`VcdRecorder` subscribes to the
observability bus and records per-task scheduling state plus interrupt
activity as signals on the platform's cycle clock;
:meth:`VcdRecorder.dump` writes an IEEE-1364 VCD file loadable in
GTKWave & friends, with one 3-bit state signal per task
(idle/ready/running/blocked/suspended) and an event wire per interrupt
vector.
"""

from __future__ import annotations

from repro.rtos.task import TaskState

#: VCD state encoding for task signals.
STATE_CODES = {
    None: 0,  # not yet created / deleted
    TaskState.READY: 1,
    TaskState.RUNNING: 2,
    TaskState.BLOCKED: 3,
    TaskState.SUSPENDED: 4,
    TaskState.DELETED: 5,
}

_IDCHARS = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class VcdRecorder:
    """Records task-state and IRQ changes for VCD export.

    Attach to a kernel at construction; drive the system; call
    :meth:`dump`.  State sampling is event-based (state changes are
    captured at every event on the kernel's bus), which is exactly when
    the states can change.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.clock = kernel.clock
        #: signal name -> list of (cycle, value)
        self._changes = {}
        #: last recorded value per signal
        self._last = {}
        #: known task signals: tid -> signal name
        self._task_signals = {}
        kernel.obs.subscribe(self._on_event)
        # Per-transition precision: the scheduler notifies us directly.
        kernel.scheduler.state_hook = self._on_state_change
        self._sample(0)

    def _on_state_change(self, task):
        name = self._signal_for(task)
        self._record(name, self.clock.now, STATE_CODES.get(task.state, 0))

    # -- recording ------------------------------------------------------------

    def _signal_for(self, task):
        if task.tid not in self._task_signals:
            name = "task_%s" % task.name.replace(" ", "_").replace(":", "_")
            # Disambiguate duplicates by tid.
            if name in self._changes:
                name = "%s_%d" % (name, task.tid)
            self._task_signals[task.tid] = name
            self._changes[name] = []
            self._last[name] = None
        return self._task_signals[task.tid]

    def _record(self, name, cycle, value):
        if self._last.get(name) == value:
            return
        self._changes.setdefault(name, []).append((cycle, value))
        self._last[name] = value

    def _sample(self, cycle):
        for task in list(self.kernel.scheduler.tasks.values()):
            name = self._signal_for(task)
            self._record(name, cycle, STATE_CODES.get(task.state, 0))

    def _on_event(self, event):
        cycle, kind, data = event.cycle, event.kind, event.data
        if kind == "irq":
            self._record("irq_%d" % data.get("vector", 0), cycle, 1)
            self._record("irq_%d" % data.get("vector", 0), cycle + 1, 0)
        if kind == "task-deleted":
            # Final edge for the deleted task's signal.
            for tid, name in self._task_signals.items():
                if data.get("tid") == tid:
                    self._record(name, cycle, STATE_CODES[TaskState.DELETED])
        self._sample(cycle)

    # -- export ---------------------------------------------------------------

    def dump(self, path=None):
        """Render the VCD text; write to ``path`` when given."""
        from repro import __version__

        lines = [
            "$date TyTAN simulation $end",
            "$version repro %s $end" % __version__,
            "$timescale 1 ns $end",  # 1 cycle ~ 1 ns for viewing purposes
            "$scope module tytan $end",
        ]
        ids = {}
        for index, name in enumerate(sorted(self._changes)):
            code = self._id_code(index)
            ids[name] = code
            width = 3 if name.startswith("task_") else 1
            lines.append("$var wire %d %s %s $end" % (width, code, name))
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")

        # Merge change lists into a single timeline.
        timeline = {}
        for name, changes in self._changes.items():
            for cycle, value in changes:
                timeline.setdefault(cycle, []).append((name, value))
        for cycle in sorted(timeline):
            lines.append("#%d" % cycle)
            for name, value in timeline[cycle]:
                if name.startswith("task_"):
                    lines.append("b%s %s" % (format(value, "03b"), ids[name]))
                else:
                    lines.append("%d%s" % (value, ids[name]))
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    def _id_code(self, index):
        """Short VCD identifier for signal ``index``."""
        if index < len(_IDCHARS):
            return _IDCHARS[index]
        return _IDCHARS[index % len(_IDCHARS)] + _IDCHARS[index // len(_IDCHARS)]

    def signal_names(self):
        """All recorded signal names."""
        return sorted(self._changes)

    def changes(self, name):
        """The (cycle, value) change list of one signal."""
        return list(self._changes.get(name, []))
