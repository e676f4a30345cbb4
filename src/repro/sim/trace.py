"""Event tracing.

:class:`EventTrace` records ``(cycle, kind, data)`` tuples with query
helpers.  It is now a thin compatibility shim over the unified
observability bus (:mod:`repro.obs`): given a kernel it subscribes to
``kernel.obs`` and therefore sees events from *every* layer (hardware,
kernel, trusted components), not just the kernel's own emissions.  New
code should use the bus directly - ``kernel.obs.subscribe`` /
``kernel.obs.of_kind`` - and the :mod:`repro.obs.exporters` for output.

:class:`ActivationRecorder` timestamps task activations for rate
analysis (the Table 1 experiment measures whether 1.5 kHz tasks hold
their frequency while a load is in flight).
"""

from __future__ import annotations


class EventTrace:
    """An in-memory event log (compatibility shim over the bus)."""

    def __init__(self, kernel=None, keep=None, bus=None):
        self.events = []
        #: Optional whitelist of event kinds to keep.
        self.keep = set(keep) if keep is not None else None
        if bus is None and kernel is not None:
            bus = getattr(kernel, "obs", None)
        if bus is not None and bus.enabled:
            bus.subscribe(self._on_bus_event)
        elif kernel is not None:
            # Bus absent or disabled: fall back to the kernel sink so
            # the trace still fills from kernel emissions.
            kernel.add_event_sink(self)

    def _on_bus_event(self, event):
        self(event.cycle, event.kind, event.data)

    def __call__(self, cycle, kind, data):
        if self.keep is None or kind in self.keep:
            self.events.append((cycle, kind, dict(data)))

    def of_kind(self, kind):
        """All events of one kind."""
        return [event for event in self.events if event[1] == kind]

    def count(self, kind):
        """Number of events of one kind."""
        return len(self.of_kind(kind))

    def between(self, start, end):
        """Events in cycle window ``[start, end)``."""
        return [event for event in self.events if start <= event[0] < end]

    def last(self, kind):
        """Most recent event of one kind, or ``None``."""
        matches = self.of_kind(kind)
        return matches[-1] if matches else None

    def clear(self):
        """Drop all recorded events."""
        self.events = []


class ActivationRecorder:
    """Timestamps of named activations (one list per name).

    Tasks (or their wrappers) call :meth:`mark` once per activation;
    :class:`repro.sim.deadline.RateMonitor` analyses the result.
    """

    def __init__(self, clock):
        self.clock = clock
        self.marks = {}

    def mark(self, name):
        """Record one activation of ``name`` now."""
        self.marks.setdefault(name, []).append(self.clock.now)

    def timestamps(self, name):
        """All activation cycles recorded for ``name``."""
        return list(self.marks.get(name, []))

    def count_between(self, name, start, end):
        """Activations of ``name`` in cycle window ``[start, end)``."""
        return sum(1 for t in self.marks.get(name, []) if start <= t < end)
