"""Activation recording.

:class:`ActivationRecorder` timestamps task activations for rate
analysis (the Table 1 experiment measures whether 1.5 kHz tasks hold
their frequency while a load is in flight).  Events of a run come from
the observability bus (:mod:`repro.obs`): ``kernel.obs.subscribe`` /
``kernel.obs.of_kind`` and the :mod:`repro.obs.exporters`.
"""

from __future__ import annotations


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
