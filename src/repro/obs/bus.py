"""The unified observability bus.

One structured event stream for the whole stack.  Hardware (EA-MPU
denials, exception delivery, IRQs), the RTOS (context switches, queue
and IPC operations, timer fires), and the trusted components (loader,
IPC proxy, attestation, secure storage) all publish
:class:`Event` records here; exporters (:mod:`repro.obs.exporters`)
turn the stream into JSONL, Chrome trace-event JSON (Perfetto), or a
plain-text summary.

Design constraints, in order:

1. **Zero semantic impact.** Publishing never charges simulated cycles
   and never touches simulated state; runs with the bus enabled and
   disabled are bit-identical (asserted by ``tests/test_obs_bus.py``).
2. **Negligible overhead when disabled.** ``publish`` returns after one
   attribute check; nothing allocates.
3. **Bounded memory.** Events land in a ring buffer (``capacity``
   events); per-task accounting and counters are O(tasks), not
   O(events), so long runs cannot exhaust host memory.

Event taxonomy - ``source`` is one of:

* ``"hw"`` - the simulated hardware (EA-MPU, exception engine, IRQs);
* ``"rtos"`` - the kernel (scheduling, syscalls, task lifecycle);
* ``"tc"`` - a trusted component (loader, IPC proxy, remote attest,
  secure storage, updater); ``data["component"]`` names it;
* ``"perf"`` - the simulator's own fast-path machinery (block-tier
  translate/flush lifecycle).  These describe the *host-side* engine,
  not the simulated machine, and are excluded from cache-on/off
  equivalence comparisons - the only source with that exemption.
"""

from __future__ import annotations

from collections import deque

from repro.obs.accounting import TaskAccounting
from repro.obs.counters import CounterRegistry

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 65_536


class Event:
    """One structured bus event: ``(cycle, source, kind, task, data)``.

    ``task`` is the *name* of the task the event is attributed to (or
    ``None`` for system-level events); ``data`` is a flat dict of
    JSON-serialisable details.
    """

    __slots__ = ("cycle", "source", "kind", "task", "data")

    def __init__(self, cycle, source, kind, task=None, data=None):
        self.cycle = cycle
        self.source = source
        self.kind = kind
        self.task = task
        self.data = data if data is not None else {}

    def to_dict(self):
        """Plain-dict form (the JSONL wire format)."""
        return {
            "cycle": self.cycle,
            "source": self.source,
            "kind": self.kind,
            "task": self.task,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, record):
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            record["cycle"],
            record["source"],
            record["kind"],
            record.get("task"),
            dict(record.get("data", {})),
        )

    def __eq__(self, other):
        if not isinstance(other, Event):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return "Event(%d, %s/%s, task=%r, %r)" % (
            self.cycle,
            self.source,
            self.kind,
            self.task,
            self.data,
        )


class EventBus:
    """The bounded, filterable event bus.

    Parameters
    ----------
    clock:
        Object with a ``now`` attribute (the platform cycle clock) used
        to timestamp events; ``None`` stamps everything at cycle 0.
    capacity:
        Ring-buffer size in events; the oldest events are dropped first.
    enabled:
        Initial master switch.  When false, :meth:`publish` is a single
        attribute check.
    """

    def __init__(self, clock=None, capacity=DEFAULT_CAPACITY, enabled=True):
        self.clock = clock
        self.enabled = enabled
        #: The bounded event ring (oldest dropped first).
        self.events = deque(maxlen=capacity)
        #: Registry of machine counters (cache stats, component tallies).
        self.counters = CounterRegistry()
        #: Always-on per-task totals (cycles, slices, events).
        self.accounting = TaskAccounting()
        #: Count of events dropped by the ring since construction.
        self.dropped = 0
        self._muted = set()
        self._keep = None
        self._subscribers = []

    @property
    def capacity(self):
        """Ring-buffer capacity in events."""
        return self.events.maxlen

    # -- publishing ---------------------------------------------------------

    def publish(self, source, kind, task=None, **data):
        """Record one event; returns it (or ``None`` when filtered).

        The disabled path is one attribute check; the per-kind filters
        drop the event before any allocation beyond the call itself.
        """
        if not self.enabled:
            return None
        if kind in self._muted:
            return None
        keep = self._keep
        if keep is not None and kind not in keep:
            return None
        cycle = self.clock.now if self.clock is not None else 0
        event = Event(cycle, source, kind, task, data)
        ring = self.events
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(event)
        self.accounting.observe(event)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    # -- filtering ----------------------------------------------------------

    def mute(self, *kinds):
        """Drop future events of the given kinds."""
        self._muted.update(kinds)

    def unmute(self, *kinds):
        """Stop dropping the given kinds."""
        self._muted.difference_update(kinds)

    def keep_only(self, kinds):
        """Whitelist: record only ``kinds``; ``None`` clears the filter."""
        self._keep = None if kinds is None else set(kinds)

    def muted_kinds(self):
        """Currently muted kinds, sorted."""
        return sorted(self._muted)

    # -- subscription -------------------------------------------------------

    def subscribe(self, callback):
        """Call ``callback(event)`` on every published event; returns
        ``callback`` so it can be handed back to :meth:`unsubscribe`."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback):
        """Remove a subscriber (no-op when absent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    # -- queries over the ring ----------------------------------------------

    def of_kind(self, kind):
        """All buffered events of one kind."""
        return [event for event in self.events if event.kind == kind]

    def count(self, kind):
        """Number of buffered events of one kind."""
        return sum(1 for event in self.events if event.kind == kind)

    def between(self, start, end):
        """Buffered events in cycle window ``[start, end)``."""
        return [event for event in self.events if start <= event.cycle < end]

    def last(self, kind):
        """Most recent buffered event of one kind, or ``None``."""
        result = None
        for event in self.events:
            if event.kind == kind:
                result = event
        return result

    def kinds(self):
        """``{kind: count}`` over the buffered events."""
        histogram = {}
        for event in self.events:
            histogram[event.kind] = histogram.get(event.kind, 0) + 1
        return histogram

    def clear(self):
        """Drop buffered events and reset the dropped-event tally
        (accounting totals and counters are kept)."""
        self.events.clear()
        self.dropped = 0

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "EventBus(%d/%d events, %s)" % (
            len(self.events),
            self.capacity,
            "enabled" if self.enabled else "disabled",
        )
