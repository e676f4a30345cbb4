"""A deterministic simulated network fabric.

The fabric carries framed datagrams between named endpoints over links
with configurable latency, jitter, loss, duplication, and reordering.
Everything is driven by one seeded :class:`random.Random`, and RNG
draws happen *at send time* in call order, so a run is bit-reproducible
for a given seed regardless of how the caller paces :meth:`advance_to`.

Time is the fabric's own integer microsecond clock (``now``); it is
independent of any device's cycle clock - the fleet orchestrator
converts device compute cycles into fabric microseconds when it
schedules responses.  The fabric exposes a ``now`` attribute so it can
serve directly as the ``clock`` of an :class:`repro.obs.bus.EventBus`.

Construction takes a :class:`FabricProfile` (the typed fault/delay
config object) as the default for every link::

    fabric = NetworkFabric(FabricProfile(latency_us=200, loss=0.1), seed=7)

Scale: the fleet orchestrator sends one *batch* of frames per fabric
tick (:meth:`Endpoint.send_batch`), which amortizes the profile lookup
and the RNG attribute loads over the whole batch, and drains deliveries
through :meth:`NetworkFabric.take_touched` - the set of endpoints that
actually received traffic - instead of scanning every endpoint.

Observability: every datagram publishes ``net-send`` when it enters a
link, ``net-drop`` when the link loses it, and ``net-deliver`` when it
lands in the destination's receive queue (source ``"net"``).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.errors import NetworkError


class FabricProfile:
    """Fault and delay model for one direction of a link.

    This is the typed configuration object for :class:`NetworkFabric`
    (and, through ``FleetConfig``-based construction, for the fleet's
    links).

    Parameters
    ----------
    latency_us:
        Base one-way latency in microseconds.
    jitter_us:
        Uniform extra delay in ``[0, jitter_us]`` per datagram.
    loss:
        Probability a datagram is silently dropped.
    duplicate:
        Probability a datagram is delivered twice.
    reorder:
        Probability a datagram takes a slow path (extra delay of one to
        four base latencies), overtaking later traffic.
    """

    def __init__(self, latency_us=200, jitter_us=0, loss=0.0, duplicate=0.0, reorder=0.0):
        if latency_us < 0 or jitter_us < 0:
            raise NetworkError("link latency/jitter must be non-negative")
        for name, p in (("loss", loss), ("duplicate", duplicate), ("reorder", reorder)):
            if not 0.0 <= p <= 1.0:
                raise NetworkError("link %s must be a probability, got %r" % (name, p))
        self.latency_us = int(latency_us)
        self.jitter_us = int(jitter_us)
        self.loss = float(loss)
        self.duplicate = float(duplicate)
        self.reorder = float(reorder)

    def to_dict(self):
        """JSON-serialisable echo of the profile (result dicts)."""
        return {
            "latency_us": self.latency_us,
            "jitter_us": self.jitter_us,
            "loss": self.loss,
            "duplicate": self.duplicate,
            "reorder": self.reorder,
        }

    def __repr__(self):
        return "FabricProfile(lat=%dus, jit=%dus, loss=%.2f, dup=%.2f, reorder=%.2f)" % (
            self.latency_us,
            self.jitter_us,
            self.loss,
            self.duplicate,
            self.reorder,
        )


class Endpoint:
    """One attachment point on the fabric: a name plus a receive queue."""

    def __init__(self, fabric, name):
        self.fabric = fabric
        self.name = name
        #: Delivered datagrams, oldest first: ``(src_name, payload)``.
        self.rx = deque()

    def send(self, dst, payload, at=None):
        """Send a datagram to endpoint ``dst``; returns False if lost."""
        return self.fabric.send(self.name, dst, payload, at=at)

    def send_batch(self, items, at=None):
        """Send ``[(dst, payload), ...]`` in order; returns sent count."""
        return self.fabric.send_batch(self.name, items, at=at)

    def recv(self):
        """Pop the oldest delivered datagram, or ``None``."""
        return self.rx.popleft() if self.rx else None

    def drain(self):
        """Pop every delivered datagram as a list of ``(src, payload)``."""
        items = list(self.rx)
        self.rx.clear()
        return items

    def pending(self):
        """Number of delivered datagrams waiting to be read."""
        return len(self.rx)

    def __repr__(self):
        return "Endpoint(%s, %d pending)" % (self.name, len(self.rx))


class NetworkFabric:
    """The seeded datagram fabric connecting a fleet to its verifier."""

    def __init__(self, profile=None, *, seed=0, obs=None):
        import random

        #: Current fabric time in microseconds.
        self.now = 0
        self._rng = random.Random(seed)
        self._queue = []  # (deliver_at, seq, src, dst, payload)
        self._seq = 0
        self.endpoints = {}
        self._links = {}
        self.default_profile = profile if profile is not None else FabricProfile()
        #: Optional :class:`repro.obs.bus.EventBus` for net-* events.
        self.obs = obs
        #: Endpoint names that received traffic since the last
        #: :meth:`take_touched` (insertion-ordered, deduplicated).
        self._touched = {}
        #: Datagram tallies (deterministic for a given seed).
        self.stats = {
            "sent": 0,
            "dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "delivered": 0,
        }

    # -- topology -----------------------------------------------------------

    def attach(self, name):
        """Create and return the endpoint called ``name``."""
        if name in self.endpoints:
            raise NetworkError("endpoint %r already attached" % name)
        endpoint = Endpoint(self, name)
        self.endpoints[name] = endpoint
        return endpoint

    def set_link(self, src, dst, profile):
        """Override the fault model for the ``src -> dst`` direction."""
        self._links[(src, dst)] = profile

    def profile_for(self, src, dst):
        """The profile governing ``src -> dst`` traffic."""
        return self._links.get((src, dst), self.default_profile)

    # -- traffic ------------------------------------------------------------

    def _publish(self, kind, **data):
        if self.obs is not None:
            self.obs.publish("net", kind, **data)

    def send(self, src, dst, payload, at=None):
        """Inject a datagram; returns False if the link lost it.

        ``at`` schedules the send at a future fabric time (used to model
        device compute latency); RNG draws still happen now, in call
        order, so scheduling does not perturb determinism.
        """
        if src not in self.endpoints:
            raise NetworkError("unknown source endpoint %r" % src)
        if dst not in self.endpoints:
            raise NetworkError("unknown destination endpoint %r" % dst)
        return self._send_one(src, dst, bytes(payload), at)

    def send_batch(self, src, items, at=None):
        """Inject ``[(dst, payload), ...]`` in order; returns sent count.

        One call per fabric tick is the fleet's scale path: the link
        profile is resolved once per destination class and the RNG is
        drawn in one tight loop (in item order, so a batch of N sends
        is bit-identical to N individual :meth:`send` calls).
        """
        if src not in self.endpoints:
            raise NetworkError("unknown source endpoint %r" % src)
        endpoints = self.endpoints
        sent = 0
        for dst, payload in items:
            if dst not in endpoints:
                raise NetworkError("unknown destination endpoint %r" % dst)
            if self._send_one(src, dst, bytes(payload), at):
                sent += 1
        return sent

    def _send_one(self, src, dst, payload, at):
        """Schedule one datagram; the shared core of send/send_batch."""
        when = self.now if at is None else max(int(at), self.now)
        profile = self.profile_for(src, dst)
        rng = self._rng
        self.stats["sent"] += 1
        if self.obs is not None:
            self._publish("net-send", src=src, dst=dst, size=len(payload), at=when)
        if profile.loss and rng.random() < profile.loss:
            self.stats["dropped"] += 1
            self._publish("net-drop", src=src, dst=dst, size=len(payload))
            return False
        copies = 1
        if profile.duplicate and rng.random() < profile.duplicate:
            copies = 2
            self.stats["duplicated"] += 1
        for _ in range(copies):
            delay = profile.latency_us
            if profile.jitter_us:
                delay += rng.randint(0, profile.jitter_us)
            if profile.reorder and rng.random() < profile.reorder:
                delay += profile.latency_us + rng.randint(0, 3 * profile.latency_us)
                self.stats["reordered"] += 1
            heapq.heappush(self._queue, (when + delay, self._seq, src, dst, payload))
            self._seq += 1
        return True

    # -- time ---------------------------------------------------------------

    def next_delivery(self):
        """Fabric time of the earliest in-flight datagram, or ``None``."""
        return self._queue[0][0] if self._queue else None

    def advance_to(self, t):
        """Advance fabric time to ``t``, delivering everything due."""
        t = max(int(t), self.now)
        queue = self._queue
        endpoints = self.endpoints
        touched = self._touched
        while queue and queue[0][0] <= t:
            when, _, src, dst, payload = heapq.heappop(queue)
            # Stamp obs events at the delivery instant, not the target.
            self.now = when
            endpoints[dst].rx.append((src, payload))
            touched[dst] = True
            self.stats["delivered"] += 1
            self._publish("net-deliver", src=src, dst=dst, size=len(payload))
        self.now = t

    def advance(self, dt):
        """Advance fabric time by ``dt`` microseconds."""
        self.advance_to(self.now + int(dt))

    def take_touched(self):
        """Endpoint names delivered to since the last call, in delivery
        order.  The fleet's O(active) alternative to scanning every
        endpoint for pending traffic."""
        touched = list(self._touched)
        self._touched.clear()
        return touched

    def in_flight(self):
        """Number of datagrams currently traversing links."""
        return len(self._queue)

    def __repr__(self):
        return "NetworkFabric(t=%dus, %d endpoints, %d in flight)" % (
            self.now,
            len(self.endpoints),
            len(self._queue),
        )
