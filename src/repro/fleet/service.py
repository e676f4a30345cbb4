"""The fleet verifier service (one shard's worth).

Drives the challenge-response protocol for every registered device:

* **fresh-nonce issuance with expiry** - each challenge carries a nonce
  from the device's :class:`~repro.core.remote_attest.Verifier` (which
  enforces single use) and is only accepted before its deadline.  On
  timeout the nonce is *retired on tick* - evicted from the verifier's
  issued set and moved to consumed - so the nonce store stays bounded
  and a straggler response to an expired challenge can never verify.
  (Pre-1.4 the expiry was only checked when a response happened to
  arrive, so unanswered challenges leaked issued nonces forever.)
* **retry with timeout and backoff** - an unanswered challenge times
  out and is reissued with a fresh nonce after an exponentially growing
  backoff, up to ``max_attempts``;
* **quarantine** - devices that exhaust their retries, or whose reports
  are affirmatively rejected ``max_rejects`` times (bad MAC or wrong
  identity - a rogue binary), are quarantined and no longer challenged;
* **health reporting** - per-state device counts, protocol counters,
  and latency percentiles over challenge->attested round trips.

Scale: the service keeps a deadline *heap* over its devices, so
:meth:`poll` and :meth:`next_wakeup` cost O(due log N) instead of the
pre-1.4 O(N) scan per call - the difference between 10k devices being
a fleet and being a quadratic stall.

The constructor takes a :class:`~repro.fleet.config.FleetConfig` and a
challenge expiry (``timeout_us=``, or ``config.timeout_us``)::

    service = VerifierService(registry, identity, config, timeout_us=50_000)

The service is transport-agnostic: :meth:`poll` returns the frames to
send, and the orchestrator feeds delivered datagrams to :meth:`handle`.
Per-device state machine::

    pending --poll--> awaiting --verify ok--> attested
       ^                 |  \\--reject x max_rejects--> quarantined
       |                 v
       +----timeout/backoff   (attempts exhausted -> quarantined)
"""

from __future__ import annotations

import heapq

from repro.cfa import PathVerifier, evidence_mac_ok
from repro.core.remote_attest import Verifier
from repro.errors import AttestationError, ConfigurationError
from repro.net.wire import CfaChallenge, CfaResponse, Challenge, Response, decode_message

#: Device protocol states.
PENDING = "pending"
AWAITING = "awaiting"
ATTESTED = "attested"
QUARANTINED = "quarantined"


def _percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return None
    rank = max(1, -(-len(sorted_values) * pct // 100))  # ceil
    return sorted_values[int(rank) - 1]


class _DeviceRecord:
    """Per-device protocol state."""

    __slots__ = (
        "status",
        "attempts",
        "rejects",
        "next_at",
        "seq",
        "nonce",
        "sent_at",
        "expires_at",
        "first_sent_at",
        "latency_us",
        "quarantine_reason",
    )

    def __init__(self):
        self.status = PENDING
        self.attempts = 0
        self.rejects = 0
        self.next_at = 0
        self.seq = None
        self.nonce = None
        self.sent_at = None
        self.expires_at = None
        self.first_sent_at = None
        self.latency_us = None
        self.quarantine_reason = None


class VerifierService:
    """Challenge-response orchestration over a device registry.

    Parameters
    ----------
    registry:
        ``{device_id: platform_key}`` - the out-of-band key material.
    expected_identity:
        The agent identity every device must attest to.
    config:
        The :class:`~repro.fleet.config.FleetConfig` supplying the
        protocol knobs (provider, timeouts, retry policy).
    timeout_us:
        Resolved challenge expiry override; the orchestrator passes the
        fleet-sized timeout here when ``config.timeout_us`` is ``None``.
        One of the two must be set.
    obs:
        Optional event bus for ``fleet-*`` events.
    store:
        Optional :class:`~repro.fleet.store.AttestationStore` receiving
        durable protocol records.
    shard_id:
        This service's shard index (stamped into store records).
    """

    def __init__(
        self,
        registry,
        expected_identity,
        config,
        *,
        timeout_us=None,
        obs=None,
        store=None,
        shard_id=0,
    ):
        resolved_timeout = timeout_us if timeout_us is not None else config.timeout_us
        if resolved_timeout is None:
            raise ConfigurationError(
                "challenge expiry unset: pass timeout_us or set FleetConfig.timeout_us"
            )
        self.config = config
        self.timeout_us = int(resolved_timeout)
        self.max_attempts = config.max_attempts
        self.max_rejects = config.max_rejects
        self.backoff_us = config.backoff_us
        self.backoff_factor = config.backoff_factor
        self.obs = obs
        self.store = store
        self.shard_id = int(shard_id)
        #: Control-flow attestation: challenge with :class:`CfaChallenge`
        #: and adjudicate the path evidence in every response.
        self.cfa = config.cfa
        self._path_verifier = None
        if self.cfa:
            from repro.fleet.device import fleet_task_image

            self._path_verifier = PathVerifier()
            self._path_verifier.register(expected_identity, fleet_task_image(cfa=True))
        self._verifiers = {}
        self._records = {}
        #: Deadline heap: ``(fabric_time, device_id)``.  Every active
        #: deadline (a PENDING retry time or an AWAITING expiry) has an
        #: entry pushed at the moment it was set; superseded entries
        #: are dropped lazily when popped.
        self._heap = []
        for device_id in sorted(registry):
            verifier = Verifier(registry[device_id], config.provider)
            verifier.expect(expected_identity)
            self._verifiers[device_id] = verifier
            self._records[device_id] = _DeviceRecord()
            self._heap.append((0, device_id))
        heapq.heapify(self._heap)
        self._settled = 0
        # Protocol counters (all deterministic for a given run).
        self.challenges = 0
        self.retries = 0
        self.timeouts = 0
        self.rejects = 0
        self.stale = 0
        self.malformed = 0
        self.expired = 0
        #: Devices quarantined on path evidence (CFA verdict not clean).
        self.cfa_quarantines = 0
        self._latencies = []
        self._total_latencies = []

    def _publish(self, kind, device_id, **data):
        if self.obs is not None:
            self.obs.publish("fleet", kind, device=device_id, **data)

    def _backoff(self, attempts):
        return self.backoff_us * int(self.backoff_factor ** max(0, attempts - 1))

    def _quarantine(self, device_id, record, reason, now=0):
        record.status = QUARANTINED
        record.quarantine_reason = reason
        self._settled += 1
        self._publish("fleet-quarantine", device_id, reason=reason)
        if self.store is not None:
            self.store.note_quarantined(now, device_id, self.shard_id, reason)

    def preload(self, settled):
        """Pre-settle devices from a resumed store (no re-challenge).

        ``settled`` maps device ids to ``(status, reason)`` as returned
        by :meth:`repro.fleet.store.AttestationStore.settled`.  Devices
        the service does not own are ignored, so the same map can be
        broadcast to every shard.  Preloaded devices show up in the
        health report with zero attempts and no latency sample.
        """
        for device_id, (status, reason) in settled.items():
            record = self._records.get(device_id)
            if record is None or record.status != PENDING:
                continue
            if status == ATTESTED:
                record.status = ATTESTED
            else:
                record.status = QUARANTINED
                record.quarantine_reason = reason or "resumed"
            self._settled += 1

    # -- outbound -----------------------------------------------------------

    def poll(self, now):
        """Protocol housekeeping at fabric time ``now``.

        Pops every due deadline: expires outstanding challenges
        (retiring their nonces), quarantines exhausted devices, and
        returns the challenge frames to send as a list of
        ``(device_id, frame_bytes)``.
        """
        out = []
        heap = self._heap
        records = self._records
        while heap and heap[0][0] <= now:
            _, device_id = heapq.heappop(heap)
            record = records[device_id]
            if record.status == ATTESTED or record.status == QUARANTINED:
                continue
            if record.status == AWAITING:
                if now < record.expires_at:
                    continue  # superseded entry; the real one is later
                # Timeout: retire the nonce *now* (eviction on tick),
                # so the issued set stays bounded and a straggler
                # response to this challenge can never verify.
                self._verifiers[device_id].retire_nonce(record.nonce)
                self.timeouts += 1
                self._publish("fleet-timeout", device_id, attempt=record.attempts)
                if self.store is not None:
                    self.store.note_expire(now, device_id, self.shard_id)
                record.status = PENDING
                record.next_at = now + self._backoff(record.attempts)
                heapq.heappush(heap, (record.next_at, device_id))
                continue
            # PENDING
            if now < record.next_at:
                continue  # superseded entry
            if record.attempts >= self.max_attempts:
                self._quarantine(device_id, record, "retries-exhausted", now)
                continue
            nonce = self._verifiers[device_id].fresh_nonce()
            record.seq = record.attempts
            record.attempts += 1
            record.nonce = nonce
            record.sent_at = now
            record.expires_at = now + self.timeout_us
            if record.first_sent_at is None:
                record.first_sent_at = now
            record.status = AWAITING
            heapq.heappush(heap, (record.expires_at, device_id))
            self.challenges += 1
            if record.seq:
                self.retries += 1
                self._publish("fleet-retry", device_id, attempt=record.seq)
            self._publish("fleet-challenge", device_id, attempt=record.seq)
            if self.store is not None:
                self.store.note_challenge(now, device_id, self.shard_id, record.seq)
            challenge_cls = CfaChallenge if self.cfa else Challenge
            out.append(
                (device_id, challenge_cls(device_id, record.seq, nonce).to_bytes())
            )
        return out

    def next_wakeup(self):
        """Earliest fabric time the service needs a :meth:`poll`.

        Peeks the deadline heap, discarding entries for settled devices
        and superseded deadlines along the way.
        """
        heap = self._heap
        records = self._records
        while heap:
            when, device_id = heap[0]
            record = records[device_id]
            if record.status == PENDING:
                live = record.next_at
            elif record.status == AWAITING:
                live = record.expires_at
            else:
                heapq.heappop(heap)
                continue
            if when < live:
                heapq.heappop(heap)  # superseded
                continue
            return when
        return None

    # -- inbound ------------------------------------------------------------

    def handle(self, device_id, payload, now):
        """Process one delivered datagram; returns a disposition string.

        Dispositions: ``attested``, ``rejected``, ``quarantined`` (a
        CFA verdict affirmatively proved hijacked control flow),
        ``stale`` (duplicate, wrong attempt, or already-settled
        device), ``expired`` (correct nonce but past its deadline),
        ``malformed``, ``unknown``.
        """
        record = self._records.get(device_id)
        if record is None:
            self.stale += 1
            return "unknown"
        try:
            message = decode_message(payload)
        except AttestationError:
            self.malformed += 1
            self._publish("fleet-malformed", device_id)
            return "malformed"
        wanted = CfaResponse if self.cfa else Response
        if not isinstance(message, wanted) or message.device_id != device_id:
            self.malformed += 1
            self._publish("fleet-malformed", device_id)
            return "malformed"
        if (
            record.status != AWAITING
            or message.seq != record.seq
            or message.report.nonce != record.nonce
        ):
            # Duplicate delivery, a response to a superseded challenge,
            # or traffic after the device settled: ignore.
            self.stale += 1
            return "stale"
        if now > record.expires_at:
            self.expired += 1
            self._publish("fleet-expired", device_id, attempt=record.seq)
            return "expired"
        if self._verifiers[device_id].verify(message.report, record.nonce):
            if self.cfa:
                if not evidence_mac_ok(
                    self._verifiers[device_id]._key, message.evidence, record.nonce
                ):
                    # Unauthentic (or replayed) path evidence: treat it
                    # like any verification reject - retry, then
                    # quarantine on exhaustion.
                    return self._reject(device_id, record, now)
                verdict = self._path_verifier.verify(message.evidence)
                if not verdict.ok:
                    # The evidence is authentic and affirmatively shows
                    # an impossible path (or an unknown/broken log):
                    # no retry can change what already executed.
                    self.cfa_quarantines += 1
                    self._publish(
                        "fleet-cfa-verdict",
                        device_id,
                        verdict=verdict.verdict,
                        reason=verdict.reason,
                    )
                    self._quarantine(
                        device_id, record, "cfa-" + verdict.verdict, now
                    )
                    return "quarantined"
            record.status = ATTESTED
            record.latency_us = now - record.sent_at
            self._settled += 1
            self._latencies.append(record.latency_us)
            self._total_latencies.append(now - record.first_sent_at)
            self._publish(
                "fleet-attested",
                device_id,
                attempt=record.seq,
                latency_us=record.latency_us,
            )
            if self.store is not None:
                self.store.note_attested(
                    now, device_id, self.shard_id, record.seq, record.latency_us
                )
            return "attested"
        return self._reject(device_id, record, now)

    def _reject(self, device_id, record, now):
        """One verification reject: back off, quarantine on exhaustion."""
        record.rejects += 1
        self.rejects += 1
        self._publish("fleet-reject", device_id, attempt=record.seq)
        if record.rejects >= self.max_rejects:
            self._quarantine(device_id, record, "verification-rejected", now)
        else:
            record.status = PENDING
            record.next_at = now + self._backoff(record.attempts)
            heapq.heappush(self._heap, (record.next_at, device_id))
        return "rejected"

    # -- reporting ----------------------------------------------------------

    @property
    def done(self):
        """Whether every device has settled (attested or quarantined)."""
        return self._settled == len(self._records)

    def statuses(self):
        """``{device_id: status}`` for every registered device."""
        return {
            device_id: record.status
            for device_id, record in self._records.items()
        }

    def latencies_us(self):
        """Raw challenge->attested latency samples (for shard merges)."""
        return list(self._latencies)

    def outstanding_nonces(self):
        """Issued-but-unconsumed nonces across this shard's verifiers.

        Bounded by the number of AWAITING devices thanks to tick-time
        retirement; the pre-1.4 service grew this with every timeout.
        """
        return sum(v.outstanding_nonces() for v in self._verifiers.values())

    def report(self):
        """The shard health report (JSON-serialisable, deterministic)."""
        by_status = {PENDING: 0, AWAITING: 0, ATTESTED: 0, QUARANTINED: 0}
        quarantined = []
        attempts_histogram = {}
        for device_id, record in self._records.items():
            by_status[record.status] += 1
            if record.status == QUARANTINED:
                quarantined.append(
                    {"device": device_id, "reason": record.quarantine_reason}
                )
            elif record.status == ATTESTED:
                key = str(record.attempts)
                attempts_histogram[key] = attempts_histogram.get(key, 0) + 1
        latencies = sorted(self._latencies)
        latency = None
        if latencies:
            latency = {
                "count": len(latencies),
                "p50": _percentile(latencies, 50),
                "p90": _percentile(latencies, 90),
                "p99": _percentile(latencies, 99),
                "max": latencies[-1],
                "mean": round(sum(latencies) / len(latencies), 1),
            }
        return {
            "total": len(self._records),
            "attested": by_status[ATTESTED],
            "pending": by_status[PENDING] + by_status[AWAITING],
            "quarantined": by_status[QUARANTINED],
            "quarantined_devices": quarantined,
            "challenges": self.challenges,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "rejects": self.rejects,
            "stale": self.stale,
            "malformed": self.malformed,
            "expired": self.expired,
            "cfa_quarantines": self.cfa_quarantines,
            "attempts_to_attest": attempts_histogram,
            "latency_us": latency,
        }
