"""Typed configuration objects for the fleet stack.

These are the single construction path for the fleet API::

    config = FleetConfig(devices=10_000, seed=7, boot_mode="snapshot")
    fleet = Fleet(
        config,
        shards=ShardConfig(shards=8),
        fabric=FabricProfile(latency_us=200, loss=0.1),
        store=StoreConfig(backend="jsonl", path="run.jsonl"),
    )

Each object validates at construction (bad values raise
:class:`~repro.errors.ConfigurationError` immediately, not three layers
down), and each serialises itself with ``to_dict()`` so result dicts
can echo the exact configuration that produced them.

:class:`~repro.net.fabric.FabricProfile` - the fourth config type -
lives with the fabric in :mod:`repro.net.fabric` and is re-exported
here for convenience.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hw.clock import DEFAULT_HZ
from repro.net.fabric import FabricProfile

__all__ = ["FabricProfile", "FleetConfig", "ShardConfig", "StoreConfig"]

#: Valid device boot strategies (:class:`FleetConfig.boot_mode`).
BOOT_MODES = ("snapshot", "cold")

#: Valid attestation-store backends (:class:`StoreConfig.backend`).
STORE_BACKENDS = ("memory", "jsonl")

#: Valid rogue-device behaviours (:class:`FleetConfig.rogue_mode`).
ROGUE_MODES = ("tamper", "hijack")


class FleetConfig:
    """Everything about the fleet itself: size, seed, compute, protocol.

    Parameters
    ----------
    devices:
        Fleet size.
    seed:
        Master seed: derives every per-device platform key and seeds the
        fabric RNG.  Two runs with equal configs and seeds are
        bit-identical.
    workers:
        Host worker processes stepping the device machines, at least
        2; ``0`` steps them serially in-process.  A host setting only:
        every device computes on its own simulated core whatever the
        value, so it leaves the result (and :meth:`to_dict`) unchanged.
    boot_mode:
        ``"snapshot"`` boots one template machine per device class
        through secure boot and forks the rest from its snapshot
        (re-running only per-device key derivation); ``"cold"`` boots
        every device machine from scratch.  The two are bit-identical
        in every observable output - snapshot is simply the scale path.
    rogue:
        Device ids behaving badly (see ``rogue_mode``).
    rogue_mode:
        What a rogue device does: ``"tamper"`` runs a tampered agent
        binary (wrong identity - static attestation catches it);
        ``"hijack"`` runs the *shipped* binary but corrupts a return
        edge at run time, so static attestation passes and only
        control-flow attestation catches it.  ``"hijack"`` therefore
        requires ``cfa=True``.
    cfa:
        Enable control-flow attestation: devices run an executable
        agent under the CFA monitor and the verifier tier demands path
        evidence with every challenge.
    provider:
        Attestation provider label (Footnote 2 per-provider keys).
    timeout_us:
        Challenge expiry in fabric microseconds; ``None`` sizes it as
        the round trip plus one device's report, each with 2x headroom,
        plus 10 ms.
    max_attempts / max_rejects / backoff_us:
        Retry policy (see :class:`~repro.fleet.service.VerifierService`).
    hz:
        Device clock frequency for cycle -> microsecond conversion.
    obs_capacity:
        Fleet observability ring size.
    """

    def __init__(
        self,
        devices=8,
        *,
        seed=0,
        workers=4,
        boot_mode="snapshot",
        rogue=(),
        rogue_mode="tamper",
        cfa=False,
        provider=b"",
        timeout_us=None,
        max_attempts=8,
        max_rejects=3,
        backoff_us=2_000,
        hz=DEFAULT_HZ,
        obs_capacity=65_536,
    ):
        if devices < 1:
            raise ConfigurationError("a fleet needs at least one device")
        if boot_mode not in BOOT_MODES:
            raise ConfigurationError(
                "boot_mode must be one of %s, got %r" % (BOOT_MODES, boot_mode)
            )
        if workers < 0 or workers == 1:
            raise ConfigurationError("workers must be 0 for serial, or at least 2")
        if max_attempts < 1 or max_rejects < 1:
            raise ConfigurationError("max_attempts/max_rejects must be >= 1")
        if timeout_us is not None and timeout_us < 1:
            raise ConfigurationError("timeout_us must be positive")
        if rogue_mode not in ROGUE_MODES:
            raise ConfigurationError(
                "rogue_mode must be one of %s, got %r" % (ROGUE_MODES, rogue_mode)
            )
        if rogue_mode == "hijack" and not cfa:
            raise ConfigurationError(
                "rogue_mode='hijack' needs cfa=True (a hijacked device is "
                "invisible to static attestation)"
            )
        self.devices = int(devices)
        self.seed = int(seed)
        self.workers = int(workers)
        self.boot_mode = boot_mode
        self.rogue = frozenset(int(r) for r in rogue)
        if self.rogue - set(range(self.devices)):
            raise ConfigurationError("rogue ids outside the fleet")
        self.rogue_mode = rogue_mode
        self.cfa = bool(cfa)
        self.provider = bytes(provider)
        self.timeout_us = None if timeout_us is None else int(timeout_us)
        self.max_attempts = int(max_attempts)
        self.max_rejects = int(max_rejects)
        self.backoff_us = int(backoff_us)
        self.hz = int(hz)
        self.obs_capacity = int(obs_capacity)

    def to_dict(self):
        """JSON-serialisable echo of the simulated fleet (goes into
        every result dict); ``workers``, a host setting, is left out."""
        return {
            "devices": self.devices,
            "seed": self.seed,
            "boot_mode": self.boot_mode,
            "rogue": sorted(self.rogue),
            "rogue_mode": self.rogue_mode,
            "cfa": self.cfa,
            "provider": self.provider.hex(),
            "timeout_us": self.timeout_us,
            "max_attempts": self.max_attempts,
            "max_rejects": self.max_rejects,
            "backoff_us": self.backoff_us,
            "hz": self.hz,
        }

    def __repr__(self):
        return "FleetConfig(%d devices, seed=%d, %s boot, %d workers)" % (
            self.devices,
            self.seed,
            self.boot_mode,
            self.workers,
        )


class ShardConfig:
    """How the verifier tier is sharded.

    Device ids are placed on shards by a consistent-hash ring
    (:class:`~repro.fleet.shards.HashRing`): each shard contributes
    ``vnodes`` virtual points, so adding a shard only moves the devices
    that land on the new shard's points - every other assignment is
    stable.

    Parameters
    ----------
    shards:
        Verifier shard count (1 = the unsharded service).
    vnodes:
        Virtual points per shard on the ring; more vnodes = smoother
        balance, slightly larger ring.
    salt:
        Ring salt, mixed into every hash; lets two rings over the same
        ids disagree (e.g. test fixtures).
    """

    def __init__(self, shards=1, *, vnodes=64, salt=b"tytan-fleet-ring"):
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.shards = int(shards)
        self.vnodes = int(vnodes)
        self.salt = bytes(salt)

    def to_dict(self):
        """JSON-serialisable echo of the shard layout."""
        return {
            "shards": self.shards,
            "vnodes": self.vnodes,
            "salt": self.salt.hex(),
        }

    def __repr__(self):
        return "ShardConfig(%d shards, %d vnodes)" % (self.shards, self.vnodes)


class StoreConfig:
    """Where attestation protocol state is persisted.

    Parameters
    ----------
    backend:
        ``"memory"`` (records kept in-process, lost at exit) or
        ``"jsonl"`` (append-only JSON-lines file at ``path``).
    path:
        Backing file for the ``jsonl`` backend (required there,
        ignored for ``memory``).
    resume:
        When True, settled outcomes (attested / quarantined devices)
        recorded by a previous run with the same fleet seed are loaded
        before the run starts, and those devices are not re-challenged.
    """

    def __init__(self, backend="memory", *, path=None, resume=False):
        if backend not in STORE_BACKENDS:
            raise ConfigurationError(
                "store backend must be one of %s, got %r"
                % (STORE_BACKENDS, backend)
            )
        if backend == "jsonl" and not path:
            raise ConfigurationError("jsonl store needs a path")
        self.backend = backend
        self.path = path
        self.resume = bool(resume)

    def build(self):
        """Construct the configured :class:`AttestationStore`."""
        from repro.fleet.store import JsonlStore, MemoryStore

        if self.backend == "jsonl":
            return JsonlStore(self.path, resume=self.resume)
        return MemoryStore(resume=self.resume)

    def to_dict(self):
        """JSON-serialisable echo of the store configuration."""
        return {
            "backend": self.backend,
            "path": self.path,
            "resume": self.resume,
        }

    def __repr__(self):
        return "StoreConfig(%s%s)" % (
            self.backend,
            ", path=%s" % self.path if self.path else "",
        )
