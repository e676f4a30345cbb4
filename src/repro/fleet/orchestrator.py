"""The fleet orchestrator: N TyTAN machines vs. a sharded verifier tier.

:class:`Fleet` wires everything together from four typed config
objects (:mod:`repro.fleet.config`)::

    fleet = Fleet(
        FleetConfig(devices=10_000, seed=7, boot_mode="snapshot"),
        shards=ShardConfig(shards=8),
        fabric=FabricProfile(latency_us=200, loss=0.1),
        store=StoreConfig(backend="jsonl", path="run.jsonl"),
    )
    result = fleet.run()          # -> FleetResult, schema 3

The pieces:

* a :class:`~repro.net.fabric.NetworkFabric` with one endpoint per
  device plus the verifier tier's, every link sharing the configured
  :class:`~repro.net.fabric.FabricProfile` (seeded RNG);
* an executor (:mod:`repro.fleet.executors`) supplying the device
  machines - snapshot-forked and recycled, or cold-booted - serially
  or on a multiprocessing worker pool of ``workers`` host processes;
* a :class:`~repro.fleet.shards.ShardedVerifierService`: device ids
  consistent-hashed onto N verifier shards, each owning its own nonce
  store and quarantine set;
* an :class:`~repro.fleet.store.AttestationStore` receiving durable
  protocol records, so a run checkpoints and can resume.

The run loop is event-driven over fabric time and built for 10k-100k
devices: each iteration advances to the next delivery or service
deadline, sends the tick's challenges as *one* frame batch
(:meth:`~repro.net.fabric.NetworkFabric.send_batch` - RNG draws
amortized, bit-identical to individual sends), and steps only the
devices the fabric actually delivered to
(:meth:`~repro.net.fabric.NetworkFabric.take_touched` - O(active), not
O(fleet)).  Device compute is charged in *simulated* time, and every
device has its own core, as a real fleet member does: a response is
ready at its delivery time (or when that device finished its previous
response, if later) plus the cycles its own machine charged,
converted to fabric microseconds.  How the host steps the machines -
in-process or on however many worker processes - never enters the
simulation, so the result is the same for every ``workers`` value.

Everything in the :class:`~repro.fleet.result.FleetResult` is
reproducible bit-for-bit for a given configuration and seed.
"""

from __future__ import annotations

from repro import cycles
from repro.fleet.config import ShardConfig, StoreConfig
from repro.fleet.device import device_platform_key, expected_fleet_identity
from repro.fleet.executors import PoolExecutor, SerialExecutor
from repro.fleet.result import SCHEMA_VERSION, FleetResult
from repro.fleet.shards import ShardedVerifierService
from repro.net.fabric import FabricProfile, NetworkFabric
from repro.obs.bus import EventBus

US_PER_SEC = 1_000_000

#: Cycle cost of producing one report (key derivation + MAC), used only
#: to size the default challenge timeout - the run loop charges the
#: cycles each machine *actually* spent.
_ATTEST_CYCLES = cycles.KEY_DERIVATION + cycles.ATTEST_MAC


class Fleet:
    """A simulated device fleet under one (sharded) verifier tier."""

    def __init__(self, config, *, shards=None, fabric=None, store=None):
        self.config = config
        self.shard_config = shards if shards is not None else ShardConfig(1)
        self.profile = fabric if fabric is not None else FabricProfile(jitter_us=50)
        if store is None:
            store = StoreConfig("memory")
        elif not isinstance(store, StoreConfig):
            raise TypeError("store must be a StoreConfig")
        self.store_config = store
        self.store = store.build()

        self.devices = config.devices
        self.seed = config.seed
        self.rogue = config.rogue
        self.provider = config.provider
        self.hz = config.hz

        self.fabric = NetworkFabric(self.profile, seed=self.seed)
        #: Fleet-wide observability bus, clocked by fabric time.
        self.obs = EventBus(clock=self.fabric, capacity=config.obs_capacity)
        self.fabric.obs = self.obs
        self.event_counts = {}
        self.obs.subscribe(self._count_event)

        self.verifier_ep = self.fabric.attach("verifier")
        self._device_eps = {}
        self._device_of_addr = {}
        for device_id in range(self.devices):
            address = self._addr(device_id)
            self._device_eps[device_id] = self.fabric.attach(address)
            self._device_of_addr[address] = device_id

        timeout_us = config.timeout_us
        if timeout_us is None:
            # The round trip plus one device's report, both with 2x
            # headroom.  A CFA response additionally derives the
            # evidence key and MACs the path log (roughly another
            # attestation's worth of cycles).
            attest_us = self._cycles_to_us(
                _ATTEST_CYCLES * (2 if config.cfa else 1)
            )
            timeout_us = (
                2 * (self.profile.latency_us + self.profile.jitter_us)
                + 2 * attest_us
                + 10_000
            )
        self.timeout_us = int(timeout_us)

        registry = {
            device_id: device_platform_key(self.seed, device_id)
            for device_id in range(self.devices)
        }
        self.service = ShardedVerifierService(
            registry,
            expected_fleet_identity(cfa=config.cfa),
            config,
            self.shard_config,
            timeout_us=self.timeout_us,
            obs=self.obs,
            store=self.store,
        )

        #: Devices pre-settled from a resumed store checkpoint.
        self.resumed = 0
        if self.store.resume:
            settled = self.store.settled(self.seed)
            if settled:
                self.service.preload(settled)
                self.resumed = len(
                    set(settled) & set(range(self.devices))
                )

        if config.workers:
            self.executor = PoolExecutor(
                range(self.devices),
                fleet_seed=self.seed,
                rogue=self.rogue,
                provider=self.provider,
                workers=config.workers,
                boot_mode=config.boot_mode,
                cfa=config.cfa,
                rogue_mode=config.rogue_mode,
            )
        else:
            self.executor = SerialExecutor(
                range(self.devices),
                fleet_seed=self.seed,
                rogue=self.rogue,
                provider=self.provider,
                boot_mode=config.boot_mode,
                cfa=config.cfa,
                rogue_mode=config.rogue_mode,
            )
        self.compute_cycles = 0
        self.responses_sent = 0

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _addr(device_id):
        return "dev-%05d" % device_id

    def _count_event(self, event):
        self.event_counts[event.kind] = self.event_counts.get(event.kind, 0) + 1

    def _cycles_to_us(self, cycle_count):
        return max(1, (cycle_count * US_PER_SEC) // self.hz)

    # -- the run loop -------------------------------------------------------

    def run(self, max_time_us=600 * US_PER_SEC):
        """Drive the protocol until every device settles.

        Returns the deterministic :class:`~repro.fleet.result.FleetResult`.
        """
        fabric = self.fabric
        service = self.service
        device_eps = self._device_eps
        device_of_addr = self._device_of_addr
        addr = self._addr
        # When each device's core finishes its latest response.
        ready_at = [0] * self.devices
        cycles_to_us = self._cycles_to_us
        self.store.begin_epoch(
            fabric.now,
            seed=self.seed,
            devices=self.devices,
            shards=self.shard_config.shards,
        )
        self.executor.start()
        try:
            while True:
                # One frame batch per tick: every challenge the verifier
                # tier wants to send right now, in shard order.
                challenges = service.poll(fabric.now)
                if challenges:
                    self.verifier_ep.send_batch(
                        [(addr(device_id), frame) for device_id, frame in challenges]
                    )
                if service.done:
                    break
                candidates = [
                    t
                    for t in (fabric.next_delivery(), service.next_wakeup())
                    if t is not None
                ]
                if not candidates:
                    break  # nothing in flight and nothing scheduled
                target = max(fabric.now + 1, min(candidates))
                if target > max_time_us:
                    break
                fabric.advance_to(target)

                # Step only the endpoints the fabric delivered to
                # (sorted by device id, so the executor batch - and
                # with it the response RNG draw order - is canonical).
                batch = []
                verifier_traffic = False
                touched_ids = []
                for name in fabric.take_touched():
                    device_id = device_of_addr.get(name)
                    if device_id is None:
                        verifier_traffic = True
                    else:
                        touched_ids.append(device_id)
                touched_ids.sort()
                for device_id in touched_ids:
                    for _, payload in device_eps[device_id].drain():
                        batch.append((device_id, payload))
                if batch:
                    for device_id, response, spent in self.executor.process(batch):
                        self.compute_cycles += spent
                        if response is None:
                            continue
                        start = max(fabric.now, ready_at[device_id])
                        done_at = start + cycles_to_us(spent)
                        ready_at[device_id] = done_at
                        self.responses_sent += 1
                        device_eps[device_id].send("verifier", response, at=done_at)

                # Feed delivered responses to the verifier tier.
                if verifier_traffic:
                    for source, payload in self.verifier_ep.drain():
                        service.handle(
                            device_of_addr.get(source), payload, fabric.now
                        )
        finally:
            self.executor.close()
        health = self.service.report()
        self.store.checkpoint(
            fabric.now,
            attested=health["attested"],
            quarantined=health["quarantined"],
        )
        return self._result(health)

    # -- results ------------------------------------------------------------

    def _result(self, health=None):
        if health is None:
            health = self.service.report()
        elapsed_us = self.fabric.now
        reports_per_sec = (
            round(health["attested"] * US_PER_SEC / elapsed_us, 2)
            if elapsed_us
            else 0.0
        )
        store_echo = dict(self.store_config.to_dict(), records=self.store.appended)
        return FleetResult(
            {
                "schema": SCHEMA_VERSION,
                "fleet": dict(self.config.to_dict(), timeout_us=self.timeout_us),
                "shards": self.shard_config.to_dict(),
                "link": self.profile.to_dict(),
                "store": store_echo,
                "resumed": self.resumed,
                "health": health.to_dict(),
                "fabric": dict(self.fabric.stats),
                "events": dict(sorted(self.event_counts.items())),
                "compute": {
                    "cycles": self.compute_cycles,
                    "responses": self.responses_sent,
                },
                "sim_elapsed_us": elapsed_us,
                "reports_per_sec": reports_per_sec,
            }
        )

    def healthy(self, result=None):
        """Whether every non-quarantined device attested."""
        health = (result if result is not None else self._result())["health"]
        return health["pending"] == 0 and (
            health["attested"] + health["quarantined"] == health["total"]
        )
