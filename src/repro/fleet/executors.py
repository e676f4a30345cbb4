"""Device executors: who steps the fleet's machines.

The orchestrator hands an executor batches of ``(device_id, payload)``
datagrams and gets back ``(device_id, response | None, cycles)``
triples.  Responses are pure functions of the device state and the
challenge, so every executor/boot-mode combination produces
byte-identical results - they differ only in *who* does the work and
*how machines come to exist*:

* :class:`SerialExecutor` - one in-process :class:`DevicePool`, stepped
  sequentially.
* :class:`PoolExecutor` - a ``multiprocessing`` worker pool; each
  worker owns its own :class:`DevicePool` and steps its batch share.

Boot modes come from :class:`~repro.fleet.config.FleetConfig`:
``snapshot`` (fork-from-template, machines recycled by rekey - the
10k-device path) or ``cold`` (one booted machine per device id).

The choice of executor changes host time only: the orchestrator
charges each response to its own device's core in simulated time, so
the result never depends on which executor stepped the machines.  On
a 2-core host the pool shows no consistent gain over the serial
executor (docs/FLEET.md has the measurements).
"""

from __future__ import annotations

import multiprocessing

from repro.fleet.snapshot import DevicePool


class SerialExecutor:
    """All devices supplied by one in-process pool, stepped sequentially."""

    def __init__(
        self,
        device_ids,
        fleet_seed=0,
        rogue=(),
        provider=b"",
        boot_mode="snapshot",
        cfa=False,
        rogue_mode="tamper",
    ):
        self.device_ids = list(device_ids)
        self.fleet_seed = fleet_seed
        self.rogue = frozenset(rogue)
        self.provider = bytes(provider)
        self.boot_mode = boot_mode
        self.cfa = bool(cfa)
        self.rogue_mode = rogue_mode
        self.pool = None

    def start(self):
        """Create the device pool (machines boot lazily)."""
        self.pool = DevicePool(
            self.fleet_seed,
            rogue=self.rogue,
            provider=self.provider,
            boot_mode=self.boot_mode,
            cfa=self.cfa,
            rogue_mode=self.rogue_mode,
        )

    def process(self, batch):
        """Step each addressed device through its datagram."""
        pool = self.pool
        results = []
        for device_id, payload in batch:
            response, cycles = pool.handle(device_id, payload)
            results.append((device_id, response, cycles))
        return results

    def close(self):
        """Release the devices."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None


#: Per-worker state: the device pool supplying this worker's machines.
_WORKER = {"pool": None}


def _worker_init(fleet_seed, rogue, provider, boot_mode, cfa=False, rogue_mode="tamper"):
    """Pool initializer: build this worker's device pool."""
    _WORKER["pool"] = DevicePool(
        fleet_seed,
        rogue=rogue,
        provider=provider,
        boot_mode=boot_mode,
        cfa=cfa,
        rogue_mode=rogue_mode,
    )


def _worker_handle(item):
    """Step one datagram in a worker.

    In snapshot mode the worker's pool holds one recycled machine per
    device class and rekeys it to the addressed device; in cold mode it
    boots and caches per-device machines.  Either way a device whose
    retries land on a different worker is simply supplied again there -
    responses are pure functions of (seed, device_id, challenge), so
    placement never changes the bytes, only host-side wall clock.
    """
    device_id, payload = item
    response, cycles = _WORKER["pool"].handle(device_id, payload)
    return device_id, response, cycles


class PoolExecutor:
    """A multiprocessing pool of device-stepping workers."""

    def __init__(
        self,
        device_ids,
        fleet_seed=0,
        rogue=(),
        provider=b"",
        workers=4,
        boot_mode="snapshot",
        cfa=False,
        rogue_mode="tamper",
    ):
        self.device_ids = list(device_ids)
        self.fleet_seed = fleet_seed
        self.rogue = frozenset(rogue)
        self.provider = bytes(provider)
        self.workers = int(workers)
        self.boot_mode = boot_mode
        self.cfa = bool(cfa)
        self.rogue_mode = rogue_mode
        self._pool = None

    def start(self):
        """Spin up the worker pool (device pools build lazily per worker)."""
        self._pool = multiprocessing.Pool(
            self.workers,
            initializer=_worker_init,
            initargs=(
                self.fleet_seed,
                self.rogue,
                self.provider,
                self.boot_mode,
                self.cfa,
                self.rogue_mode,
            ),
        )

    def process(self, batch):
        if not batch:
            return []
        chunksize = max(1, len(batch) // self.workers)
        return self._pool.map(_worker_handle, batch, chunksize=chunksize)

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
