"""repro.fleet - multi-device attestation orchestration at scale.

* :mod:`repro.fleet.config` - the typed configuration objects
  (:class:`FleetConfig`, :class:`ShardConfig`, :class:`StoreConfig`;
  :class:`~repro.net.fabric.FabricProfile` re-exported), the single
  construction path of the fleet API.
* :mod:`repro.fleet.device` - one TyTAN machine behind a NIC, speaking
  the attestation wire protocol.
* :mod:`repro.fleet.snapshot` - snapshot-fork boot: one secure-booted
  template per device class, forked and rekeyed per device.
* :mod:`repro.fleet.executors` - serial and multiprocessing-pool
  device stepping over boot-mode-aware device pools.
* :mod:`repro.fleet.service` - one verifier shard: fresh nonces with
  tick-time expiry, retry/backoff, quarantine, health reporting.
* :mod:`repro.fleet.shards` - consistent-hash sharding of the verifier
  tier and the :class:`FleetHealth` rollup.
* :mod:`repro.fleet.store` - pluggable attestation-state persistence
  (in-memory or JSONL) with checkpoint/resume.
* :mod:`repro.fleet.orchestrator` - :class:`Fleet`, the end-to-end
  deterministic fleet run.
* :mod:`repro.fleet.result` - :class:`FleetResult`, the typed,
  schema-versioned run outcome.
"""

from repro.fleet.config import FleetConfig, ShardConfig, StoreConfig
from repro.fleet.device import (
    FleetDevice,
    device_platform_key,
    expected_fleet_identity,
    fleet_task_image,
)
from repro.fleet.orchestrator import Fleet
from repro.fleet.result import FleetResult
from repro.fleet.service import VerifierService
from repro.fleet.shards import FleetHealth, HashRing, ShardedVerifierService
from repro.fleet.snapshot import DevicePool, DeviceTemplate
from repro.fleet.store import AttestationStore, JsonlStore, MemoryStore
from repro.net.fabric import FabricProfile

__all__ = [
    "AttestationStore",
    "DevicePool",
    "DeviceTemplate",
    "FabricProfile",
    "Fleet",
    "FleetConfig",
    "FleetDevice",
    "FleetHealth",
    "FleetResult",
    "HashRing",
    "JsonlStore",
    "MemoryStore",
    "ShardConfig",
    "ShardedVerifierService",
    "StoreConfig",
    "VerifierService",
    "device_platform_key",
    "expected_fleet_identity",
    "fleet_task_image",
]
