"""TyTAN: Tiny Trust Anchor for Tiny Devices - a behavioural reproduction.

This package reproduces the DAC 2015 paper *TyTAN: Tiny Trust Anchor
for Tiny Devices* (Brasser, El Mahjoub, Sadeghi, Wachsmann, Koeberl):
a security architecture for low-end embedded systems providing
hardware-assisted isolation of dynamically loaded tasks, secure IPC,
local/remote attestation, and real-time guarantees.

Layers (bottom up):

* :mod:`repro.hw` - the simulated Siskiyou Peak platform: 32-bit core,
  EA-MPU, exception engine, timers, MMIO sensors, platform key.
* :mod:`repro.isa` / :mod:`repro.image` - instruction set, assembler,
  relocatable TELF binaries, and linker.
* :mod:`repro.crypto` - from-scratch SHA-1 / HMAC / KDF / XTEA.
* :mod:`repro.rtos` - the FreeRTOS-like preemptive real-time kernel.
* :mod:`repro.core` - TyTAN's trusted components and the
  :class:`~repro.core.system.TyTAN` facade.
* :mod:`repro.sim` - tracing, rate monitoring, footprint model,
  synthetic workloads.
* :mod:`repro.uc` - the adaptive cruise control use case.

Quickstart::

    from repro import TyTAN

    system = TyTAN()
    task = system.load_source(SOURCE, "my-task", secure=True)
    result = system.run(max_cycles=1_000_000)
    print(result.stop_reason, result.retired)
    print(system.local_attest(task).hex())

Stable public surface
---------------------

Import from ``repro`` directly rather than deep-importing submodules;
everything in ``__all__`` below is covered by compatibility guarantees:

* :class:`TyTAN`, :func:`build_freertos_baseline`,
  :class:`MachineConfig` - system construction;
* :class:`RunResult` - what ``TyTAN.run`` / ``Kernel.run`` return;
* :class:`Verifier` - the off-device attestation verifier;
* :mod:`repro.obs` (re-exported as ``obs``) with :class:`Event` and
  :class:`EventBus` - the unified observability bus; every system
  exposes one at ``system.obs`` / ``platform.obs``;
* the fleet stack (:mod:`repro.fleet`): :class:`Fleet` constructed
  from the typed configs :class:`FleetConfig` / :class:`ShardConfig` /
  :class:`FabricProfile` / :class:`StoreConfig`, returning a
  :class:`FleetResult`.

Fleet quickstart::

    from repro import Fleet, FleetConfig, ShardConfig

    fleet = Fleet(FleetConfig(devices=10_000, seed=7),
                  shards=ShardConfig(shards=8))
    result = fleet.run()
    print(result.reports_per_sec, result.quarantined)
"""

from repro import obs
from repro.core.remote_attest import Verifier
from repro.core.system import TyTAN, build_freertos_baseline
from repro.fleet import (
    Fleet,
    FleetConfig,
    FleetResult,
    ShardConfig,
    StoreConfig,
)
from repro.hw.platform import MachineConfig
from repro.net.fabric import FabricProfile
from repro.obs import Event, EventBus
from repro.rtos.kernel import RunResult

__version__ = "2.0.0"

__all__ = [
    "Event",
    "EventBus",
    "FabricProfile",
    "Fleet",
    "FleetConfig",
    "FleetResult",
    "MachineConfig",
    "RunResult",
    "ShardConfig",
    "StoreConfig",
    "TyTAN",
    "Verifier",
    "build_freertos_baseline",
    "obs",
    "__version__",
]
