"""Snapshot-fork device boot: the fleet's lazy, pooled boot path.

Cold-booting a TyTAN machine runs the full secure-boot measurement
chain - tens of host milliseconds per device, which is fine for 8
devices and absurd for 100k.  The observation that makes scale cheap:
**everything attestation-visible about a booted fleet device except
K_p is identical across the fleet** (per device class).  Secure boot
measures the component binaries, never the key; the agent's identity
is a function of its image; and the attestation key is derived from
K_p freshly at attest time.  So the fleet boots *one template machine
per device class* through real secure boot, snapshots its full
architectural state, and mints devices by forking the snapshot and
re-running only the per-device key derivation
(:meth:`~repro.fleet.device.FleetDevice.rekey`).

A fork is verified bit-identical to a cold boot by the equivalence
suite (``tests/test_fleet_snapshot.py``) and can be re-checked at run
time with :meth:`DeviceTemplate.selfcheck`.

:class:`DevicePool` adds the second scale lever: machines are
*recycled*.  Challenge responses are pure functions of
``(fleet_seed, device_id, challenge)`` - :meth:`handle_frame` charges
a fixed cycle cost and drains its NIC queues every call - so one live
machine per device class, rekeyed per datagram, answers for the whole
fleet without holding 10k multi-megabyte machine images in memory.
"""

from __future__ import annotations

import copy

from repro.fleet.device import FleetDevice

#: Device id templates boot as (immediately rekeyed away on fork).
TEMPLATE_DEVICE_ID = 0


class DeviceTemplate:
    """One secure-booted machine image for a device class.

    A *device class* is ``(rogue, provider)``: the only things that
    change which binaries a device runs.  The template cold-boots once
    at construction; every :meth:`fork` is a deep copy plus a rekey.
    """

    def __init__(
        self,
        fleet_seed=0,
        rogue=False,
        provider=b"",
        obs_enabled=False,
        cfa=False,
        rogue_mode="tamper",
    ):
        self.fleet_seed = int(fleet_seed)
        self.rogue = bool(rogue)
        self.provider = bytes(provider)
        self.cfa = bool(cfa)
        self.rogue_mode = rogue_mode
        self._image = FleetDevice(
            TEMPLATE_DEVICE_ID,
            fleet_seed,
            rogue=rogue,
            provider=provider,
            obs_enabled=obs_enabled,
            cfa=cfa,
            rogue_mode=rogue_mode,
        )
        #: Forks minted from this template.
        self.forks = 0

    def fork(self, device_id):
        """Mint the fleet member ``device_id`` from the snapshot."""
        device = copy.deepcopy(self._image)
        device.rekey(device_id, self.fleet_seed)
        self.forks += 1
        return device

    def selfcheck(self, device_id=1, nonce=b"\x42" * 8):
        """Assert a fork answers exactly like a cold boot (slow: boots).

        Compares the full response bytes and the charged cycle count
        for one challenge.  Returns True; raises ``AssertionError``
        with the differing field otherwise.
        """
        from repro.net.wire import Challenge

        frame = Challenge(device_id, 0, nonce).to_bytes()
        forked = self.fork(device_id)
        cold = FleetDevice(
            device_id,
            self.fleet_seed,
            rogue=self.rogue,
            provider=self.provider,
            cfa=self.cfa,
            rogue_mode=self.rogue_mode,
        )
        fork_response, fork_cycles = forked.handle_frame(frame)
        cold_response, cold_cycles = cold.handle_frame(frame)
        if fork_response != cold_response:
            raise AssertionError("fork response differs from cold boot")
        if fork_cycles != cold_cycles:
            raise AssertionError(
                "fork charged %d cycles, cold boot %d" % (fork_cycles, cold_cycles)
            )
        return True

    def __repr__(self):
        return "DeviceTemplate(%s%s, %d forks)" % (
            "rogue" if self.rogue else "genuine",
            ", provider=%s" % self.provider.hex() if self.provider else "",
            self.forks,
        )


class DevicePool:
    """The device supply of one executor or pool worker: boot-mode
    aware, memory-bounded.

    ``boot_mode="snapshot"`` keeps one recycled machine per device
    class (forked from a lazily booted :class:`DeviceTemplate`) and
    rekeys it to whichever device a datagram addresses - O(classes)
    live machines regardless of fleet size.

    ``boot_mode="cold"`` cold-boots and caches one machine per device
    id (the pre-1.4 behaviour) - exact per-device machines, O(devices)
    memory; right for small fleets and for the equivalence tests.
    """

    def __init__(
        self,
        fleet_seed=0,
        rogue=(),
        provider=b"",
        boot_mode="snapshot",
        cfa=False,
        rogue_mode="tamper",
    ):
        if boot_mode not in ("snapshot", "cold"):
            raise ValueError("unknown boot mode %r" % boot_mode)
        self.fleet_seed = int(fleet_seed)
        self.rogue = frozenset(rogue)
        self.provider = bytes(provider)
        self.boot_mode = boot_mode
        self.cfa = bool(cfa)
        self.rogue_mode = rogue_mode
        self._templates = {}  # class -> DeviceTemplate
        self._recycled = {}  # class -> FleetDevice (snapshot mode)
        self._booted = {}  # device_id -> FleetDevice (cold mode)
        #: Supply counters (cold boots are the expensive one).
        self.cold_boots = 0
        self.rekeys = 0

    def _template(self, rogue):
        template = self._templates.get(rogue)
        if template is None:
            template = DeviceTemplate(
                self.fleet_seed,
                rogue=rogue,
                provider=self.provider,
                cfa=self.cfa,
                rogue_mode=self.rogue_mode,
            )
            self._templates[rogue] = template
            self.cold_boots += 1
        return template

    def acquire(self, device_id):
        """A machine currently identifying as ``device_id``."""
        rogue = device_id in self.rogue
        if self.boot_mode == "cold":
            device = self._booted.get(device_id)
            if device is None:
                device = FleetDevice(
                    device_id,
                    self.fleet_seed,
                    rogue=rogue,
                    provider=self.provider,
                    cfa=self.cfa,
                    rogue_mode=self.rogue_mode,
                )
                self._booted[device_id] = device
                self.cold_boots += 1
            return device
        device = self._recycled.get(rogue)
        if device is None:
            device = self._template(rogue).fork(device_id)
            self._recycled[rogue] = device
            self.rekeys += 1
            return device
        if device.device_id != device_id:
            device.rekey(device_id)
            self.rekeys += 1
        return device

    def handle(self, device_id, payload):
        """Step the addressed device through one datagram."""
        return self.acquire(device_id).handle_frame(payload)

    def live_machines(self):
        """Machines currently held alive (the memory footprint)."""
        count = len(self._recycled) + len(self._booted) + len(self._templates)
        return count

    def close(self):
        """Drop every machine."""
        self._templates.clear()
        self._recycled.clear()
        self._booted.clear()

    def __repr__(self):
        return "DevicePool(%s, %d live, %d cold boots, %d rekeys)" % (
            self.boot_mode,
            self.live_machines(),
            self.cold_boots,
            self.rekeys,
        )
