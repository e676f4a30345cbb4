"""The assembled machine: Siskiyou Peak + EA-MPU + devices.

:class:`Platform` owns the cycle clock, physical memory, the CPU, the
EA-MPU, the exception engine, timers, and the use-case sensor devices,
laid out per :class:`MachineConfig`.  It also keeps the *firmware
registry*: trusted TyTAN components are high-level-emulated, but each is
bound to a real code region in the memory map so that EA-MPU subject
rules, IDT vectors, and interrupt origins all refer to genuine
addresses.

The platform exposes one execution primitive the kernel builds on:
:meth:`Platform.run_isa_until_event` executes task instructions until an
interrupt fires (delivered through the exception engine, landing in a
firmware region) or the core halts.  Between instructions it polls the
timers, so interrupt latency is never more than one instruction - the
hardware half of TyTAN's real-time guarantee.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hw.clock import DEFAULT_HZ, CycleClock
from repro.hw.cpu import CPU
from repro.hw.devices import EngineActuator, PedalSensor, RadarSensor, SpeedSensor
from repro.hw.ea_mpu import EAMPU
from repro.hw.exceptions import ExceptionEngine
from repro.hw.memory import MemoryMap, PhysicalMemory, RamRegion
from repro.hw.mmio import MmioDevice, MmioRegion
from repro.hw.platform_key import KEY_BYTES, PlatformKeyStore
from repro.hw.timer import RealTimeClock, TickTimer
from repro.obs.bus import DEFAULT_CAPACITY, EventBus


class MachineConfig:
    """Physical memory layout and machine parameters.

    The defaults model a small deeply-embedded part: a handful of
    firmware pages for the trusted components, a few hundred KiB for the
    OS, and 1 MiB of task RAM.
    """

    def __init__(
        self,
        hz=DEFAULT_HZ,
        tick_period=16_000,
        mpu_slots=None,
        fastpath=True,
        blocks=True,
        traces=True,
        obs_enabled=True,
        obs_capacity=DEFAULT_CAPACITY,
        platform_key=None,
    ):
        self.hz = hz
        #: Cycles between scheduler ticks (16,000 @ 48 MHz = 3 kHz).
        self.tick_period = tick_period
        #: EA-MPU rule slots; None = the paper's 18.
        self.mpu_slots = mpu_slots
        #: Enable the fast-path caches (decoded instructions, EA-MPU
        #: verdict memo, region last-hit).  Wall-clock only; simulated
        #: behaviour is identical either way.
        self.fastpath = fastpath
        #: Enable the compiled tiers on top of the fast path: hot
        #: straight-line blocks compiled by the trace emitter with
        #: hoisted EA-MPU checks, each running whole or up to a
        #: checkpoint that fits before the event horizon.  Wall-clock
        #: only; simulated behaviour is bit-identical either way.
        #: Ignored when ``fastpath`` is off.
        self.blocks = blocks
        #: Enable trace stitching on top of the blocks (hot
        #: block-to-block edges stitched into guarded multi-block
        #: traces; see :mod:`repro.perf.traces`); off, only blocks are
        #: compiled.  Wall-clock only; simulated behaviour is
        #: bit-identical either way.  Ignored when ``blocks`` is off.
        self.traces = traces
        #: Enable the observability bus (repro.obs).  Observation only;
        #: simulated behaviour is bit-identical either way.
        self.obs_enabled = obs_enabled
        #: Event-ring capacity of the observability bus.
        self.obs_capacity = obs_capacity
        #: Fused platform key K_p; None = the deterministic default.
        #: Fleets fuse a distinct per-device key here so every machine
        #: derives distinct attestation/storage keys.
        self.platform_key = platform_key

        self.idt_base = 0x0000_0000
        self.idt_size = 0x400

        self.boot_base = 0x0000_1000
        self.boot_size = 0x1000

        self.firmware_base = 0x0001_0000
        self.firmware_page = 0x1000
        self.firmware_pages = 10

        self.os_code_base = 0x0004_0000
        self.os_code_size = 0x1_0000
        self.os_data_base = 0x0005_0000
        self.os_data_size = 0x3_0000

        self.task_ram_base = 0x0010_0000
        self.task_ram_size = 0x10_0000

        self.mmio_base = 0x00F0_0000
        self.key_base = 0x00FF_F000

    @property
    def firmware_end(self):
        """One past the last firmware page."""
        return self.firmware_base + self.firmware_page * self.firmware_pages


class FirmwareComponent:
    """Base class for HLE trusted components bound to a code region.

    Subclasses receive their code region at registration time; their
    ``base`` address is the actor they present to the bus, so the EA-MPU
    governs what each component may touch.
    """

    #: Diagnostic component name; overridden by subclasses.
    NAME = "component"

    def __init__(self):
        self.base = None
        self.size = None

    def bind(self, base, size):
        """Called by the platform when the component gets its page."""
        self.base = base
        self.size = size

    @property
    def end(self):
        """One past the component's code region."""
        return self.base + self.size

    def contains(self, address):
        """Whether ``address`` lies in the component's code region."""
        return self.base is not None and self.base <= address < self.end


class FirmwareEntry:
    """Result of :meth:`Platform.run_isa_until_event`: control left the
    task and landed in a firmware region (or the core halted)."""

    def __init__(self, kind, component=None, address=None, vector=None):
        #: ``'firmware'`` or ``'halt'``
        self.kind = kind
        self.component = component
        self.address = address
        self.vector = vector

    def __repr__(self):
        return "FirmwareEntry(%s, %s, 0x%s, vec=%s)" % (
            self.kind,
            getattr(self.component, "NAME", None),
            "%X" % self.address if self.address is not None else "?",
            self.vector,
        )


class Platform:
    """The complete simulated machine."""

    def __init__(self, config=None):
        self.config = config if config is not None else MachineConfig()
        cfg = self.config

        self.clock = CycleClock(cfg.hz)
        #: The unified observability bus: hardware, kernel, and trusted
        #: components all publish here (see repro.obs).
        self.obs = EventBus(
            clock=self.clock, capacity=cfg.obs_capacity, enabled=cfg.obs_enabled
        )
        self.memory = PhysicalMemory(MemoryMap())
        self.memory.map.cache_enabled = cfg.fastpath
        if cfg.mpu_slots is None:
            self.mpu = EAMPU(decision_cache=cfg.fastpath)
        else:
            self.mpu = EAMPU(cfg.mpu_slots, decision_cache=cfg.fastpath)
        self.memory.attach_mpu(self.mpu)

        # -- RAM regions ----------------------------------------------------
        self.memory.map.add(RamRegion("idt", cfg.idt_base, cfg.idt_size))
        self.memory.map.add(RamRegion("boot", cfg.boot_base, cfg.boot_size))
        self.memory.map.add(
            RamRegion(
                "firmware",
                cfg.firmware_base,
                cfg.firmware_page * cfg.firmware_pages,
            )
        )
        self.memory.map.add(RamRegion("os-code", cfg.os_code_base, cfg.os_code_size))
        self.memory.map.add(RamRegion("os-data", cfg.os_data_base, cfg.os_data_size))
        self.memory.map.add(
            RamRegion("task-ram", cfg.task_ram_base, cfg.task_ram_size)
        )
        self.memory.map.add(RamRegion("key-fuses", cfg.key_base, KEY_BYTES))

        # -- CPU and exception engine ----------------------------------------
        self.cpu = CPU(self.memory, self.clock, fastpath=cfg.fastpath)
        self.engine = ExceptionEngine(self.memory, cfg.idt_base)
        self.cpu.attach_engine(self.engine)

        # -- block-translation tier: compiled code may only run inside the
        #    event horizon (earliest device event or the current slice
        #    deadline), so interrupt delivery lands on exactly the same
        #    instruction boundary as single-stepping ---------------------
        self._slice_deadline = None
        # A bound method, not a lambda: closures would keep pointing at
        # this platform when a booted machine is deep-copied (the fleet's
        # snapshot-fork boot), while bound methods re-bind to the copy.
        self.clock.add_event_source(self._slice_deadline_source)
        if cfg.fastpath and cfg.blocks:
            self.cpu.enable_blocks(self.clock.next_event_horizon, traces=cfg.traces)

        # -- observability wiring: hardware publishers and the counter
        #    registry absorbing the fast-path cache stats ------------------
        self.mpu.obs = self.obs
        self.engine.obs = self.obs
        self.obs.counters.register(self.memory.map.stats)
        self.obs.counters.register(self.memory.range_stats)
        if self.cpu.insn_cache is not None:
            self.obs.counters.register(self.cpu.insn_cache.stats)
        if self.mpu.decisions is not None:
            self.obs.counters.register(self.mpu.decisions.access_stats)
            self.obs.counters.register(self.mpu.decisions.transfer_stats)
        if self.cpu.block_engine is not None:
            self.cpu.block_engine.obs = self.obs
            for counter in self.cpu.block_engine.counters():
                self.obs.counters.register(counter)

        # -- devices ------------------------------------------------------------
        self.tick_timer = TickTimer(self.engine.controller, cfg.tick_period)
        self.rtc = RealTimeClock(self.clock, self.engine.controller)
        self.pedal = PedalSensor(self.clock)
        self.radar = RadarSensor(self.clock)
        self.speed = SpeedSensor(self.clock)
        self.engine_actuator = EngineActuator(self.clock)
        self._devices = []
        #: The devices whose class overrides :meth:`MmioDevice.tick`:
        #: the only ones :meth:`poll_devices` has to call.
        self._ticking = []
        #: The devices whose class overrides :meth:`MmioDevice.next_event`
        #: (the time-keeping ones): the clock's only device event sources.
        self._timed = []
        for index, device in enumerate(
            (
                self.tick_timer,
                self.rtc,
                self.pedal,
                self.radar,
                self.speed,
                self.engine_actuator,
            )
        ):
            base = cfg.mmio_base + index * 0x100
            self._add_device(device, base)
            setattr(self, "%s_base" % device.name.replace("-", "_"), base)

        # -- platform key ----------------------------------------------------
        self.key_store = PlatformKeyStore(
            self.memory, cfg.key_base, key=cfg.platform_key
        )
        #: Optional network interface (set by :meth:`attach_nic`).
        self.nic = None
        self.nic_base = None

        # -- firmware registry -------------------------------------------------
        self._firmware = []
        self._next_firmware_page = 0

    # -- firmware -----------------------------------------------------------

    def register_firmware(self, component):
        """Assign the next firmware page to ``component``."""
        cfg = self.config
        if self._next_firmware_page >= cfg.firmware_pages:
            raise ConfigurationError("out of firmware pages")
        base = cfg.firmware_base + self._next_firmware_page * cfg.firmware_page
        self._next_firmware_page += 1
        component.bind(base, cfg.firmware_page)
        self._firmware.append(component)
        return component

    def firmware_at(self, address):
        """The firmware component whose region contains ``address``."""
        for component in self._firmware:
            if component.contains(address):
                return component
        return None

    def in_firmware(self, address):
        """Whether ``address`` lies anywhere in the firmware window."""
        cfg = self.config
        return cfg.firmware_base <= address < cfg.firmware_end

    def firmware_components(self):
        """All registered components (inventory checks)."""
        return list(self._firmware)

    # -- network ------------------------------------------------------------

    def attach_nic(self, nic=None):
        """Attach a network interface as the next MMIO device.

        The NIC is optional - standalone machines have no network - so
        it is attached on demand (the fleet orchestrator calls this for
        every device machine) rather than in the constructor.  Returns
        the :class:`repro.hw.nic.NetworkInterface`.
        """
        from repro.hw.nic import NetworkInterface

        if self.nic is not None:
            raise ConfigurationError("a NIC is already attached")
        nic = nic if nic is not None else NetworkInterface()
        base = self.config.mmio_base + len(self._devices) * 0x100
        self._add_device(nic, base)
        self.nic = nic
        self.nic_base = base
        return nic

    def _slice_deadline_source(self):
        """Event source: the current run slice's deadline, if any."""
        return self._slice_deadline

    # -- device timekeeping --------------------------------------------------

    def _add_device(self, device, base):
        """Map ``device``'s MMIO window at ``base`` and watch its events.

        Only a device that overrides :meth:`MmioDevice.next_event` can
        ever raise an IRQ on its own, so only such a device becomes a
        clock event source (the base method always answers ``None``).
        """
        self.memory.map.add(MmioRegion(device, base))
        self._devices.append(device)
        if type(device).tick is not MmioDevice.tick:
            self._ticking.append(device)
        if type(device).next_event is not MmioDevice.next_event:
            self._timed.append(device)
            self.clock.add_event_source(device.next_event)

    def poll_devices(self):
        """Let every device that keeps time observe the current time.

        A device without its own :meth:`MmioDevice.tick` (the sensors,
        the actuator, the NIC) has nothing to advance, so it is skipped.
        """
        now = self.clock.now
        for device in self._ticking:
            device.tick(now)

    def next_device_event(self):
        """Earliest future device event, or ``None``."""
        events = []
        for device in self._timed:
            when = device.next_event()
            if when is not None:
                events.append(when)
        return min(events) if events else None

    # -- execution ------------------------------------------------------------

    def run_isa_until_event(self, max_cycles=None):
        """Execute task instructions until control leaves task code.

        Returns a :class:`FirmwareEntry` when the CPU lands in a
        firmware region (interrupt delivery or an explicit transfer), or
        a ``'halt'`` entry when the core halts with interrupts disabled
        or ``max_cycles`` elapses.
        """
        deadline = None if max_cycles is None else self.clock.now + max_cycles
        # The slice deadline caps the event horizon while this loop
        # runs: compiled code may not carry execution past the point
        # where single-stepping would have ended the slice.
        self._slice_deadline = deadline
        try:
            while True:
                # A halted core ends the slice immediately - before any
                # pending interrupt can "wake" it into the bytes after
                # the hlt (which are usually data).
                if self.cpu.halted:
                    return FirmwareEntry("halt", address=self.cpu.regs.eip)
                self.poll_devices()
                self.cpu.maybe_take_interrupt()
                eip = self.cpu.regs.eip
                if self.in_firmware(eip):
                    return FirmwareEntry(
                        "firmware",
                        component=self.firmware_at(eip),
                        address=eip,
                        vector=self.engine.last_vector,
                    )
                self.cpu.step()
                if deadline is not None and self.clock.now >= deadline:
                    return FirmwareEntry("halt", address=self.cpu.regs.eip)
        finally:
            self._slice_deadline = None

