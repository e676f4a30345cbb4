"""Tests for the exception engine and the assembled platform."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.exceptions import Vector
from repro.hw.platform import FirmwareComponent, MachineConfig, Platform
from repro.hw.registers import Flag


class TestExceptionEngine:
    def test_install_and_lookup(self, platform):
        platform.engine.install_handler(Vector.SYSCALL, 0x12340)
        assert platform.engine.handler_address(Vector.SYSCALL) == 0x12340

    def test_vector_range_checked(self, platform):
        with pytest.raises(ConfigurationError):
            platform.engine.install_handler(Vector.COUNT, 0x0)
        with pytest.raises(ConfigurationError):
            platform.engine.handler_address(-1)

    def test_deliver_pushes_and_masks(self, platform):
        platform.engine.install_handler(Vector.TIMER, 0x10000)
        cpu = platform.cpu
        cpu.regs.eip = 0x40000
        cpu.regs.esp = 0x60000
        cpu.regs.eflags = Flag.IF
        handler = platform.engine.deliver(cpu, Vector.TIMER)
        assert handler == 0x10000
        assert cpu.regs.eip == 0x10000
        assert not cpu.regs.interrupts_enabled
        assert platform.memory.read_u32(cpu.regs.esp) == 0x40000  # EIP
        assert platform.memory.read_u32(cpu.regs.esp + 4) == Flag.IF

    def test_hw_return_restores(self, platform):
        platform.engine.install_handler(Vector.TIMER, 0x10000)
        cpu = platform.cpu
        cpu.regs.eip = 0x40000
        cpu.regs.esp = 0x60000
        cpu.regs.eflags = Flag.IF
        platform.engine.deliver(cpu, Vector.TIMER)
        platform.engine.hw_return(cpu)
        assert cpu.regs.eip == 0x40000
        assert cpu.regs.eflags == Flag.IF
        assert cpu.regs.esp == 0x60000

    def test_origin_latched(self, platform):
        platform.engine.install_handler(Vector.IPC, 0x10000)
        cpu = platform.cpu
        cpu.regs.eip = 0x41234
        cpu.regs.esp = 0x60000
        platform.engine.deliver(cpu, Vector.IPC)
        assert platform.engine.last_origin == 0x41234
        assert platform.engine.last_vector == Vector.IPC


class TestPlatform:
    def test_memory_map_regions(self, platform):
        names = {region.name for region in platform.memory.map.regions()}
        for expected in ("idt", "boot", "firmware", "os-code", "os-data", "task-ram", "key-fuses"):
            assert expected in names

    def test_devices_mapped(self, platform):
        # Reading the pedal sensor through the bus works.
        value = platform.memory.read_u32(platform.pedal_base)
        assert value == 300

    def test_firmware_registration(self, platform):
        component = platform.register_firmware(FirmwareComponent())
        assert platform.in_firmware(component.base)
        assert platform.firmware_at(component.base) is component
        assert platform.firmware_at(component.base + 0x1000) is None

    def test_firmware_pages_exhaustible(self, platform):
        for _ in range(platform.config.firmware_pages):
            platform.register_firmware(FirmwareComponent())
        with pytest.raises(ConfigurationError):
            platform.register_firmware(FirmwareComponent())

    def test_next_device_event(self, platform):
        assert platform.next_device_event() is None
        platform.tick_timer.start(platform.clock.now)
        assert platform.next_device_event() == platform.config.tick_period

    def test_only_time_keeping_devices_are_event_sources(self, platform):
        # The sensors, the actuator and the NIC never raise an IRQ on
        # their own, so the event horizon polls none of them.
        platform.attach_nic()
        assert platform.clock._event_sources == [
            platform._slice_deadline_source,
            platform.tick_timer.next_event,
            platform.rtc.next_event,
        ]

    def test_next_device_event_with_sensors_and_nic(self, platform):
        platform.attach_nic()
        assert platform.next_device_event() is None
        platform.tick_timer.start(platform.clock.now)
        assert platform.next_device_event() == platform.config.tick_period
        platform.rtc.alarm = 100
        platform.rtc.alarm_enabled = True
        assert platform.next_device_event() == 100
        platform.rtc.alarm = platform.config.tick_period + 1
        assert platform.next_device_event() == platform.config.tick_period

    def test_key_fuses_hold_key(self, platform):
        raw = platform.memory.read_raw(platform.config.key_base, 20)
        assert raw == platform.key_store.raw_key()

    def test_config_custom_tick(self):
        platform = Platform(MachineConfig(tick_period=8_000))
        platform.tick_timer.start(0)
        assert platform.next_device_event() == 8_000

    def test_run_isa_until_event_halt(self, platform):
        # No code: CPU halted flag set manually; deadline path returns.
        platform.cpu.halted = True
        platform.cpu.regs.set_flag(Flag.IF, False)
        entry = platform.run_isa_until_event(max_cycles=100)
        assert entry.kind == "halt"
