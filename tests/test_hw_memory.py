"""Tests for physical memory, the region map, and the bus."""

import pytest

from repro.errors import AlignmentFault, ConfigurationError, MemoryFault
from repro.hw.memory import MemoryMap, PhysicalMemory, RamRegion, u32
from repro.hw.mmio import MmioDevice, MmioRegion


def make_memory():
    memory = PhysicalMemory()
    memory.map.add(RamRegion("low", 0x1000, 0x1000))
    memory.map.add(RamRegion("high", 0x8000, 0x2000))
    return memory


class TestU32:
    def test_truncates(self):
        assert u32(0x1_2345_6789) == 0x2345_6789

    def test_negative_wraps(self):
        assert u32(-1) == 0xFFFFFFFF


class TestRamRegion:
    def test_contains(self):
        region = RamRegion("r", 0x100, 0x10)
        assert region.contains(0x100)
        assert region.contains(0x10C, 4)
        assert not region.contains(0x10D, 4)
        assert not region.contains(0xFF)

    def test_read_write(self):
        region = RamRegion("r", 0x100, 0x10)
        region.write(0x104, b"\xde\xad")
        assert region.read(0x104, 2) == b"\xde\xad"

    def test_fill(self):
        region = RamRegion("r", 0, 8)
        region.write(0, b"\x01" * 8)
        region.fill(0)
        assert region.read(0, 8) == bytes(8)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            RamRegion("bad", 0, 0)

    def test_slab_word_roundtrip_matches_bytes(self):
        region = RamRegion("r", 0x100, 0x20)
        region.store_u32(0x104, 0xDEADBEEF)
        assert region.read(0x104, 4) == b"\xef\xbe\xad\xde"
        assert region.load_u32(0x104) == 0xDEADBEEF
        region.write(0x108, b"\x78\x56\x34\x12")
        assert region.load_u32(0x108) == 0x12345678

    def test_slab_unaligned_word_falls_back(self):
        region = RamRegion("r", 0x100, 0x20)
        region.store_u32(0x105, 0xA1B2C3D4)
        assert region.load_u32(0x105) == 0xA1B2C3D4
        assert region.read(0x105, 4) == b"\xd4\xc3\xb2\xa1"

    def test_slab_byte_accessors(self):
        region = RamRegion("r", 0x100, 0x10)
        region.store_u8(0x10F, 0x7E)
        assert region.load_u8(0x10F) == 0x7E
        assert region.read(0x10F, 1) == b"\x7e"

    def test_slab_half_roundtrip_matches_bytes(self):
        region = RamRegion("r", 0x100, 0x20)
        region.store_u16(0x104, 0xBEEF)
        assert region.read(0x104, 2) == b"\xef\xbe"
        assert region.load_u16(0x104) == 0xBEEF
        region.write(0x108, b"\x34\x12")
        assert region.load_u16(0x108) == 0x1234

    def test_slab_unaligned_half_falls_back(self):
        region = RamRegion("r", 0x100, 0x20)
        region.store_u16(0x105, 0xC3D4)
        assert region.load_u16(0x105) == 0xC3D4
        assert region.read(0x105, 2) == b"\xd4\xc3"

    def test_slab_half_at_region_bounds(self):
        region = RamRegion("r", 0x100, 0x10)
        region.store_u16(0x100, 0x1111)
        region.store_u16(0x10E, 0x2222)
        assert region.load_u16(0x100) == 0x1111
        assert region.load_u16(0x10E) == 0x2222

    def test_half_view_sees_raw_writes(self):
        region = RamRegion("r", 0x100, 0x10)
        halves = region.halves
        region.write(0x100, b"\x02\x01")
        if halves is not None:
            assert halves[0] == 0x0102

    def test_pickle_roundtrip_rebuilds_views(self):
        import pickle

        region = RamRegion("r", 0x100, 0x10)
        region.store_u32(0x100, 0xDEADBEEF)
        region.store_u16(0x104, 0xCAFE)
        clone = pickle.loads(pickle.dumps(region))
        assert clone.load_u32(0x100) == 0xDEADBEEF
        assert clone.load_u16(0x104) == 0xCAFE
        # the rebuilt views must be live casts, not stale copies
        if clone.halves is not None:
            clone.write(0x106, b"\xaa\xbb")
            assert clone.halves[3] == 0xBBAA

    def test_word_view_sees_raw_writes(self):
        # The memoryview is over the region's one bytearray, so views
        # taken before a write observe it (they never go stale).
        region = RamRegion("r", 0x100, 0x10)
        words = region.words
        region.write(0x100, b"\x01\x00\x00\x00")
        if words is not None:
            assert words[0] == 1

    def test_snooped_pages_accumulate(self):
        from repro.hw.memory import SNOOP_PAGE_SHIFT, MemoryMap, PhysicalMemory

        memory = PhysicalMemory(MemoryMap())
        memory.map.add(RamRegion("r", 0x1000, 0x1000))
        assert memory.snooped_pages == set()
        memory.note_snooped_range(0x1000, 0x1101)
        assert memory.snooped_pages == {
            0x1000 >> SNOOP_PAGE_SHIFT,
            0x1100 >> SNOOP_PAGE_SHIFT,
        }


class TestMemoryMap:
    def test_overlap_rejected(self):
        mapping = MemoryMap()
        mapping.add(RamRegion("a", 0x0, 0x100))
        with pytest.raises(ConfigurationError):
            mapping.add(RamRegion("b", 0x80, 0x100))

    def test_adjacent_allowed(self):
        mapping = MemoryMap()
        mapping.add(RamRegion("a", 0x0, 0x100))
        mapping.add(RamRegion("b", 0x100, 0x100))
        assert len(mapping.regions()) == 2

    def test_find_unmapped_faults(self):
        mapping = MemoryMap()
        mapping.add(RamRegion("a", 0x0, 0x100))
        with pytest.raises(MemoryFault):
            mapping.find(0x200)

    def test_find_straddling_faults(self):
        """An access crossing a region boundary into nothing faults."""
        mapping = MemoryMap()
        mapping.add(RamRegion("a", 0x0, 0x100))
        with pytest.raises(MemoryFault):
            mapping.find(0xFE, 4)

    def test_region_named(self):
        mapping = MemoryMap()
        mapping.add(RamRegion("a", 0x0, 0x100))
        assert mapping.region_named("a").base == 0
        with pytest.raises(KeyError):
            mapping.region_named("zz")


class TestPhysicalMemory:
    def test_typed_roundtrip(self):
        memory = make_memory()
        memory.write_u32(0x1000, 0xDEADBEEF)
        assert memory.read_u32(0x1000) == 0xDEADBEEF
        memory.write_u16(0x1010, 0xBEEF)
        assert memory.read_u16(0x1010) == 0xBEEF
        memory.write_u8(0x1020, 0xAB)
        assert memory.read_u8(0x1020) == 0xAB

    def test_little_endian(self):
        memory = make_memory()
        memory.write_u32(0x1000, 0x11223344)
        assert memory.read(0x1000, 4) == b"\x44\x33\x22\x11"

    def test_unmapped_access_faults(self):
        memory = make_memory()
        with pytest.raises(MemoryFault):
            memory.read(0x4000, 4)
        with pytest.raises(MemoryFault):
            memory.write(0x4000, b"x")

    def test_cross_region_access_faults(self):
        memory = make_memory()
        with pytest.raises(MemoryFault):
            memory.read(0x1FFE, 4)  # crosses out of "low"


class _Reg(MmioDevice):
    WINDOW = 0x10

    def __init__(self):
        super().__init__("reg")
        self.value = 7

    def reg_read(self, offset):
        if offset == 0:
            return self.value
        return super().reg_read(offset)

    def reg_write(self, offset, value):
        if offset == 0:
            self.value = value
        else:
            super().reg_write(offset, value)


class TestMmio:
    def make(self):
        memory = PhysicalMemory()
        device = _Reg()
        memory.map.add(MmioRegion(device, 0x9000))
        return memory, device

    def test_word_read_write(self):
        memory, device = self.make()
        assert memory.read_u32(0x9000) == 7
        memory.write_u32(0x9000, 55)
        assert device.value == 55

    def test_non_word_access_faults(self):
        memory, _ = self.make()
        with pytest.raises(MemoryFault):
            memory.read(0x9000, 2)

    def test_unaligned_word_faults(self):
        memory, _ = self.make()
        with pytest.raises(AlignmentFault):
            memory.read(0x9002, 4)

    def test_unknown_register_faults(self):
        memory, _ = self.make()
        with pytest.raises(MemoryFault):
            memory.read_u32(0x9008)
