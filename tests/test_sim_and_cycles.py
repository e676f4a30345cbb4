"""Tests for the sim package (footprint, workloads, monitors) and the
calibrated cycle model itself."""

import pytest

from repro import cycles
from repro.core.identity import HEADER_BYTES, identity_of_image
from repro.hw.clock import CycleClock
from repro.sim.deadline import RateMonitor
from repro.sim.footprint import (
    FREERTOS_COMPONENTS,
    TYTAN_COMPONENTS,
    freertos_footprint,
    overhead_percent,
    secure_task_overhead_bytes,
    total_bytes,
    tytan_footprint,
)
from repro.sim.trace import ActivationRecorder
from repro.sim.workloads import synthetic_image


class TestCycleModel:
    """The closed-form oracles must match the paper's tables exactly."""

    def test_table2_save(self):
        assert cycles.store_context_cycles() == 38
        assert cycles.wipe_context_cycles() == 16
        assert cycles.INTMUX_BRANCH == 41
        total = 38 + 16 + 41
        assert total == 95
        assert total - cycles.store_context_cycles() == 57  # overhead

    def test_table3_restore(self):
        assert cycles.ENTRY_BRANCH == 106
        assert cycles.restore_context_cycles() == 254
        total = 106 + cycles.ENTRY_MODE_CHECK + 254
        assert total == 384
        assert total - 254 == 130  # overhead

    def test_table5_relocation(self):
        assert cycles.relocation_cycles(0) == 37
        # avg column (3/4 of random sites unaligned)
        for entries, paper_avg in ((1, 703), (2, 1_372), (4, 2_711)):
            model = cycles.RELOC_BASE + entries * (
                cycles.RELOC_PER_ENTRY + 0.75 * cycles.RELOC_UNALIGNED_PENALTY
            )
            assert abs(model - paper_avg) / paper_avg < 0.01

    def test_table6_eampu(self):
        assert cycles.eampu_config_cycles(1) == 1_125
        assert cycles.eampu_config_cycles(2) == 1_144
        assert cycles.eampu_config_cycles(18) == 1_448

    def test_table7_measurement(self):
        paper = {1: 8_261, 2: 12_200, 4: 20_078, 8: 35_790}
        for blocks, expected in paper.items():
            model = (
                cycles.MEASURE_SETUP
                + blocks * cycles.MEASURE_PER_BLOCK
                + cycles.MEASURE_FINALIZE
            )
            assert abs(model - expected) / expected < 0.002

    def test_table7_reversal(self):
        paper = {0: 114, 1: 680, 2: 1_188, 4: 2_187}
        for addresses, expected in paper.items():
            assert abs(cycles.reversal_cycles(addresses) - expected) <= 6

    def test_ipc_reference(self):
        assert cycles.ipc_proxy_cycles(registry_entries=2) == 1_208
        entry_routine = cycles.ENTRY_MODE_CHECK + cycles.IPC_ENTRY_ROUTINE_RECEIVE
        assert entry_routine == 116
        assert cycles.ipc_proxy_cycles(2) + entry_routine == 1_324

    def test_eampu_slots(self):
        assert cycles.EAMPU_SLOTS == 18


class TestFootprint:
    def test_freertos_total_matches_paper(self):
        assert total_bytes(freertos_footprint()) == 215_617

    def test_tytan_total_matches_paper(self):
        assert total_bytes(tytan_footprint()) == 249_943

    def test_overhead_percent_matches_paper(self):
        overhead = overhead_percent(freertos_footprint(), tytan_footprint())
        assert round(overhead, 2) == 15.92

    def test_component_sections_sum(self):
        for component in FREERTOS_COMPONENTS + TYTAN_COMPONENTS:
            assert component.total == (
                component.text + component.rodata + component.data + component.bss
            )

    def test_tytan_additions_positive(self):
        additions = total_bytes(tytan_footprint()) - total_bytes(freertos_footprint())
        assert additions == 34_326

    def test_secure_task_overhead_positive(self):
        assert secure_task_overhead_bytes() > 0


class TestSyntheticImages:
    def test_exact_block_count(self):
        for blocks in (1, 2, 4, 8, 62):
            image = synthetic_image(blocks=blocks)
            measured = HEADER_BYTES + len(image.blob)
            assert measured == blocks * cycles.MEASURE_BLOCK_BYTES

    def test_relocation_count(self):
        image = synthetic_image(blocks=4, relocations=5)
        assert len(image.relocations) == 5

    def test_aligned_relocs(self):
        image = synthetic_image(blocks=4, relocations=6, aligned_relocs=True)
        assert all(site % 4 == 0 for site in image.relocations)

    def test_unaligned_relocs_present(self):
        image = synthetic_image(blocks=8, relocations=8, aligned_relocs=False)
        assert any(site % 4 != 0 for site in image.relocations)

    def test_seed_changes_identity(self):
        a = synthetic_image(blocks=2, seed=1)
        b = synthetic_image(blocks=2, seed=2)
        assert identity_of_image(a) != identity_of_image(b)

    def test_deterministic(self):
        a = synthetic_image(blocks=3, relocations=2, seed=7)
        b = synthetic_image(blocks=3, relocations=2, seed=7)
        assert identity_of_image(a) == identity_of_image(b)

    def test_too_many_relocations_rejected(self):
        with pytest.raises(ValueError):
            synthetic_image(blocks=1, relocations=30)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            synthetic_image(blocks=0)


class TestMonitors:
    def test_rate_report(self):
        clock = CycleClock(hz=48_000_000)
        recorder = ActivationRecorder(clock)
        for _ in range(10):
            recorder.mark("t")
            clock.charge(32_000)
        monitor = RateMonitor(recorder, 48_000_000)
        report = monitor.report("t", 0, 320_000, period=32_000)
        assert report.activations == 10
        assert abs(report.khz - 1.5) < 0.01
        assert report.missed == 0

    def test_missed_deadline_detected(self):
        clock = CycleClock(hz=48_000_000)
        recorder = ActivationRecorder(clock)
        recorder.mark("t")
        clock.charge(32_000)
        recorder.mark("t")
        clock.charge(100_000)  # big gap
        recorder.mark("t")
        monitor = RateMonitor(recorder, 48_000_000)
        report = monitor.report("t", 0, 200_000, period=32_000)
        assert report.missed == 1
        assert report.max_gap == 100_000

    def test_window_filtering(self):
        clock = CycleClock()
        recorder = ActivationRecorder(clock)
        recorder.mark("t")
        clock.charge(1_000)
        recorder.mark("t")
        assert recorder.count_between("t", 0, 500) == 1
        assert recorder.count_between("t", 0, 2_000) == 2
