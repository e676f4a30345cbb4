"""Tests for the adaptive cruise control use case (Figure 2 / Table 1)."""

import pytest

from repro import TyTAN
from repro.uc.cruise_control import CONTROL_PERIOD_CYCLES, CruiseControlSystem


@pytest.fixture
def uc_system():
    system = TyTAN()
    uc = CruiseControlSystem(system)
    uc.t2_activation_hook()
    return system, uc


def run_phases(system, uc, phase_ms=20):
    """Run before / while-loading / after phases; returns boundaries."""
    hz = system.platform.config.hz
    phase = int(phase_ms * hz / 1000)
    a0 = system.clock.now
    system.run(max_cycles=phase)
    a1 = system.clock.now
    uc.activate_cruise_control()
    system.run(until=lambda: uc.t2_result.done)
    b1 = system.clock.now
    system.run(max_cycles=phase)
    c1 = system.clock.now
    return (a0, a1), (a1, b1), (b1, c1)


class TestTable1:
    def test_rates_hold_through_loading(self, uc_system):
        system, uc = uc_system
        before, while_loading, after = run_phases(system, uc)
        for window in (before, while_loading, after):
            for name in ("t0", "t1"):
                report = uc.monitor.report(
                    name, *window, period=CONTROL_PERIOD_CYCLES
                )
                assert 1.3 <= report.khz <= 1.7, (name, window, report)
                assert report.missed == 0, (name, window, report)

    def test_t2_running_after_load(self, uc_system):
        system, uc = uc_system
        _, _, after = run_phases(system, uc)
        report = uc.monitor.report("t2", *after, period=CONTROL_PERIOD_CYCLES)
        assert 1.2 <= report.khz <= 1.7
        assert not system.kernel.faulted

    def test_load_takes_longer_than_period(self, uc_system):
        """The whole point: the load is ~40x one scheduling period, so
        a non-interruptible load would blow deadlines."""
        system, uc = uc_system
        run_phases(system, uc)
        assert uc.t2_result.total_cycles > 10 * CONTROL_PERIOD_CYCLES

    def test_load_time_near_paper(self, uc_system):
        """The paper reports 27.8 ms; our t2 is sized to land nearby."""
        system, uc = uc_system
        run_phases(system, uc)
        ms = uc.t2_result.total_cycles * 1000.0 / system.platform.config.hz
        assert 24.0 <= ms <= 32.0

    def test_t2_is_secure_and_measured(self, uc_system):
        system, uc = uc_system
        run_phases(system, uc)
        assert uc.t2.is_secure
        assert uc.t2.identity is not None
        from repro.core.identity import identity_of_image

        assert uc.t2.identity == identity_of_image(uc.t2_image)


class TestControlBehaviour:
    def test_engine_commands_flow(self, uc_system):
        system, uc = uc_system
        system.run(max_cycles=20 * CONTROL_PERIOD_CYCLES)
        history = system.platform.engine_actuator.history
        assert len(history) >= 18  # ~one command per period

    def test_throttle_follows_pedal(self):
        system = TyTAN()
        system.platform.pedal.trace = [(0, 450)]
        uc = CruiseControlSystem(system)
        system.run(max_cycles=10 * CONTROL_PERIOD_CYCLES)
        assert system.platform.engine_actuator.last_command == 450

    def test_radar_limits_throttle_when_close(self):
        """Adaptive behaviour: a close lead vehicle caps the throttle."""
        system = TyTAN()
        system.platform.pedal.trace = [(0, 900)]
        system.platform.radar.trace = [(0, 100)]  # 10 m ahead
        uc = CruiseControlSystem(system)
        uc.activate_cruise_control()
        system.run(until=lambda: uc.t2_result.done)
        system.run(max_cycles=20 * CONTROL_PERIOD_CYCLES)
        # ceiling = radar * 2 = 200 < 900 demand
        assert system.platform.engine_actuator.last_command == 200

    def test_control_law_unit(self):
        system = TyTAN()
        uc = CruiseControlSystem(system)
        assert uc._control_law(300, None) == 300
        assert uc._control_law(1500, None) == 1000  # clamped
        assert uc._control_law(800, 100) == 200  # distance-limited
        assert uc._control_law(800, 600) == 800  # far: driver demand


class TestContextFrames:
    def test_frames_never_fall_back_to_per_word_accesses(self, uc_system):
        """Every context save and restore of the running t2 copies its
        GPR frame in one slab transfer, and no bus transfer of the
        20 ms window takes the per-word path."""
        system, uc = uc_system
        kernel = system.kernel
        stats = system.platform.memory.range_stats
        frames = []
        for name in ("push_gpr_frame", "pop_gpr_frame"):
            def counted(task, actor, _frame=getattr(kernel, name)):
                before = (stats.hits, stats.misses)
                _frame(task, actor)
                frames.append((stats.hits - before[0], stats.misses - before[1]))

            setattr(kernel, name, counted)
        uc.activate_cruise_control()
        system.run(until=lambda: uc.t2_result.done)
        misses = stats.misses
        frames.clear()
        system.run(max_cycles=int(0.020 * system.platform.config.hz))
        assert len(frames) >= 20  # t2 is switched in and out each period
        assert frames == [(1, 0)] * len(frames)
        assert stats.misses == misses
