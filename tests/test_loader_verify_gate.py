"""The loader's static admission gate (``verify=`` modes)."""

import pytest

from repro.analysis import VerifyPolicy
from repro.analysis.corpus import rejection_fixtures
from repro.errors import LoaderError

from conftest import COUNTER_TASK


def bad_image(name="bad-privileged-opcodes"):
    return next(e for e in rejection_fixtures() if e.name == name).image


class TestRejectMode:
    def test_bad_image_is_rejected_and_not_scheduled(self, system):
        before = len(system.kernel.scheduler.tasks)
        with pytest.raises(LoaderError) as exc:
            system.load_task(bad_image(), secure=True, verify="reject")
        assert "privileged-instruction" in str(exc.value)
        assert len(system.kernel.scheduler.tasks) == before

    def test_clean_image_loads_under_reject(self, system):
        image = system.build_image(COUNTER_TASK, "t")
        task = system.load_task(image, secure=True, verify="reject")
        assert task in system.kernel.scheduler.tasks.values()
        assert system.loader.last_report is not None
        assert system.loader.last_report.ok

    def test_gate_charges_no_simulated_cycles(self):
        from repro import TyTAN

        breakdowns = []
        for mode in ("off", "reject"):
            system = TyTAN()
            image = system.build_image(COUNTER_TASK, "t")
            system.load_task(image, secure=True, verify=mode)
            breakdowns.append(system.loader.last_breakdown["overall"])
        assert breakdowns[0] == breakdowns[1]


class TestWarnMode:
    def test_bad_image_loads_but_publishes_findings(self, system):
        task = system.load_task(bad_image(), secure=True, verify="warn")
        assert task in system.kernel.scheduler.tasks.values()
        reports = system.obs.of_kind("analysis-report")
        assert reports and reports[-1].data["ok"] is False
        assert reports[-1].data["mode"] == "warn"
        findings = system.obs.of_kind("analysis-finding")
        assert any(
            f.data["code"] == "privileged-instruction" for f in findings
        )
        assert all("pass_name" in f.data for f in findings)

    def test_clean_image_publishes_ok_report(self, system):
        image = system.build_image(COUNTER_TASK, "t")
        system.load_task(image, secure=True, verify="warn")
        report = system.obs.of_kind("analysis-report")[-1]
        assert report.data["ok"] is True
        assert report.data["findings"] == 0


class TestOffMode:
    def test_default_mode_runs_no_analysis(self, system):
        system.load_task(bad_image(), secure=True)
        assert system.loader.last_report is None
        assert not system.obs.of_kind("analysis-report")

    def test_unknown_mode_is_an_error(self, system):
        image = system.build_image(COUNTER_TASK, "t")
        with pytest.raises(LoaderError):
            system.load_task(image, secure=True, verify="strict")


class TestPolicyPlumbing:
    def test_loader_level_default_mode(self, system):
        system.loader.verify = "reject"
        with pytest.raises(LoaderError):
            system.load_task(bad_image(), secure=True)
        # Per-call override still wins.
        system.load_task(bad_image(), secure=True, verify="off")

    def test_per_call_policy_overrides_default(self, system):
        image = system.build_image(COUNTER_TASK, "t")
        tight = VerifyPolicy(wcet_budget=1)
        with pytest.raises(LoaderError) as exc:
            system.load_task(
                image, secure=True, verify="reject", verify_policy=tight
            )
        assert "wcet" in str(exc.value)

    def test_load_source_passes_gate_through(self, system):
        task = system.load_source(
            COUNTER_TASK, "t", secure=True, verify="reject"
        )
        assert task in system.kernel.scheduler.tasks.values()
        assert system.loader.last_report.ok


class TestNoCyclicGarbage:
    def test_reject_load_frees_without_the_cyclic_gc(self):
        # The verifier's CFGs, code model and instruction lists must be
        # freed by reference counting alone, so peak memory follows live
        # data instead of when the cyclic collector happens to run.
        import gc

        from repro import TyTAN

        system = TyTAN()
        image = system.build_image(COUNTER_TASK, "t")
        gc.collect()
        gc.disable()
        try:
            system.load_task(image, secure=True, verify="reject")
            assert gc.collect() == 0
        finally:
            gc.enable()
