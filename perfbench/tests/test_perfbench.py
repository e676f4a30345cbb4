"""Tests of the benchmark itself: output oracles, stall guard, tracer, CLI.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro.fleet import Fleet as FleetSystem  # noqa: E402
from repro.fleet import FleetConfig, ShardConfig  # noqa: E402
from repro.hw.platform import MachineConfig  # noqa: E402
from repro.net.fabric import FabricProfile  # noqa: E402

TIERS = {
    "default": None,
    "no-traces": MachineConfig(traces=False),
    "no-blocks": MachineConfig(blocks=False),
}


class ShortFirmware(workloads.Firmware):
    MS = 12
    ROUND_MS = 4


class ShortCompute(workloads.Compute):
    MS = 12


class SmallFleet(workloads.Fleet):
    DEVICES = 24


#: A counted inner loop with two loads of different widths inside an
#: outer ``jmp`` loop: the trace JIT stops the simulated clock on it.
LIVELOCK_SOURCE = """
.section .text
.global start
start:
    movi esi, acc
outer:
    movi ecx, 2000
inner:
    addi eax, 3
    ldb ebx, [esi]
    addi edi, 7
    ld ebx, [esi]
    subi ecx, 1
    jnz inner
    jmp outer
.section .data
    .space 1024
acc:
    .word 5
"""


class Livelock:
    """One secure task of :data:`LIVELOCK_SOURCE` for 20 simulated ms,
    shaped like a benchmark workload so ``run.repeat`` can drive it."""

    MS = 20

    def __init__(self, seed, config=None):
        self.config = config

    def setup(self):
        self.system = workloads.TyTAN(self.config)
        self.system.load_source(LIVELOCK_SOURCE, "spin", priority=2)

    def progress(self):
        return self.system.clock.now

    def planned_operations(self):
        return self.MS

    def measure(self, outcome):
        self.digest = hashlib.sha256()
        workloads._run_slices(self.system, self.MS, outcome, self.digest)

    def finish(self, outcome):
        outcome.attempted += self.MS
        outcome.digest = self.digest.hexdigest()


def _measure(cls, seed, config=None):
    work = cls(seed, config)
    work.setup()
    outcome = workloads.Outcome()
    with workloads.StallGuard(work.progress):
        work.measure(outcome)
    work.finish(outcome)
    return outcome


@pytest.mark.parametrize("cls", [ShortFirmware, ShortCompute], ids=["firmware", "compute"])
def test_digest_is_identical_in_every_execution_tier(cls):
    outcomes = {tier: _measure(cls, 3, config) for tier, config in TIERS.items()}
    digests = {tier: outcome.digest for tier, outcome in outcomes.items()}
    assert len(set(digests.values())) == 1, digests
    retired = {outcome.retired for outcome in outcomes.values()}
    assert len(retired) == 1 and retired.pop() > 0


def test_compute_checksums_match_the_host_models():
    outcome = _measure(ShortCompute, 5)
    assert outcome.attempted == 2
    assert outcome.failed == 0


def test_same_seed_same_digest_other_seed_other_digest():
    first = _measure(ShortCompute, 7)
    again = _measure(ShortCompute, 7)
    other = _measure(ShortCompute, 8)
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_primed_fleet_answers_like_a_lazily_booted_one():
    outcome = _measure(SmallFleet, 4)
    assert outcome.failed == 0
    plain = FleetSystem(
        FleetConfig(devices=SmallFleet.DEVICES, seed=4, workers=0, rogue=SmallFleet(4).rogue),
        shards=ShardConfig(SmallFleet.SHARDS),
        fabric=FabricProfile(loss=SmallFleet.LOSS, jitter_us=SmallFleet.JITTER_US),
    ).run()
    assert outcome.digest == hashlib.sha256(plain.to_json().encode()).hexdigest()


# -- the trace-JIT livelock ---------------------------------------------------


@pytest.mark.xfail(
    raises=workloads.Stall,
    strict=True,
    reason="TraceJIT.dispatch returns 0 cycles at the loop-exit jnz with ECX=0 "
    "without moving EIP, and BlockEngine.try_execute takes that as progress",
)
def test_livelock_shape_runs_to_completion():
    _measure(Livelock, 0)


def test_livelock_shape_matches_the_interpreter_without_traces():
    without_traces = _measure(Livelock, 0, MachineConfig(traces=False))
    interpreted = _measure(Livelock, 0, MachineConfig(blocks=False))
    assert without_traces.digest == interpreted.digest


def test_stall_guard_turns_the_livelock_into_a_failed_repetition():
    begin = time.perf_counter()
    rep = run.repeat(Livelock, 0)
    assert time.perf_counter() - begin < 15
    assert rep.stalled
    assert rep.outcome.failed >= 1
    assert rep.outcome.attempted >= rep.outcome.failed


# -- tracer -------------------------------------------------------------------


def _bindings():
    found = {}
    for span_name, module_name, path, every in tracing.ENTRY_POINTS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        found[(module_name, path)] = owner.__dict__[attr]
    return found


def test_tracer_restores_every_binding():
    tracing.import_all()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
    finally:
        tracer.uninstall()
    assert all(during[key] is not before[key] for key in before)
    assert _bindings() == before


def test_self_times_add_up_to_the_root_spans():
    tracer = tracing.Tracer()
    root = tracer.open("bench.runner:root")
    outer = tracer.open("a:outer")
    inner = tracer.open("b:inner")
    time.sleep(0.002)
    tracer.close(inner)
    time.sleep(0.001)
    tracer.close(outer)
    tracer.close(root)
    self_ns, counts = tracer.reduce()
    assert sum(self_ns.values()) == tracer.ends[root] - tracer.starts[root]
    assert counts == {"bench.runner:root": 1, "a:outer": 1, "b:inner": 1}
    assert self_ns["b:inner"] >= 2_000_000


def test_generator_entry_points_get_one_span_per_resume():
    tracer = tracing.Tracer()

    def steps():
        yield 1
        yield 2
        return 3

    wrapped = tracer.wrap(steps, "g:steps")

    def caller():
        result = yield from wrapped()
        return result

    generator = caller()
    assert list(iter(lambda: next(generator, None), None)) == [1, 2]
    assert tracer.reduce()[1] == {"g:steps": 3}


# -- command line -------------------------------------------------------------


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    done = _cli("--workload", "compute", "--seed", "2", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_cli_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli("--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
