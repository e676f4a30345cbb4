"""Host-time benchmark of the TyTAN reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload firmware --seed 1 --seconds 12 --trace 0

Runs one workload (``firmware``, ``compute`` or ``fleet``; see
``workloads.py``) in repetitions of fixed simulated work until
``--seconds`` of host time have passed.  Every repetition must
reproduce the first one's digest over its simulated outputs and pass
its output checks.

``--trace 0`` prints the end-to-end metrics (host clock, tracing off);
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics from the traced ones.  Human-readable lines come
first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Untraced repetitions a ``--trace 0`` run measures at least.
MIN_REPETITIONS = 3
#: Set-ups a run times at least (extra ones are set-up only).
SETUP_SAMPLES = 11
#: Largest share of the traced wall time the layer spans may leave in
#: the runner's own root spans (``bench.setup`` and ``bench.runner``).
UNATTRIBUTED_LIMIT = 0.10


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("firmware", "compute", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def import_program():
    """Put this checkout's ``src`` first on the path and import it.

    Refuses to fall back on a ``repro`` installed elsewhere: the
    benchmark must measure the sources next to it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no program sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit("perfbench: imported repro from %s, not %s" % (repro.__file__, SRC))


class Repetition:
    """Timings and outcome of one repetition."""

    def __init__(self, setup_s, measure_s, outcome, stalled, layers=None):
        self.setup_s = setup_s
        self.measure_s = measure_s
        self.outcome = outcome
        self.stalled = stalled
        #: ``(self_ns, counts)`` from the tracer, when traced.
        self.layers = layers

    @property
    def wall_s(self):
        return self.setup_s + self.measure_s


def repeat(workload_cls, seed, tracer=None):
    """Set up, measure (under the stall guard) and check one repetition.

    Only set-up and the measured phase are timed and traced; the output
    checks of ``finish`` run afterwards.
    """
    from workloads import Outcome, Stall, StallGuard

    work = workload_cls(seed)
    outcome = Outcome()
    stalled = False
    # Collect the previous repetition's machines now, not mid-timing.
    gc.collect()
    if tracer is not None:
        tracer.install()
        span = tracer.open("bench.setup:setup")
    clock = time.perf_counter
    begin = clock()
    try:
        work.setup()
        ready = clock()
        if tracer is not None:
            tracer.close(span)
            span = tracer.open("bench.runner:measure")
        try:
            with StallGuard(work.progress):
                work.measure(outcome)
        except Stall as stall:
            print("stall: %s" % stall)
            stalled = True
            remaining = max(1, work.planned_operations() - outcome.attempted)
            outcome.attempted += remaining
            outcome.failed += remaining
        done = clock()
    finally:
        if tracer is not None:
            tracer.current = span
            tracer.close(span)
            tracer.uninstall()
    if not stalled:
        work.finish(outcome)
    layers = tracer.reduce() if tracer is not None else None
    return Repetition(ready - begin, done - ready, outcome, stalled, layers)


def time_setup(workload_cls, seed):
    """One more set-up, timed on its own, for the ``setup_s`` median."""
    work = workload_cls(seed)
    gc.collect()
    begin = time.perf_counter()
    work.setup()
    return time.perf_counter() - begin


def percentile(sorted_values, share):
    """Nearest-rank percentile of an already sorted list."""
    rank = max(0, min(len(sorted_values) - 1, int(round(share * len(sorted_values))) - 1))
    return sorted_values[rank]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps, setups):
    """The user-visible metrics over untraced repetitions.

    ``setup_s`` is the median of every set-up timed in the run.  The
    measured phase is timed twice over, as steps (the unit the
    percentiles describe) and as tiles (consecutive spans covering the
    whole phase).  Every repetition runs the same steps and tiles in the
    same order (the same seed, a fresh system), so step ``i`` of one
    repetition is the same work as step ``i`` of any other.
    Interference from other tenants of a shared host only ever slows
    the program down, so each step and each tile is taken at its
    fastest over the repetitions: the percentiles are over the fastest
    steps, and ``work_per_s`` divides by the sum of the fastest tiles.
    The same figures over all repetitions are printed beside them.
    """
    metrics = {"setup_s": metric(statistics.median(setups), "s")}
    print("setup_s      median %.6g s over %d set-ups" % (metrics["setup_s"]["value"], len(setups)))
    work = reps[0].outcome.work
    pooled = sorted(step for rep in reps for step in rep.outcome.steps)
    mean_s = statistics.fmean(rep.measure_s for rep in reps)
    fastest = sorted(map(min, zip(*(rep.outcome.steps for rep in reps))))
    fastest_s = sum(map(min, zip(*(rep.outcome.tiles for rep in reps))))
    for label, steps, seconds in (("all", pooled, mean_s), ("fastest", fastest, fastest_s)):
        values = {
            "work_per_s": metric(work / seconds, "1/s"),
            "step_ms_p50": metric(1e3 * percentile(steps, 0.50), "ms"),
            "step_ms_p95": metric(1e3 * percentile(steps, 0.95), "ms"),
        }
        print(
            "%-7s of %d repetitions: %s"
            % (label, len(reps), ", ".join("%s %.6g" % (k, v["value"]) for k, v in values.items()))
        )
    metrics.update(values)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = metric(peak_kib / 1024.0, "MiB")
    return metrics, len(fastest)


def _rate(snapshots, *names):
    hits = misses = 0
    for snapshot in snapshots:
        for name in names:
            entry = snapshot.get(name)
            if entry is not None:
                hits += entry["hits"]
                misses += entry["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _total(snapshots, name, field="value"):
    return sum(snapshot[name][field] for snapshot in snapshots if name in snapshot)


def per_layer(traced, untraced):
    """Per-layer metrics, each a mean per traced repetition."""
    n = len(traced)
    self_s, counts = {}, {}
    for rep in traced:
        self_ns, span_counts = rep.layers
        for span_name, ns in self_ns.items():
            layer = span_name.split(":", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + ns / 1e9 / n
        for span_name, count in span_counts.items():
            counts[span_name] = counts.get(span_name, 0) + count / n
    outcomes = [rep.outcome for rep in traced]
    snapshots = [snapshot for outcome in outcomes for snapshot in outcome.counters]
    extra = {}
    for outcome in outcomes:
        for key, value in outcome.extra.items():
            extra[key] = extra.get(key, 0) + value / n
    retired = sum(outcome.retired for outcome in outcomes) / n
    compiles = sum(
        counts.get(name, 0)
        for name in (
            "perf.compile:translate",
            "perf.compile:translate_trace",
            "perf.compile:compile_prefix",
        )
    )
    frames = extra.get("frames", 0)

    def seconds(layer):
        return metric(self_s.get(layer, 0.0), "s")

    def count(value, unit="count"):
        return metric(value, unit)

    return {
        "hw.step_insns": count(counts.get("hw:step", 0)),
        "hw.step_s": seconds("hw"),
        "perf.compile_s": seconds("perf.compile"),
        "perf.compiles": count(compiles),
        "perf.insns_per_compile": count(retired / compiles if compiles else 0.0),
        "perf.invalidations": count(
            sum(_total(snapshots, name, "invalidations") for name in ("block", "insn", "trace")) / n
        ),
        "perf.exec_s": seconds("perf.exec"),
        "perf.block_hit_rate": count(_rate(snapshots, "block"), "ratio"),
        "perf.insn_hit_rate": count(_rate(snapshots, "insn"), "ratio"),
        "perf.trace_hit_rate": count(_rate(snapshots, "trace"), "ratio"),
        "perf.trace_admit_full": count(_total(snapshots, "trace-admit-full") / n),
        "perf.trace_admit_prefix": count(_total(snapshots, "trace-admit-prefix") / n),
        "perf.trace_admit_reject": count(_total(snapshots, "trace-admit-reject") / n),
        "perf.slab_hit_rate": count(
            _rate(
                snapshots,
                "slab-load",
                "slab-load-u16",
                "slab-load-u8",
                "slab-store",
                "slab-store-u16",
                "slab-store-u8",
            ),
            "ratio",
        ),
        "perf.mpu_hit_rate": count(_rate(snapshots, "mpu-access"), "ratio"),
        "rtos.kernel_s": seconds("rtos"),
        "rtos.context_switches": count(counts.get("core.int_mux:restore", 0)),
        "core.load_s": seconds("core.load"),
        "core.rtm_measure_s": seconds("core.rtm_measure"),
        "core.attest_s": seconds("core.attest"),
        "core.ipc_s": seconds("core.ipc"),
        "core.storage_s": seconds("core.storage"),
        "core.int_mux_s": seconds("core.int_mux"),
        "analysis.verify_s": seconds("analysis"),
        "crypto.sha1_s": seconds("crypto.sha1"),
        "crypto.sha1_bytes": count(64 * counts.get("crypto.sha1:compress", 0), "B"),
        "crypto.hmac_s": seconds("crypto.hmac"),
        "crypto.kdf_s": seconds("crypto.kdf"),
        "crypto.kdf_calls": count(counts.get("crypto.kdf:derive_key", 0)),
        "crypto.kdf_calls_per_device": count(
            counts.get("crypto.kdf:derive_key", 0) / extra.get("devices", 1)
        ),
        "cfa.evidence_s": seconds("cfa.evidence"),
        "cfa.verify_s": seconds("cfa.verify"),
        "cfa.edges": count(extra.get("cfa_edges", 0)),
        "net.fabric_s": seconds("net.fabric"),
        "net.wire_s": seconds("net.wire"),
        "net.frames": count(frames),
        "net.drop_frac": count(extra.get("dropped", 0) / frames if frames else 0.0, "ratio"),
        "fleet.device_s": seconds("fleet.device"),
        "fleet.service_s": seconds("fleet.service"),
        "fleet.registry_s": seconds("fleet.registry"),
        "fleet.fork_s": seconds("fleet.fork"),
        "fleet.challenges_per_attest": count(
            extra["challenges"] / extra["attested"] if extra.get("attested") else 0.0, "ratio"
        ),
        "bench.setup_s": seconds("bench.setup"),
        "bench.runner_s": seconds("bench.runner"),
        "obs.events": count(sum(outcome.events for outcome in outcomes) / n),
        # Best against best: the first (cold) repetition is untraced.
        "trace.overhead_frac": count(
            min(rep.wall_s for rep in traced) / min(rep.wall_s for rep in untraced) - 1.0,
            "ratio",
        ),
    }


def run(workload, seed, seconds, trace):
    """Run one workload; returns ``(correct, attempted, failed, metrics)``."""
    import tracer as tracing
    from workloads import WORKLOADS

    if trace:
        tracing.import_all()
    cls = WORKLOADS[workload]
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(traced) < len(untraced):
            traced.append(repeat(cls, seed, tracing.Tracer()))
            last = traced[-1]
        else:
            untraced.append(repeat(cls, seed))
            last = untraced[-1]
        if last.stalled:
            break
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_REPETITIONS
        if enough and time.perf_counter() >= deadline:
            break

    reps = untraced + traced
    reference = untraced[0]
    attempted = sum(rep.outcome.attempted for rep in reps)
    failed = sum(rep.outcome.failed for rep in reps)
    digests = {rep.outcome.digest for rep in reps}
    correct = failed == 0 and len(digests) == 1 and not last.stalled
    if len(digests) != 1:
        print("sim_digest MISMATCH across repetitions: %s" % sorted(map(str, digests)))
    print("sim_digest %s (%d repetitions)" % (reference.outcome.digest, len(reps)))
    for key, value in sorted(reference.outcome.sim.items()):
        print("simulated %s = %s" % (key, value))
    if last.stalled:
        return False, attempted, failed, {}

    setups = [rep.setup_s for rep in untraced]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(cls, seed))
    e2e, samples = end_to_end(untraced, setups)
    if not trace:
        metrics = e2e
        print("steps: %d samples, each the fastest of %d repetitions" % (samples, len(untraced)))
        rate = e2e["work_per_s"]["value"]
        if workload == "fleet":
            print(
                "reports_per_s %.2f reports/s (host)  |  simulated reports_per_sec %.2f (cycle model)"
                % (rate, reference.outcome.sim["sim_reports_per_sec"])
            )
        else:
            print("guest_mips %.4f M insns/s (host)" % (rate / 1e6))
    else:
        metrics = per_layer(traced, untraced)
        wall = sum(rep.wall_s for rep in traced) / len(traced)
        unattributed = metrics["bench.setup_s"]["value"] + metrics["bench.runner_s"]["value"]
        print(
            "unattributed self time (bench.setup + bench.runner): %.4f s = %.1f%% of %.4f s"
            " traced wall per repetition" % (unattributed, 100 * unattributed / wall, wall)
        )
        if unattributed > UNATTRIBUTED_LIMIT * wall:
            print(
                "layer self times leave more than %.0f%% of the traced wall time unattributed"
                % (100 * UNATTRIBUTED_LIMIT)
            )
            correct = False
        if workload != "fleet":
            print(
                "perf.compile_s %.4f s beside guest_mips %.4f M insns/s (untraced)"
                % (metrics["perf.compile_s"]["value"], e2e["work_per_s"]["value"] / 1e6)
            )
    print("failed_frac %.6f (%d of %d checked operations)" % (failed / attempted, failed, attempted))
    for name, entry in metrics.items():
        print("%-28s %14.6g %s" % (name, entry["value"], entry["unit"]))
    return correct, attempted, failed, metrics


def main(argv=None):
    args = build_parser().parse_args(argv)
    import_program()
    correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds, args.trace)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
