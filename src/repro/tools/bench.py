"""``repro-bench``: regenerate the paper's tables from the command line.

Usage::

    python -m repro.tools.bench               # every experiment
    python -m repro.tools.bench table7 ipc    # selected experiments
    python -m repro.tools.bench --list
    python -m repro.tools.bench --throughput  # CPU-core insns/sec bench
    python -m repro.tools.bench --wcet        # static vs dynamic WCET
    python -m repro.tools.bench --cfa         # CFA recording overhead

The throughput mode runs the CPU bench (:mod:`repro.perf.bench_core`):
three workloads (alu / mem / irq), each in baseline, fast-path,
block-translation, and trace-JIT mode, each mode timed as the best of
three freshly built rigs, appending to the run history in
``BENCH_cpu_core.json``.  ``--no-blocks`` skips both JIT tiers and
``--no-traces`` skips just the trace JIT (the ablation modes CI runs);
``--check`` turns the run into a CI gate that fails when a JIT tier
regresses - blocks vs. fastpath on every workload, traces vs. blocks
on alu/mem, traces at least 2x blocks on irq (whole loop iterations
between ticks), traces vs. fastpath on irq (the architectural-equivalence
check is always on: any divergence between modes raises before a
report is written).  Gate runs never append to the report history;
``--no-record`` requests the same for a plain run.
The WCET mode runs the static-analysis soundness experiments
(:mod:`repro.analysis.bench`): each benchmark workload's statically
computed cycle bound next to the cycles the core actually charged.
"""

from __future__ import annotations

import argparse
import sys

from repro.sim.experiments import EXPERIMENTS


def build_parser():
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the TyTAN paper's evaluation tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: all); see --list",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--throughput",
        action="store_true",
        help="run the CPU-core throughput bench (cached vs. uncached)",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=150_000,
        metavar="N",
        help="instructions per throughput run (default 150000)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="throughput/CFA report path (default BENCH_cpu_core.json)",
    )
    parser.add_argument(
        "--wcet",
        action="store_true",
        help="run the static-vs-dynamic WCET soundness experiments",
    )
    parser.add_argument(
        "--cfa",
        action="store_true",
        help="run the control-flow-attestation overhead bench "
        "(path recording on vs. off, every execution tier)",
    )
    parser.add_argument(
        "--no-blocks",
        dest="blocks",
        action="store_false",
        help="skip both JIT tiers of the throughput bench",
    )
    parser.add_argument(
        "--no-traces",
        dest="traces",
        action="store_false",
        help="skip the trace-JIT mode of the throughput bench "
        "(the block tier still runs)",
    )
    parser.add_argument(
        "--no-record",
        dest="record",
        action="store_false",
        help="do not append this throughput run to the report history "
        "(implied by --check: gate runs must not pollute the history)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if a JIT tier regresses on any throughput "
        "workload (blocks vs. fastpath everywhere; traces vs. blocks "
        "on alu/mem and >= 2x on irq, where both tiers run horizon "
        "prefixes; traces vs. fastpath on irq)",
    )
    return parser


#: ``--check`` gates: (speedup key, minimum ratio, workloads it covers;
#: None = all).  The irq traces-vs-blocks floor is 2x: blocks and
#: traces alike run checkpoint prefixes up to each 400-cycle tick, but
#: only a trace runs whole loop iterations between ticks instead of
#: stopping at every branch, so "barely no slower than blocks" would be
#: a regression.
_THROUGHPUT_GATES = (
    ("blocks_vs_fastpath", 1.0, None),
    ("traces_vs_blocks", 1.0, ("alu", "mem")),
    ("traces_vs_blocks", 2.0, ("irq",)),
    ("traces_vs_fastpath", 1.0, ("irq",)),
)


def check_throughput(result, out):
    """CI gate over a throughput result; returns offending workloads."""
    slower = []
    for name in sorted(result["workloads"]):
        entry = result["workloads"][name]
        for key, floor, only in _THROUGHPUT_GATES:
            if only is not None and name not in only:
                continue
            ratio = entry["speedups"].get(key)
            if ratio is not None and ratio < floor:
                slower.append(name)
                print(
                    "check: %s: %s is %.2fx (gate: >= %.2fx)"
                    % (name, key, ratio, floor),
                    file=out,
                )
    return slower


def render_wcet(results, out):
    """Print the WCET soundness table; returns unsound-result count."""
    print(
        "\nWCET soundness - static bound vs. measured cycles", file=out
    )
    print(
        "  %-16s %12s %12s %8s %8s"
        % ("workload", "static", "dynamic", "slack", "sound"),
        file=out,
    )
    unsound = 0
    for row in results:
        static = row["static_wcet"]
        if not row["sound"]:
            unsound += 1
        print(
            "  %-16s %12s %12s %8s %8s"
            % (
                row["workload"],
                _fmt(static) if static is not None else "-",
                _fmt(row["dynamic_cycles"]),
                "%s%%" % row["slack_pct"] if row["slack_pct"] is not None else "-",
                "yes" if row["sound"] else "NO",
            ),
            file=out,
        )
    return unsound


def render(name, description, rows, out):
    """Print one paper-vs-measured table."""
    print("\n%s - %s" % (name, description), file=out)
    print("  %-36s %14s %14s %8s" % ("row", "paper", "measured", "delta"), file=out)
    worst = 0.0
    for label, paper, measured in rows:
        if paper:
            delta = (measured - paper) / paper
            delta_text = "%+.1f%%" % (100 * delta)
            worst = max(worst, abs(delta))
        else:
            delta_text = "-"
        print(
            "  %-36s %14s %14s %8s"
            % (label, _fmt(paper), _fmt(measured), delta_text),
            file=out,
        )
    return worst


def _fmt(value):
    if isinstance(value, float):
        return "%.2f" % value
    return "{:,}".format(value)


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.wcet:
        from repro.analysis.bench import wcet_experiments

        unsound = render_wcet(wcet_experiments(), out)
        return 0 if unsound == 0 else 1
    if args.cfa:
        from repro.perf.bench_core import write_cfa_report

        # The cross-tier evidence gate is built in: any digest/cycle
        # divergence between tiers raises before a report is written.
        write_cfa_report(
            path=args.json or "BENCH_cpu_core.json",
            instructions=args.instructions,
            out=out,
            record=args.record and not args.check,
        )
        return 0
    if args.throughput:
        from repro.perf.bench_core import write_report

        result = write_report(
            path=args.json or "BENCH_cpu_core.json",
            instructions=args.instructions,
            out=out,
            blocks=args.blocks,
            traces=args.traces,
            record=args.record and not args.check,
        )
        if args.check:
            if not args.blocks:
                print("check: nothing to gate without the block tier", file=out)
                return 2
            return 1 if check_throughput(result, out) else 0
        return 0
    if args.list:
        for name, (description, _) in EXPERIMENTS.items():
            print("%-8s %s" % (name, description), file=out)
        return 0
    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        print("repro-bench: unknown experiment(s): %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    for name in selected:
        description, driver = EXPERIMENTS[name]
        rows = driver()
        render(name, description, rows, out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
