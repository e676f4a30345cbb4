"""``repro-fleet``: run a simulated fleet attestation round.

Usage::

    python -m repro.tools.fleet --devices 10000 --shards 8 --loss 0.1
    python -m repro.tools.fleet --devices 64 --seed 7 --json
    python -m repro.tools.fleet --devices 16 --rogue 3,9 --serial
    python -m repro.tools.fleet --devices 2000 --store run.jsonl --resume

Boots N TyTAN machines - by default *snapshot* boot: one template
machine per device class goes through full secure boot, every other
device is forked from its snapshot with only per-device key derivation
re-run (``--boot-mode cold`` boots each machine from scratch instead;
the outputs are bit-identical).  Devices connect to a consistent-hash
sharded verifier tier (``--shards``) over the simulated fabric with
the requested fault profile, and the challenge-response protocol runs
until every device is attested or quarantined.  With ``--store`` the
protocol's durable facts are checkpointed to a JSONL file, and
``--resume`` skips devices that file already settled.

``--json`` prints the full schema-3 result (``"schema": 3``); it is
bit-identical across runs with the same arguments (everything is
seeded, and no wall-clock values are included), so two invocations can
be diffed as a determinism check.  ``--workers`` and ``--serial`` only
choose how the host steps the devices (each device computes on its own
simulated core), so they leave the output unchanged too.  The exit
code is 0 iff every non-quarantined device attested.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError, NetworkError
from repro.fleet.config import FleetConfig, ShardConfig, StoreConfig
from repro.fleet.orchestrator import Fleet
from repro.net.fabric import FabricProfile


def build_parser():
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Drive remote attestation for a simulated TyTAN fleet.",
    )
    parser.add_argument("--devices", type=int, default=16, metavar="N")
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="verifier shard count (default 1)",
    )
    parser.add_argument(
        "--boot-mode", choices=("snapshot", "cold"), default="snapshot",
        help="device boot strategy (default snapshot; cold boots every "
        "machine through full secure boot)",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="checkpoint protocol state to this JSONL file",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip devices the --store file already settled",
    )
    parser.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-datagram loss probability (default 0)",
    )
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument(
        "--workers", type=int, default=4, metavar="K",
        help="host worker processes stepping the devices (default 4)",
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="step devices in-process instead of using the worker pool",
    )
    parser.add_argument("--latency-us", type=int, default=200, metavar="US")
    parser.add_argument("--jitter-us", type=int, default=50, metavar="US")
    parser.add_argument("--duplicate", type=float, default=0.0, metavar="P")
    parser.add_argument("--reorder", type=float, default=0.0, metavar="P")
    parser.add_argument(
        "--timeout-us", type=int, default=None, metavar="US",
        help="challenge expiry (default: sized from fleet and latency)",
    )
    parser.add_argument("--max-attempts", type=int, default=8, metavar="N")
    parser.add_argument(
        "--rogue", default="", metavar="IDS",
        help="comma-separated device ids behaving badly (see --rogue-mode)",
    )
    parser.add_argument(
        "--rogue-mode", choices=("tamper", "hijack"), default="tamper",
        help="what rogue devices do: tamper runs a modified binary "
        "(static attestation catches it); hijack runs the shipped "
        "binary with a corrupted return edge (needs --cfa, only path "
        "evidence catches it)",
    )
    parser.add_argument(
        "--cfa", action="store_true",
        help="control-flow attestation: devices run the executable "
        "agent under the path monitor and every challenge demands "
        "MACed path evidence",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full schema-3 result as deterministic JSON",
    )
    return parser


def _render(result, out):
    """Human-readable fleet summary."""
    fleet = result["fleet"]
    shards = result["shards"]
    link = result["link"]
    health = result["health"]
    fabric = result["fabric"]
    print(
        "fleet: %d devices, %s boot, seed %d"
        % (fleet["devices"], fleet["boot_mode"], fleet["seed"]),
        file=out,
    )
    if fleet.get("cfa"):
        print(
            "cfa  : path evidence required with every challenge"
            + (
                " (rogue mode: %s)" % fleet["rogue_mode"]
                if fleet.get("rogue")
                else ""
            ),
            file=out,
        )
    print(
        "tier : %d verifier shard%s (%d vnodes)"
        % (shards["shards"], "" if shards["shards"] == 1 else "s", shards["vnodes"]),
        file=out,
    )
    print(
        "link : %dus +/-%dus, loss %.0f%%, dup %.0f%%, reorder %.0f%%"
        % (
            link["latency_us"],
            link["jitter_us"],
            100 * link["loss"],
            100 * link["duplicate"],
            100 * link["reorder"],
        ),
        file=out,
    )
    if result["resumed"]:
        print("resume: %d devices already settled" % result["resumed"], file=out)
    print(
        "health: %d attested, %d pending, %d quarantined (of %d)"
        % (
            health["attested"],
            health["pending"],
            health["quarantined"],
            health["total"],
        ),
        file=out,
    )
    for entry in health["quarantined_devices"]:
        print(
            "  quarantined: device %d (%s)" % (entry["device"], entry["reason"]),
            file=out,
        )
    print(
        "proto : %d challenges, %d retries, %d timeouts, %d rejects, %d stale"
        % (
            health["challenges"],
            health["retries"],
            health["timeouts"],
            health["rejects"],
            health["stale"],
        ),
        file=out,
    )
    print(
        "fabric: %d sent, %d dropped, %d duplicated, %d reordered, %d delivered"
        % (
            fabric["sent"],
            fabric["dropped"],
            fabric["duplicated"],
            fabric["reordered"],
            fabric["delivered"],
        ),
        file=out,
    )
    latency = health["latency_us"]
    if latency:
        print(
            "latency: p50 %dus, p90 %dus, p99 %dus, max %dus"
            % (latency["p50"], latency["p90"], latency["p99"], latency["max"]),
            file=out,
        )
    if result["store"]["path"]:
        print(
            "store : %d records -> %s"
            % (result["store"]["records"], result["store"]["path"]),
            file=out,
        )
    print(
        "done in %dus simulated: %.1f reports per simulated second"
        % (result["sim_elapsed_us"], result["reports_per_sec"]),
        file=out,
    )


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    rogue = [int(x) for x in args.rogue.split(",") if x.strip() != ""]
    try:
        config = FleetConfig(
            devices=args.devices,
            seed=args.seed,
            workers=0 if args.serial else args.workers,
            boot_mode=args.boot_mode,
            rogue=rogue,
            rogue_mode=args.rogue_mode,
            cfa=args.cfa,
            timeout_us=args.timeout_us,
            max_attempts=args.max_attempts,
        )
        shards = ShardConfig(shards=args.shards)
        fabric = FabricProfile(
            latency_us=args.latency_us,
            jitter_us=args.jitter_us,
            loss=args.loss,
            duplicate=args.duplicate,
            reorder=args.reorder,
        )
        store = StoreConfig("memory")
        if args.store:
            store = StoreConfig("jsonl", path=args.store, resume=args.resume)
    except (ConfigurationError, NetworkError) as exc:
        parser.error(str(exc))
    fleet = Fleet(config, shards=shards, fabric=fabric, store=store)
    result = fleet.run()
    fleet.store.close()
    if args.json:
        print(result.to_json(), file=out)
    else:
        _render(result, out)
    return 0 if result.healthy else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
