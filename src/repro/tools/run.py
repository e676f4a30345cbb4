"""``repro-run``: boot a TyTAN system and run task images on it.

Usage::

    python -m repro.tools.run task.img [more.img ...] \
        [--ms 10] [--normal] [--priority 3] [--attest] [--trace]

Each image is loaded dynamically (secure by default), the system runs
for the requested simulated time, and a summary is printed: per-task
state, identities, fault log, and (with ``--attest``) a remote
attestation round trip for every secure task.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import TyTAN
from repro.core.identity import identity_of_image
from repro.errors import ImageFormatError, TyTANError
from repro.image.telf import TaskImage


def build_parser():
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-run", description="Run task images on a simulated TyTAN."
    )
    parser.add_argument("images", nargs="+", help="task image files (.img)")
    parser.add_argument(
        "--ms", type=float, default=10.0, help="simulated milliseconds to run"
    )
    parser.add_argument(
        "--normal", action="store_true", help="load as normal (not secure) tasks"
    )
    parser.add_argument("--priority", type=int, default=3, help="task priority")
    parser.add_argument(
        "--attest", action="store_true", help="remote-attest each secure task"
    )
    parser.add_argument(
        "--trace", action="store_true", help="print the run's first 200 bus events"
    )
    parser.add_argument(
        "--vcd", metavar="FILE", help="write a VCD waveform of task states"
    )
    return parser


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)

    system = TyTAN()
    events = []
    if args.trace:
        system.kernel.obs.subscribe(events.append)
    vcd_recorder = None
    if args.vcd:
        from repro.sim.vcd import VcdRecorder

        vcd_recorder = VcdRecorder(system.kernel)
    tasks = []
    for path in args.images:
        try:
            image = TaskImage.from_bytes(Path(path).read_bytes())
        except (OSError, ImageFormatError) as exc:
            print("repro-run: %s: %s" % (path, exc), file=sys.stderr)
            return 2
        try:
            task = system.load_task(
                image, secure=not args.normal, priority=args.priority
            )
        except TyTANError as exc:
            print("repro-run: loading %s failed: %s" % (path, exc), file=sys.stderr)
            return 1
        tasks.append((task, image))
        print(
            "loaded %s at 0x%08X (%s)"
            % (task.name, task.base, "secure" if task.is_secure else "normal"),
            file=out,
        )

    budget = int(args.ms * system.platform.config.hz / 1000)
    system.run(max_cycles=budget)
    print(
        "\nran %.2f ms simulated (%d cycles)"
        % (system.clock.cycles_to_ms(system.clock.now), system.clock.now),
        file=out,
    )

    for task, image in tasks:
        if task in system.kernel.faulted:
            state = "FAULTED: %s" % system.kernel.faulted[task]
        elif task.tid not in system.kernel.scheduler.tasks:
            state = "exited"
        else:
            state = task.state
        identity = task.identity.hex() if task.identity else "(unmeasured)"
        print("  %-16s %-10s id=%s" % (task.name, state, identity[:16]), file=out)
        if args.attest and task.identity is not None and task.tid in system.kernel.scheduler.tasks:
            verifier = system.make_verifier()
            verifier.expect(identity_of_image(image))
            nonce = verifier.fresh_nonce()
            report = system.remote_attest_task(task, nonce)
            print(
                "    remote attestation: %s"
                % ("OK" if verifier.verify(report, nonce) else "FAILED"),
                file=out,
            )

    if args.trace:
        print("\nevent trace:", file=out)
        for event in events[:200]:
            print("  %10d %-14s %s" % (event.cycle, event.kind, event.data), file=out)

    if vcd_recorder is not None:
        vcd_recorder.dump(args.vcd)
        print("\nwaveform written to %s" % args.vcd, file=out)

    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
