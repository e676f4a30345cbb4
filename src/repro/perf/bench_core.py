"""CPU-core throughput bench: baseline / fast path / blocks / traces.

Runs three self-terminating workloads through identically configured
rigs (one per mode, built afresh for each of :data:`THROUGHPUT_RUNS`
runs) and reports each mode's best wall-clock instructions/sec, the
speedups, and the cache hit rates:

* ``alu`` - a long straight-line ALU loop: the JIT's best case (one
  compiled block per iteration, and one looping trace with a counted-loop
  fast body, all flag writes dead except the loop counter's).
* ``mem`` - a load/store-heavy loop: every iteration pays data-access
  EA-MPU checks, so this is the workload that exercises the
  ``mpu_access`` decision memo (the ALU loop never touches it: fetches
  go through the *transfer* memo and the instruction cache's epoch
  check, not the access memo) and the block tier's hoisted windows.
* ``irq`` - the ALU body under a live tick timer whose handler counts
  ticks: blocks may only run inside the event horizon, so this measures
  the tier with real interrupt batching (and proves delivery lands on
  the same instruction boundary in every mode).

The modes are ``baseline`` (every cache off), ``fastpath`` (PR 1's
caches), ``blocks`` (fast path plus the block tier, trace JIT
ablated), and ``traces`` (the full stack with the trace-recording
JIT).  All runs of one workload must be *architecturally identical* - same
retired count, same simulated cycles, same registers, memory, fault
log, and timer ticks - which the bench asserts before reporting
numbers.

Reports are cumulative: ``BENCH_cpu_core.json`` keeps a timestamped
``history`` list so the performance trajectory is tracked from run to
run.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.hw.clock import CycleClock
from repro.hw.cpu import CPU
from repro.hw.ea_mpu import EAMPU, MpuRule, Perm
from repro.hw.exceptions import ExceptionEngine, Vector
from repro.hw.memory import MemoryMap, PhysicalMemory, RamRegion
from repro.hw.timer import TickTimer
from repro.image.linker import link
from repro.isa.assembler import assemble

CODE_BASE = 0x1000
STACK_BASE = 0x3000
DATA_BASE = 0x6000
OTHER_BASE = 0x8000
IDT_BASE = 0x0

#: The execution modes, cheapest-configured first.  ``blocks`` runs the
#: block tier with the trace JIT disabled (the ablation the trace
#: speedup is measured against); ``traces`` stacks the trace-recording
#: JIT on top.
MODES = ("baseline", "fastpath", "blocks", "traces")

#: Cycles between tick interrupts in the ``irq`` workload - short
#: enough that the event horizon genuinely constrains block admission.
IRQ_TICK_PERIOD = 400

#: ALU block repeated inside the loop body (straight-line hot path).
_ALU_BLOCK = """\
addi eax, 1
xori ebx, 0x55AA
andi edx, 0xFFFF
ori esi, 3
subi edi, 1
shli ebp, 1
add eax, ebx
xor edx, esi
"""

#: Instructions per iteration of each workload's loop (used to size the
#: iteration count from the requested instruction budget).
_ALU_REPEATS = 6
_ALU_PER_ITER = 8 * _ALU_REPEATS + 2
_MEM_PER_ITER = 14


def _alu_source(iterations):
    """Straight-line ALU body looped ``iterations`` times, then halt."""
    body = _ALU_BLOCK * _ALU_REPEATS
    return "start:\nmovi ecx, %d\nloop:\n%ssubi ecx, 1\njnz loop\nhlt\n" % (
        iterations,
        body,
    )


def _mem_source(iterations):
    """Load/store-heavy loop: word and byte traffic plus stack pushes."""
    return """\
start:
movi ebx, %d
movi ecx, %d
loop:
ld eax, [ebx+0]
addi eax, 1
st [ebx+0], eax
ld edx, [ebx+8]
xor edx, eax
st [ebx+8], edx
ldb esi, [ebx+4]
stb esi, [ebx+5]
push eax
push edx
pop edx
pop eax
subi ecx, 1
jnz loop
hlt
""" % (DATA_BASE, iterations)


def _irq_source(ticks):
    """ALU work polled against a tick counter the IRQ handler bumps.

    The handler lives in the same code region as the task; hardware
    delivery and IRET are privileged transfers, so no extra EA-MPU
    rules are needed.  The main loop spins on the tick counter at
    ``DATA_BASE`` and exits after ``ticks`` interrupts.
    """
    return """\
start:
movi ebx, %d
st [ebx+0], eax
sti
loop:
%sld esi, [ebx+0]
cmpi esi, %d
jl loop
cli
hlt
irq_handler:
push eax
push ebx
movi ebx, %d
ld eax, [ebx+0]
addi eax, 1
st [ebx+0], eax
pop ebx
pop eax
iret
""" % (DATA_BASE, _ALU_BLOCK, ticks, DATA_BASE)


def build_rig(fastpath, source=None):
    """Assemble the workload into a CPU+EA-MPU rig; returns the CPU."""
    memory = PhysicalMemory(MemoryMap())
    memory.map.cache_enabled = fastpath
    memory.map.add(RamRegion("idt", IDT_BASE, 0x400))
    memory.map.add(RamRegion("code", CODE_BASE, 0x1000))
    memory.map.add(RamRegion("stack", STACK_BASE, 0x1000))
    memory.map.add(RamRegion("data", DATA_BASE, 0x1000))
    memory.map.add(RamRegion("other", OTHER_BASE, 0x1000))
    mpu = EAMPU(decision_cache=fastpath)
    memory.attach_mpu(mpu)
    clock = CycleClock()
    cpu = CPU(memory, clock, fastpath=fastpath)

    image = link(assemble(source or _alu_source(3000)), stack_size=64)
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + CODE_BASE) & 0xFFFFFFFF).to_bytes(
            4, "little"
        )
    memory.write_raw(CODE_BASE, bytes(blob))
    entry = CODE_BASE + image.entry

    # Representative rule table: locked code + stack rules, a data rule,
    # and decoy task rules so every uncached check scans real slots.
    code = (CODE_BASE, CODE_BASE + 0x1000)
    mpu.program_slot(
        0,
        MpuRule("bench:code", code[0], code[1], code[0], code[1], Perm.RX, entry_point=entry),
        lock=True,
    )
    mpu.program_slot(
        1,
        MpuRule("bench:stack", code[0], code[1], STACK_BASE, STACK_BASE + 0x1000, Perm.RW),
        lock=True,
    )
    mpu.program_slot(
        2,
        MpuRule("bench:data", code[0], code[1], DATA_BASE, DATA_BASE + 0x1000, Perm.RW),
    )
    for slot in range(3, 7):
        base = OTHER_BASE + (slot - 3) * 0x100
        mpu.program_slot(
            slot,
            MpuRule(
                "bench:decoy%d" % slot,
                base,
                base + 0x100,
                base,
                base + 0x100,
                Perm.RX,
                entry_point=base,
            ),
        )

    cpu.regs.eip = entry
    cpu.regs.esp = STACK_BASE + 0x1000
    return cpu


def _build_mode_rig(source, mode, irq=False):
    """A ``build_rig`` CPU configured for one mode; returns (cpu, timer)."""
    cpu = build_rig(fastpath=mode != "baseline", source=source)
    timer = None
    if irq:
        engine = ExceptionEngine(cpu.memory, IDT_BASE)
        cpu.attach_engine(engine)
        timer = TickTimer(engine.controller, IRQ_TICK_PERIOD)
        cpu.clock.add_event_source(timer.next_event)
        handler = CODE_BASE + link(
            assemble(source), entry_symbol="irq_handler", stack_size=64
        ).entry
        engine.install_handler(Vector.TIMER, handler)
        timer.start(cpu.clock.now)
    if mode == "blocks":
        cpu.enable_blocks(cpu.clock.next_event_horizon, traces=False)
    elif mode == "traces":
        cpu.enable_blocks(cpu.clock.next_event_horizon, traces=True)
    return cpu, timer


def _run(cpu, timer):
    """Run the rig to completion (halt); returns wall-clock seconds.

    Mirrors the platform's slice loop: poll the timer, take a pending
    interrupt, step - so interrupt latency is at most one instruction
    (or one horizon-admitted block, which is the same boundary).
    """
    step = cpu.step
    start = time.perf_counter()
    if timer is None:
        while not cpu.halted:
            step()
    else:
        clock = cpu.clock
        tick = timer.tick
        take = cpu.maybe_take_interrupt
        while not cpu.halted:
            tick(clock.now)
            take()
            step()
    return time.perf_counter() - start


def _snapshot(cpu, timer):
    """Everything architectural a run produced (for equivalence checks)."""
    memory = cpu.memory
    snap = {
        "retired": cpu.retired,
        "cycles": cpu.clock.now,
        "gpr": list(cpu.regs.gpr),
        "eip": cpu.regs.eip,
        "eflags": cpu.regs.eflags,
        "data_sha": hashlib.sha256(memory.read_raw(DATA_BASE, 0x1000)).hexdigest(),
        "stack_sha": hashlib.sha256(memory.read_raw(STACK_BASE, 0x1000)).hexdigest(),
        "faults": [str(fault) for fault in memory.mpu.fault_log],
    }
    if timer is not None:
        snap["ticks"] = timer.ticks
    return snap


def _workloads(instructions):
    """The bench's workload table, sized to the instruction budget."""
    alu_iters = max(1, instructions // _ALU_PER_ITER)
    mem_iters = max(1, instructions // _MEM_PER_ITER)
    irq_ticks = max(8, instructions // 200)
    return [
        (
            "alu",
            "straight-line ALU loop, EA-MPU live (%d iterations)" % alu_iters,
            _alu_source(alu_iters),
            False,
        ),
        (
            "mem",
            "load/store-heavy loop: word+byte+stack traffic (%d iterations)"
            % mem_iters,
            _mem_source(mem_iters),
            False,
        ),
        (
            "irq",
            "ALU loop under a %d-cycle tick timer (%d ticks)"
            % (IRQ_TICK_PERIOD, irq_ticks),
            _irq_source(irq_ticks),
            True,
        ),
    ]


#: Freshly built rigs each mode of each workload runs; the mode's time
#: is its fastest run, so one host stall cannot flip a ``--check`` gate.
THROUGHPUT_RUNS = 3


def run_bench(instructions=150_000, blocks=True, traces=True):
    """Run every workload in every mode; returns the result dict.

    ``blocks=False`` drops both JIT tiers; ``traces=False`` keeps the
    block tier but ablates the trace JIT.  Each mode runs
    :data:`THROUGHPUT_RUNS` times on a freshly built rig, in interleaved
    rounds (a burst of host load slows one run of every mode, not every
    run of one mode), and reports its fastest run.  Raises
    :class:`AssertionError` if any run of any mode disagrees with the
    first on any architectural outcome.
    """
    if not blocks:
        modes = MODES[:2]
    elif not traces:
        modes = MODES[:3]
    else:
        modes = MODES
    workloads = {}
    for name, description, source, irq in _workloads(instructions):
        reference = None
        best = {}  # mode -> (seconds, cpu) of its fastest run
        for _ in range(THROUGHPUT_RUNS):
            for mode in modes:
                cpu, timer = _build_mode_rig(source, mode, irq=irq)
                seconds = _run(cpu, timer)
                snap = _snapshot(cpu, timer)
                if reference is None:
                    reference = (modes[0], snap)
                elif snap != reference[1]:
                    diverged = sorted(
                        key for key in snap if snap[key] != reference[1][key]
                    )
                    raise AssertionError(
                        "%s: modes %r and %r diverged on %s"
                        % (name, reference[0], mode, ", ".join(diverged))
                    )
                if mode not in best or seconds < best[mode][0]:
                    best[mode] = (seconds, cpu)
        entry = {"description": description, "modes": {}}
        for mode in modes:
            seconds, cpu = best[mode]
            result = {
                "seconds": round(seconds, 6),
                "insns_per_sec": round(reference[1]["retired"] / seconds, 1),
            }
            if mode != "baseline":
                result["cache_stats"] = cpu.cache_stats()
            entry["modes"][mode] = result
        entry["retired"] = reference[1]["retired"]
        entry["simulated_cycles"] = reference[1]["cycles"]
        if irq:
            entry["timer_ticks"] = reference[1]["ticks"]
        per = {m: entry["modes"][m]["insns_per_sec"] for m in modes}
        entry["speedups"] = {
            "fastpath_vs_baseline": round(per["fastpath"] / per["baseline"], 2)
        }
        if blocks:
            entry["speedups"]["blocks_vs_fastpath"] = round(
                per["blocks"] / per["fastpath"], 2
            )
            entry["speedups"]["blocks_vs_baseline"] = round(
                per["blocks"] / per["baseline"], 2
            )
        if "traces" in per:
            entry["speedups"]["traces_vs_blocks"] = round(
                per["traces"] / per["blocks"], 2
            )
            entry["speedups"]["traces_vs_fastpath"] = round(
                per["traces"] / per["fastpath"], 2
            )
            entry["speedups"]["traces_vs_baseline"] = round(
                per["traces"] / per["baseline"], 2
            )
        workloads[name] = entry
    return {
        "bench": "cpu_core",
        "instructions": instructions,
        "modes": list(modes),
        "workloads": workloads,
    }


#: Interleaved recording-off/on run pairs the CFA bench times per mode.
CFA_PAIRS = 3


def _cfa_run(source, mode, recording):
    """One timed alu run, recording the path when ``recording``.

    Returns ``(retired, cycles, seconds, state, evidence)``; ``state``
    is the architectural end state and ``evidence`` (recording runs
    only) the sealed path digest with its edge, cycle and retire counts.
    """
    from repro.cfa.recorder import CfaCore, PathRecorder

    cpu, timer = _build_mode_rig(source, mode)
    recorder = None
    if recording:
        recorder = PathRecorder()
        cpu.cfa = CfaCore(cpu.clock)
        cpu.cfa.attach_region(CODE_BASE, CODE_BASE + 0x1000, recorder)
    seconds = _run(cpu, timer)
    state = (list(cpu.regs.gpr), cpu.regs.eip, cpu.regs.eflags)
    evidence = None
    if recording:
        recorder.seal()
        evidence = (
            recorder.path_digest().hex(),
            recorder.edges,
            cpu.clock.now,
            cpu.retired,
        )
    return cpu.retired, cpu.clock.now, seconds, state, evidence


def run_cfa_bench(instructions=150_000):
    """Path-recording overhead: the alu workload, recording off vs on.

    Runs the straight-line ALU loop in every mode as :data:`CFA_PAIRS`
    interleaved pairs - once bare, once with a
    :class:`~repro.cfa.recorder.CfaCore` folding every taken transfer
    into the path hash - and reports the wall-clock insns/sec cost of
    recording per tier from the fastest bare run against the fastest
    recording run (one pair alone is host noise), plus the modelled
    cycle cost (the per-edge charge the interpreter pays and the trace
    tier bakes into its closed-form bodies).  Every run doubles as the
    cross-tier evidence gate: all recording runs must retire the same
    count, charge the same cycles, and chain to the same path digest -
    divergence means a JIT's baked hash updates drifted from the
    interpreter's.
    """
    iters = max(1, instructions // _ALU_PER_ITER)
    source = _alu_source(iters)
    modes_out = {}
    reference = None
    off_reference = None
    for mode in MODES:
        off_times, on_times = [], []
        for _ in range(CFA_PAIRS):
            off_retired, off_cycles, off_seconds, off_state, _ = _cfa_run(
                source, mode, False
            )
            on_retired, _, on_seconds, on_state, evidence = _cfa_run(source, mode, True)
            if on_state != off_state:
                raise AssertionError(
                    "cfa: %s architectural state differs with recording on" % mode
                )
            if off_retired != on_retired:
                raise AssertionError(
                    "cfa: %s retired %d recording vs %d bare"
                    % (mode, on_retired, off_retired)
                )
            if reference is None:
                reference = (mode, evidence)
                off_reference = (mode, (off_retired, off_cycles))
            else:
                if evidence != reference[1]:
                    raise AssertionError(
                        "cfa: modes %r and %r diverged on recorded evidence"
                        % (reference[0], mode)
                    )
                if (off_retired, off_cycles) != off_reference[1]:
                    raise AssertionError(
                        "cfa: modes %r and %r diverged on the bare run"
                        % (off_reference[0], mode)
                    )
            off_times.append(off_seconds)
            on_times.append(on_seconds)
        off_rate = round(off_retired / min(off_times), 1)
        on_rate = round(on_retired / min(on_times), 1)
        modes_out[mode] = {
            "off_insns_per_sec": off_rate,
            "on_insns_per_sec": on_rate,
            "recording_overhead_pct": round(100.0 * (off_rate - on_rate) / off_rate, 1),
        }
    digest, edges, on_cycles, retired = reference[1]
    off_cycles = off_reference[1][1]
    return {
        "bench": "cfa_overhead",
        "workload": "alu",
        "instructions": instructions,
        "retired": retired,
        "edges": edges,
        "path_digest": digest,
        "cycles_recording_off": off_cycles,
        "cycles_recording_on": on_cycles,
        "cycle_overhead_pct": round(100.0 * (on_cycles - off_cycles) / off_cycles, 2),
        "modes": modes_out,
    }


def write_cfa_report(
    path="BENCH_cpu_core.json",
    instructions=150_000,
    out=None,
    record=True,
):
    """Run the CFA overhead bench; publish it into the core report.

    The result lands under the ``"cfa"`` key of the existing report at
    ``path`` (created if absent) - :func:`write_report` preserves that
    section across throughput runs, so one JSON file carries both the
    tier trajectory and the latest recording-overhead numbers.
    """
    result = run_cfa_bench(instructions)
    if record:
        report = _load_report(path)
        report.setdefault("bench", "cpu_core")
        report["cfa"] = result
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if out is not None:
        for mode in MODES:
            entry = result["modes"][mode]
            print(
                "cfa %-8s: %9.0f -> %9.0f insns/sec (%.1f%% recording overhead)"
                % (
                    mode,
                    entry["off_insns_per_sec"],
                    entry["on_insns_per_sec"],
                    entry["recording_overhead_pct"],
                ),
                file=out,
            )
        print(
            "cfa evidence: %d edges, digest %s, +%.2f%% simulated cycles"
            % (
                result["edges"],
                result["path_digest"][:16],
                result["cycle_overhead_pct"],
            ),
            file=out,
        )
        if record:
            print("report: %s" % path, file=out)
        else:
            print("report: (check run, history not recorded)", file=out)
    return result


def _history_entry(result):
    """Compact trajectory record appended to the report's history."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "instructions": result["instructions"],
        "workloads": {
            name: {
                "insns_per_sec": {
                    mode: entry["modes"][mode]["insns_per_sec"]
                    for mode in entry["modes"]
                },
                "speedups": entry["speedups"],
            }
            for name, entry in result["workloads"].items()
        },
    }


def _load_report(path):
    """The existing report at ``path`` as a dict ({} if absent/bad)."""
    try:
        with open(path) as handle:
            old = json.load(handle)
    except (OSError, ValueError):
        return {}
    return old if isinstance(old, dict) else {}


def _history_of(old):
    """The history list of an existing report ([] if it has none)."""
    history = old.get("history")
    return history if isinstance(history, list) else []


def write_report(
    path="BENCH_cpu_core.json",
    instructions=150_000,
    out=None,
    blocks=True,
    traces=True,
    record=True,
):
    """Run the bench and write the JSON report to ``path``.

    The report carries a cumulative timestamped ``history`` of past
    runs (read back from any existing report at ``path``), so repeated
    bench runs track the trajectory instead of overwriting it.  With
    ``record=False`` (gate/CI checks) the report file is left untouched
    and only the result is returned - check runs must not pollute the
    history.  A dedupe guard also drops an append whose payload matches
    the previous entry exactly (timestamp aside), so re-running the
    same bench back-to-back records one trajectory point, not two.
    """
    result = run_bench(instructions, blocks=blocks, traces=traces)
    if record:
        old = _load_report(path)
        history = _history_of(old)
        entry = _history_entry(result)
        if history:
            previous = dict(history[-1], timestamp=None)
            if previous == dict(entry, timestamp=None):
                history = history[:-1]
        result["history"] = history + [entry]
        if "cfa" in old:
            # --cfa runs publish into the same report; keep their section.
            result["cfa"] = old["cfa"]
        with open(path, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if out is not None:
        for name, entry in sorted(result["workloads"].items()):
            per = entry["modes"]
            line = "cpu_core %-3s: %8.0f" % (
                name,
                per["baseline"]["insns_per_sec"],
            )
            line += " -> %8.0f (%.2fx fastpath)" % (
                per["fastpath"]["insns_per_sec"],
                entry["speedups"]["fastpath_vs_baseline"],
            )
            if "blocks" in per:
                line += " -> %8.0f (%.2fx blocks)" % (
                    per["blocks"]["insns_per_sec"],
                    entry["speedups"]["blocks_vs_baseline"],
                )
            if "traces" in per:
                line += " -> %8.0f (%.2fx traces)" % (
                    per["traces"]["insns_per_sec"],
                    entry["speedups"]["traces_vs_baseline"],
                )
            line += " insns/sec"
            print(line, file=out)
        if record:
            print("report: %s" % path, file=out)
        else:
            print("report: (check run, history not recorded)", file=out)
    return result
