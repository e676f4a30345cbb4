"""The benchmark's workloads: seeded, fixed-size repetitions with checks.

Each workload is a class whose instances are one *repetition*: a fresh
system built by ``setup()``, driven by ``measure(outcome)`` and checked
by ``finish(outcome)``.  The simulated work of a repetition is fixed by
the seed alone, so every repetition of one seed ends with the same
``digest`` over its simulated outputs, in any execution tier.  Host
time is only ever measured here, never taken from the cycle model.

* :class:`Firmware` - the paper's multi-task firmware (cruise control,
  trace-demo counters, background compute, a CFA-enrolled task and
  operator attestation rounds) on one default ``TyTAN()``.
* :class:`Compute` - CPU-bound ALU and memory-walk tasks next to one
  periodic secure task; their posted checksums must match host models.
* :class:`Fleet` - one static attestation round of snapshot-booted
  devices behind a lossy fabric and a sharded verifier.

A simulated clock that stops advancing raises :class:`Stall` through
:class:`StallGuard`, and the caller counts the repetition's remaining
operations as failed.
"""

from __future__ import annotations

import functools
import hashlib
import random
import signal
import struct
import time

from repro import TyTAN
from repro.cfa.evidence import evidence_mac_ok
from repro.cfa.verifier import PathVerifier
from repro.core.identity import identity_of_image
from repro.crypto.kdf import derive_key
from repro.fleet import Fleet as FleetSystem
from repro.fleet import FleetConfig, ShardConfig
from repro.hw.platform import MachineConfig
from repro.net.fabric import FabricProfile
from repro.sim.workloads import counter_task_source
from repro.uc.cruise_control import CONTROL_PERIOD_CYCLES, CruiseControlSystem

#: Simulated cycles in one measured slice (1 ms at the default 48 MHz).
SLICE_CYCLES = MachineConfig().hz // 1000

# -- guest programs ----------------------------------------------------------
#
# No hot loop of a benchmark task contains a conditional branch: a loop
# closes with ``jmp`` and the host bounds the run.  A trace headed at a
# conditional branch can freeze the simulated clock (the trace-JIT
# livelock, reproduced in perfbench/tests), and a benchmark that hangs
# measures nothing.

#: Keeps a task's data off the 256-byte snoop granule of its code.
_DATA_GAP = "    .space 256"

#: Moves a task's loop code off the granule holding the stack top of
#: the task loaded just below it (context frames land there).
_CODE_GAP = """
    jmp body
    .space 256
body:"""

_MASK = 0xFFFFFFFF


def alu_source(x0):
    """LCG mixing loop; after each step posts ``acc`` (the xor of
    ``x >> 7`` over every step) and then the step count."""
    return """
.section .text
.global start
start:%s
    movi eax, %d
    movi edi, 0
    movi ecx, 0
    movi edx, 1103515245
    movi esi, acc
mix:
    mul eax, edx
    addi eax, 12345
    mov ebx, eax
    shri ebx, 7
    xor edi, ebx
    addi ecx, 1
    st [esi], edi
    st [esi+4], ecx
    jmp mix
.section .data
%s
acc:
    .word 0
count:
    .word 0
""" % (_CODE_GAP, x0, _DATA_GAP)


@functools.lru_cache(maxsize=16)
def alu_reference(x0, steps):
    """Host model of :func:`alu_source`'s ``acc`` after ``steps`` and
    after ``steps + 1`` steps."""
    x, acc = x0, 0
    for _ in range(steps + 1):
        before = acc
        x = (x * 1103515245 + 12345) & _MASK
        acc ^= x >> 7
    return before, acc


def memwalk_source(x0):
    """Read-modify-write walk round a private 64-word ring; after each
    step posts the running sum and then the byte offset walked."""
    return """
.section .text
.global start
start:%s
    movi eax, %d
    movi edi, 0
    movi ecx, 0
    movi ebp, buf
walk:
    mov esi, ecx
    andi esi, 252
    add esi, ebp
    ld ebx, [esi]
    add ebx, eax
    xori ebx, 0x5BD1E995
    st [esi], ebx
    add edi, ebx
    addi eax, 0x9E3779B9
    addi ecx, 4
    st [ebp+256], edi
    st [ebp+260], ecx
    jmp walk
.section .data
%s
buf:
    .space 256
acc:
    .word 0
count:
    .word 0
""" % (_CODE_GAP, x0, _DATA_GAP)


@functools.lru_cache(maxsize=16)
def memwalk_reference(x0, steps):
    """Host model of :func:`memwalk_source`'s sum after ``steps`` and
    after ``steps + 1`` steps."""
    ring = [0] * 64
    x, acc = x0, 0
    for step in range(steps + 1):
        before = acc
        value = ((ring[step & 63] + x) & _MASK) ^ 0x5BD1E995
        ring[step & 63] = value
        acc = (acc + value) & _MASK
        x = (x + 0x9E3779B9) & _MASK
    return before, acc


def pulse_source(period_ticks):
    """Periodic secure counter with its data in its own granule."""
    return """
.section .text
.global start
start:
    movi esi, count
again:
    ld eax, [esi]
    addi eax, 1
    st [esi], eax
    movi eax, 1          ; DELAY (ticks)
    movi ebx, %d
    int 0x20
    jmp again
.section .data
%s
count:
    .word 0
""" % (period_ticks, _DATA_GAP)


def background_source(x0, burst, pause_cycles):
    """Normal-world compute: an unrolled burst of ``burst`` read-modify-
    write steps, then a ``pause_cycles`` sleep that leaves the
    priority-0 loader idle time."""
    step = """
    ld ebx, [esi]
    xor ebx, edx
    addi ebx, 7
    st [esi], ebx
    addi edx, 0x3C6EF372"""
    return """
.section .text
.global start
start:%s
    movi edx, %d
    movi esi, buf
again:%s
    movi eax, 7          ; DELAY_CYCLES
    movi ebx, %d
    int 0x20
    jmp again
.section .data
%s
buf:
    .word 0
""" % (_CODE_GAP, x0, step * burst, pause_cycles, _DATA_GAP)


#: The CFA-enrolled task: a call/return path every other tick.
CFA_PULSE_SOURCE = """
.section .text
.global start
start:
    movi edx, 0
again:
    call work
    call work
    movi eax, 1          ; DELAY (ticks)
    movi ebx, 2
    int 0x20
    jmp again
work:
    addi edx, 3
    xori edx, 21
    ret
"""


# -- watchdog ----------------------------------------------------------------


#: Host seconds a simulated clock may stand still before it is a stall.
STALL_PATIENCE = 2.0
#: Host seconds between two looks at the simulated clock.
STALL_TICK = 0.25


class Stall(Exception):
    """The simulated clock stopped advancing under the watchdog."""


class StallGuard:
    """Host-time watchdog over a simulated clock.

    While active, a timer checks ``progress()`` every
    :data:`STALL_TICK` host seconds and raises :class:`Stall` inside
    whatever is running when the value has not changed for
    :data:`STALL_PATIENCE` seconds.  Used as a context manager around
    the measured phase; main thread only.
    """

    def __init__(self, progress):
        self.progress = progress
        self._last = None
        self._quiet = 0.0
        self._previous = None

    def _check(self, signum, frame):
        now = self.progress()
        if now != self._last:
            self._last = now
            self._quiet = 0.0
            return
        self._quiet += STALL_TICK
        if self._quiet >= STALL_PATIENCE:
            raise Stall("simulated clock stuck at %r for %.1f s" % (now, self._quiet))

    def __enter__(self):
        self._last = self.progress()
        self._quiet = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._check)
        signal.setitimer(signal.ITIMER_REAL, STALL_TICK, STALL_TICK)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


# -- shared helpers ----------------------------------------------------------


class Outcome:
    """What one repetition produced."""

    def __init__(self):
        #: Host seconds of each measured step.
        self.steps = []
        #: Host seconds of consecutive spans that together cover the
        #: whole measured phase (``work_per_s`` divides by their sum).
        self.tiles = []
        #: Work units done (guest instructions or verified reports).
        self.work = 0
        #: Guest instructions retired.
        self.retired = 0
        #: Checked operations attempted / failed.
        self.attempted = 0
        self.failed = 0
        #: Hex digest over every simulated output of the repetition.
        self.digest = None
        #: Simulated statistics (printed, never timed).
        self.sim = {}
        #: Counter-registry snapshots of the machines built.
        self.counters = []
        #: Observability events those machines published.
        self.events = 0
        #: Workload counts the per-layer metrics need.
        self.extra = {}

    def check(self, ok):
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1


def _read_words(system, task, offset, count):
    blob = system.platform.memory.read_raw(task.base + offset, 4 * count)
    return struct.unpack("<%dI" % count, blob)


def _task_memory(system, task):
    return system.platform.memory.read_raw(task.base, task.memory_size)


def _run_slices(system, count, outcome, digest, between=None):
    """Advance ``count`` 1-ms slices, timing each one on the host.

    A slice is a step; a slice together with the host work ``between``
    does after it is a tile.
    """
    steps, tiles = outcome.steps, outcome.tiles
    clock = time.perf_counter
    for index in range(count):
        start = clock()
        result = system.run(max_cycles=SLICE_CYCLES)
        steps.append(clock() - start)
        outcome.work += result.retired
        outcome.retired += result.retired
        digest.update(b"%d/%d;" % (result.cycles, result.retired))
        if between is not None:
            between(index + 1)
        tiles.append(clock() - start)


def _collect(system, outcome):
    outcome.counters.append(system.obs.counters.snapshot())
    bus = system.obs
    if bus.enabled:
        outcome.events += len(bus.events) + bus.dropped


# Every workload: ``setup()`` builds the system (timed as set-up),
# ``measure(outcome)`` runs the timed phase under the stall guard, and
# ``finish(outcome)`` checks outputs and seals the digest, untimed.
# ``progress()`` is the simulated clock the guard watches, and
# ``planned_operations()`` bounds what a stalled repetition failed.


# -- firmware ----------------------------------------------------------------


class Firmware:
    """Cruise control + trace-demo counters + background + CFA task."""

    name = "firmware"
    #: Measured simulated milliseconds per repetition.
    MS = 200
    #: Operator round period (simulated ms).
    ROUND_MS = 20
    #: Cruise control is switched on (t2 starts loading) at this ms.
    ACTIVATE_MS = 5
    #: Background burst (unrolled steps) and the sleep after it.
    BURST = 16
    PAUSE_CYCLES = 2_000

    def __init__(self, seed, config=None):
        self.config = config
        # The seed draws values only; the schedule is fixed, so every
        # seed asks for the same amount of work.
        rng = random.Random("firmware-%d" % seed)
        self.pedal = [(0, rng.randrange(100, 600)), (960_000, rng.randrange(400, 1000))]
        self.radar = [(0, rng.randrange(600, 1000)), (1_440_000, rng.randrange(100, 500))]
        self.background_x0 = rng.getrandbits(31)
        self.payload = rng.randbytes(16)

    def setup(self):
        system = TyTAN(self.config)
        system.platform.pedal.trace = list(self.pedal)
        system.platform.radar.trace = list(self.radar)
        self.system = system
        self.uc = CruiseControlSystem(system)
        self.secure = [
            system.load_source(
                counter_task_source(1, "ticks"), "sensor", priority=4, verify="reject"
            ),
            system.load_source(
                counter_task_source(3, "lines"), "logger", priority=3, verify="reject"
            ),
        ]
        cfa_image = system.build_image(CFA_PULSE_SOURCE, "cfa-pulse", stack_size=256)
        self.cfa_task = system.load_task(
            cfa_image, priority=3, name="cfa-pulse", verify="reject"
        )
        system.enable_cfa(self.cfa_task)
        self.secure.append(self.cfa_task)
        self.background = system.load_source(
            background_source(self.background_x0, self.BURST, self.PAUSE_CYCLES),
            "background",
            secure=False,
            priority=1,
            verify="reject",
        )
        self.verifier = system.make_verifier()
        for task in self.secure:
            self.verifier.expect(task.identity)
        self.verifier.expect(identity_of_image(self.uc.t2_image))
        self.paths = PathVerifier()
        self.paths.register(self.cfa_task.identity, cfa_image)
        self.report_key = derive_key(system.platform.key_store.raw_key(), b"attest")

    def progress(self):
        return self.system.clock.now

    def planned_operations(self):
        rounds = self.MS // self.ROUND_MS
        periods = self.MS * SLICE_CYCLES // CONTROL_PERIOD_CYCLES
        return rounds * (len(self.secure) + 3) + 2 * periods + 1

    def _t2_loaded(self):
        result = self.uc.t2_result
        return result is not None and result.done and result.task is not None

    def _operator_round(self, outcome):
        """Attest every secure ISA task, round-trip secure storage, and
        judge the CFA task's path evidence."""
        system, digest = self.system, self.digest
        tasks = list(self.secure)
        if self._t2_loaded():
            tasks.append(self.uc.t2)
        for task in tasks:
            nonce = self.verifier.fresh_nonce()
            report = system.remote_attest_task(task, nonce)
            digest.update(report.to_bytes())
            outcome.check(self.verifier.verify(report, nonce))
        system.store(self.secure[0], "bench", self.payload)
        outcome.check(system.retrieve(self.secure[0], "bench") == self.payload)
        nonce = self.verifier.fresh_nonce()
        evidence = system.cfa_evidence("cfa-pulse", nonce)
        digest.update(evidence.to_bytes())
        verdict = self.paths.verify(evidence)
        outcome.extra["cfa_edges"] = outcome.extra.get("cfa_edges", 0) + verdict.edges
        outcome.check(verdict.ok and evidence_mac_ok(self.report_key, evidence, nonce))

    def measure(self, outcome):
        system = self.system
        self.digest = hashlib.sha256()
        # Operator rounds are host calls that stop the simulated world,
        # so deadlines are checked in the scheduler-driven windows
        # between them.
        self.windows = []
        opened = system.clock.now
        self.start = opened

        def between(ms):
            nonlocal opened
            if ms == self.ACTIVATE_MS:
                self.uc.activate_cruise_control()
            if ms % self.ROUND_MS == 0:
                self.windows.append((opened, system.clock.now))
                self._operator_round(outcome)
                opened = system.clock.now

        _run_slices(system, self.MS, outcome, self.digest, between)
        self.windows.append((opened, system.clock.now))

    def finish(self, outcome):
        system, uc, digest = self.system, self.uc, self.digest
        for name in ("t0", "t1"):
            for low, high in self.windows:
                report = uc.monitor.report(name, low, high, period=CONTROL_PERIOD_CYCLES)
                expected = (high - low) // CONTROL_PERIOD_CYCLES
                absent = max(0, expected - 1 - report.activations)
                outcome.attempted += expected
                outcome.failed += min(expected, report.missed + absent)
                digest.update(b"%s:%d/%d;" % (name.encode(), report.activations, report.missed))
        loaded = self._t2_loaded()
        outcome.check(loaded)
        tasks = self.secure + [self.background]
        if loaded:
            digest.update(b"t2:%d;" % uc.t2_result.total_cycles)
            tasks.append(uc.t2)
        for task in tasks:
            digest.update(_task_memory(system, task))
        actuator = system.platform.engine_actuator
        digest.update(b"engine:%d/%r;" % (len(actuator.history), actuator.last_command))
        outcome.digest = digest.hexdigest()
        outcome.sim = {
            "sim_ms": system.clock.cycles_to_ms(system.clock.now - self.start),
            "t2_load_ms": system.clock.cycles_to_ms(uc.t2_result.total_cycles)
            if loaded
            else None,
        }
        _collect(system, outcome)


# -- compute -----------------------------------------------------------------


class Compute:
    """ALU and memory-walk tasks time-sliced next to a periodic secure task."""

    name = "compute"
    #: Measured simulated milliseconds per repetition.
    MS = 220

    def __init__(self, seed, config=None):
        self.config = config
        rng = random.Random("compute-%d" % seed)
        self.x0 = {"alu": rng.getrandbits(31), "memwalk": rng.getrandbits(31)}

    def setup(self):
        system = TyTAN(self.config)
        self.system = system
        self.pulse = system.load_source(pulse_source(1), "pulse", priority=3, verify="reject")
        self.tasks = {}
        for name, source in (("alu", alu_source), ("memwalk", memwalk_source)):
            image = system.build_image(source(self.x0[name]), name)
            task = system.load_task(image, secure=False, priority=2, name=name, verify="reject")
            # ``acc`` and ``count`` are the last two data words.
            self.tasks[name] = (task, len(image.blob) - 8)

    def progress(self):
        return self.system.clock.now

    def planned_operations(self):
        return len(self.tasks)

    def measure(self, outcome):
        self.digest = hashlib.sha256()
        self.start = self.system.clock.now
        _run_slices(self.system, self.MS, outcome, self.digest)

    def finish(self, outcome):
        system, digest = self.system, self.digest
        for name, (task, offset) in sorted(self.tasks.items()):
            acc, count = _read_words(system, task, offset, 2)
            if name == "alu":
                model, steps = alu_reference, count
            else:
                model, steps = memwalk_reference, count // 4
            # A slice can end between the two stores: ``acc`` may
            # already hold the next step.
            outcome.check(acc in model(self.x0[name], steps))
            digest.update(_task_memory(system, task))
        digest.update(_task_memory(system, self.pulse))
        outcome.digest = digest.hexdigest()
        outcome.sim = {"sim_ms": system.clock.cycles_to_ms(system.clock.now - self.start)}
        _collect(system, outcome)


# -- fleet -------------------------------------------------------------------


class Fleet:
    """One static attestation round over snapshot-booted devices."""

    name = "fleet"
    #: Enough devices that one round lasts seconds of host time.
    DEVICES = 1024
    SHARDS = 8
    LOSS = 0.05
    JITTER_US = 50

    def __init__(self, seed, config=None):
        self.seed = seed
        rng = random.Random("fleet-%d" % seed)
        self.rogue = sorted(rng.sample(range(self.DEVICES), max(1, self.DEVICES // 100)))

    def setup(self):
        fleet = FleetSystem(
            FleetConfig(devices=self.DEVICES, seed=self.seed, workers=0, rogue=self.rogue),
            shards=ShardConfig(self.SHARDS),
            fabric=FabricProfile(loss=self.LOSS, jitter_us=self.JITTER_US),
        )
        # Boot both device-class templates now rather than inside
        # run(); forks answer exactly like the lazily booted ones.
        executor = fleet.executor
        executor.start()
        for device_id in (0, self.rogue[0]):
            executor.pool.acquire(device_id)
        executor.start = _keep_started
        self.fleet = fleet

    def progress(self):
        return self.fleet.fabric.now

    def planned_operations(self):
        return self.DEVICES

    def measure(self, outcome):
        """One ``Fleet.run()``; a step is one device answering one
        delivered frame (rekey to that device, then its response), and
        a tile is one event-loop tick.

        Ticks would make poor steps: a few ticks carry a whole batch of
        answers and the rest almost none, so their 95th percentile
        falls on the cliff between the two.
        """
        pool = self.fleet.executor.pool
        fabric = self.fleet.fabric
        handle, advance = pool.handle, fabric.advance_to
        steps = outcome.steps
        clock = time.perf_counter
        marks = [clock()]

        def timed_handle(device_id, payload):
            start = clock()
            answer = handle(device_id, payload)
            steps.append(clock() - start)
            return answer

        def timed_advance(target):
            marks.append(clock())
            return advance(target)

        pool.handle = timed_handle
        fabric.advance_to = timed_advance
        self.result = self.fleet.run()
        marks.append(clock())
        outcome.tiles.extend(b - a for a, b in zip(marks, marks[1:]))
        outcome.work = self.result["health"]["attested"]

    def finish(self, outcome):
        result = self.result
        health = result["health"]
        quarantined = {entry["device"] for entry in health["quarantined_devices"]}
        outcome.attempted += self.DEVICES
        outcome.failed += len(quarantined ^ set(self.rogue)) + health["pending"]
        outcome.digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        outcome.sim = {
            "sim_reports_per_sec": result["reports_per_sec"],
            "sim_elapsed_us": result["sim_elapsed_us"],
        }
        outcome.extra.update(
            devices=self.DEVICES,
            frames=result["fabric"]["sent"],
            dropped=result["fabric"]["dropped"],
            challenges=health["challenges"],
            attested=health["attested"],
        )
        outcome.events += sum(self.fleet.event_counts.values())


def _keep_started():
    """Stand-in for ``SerialExecutor.start`` once the pool is primed."""


WORKLOADS = {cls.name: cls for cls in (Firmware, Compute, Fleet)}
