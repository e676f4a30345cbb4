"""Adaptive cruise control - the Figure 2 / Table 1 scenario.

Topology (paper, Figure 2)::

    pedal sensor --> t1 --\\
                           +--> t0 --> engine actuator
    radar sensor --> t2 --/

* **t1** (secure, always present) samples the pedal at 1.5 kHz and
  forwards the position to t0 over secure IPC.
* **t2** (secure, loaded *on demand* when the driver activates cruise
  control) samples the radar at 1.5 kHz and forwards the distance.
  Its image is deliberately large so that loading takes tens of
  milliseconds - far longer than the 1.5 kHz period - which is exactly
  the situation Table 1 stresses: the load must be preemptible or t0
  and t1 would miss deadlines.
* **t0** (secure, highest priority) runs the control law at 1.5 kHz
  and writes throttle commands to the engine actuator.

t0 and t1 are native secure tasks (registered service identities); t2
is a real ISA task, assembled, linked, loaded with relocation, measured
by the RTM, and executing on the simulated core - it sends its radar
samples through the ``int 0x21`` IPC trap like any third-party binary
would.
"""

from __future__ import annotations

from repro.rtos.task import NativeCall
from repro.sim.deadline import RateMonitor
from repro.sim.trace import ActivationRecorder
from repro.sim.workloads import periodic_sender_source

#: 1.5 kHz at the 48 MHz platform clock.
CONTROL_PERIOD_CYCLES = 32_000

#: Padding that sizes t2 so its load takes ~27.8 ms (paper, Section 6).
T2_PAD_WORDS = 2_037
T2_PAD_RELOCS = 24

#: Per-activation work budgets (cycles of computation per sample).
T1_WORK = 900
T0_WORK = 1_400


class CruiseControlSystem:
    """Builds and drives the use case on a :class:`~repro.core.system.TyTAN`."""

    def __init__(self, system, period=CONTROL_PERIOD_CYCLES):
        self.system = system
        self.period = period
        self.recorder = ActivationRecorder(system.clock)
        self.monitor = RateMonitor(self.recorder, system.platform.config.hz)

        self.t0 = None
        self.t1 = None
        self.t2_result = None
        self.t2_image = None
        #: Latest sensor values as seen by t0.
        self.state = {"pedal": 0, "radar": None}

        self._build_t0()
        self._build_t1()
        self.t2_image = self._build_t2_image()

    # -- t0: engine control ---------------------------------------------------

    def _build_t0(self):
        system = self.system
        period = self.period
        recorder = self.recorder
        state = self.state
        engine_base = system.platform.engine_base

        def t0_body(kernel, task):
            next_deadline = kernel.clock.now + period
            while True:
                recorder.mark("t0")
                # Drain the inbox: pedal (tag 0 is implicit - sender id
                # distinguishes the sources; word 0 carries the sample).
                message = system.ipc.read_inbox(task)
                while message is not None:
                    words, sender = message
                    if sender == self._t1_id:
                        state["pedal"] = words[0]
                    elif self._t2_id is not None and sender == self._t2_id:
                        state["radar"] = words[0]
                    message = system.ipc.read_inbox(task)
                throttle = self._control_law(state["pedal"], state["radar"])
                kernel.memory.write_u32(engine_base, throttle, actor=task.base)
                yield NativeCall.charge(T0_WORK)
                yield NativeCall.delay_until(next_deadline)
                next_deadline += period

        self.t0 = system.create_service_task("t0-engine-control", 5, t0_body)
        self._t0_id = system.rtm.register_service(self.t0, "t0-engine-control")
        self._t1_id = None
        self._t2_id = None

    # -- t1: pedal monitor ---------------------------------------------------

    def _build_t1(self):
        system = self.system
        period = self.period
        recorder = self.recorder
        pedal_base = system.platform.pedal_base

        def t1_body(kernel, task):
            next_deadline = kernel.clock.now + period
            while True:
                recorder.mark("t1")
                sample = kernel.memory.read_u32(pedal_base, actor=task.base)
                system.ipc.send(task, self._t0_id[:8], [sample])
                yield NativeCall.charge(T1_WORK)
                yield NativeCall.delay_until(next_deadline)
                next_deadline += period

        self.t1 = system.create_service_task("t1-pedal-monitor", 4, t1_body)
        self._t1_id = system.rtm.register_service(self.t1, "t1-pedal-monitor")[:8]

    # -- t2: radar monitor (ISA task, loaded on demand) --------------------

    def _build_t2_image(self):
        source = periodic_sender_source(
            self.system.platform.radar_base,
            self._t0_id[:8],
            period_cycles=self.period,
            pad_words=T2_PAD_WORDS,
            pad_relocs=T2_PAD_RELOCS,
        )
        return self.system.build_image(source, "t2-radar-monitor", stack_size=512)

    def activate_cruise_control(self):
        """Driver switches cruise control on: start loading t2.

        The load runs in a priority-0 native loader task, fully
        preemptible by t0 and t1.  Returns the (asynchronously filled)
        load result.
        """
        from repro.core.identity import identity_of_image

        self._t2_id = identity_of_image(self.t2_image)[:8]
        self.t2_result = self.system.load_task_async(
            self.t2_image, secure=True, priority=3
        )
        return self.t2_result

    @property
    def t2(self):
        """The loaded t2 TCB, or ``None`` while loading."""
        return self.t2_result.task if self.t2_result is not None else None

    # -- instrumentation hooks ------------------------------------------------

    def t2_activation_hook(self):
        """Subscribe to the observability bus to mark t2 activations.

        t2 is an ISA task, so its activations are observed at the radar
        device: each MMIO read is one sample.  The device's read counter
        is polled at every bus event, so a sample is marked at the
        first event after its read.
        """
        radar = self.system.platform.radar
        recorder = self.recorder
        last_count = {"reads": radar.reads}

        def on_event(event):
            if radar.reads > last_count["reads"]:
                for _ in range(radar.reads - last_count["reads"]):
                    recorder.mark("t2")
                last_count["reads"] = radar.reads

        self.system.kernel.obs.subscribe(on_event)

    def _control_law(self, pedal, radar):
        """The engine control law (per-mille throttle).

        Driver demand from the pedal, clamped by a distance-keeping
        term when radar data is available (adaptive cruise control).
        """
        demand = min(1000, max(0, pedal))
        if radar is None:
            return demand
        # Keep distance: back off proportionally under 500 dm.
        if radar < 500:
            ceiling = max(0, radar * 2)
            return min(demand, ceiling)
        return demand

    # -- reporting --------------------------------------------------------------

    def rates(self, start, end, names=("t0", "t1", "t2")):
        """Rate reports (kHz) per task over the cycle window."""
        return {
            name: self.monitor.report(name, start, end, period=self.period)
            for name in names
        }
