"""The RTOS kernel: dispatch loop, context switching, syscalls, ticks.

The kernel drives the platform: it picks the highest-priority ready
task, restores its context (really writing/reading the context frames in
simulated task stacks), lets it run until an interrupt or trap, and
handles the event.  Two task flavours execute:

* **ISA tasks** run on the simulated CPU until the exception engine
  vectors into firmware (tick, syscall, IPC, fault);
* **native tasks** are generators whose yields are preemption points -
  after every yielded work chunk the kernel polls the interrupt
  controller, so native (trusted-component) code is interruptible with
  latency bounded by its largest chunk, mirroring the paper's
  "interruptible, or ... upper bound on their execution time" design
  rule.

Context save/restore is pluggable through a *context policy*:
:class:`OSContextPolicy` implements plain FreeRTOS behaviour (the OS
saves every task's registers - the Tables 2/3 baseline); TyTAN installs
:class:`repro.core.int_mux.TyTANContextPolicy`, which routes secure
tasks through the trusted Int Mux and entry routine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import cycles
from repro.errors import (
    HardwareFault,
    KernelPanic,
    SchedulerError,
    StackOverflow,
)
from repro.hw.exceptions import Vector
from repro.hw.platform import FirmwareComponent
from repro.hw.registers import Flag, Reg
from repro.rtos.heap import FirstFitAllocator
from repro.rtos.scheduler import Scheduler
from repro.rtos.swtimer import TimerService
from repro.rtos.syscalls import Syscall
from repro.rtos.task import (
    INBOX_RD,
    NativeCall,
    TaskControlBlock,
    TaskState,
    TaskType,
)

#: Bytes of the software-saved register area of a context frame.
FRAME_GPR_BYTES = 4 * 8
#: Full context frame: 8 GPRs + EIP + EFLAGS.
FRAME_BYTES = FRAME_GPR_BYTES + 8

#: Event kinds whose natural source is not the RTOS layer (the kernel
#: emits them on behalf of hardware or a trusted component).
_KIND_SOURCES = {
    "irq": "hw",
    "task-loaded": "tc",
    "task-unloaded": "tc",
    "task-updated": "tc",
    "cfi-violation": "tc",
    "secure-boot": "tc",
}


@dataclass
class RunResult:
    """Outcome of one :meth:`Kernel.run` / ``TyTAN.run`` call.

    ``retired`` and ``cycles`` are deltas for this call, not machine
    totals; ``stop_reason`` is one of ``"max-cycles"``, ``"until"``,
    ``"stopped"``, or ``"idle"`` (nothing can ever run again).
    """

    retired: int
    cycles: int
    stop_reason: str


class OsTrapGate(FirmwareComponent):
    """The OS's interrupt entry stub.

    On plain FreeRTOS every IDT vector lands here; the kernel then
    dispatches on the vector number.  TyTAN's secure boot re-points the
    IDT at the trusted Int Mux instead, but the kernel-side dispatch is
    identical - only the context policy (who saves what, and whether
    registers are wiped) differs.
    """

    NAME = "os-gate"


class OSContextPolicy:
    """Plain FreeRTOS context handling (the paper's baseline).

    The (untrusted) OS saves and restores every task's registers on the
    task's own stack.  Costs: 38 cycles to store, 254 to restore - the
    baseline columns of Tables 2 and 3.
    """

    def __init__(self, kernel):
        self.kernel = kernel

    def save_context(self, task):
        """Store the 8 GPRs onto ``task``'s stack (hardware already
        pushed EIP/EFLAGS).  Returns cycles charged."""
        charged = cycles.store_context_cycles()
        self.kernel.clock.charge(charged)
        self.kernel.push_gpr_frame(task, actor=self.kernel.os_actor)
        return charged

    def restore_context(self, task):
        """Reload the 8 GPRs from ``task``'s stack and pop EIP/EFLAGS
        via the hardware return path.  Returns cycles charged."""
        charged = cycles.restore_context_cycles()
        self.kernel.clock.charge(charged)
        self.kernel.pop_gpr_frame(task, actor=self.kernel.os_actor)
        self.kernel.platform.engine.hw_return(self.kernel.platform.cpu)
        return charged

    def save_context_native(self, task):
        """Charge the save cost for a native task (no register file to
        spill in HLE, but the real component would pay it)."""
        charged = cycles.store_context_cycles()
        self.kernel.clock.charge(charged)
        return charged

    def restore_context_native(self, task):
        """Charge the restore cost for a native task."""
        charged = cycles.restore_context_cycles()
        self.kernel.clock.charge(charged)
        return charged

    def describe(self):
        """Policy name for traces."""
        return "freertos"


class Kernel:
    """The kernel instance bound to one :class:`~repro.hw.platform.Platform`."""

    def __init__(self, platform, context_policy=None):
        self.platform = platform
        self.clock = platform.clock
        self.memory = platform.memory
        #: The platform's observability bus (repro.obs); every kernel
        #: event is published here alongside the kernel sinks.
        self.obs = platform.obs
        self.scheduler = Scheduler()
        self.timer_service = TimerService()
        cfg = platform.config
        self.allocator = FirstFitAllocator(cfg.task_ram_base, cfg.task_ram_size)
        #: Actor address the kernel presents to the bus (OS code region).
        self.os_actor = cfg.os_code_base
        self.context_policy = (
            context_policy if context_policy is not None else OSContextPolicy(self)
        )
        self.tick_count = 0
        #: vector -> handler(kernel, task) for trap vectors beyond the
        #: OS syscall (IPC proxy, attestation, storage).
        self._trap_handlers = {}
        #: vector -> handler(kernel) for device IRQs.
        self._irq_handlers = {}
        #: Diagnostic event sink: callables ``f(cycle, kind, data)``.
        self._event_sinks = []
        #: Tasks that died with a fault: tcb -> exception.
        self.faulted = {}
        #: Hooks run when a task is deleted.
        self._delete_hooks = []
        self._preempt_hooks = []
        #: Queues reachable from ISA tasks via QUEUE_SEND/QUEUE_RECV.
        self._queue_registry = {}
        self._stopped = False
        self._in_run = False
        #: Interrupt entry stub; all IDT vectors point here until a
        #: trusted Int Mux takes over.
        self.trap_gate = platform.register_firmware(OsTrapGate())
        for vector in range(Vector.COUNT):
            platform.engine.install_handler(vector, self.trap_gate.base)

    # -- events -----------------------------------------------------------

    def add_event_sink(self, sink):
        """Register a trace sink ``sink(cycle, kind, data_dict)``.

        Sinks see exactly the kernel-emitted event stream, also with
        the observability bus disabled.  For events from *every* layer
        (hardware, kernel, trusted components) subscribe to the bus
        instead: ``kernel.obs.subscribe(callback)`` receives structured
        :class:`~repro.obs.bus.Event` objects.
        """
        self._event_sinks.append(sink)

    def emit(self, kind, **data):
        """Emit a trace event to the observability bus and all sinks."""
        bus = self.obs
        if bus is not None and bus.enabled:
            bus.publish(
                _KIND_SOURCES.get(kind, "rtos"), kind, task=data.get("name"), **data
            )
        for sink in self._event_sinks:
            sink(self.clock.now, kind, data)

    # -- task creation ----------------------------------------------------

    def create_native_task(
        self,
        name,
        priority,
        factory,
        task_type=TaskType.NORMAL,
        memory_size=256,
        charge_creation=False,
    ):
        """Create a task implemented as a native generator.

        ``factory(kernel, task)`` returns the generator.  A small memory
        region is allocated so the task has a real inbox and stack
        addresses for MPU purposes.  Service tasks created during boot
        usually skip the creation charge.
        """
        base = self.allocator.allocate(memory_size)
        task = TaskControlBlock(
            name,
            priority,
            task_type=task_type,
            native=factory,
            base=base,
            memory_size=memory_size,
            stack_size=memory_size // 2,
        )
        if charge_creation:
            self.clock.charge(cycles.CREATE_BASE)
        self.scheduler.add_task(task)
        self.emit("task-created", name=name, tid=task.tid, flavor="native")
        return task

    def create_isa_task_raw(
        self,
        name,
        priority,
        entry,
        base,
        memory_size,
        stack_size,
        task_type=TaskType.NORMAL,
        image=None,
    ):
        """Register an ISA task whose memory is already prepared.

        The TyTAN loader (and the tests) call this after placing the
        binary; the kernel prepares the initial as-if-interrupted stack
        frame, per Section 4 ("(Re)starting secure tasks").
        """
        task = TaskControlBlock(
            name,
            priority,
            task_type=task_type,
            entry=entry,
            base=base,
            memory_size=memory_size,
            stack_size=stack_size,
            image=image,
        )
        self.prepare_initial_stack(task)
        self.scheduler.add_task(task)
        self.emit("task-created", name=name, tid=task.tid, flavor="isa")
        return task

    def delete_task(self, task):
        """Remove ``task`` from scheduling and free its memory."""
        self.scheduler.remove_task(task)
        for hook in self._delete_hooks:
            hook(task)
        if task.base is not None and self.allocator.owns(task.base):
            self.allocator.free(task.base)
        self.emit("task-deleted", name=task.name, tid=task.tid)

    def add_delete_hook(self, hook):
        """Register ``hook(task)`` to run whenever a task is deleted
        (TyTAN uses this to release EA-MPU slots of native services)."""
        self._delete_hooks.append(hook)

    def add_preempt_hook(self, hook):
        """Register ``hook(task)`` to run whenever a running task is
        preempted mid-slice (IRQ preemption or deadline parking).

        Preemption lands on the same instruction boundary in every
        execution tier (the event-horizon argument), so work done here
        - the CFA monitor seals its open path segment - observes
        tier-identical state.
        """
        self._preempt_hooks.append(hook)

    def _run_preempt_hooks(self, task):
        for hook in self._preempt_hooks:
            hook(task)

    # -- context frames ------------------------------------------------------

    def prepare_initial_stack(self, task):
        """Build the as-if-interrupted frame for a never-run task.

        The OS "prepares the stack of this task as if it had been
        executed before and was interrupted", so first start and resume
        share one code path.
        """
        actor = self.memory.HW_ACTOR  # frame built before protection applies
        esp = task.stack_top - FRAME_BYTES
        # From the top down: EFLAGS (interrupts on), EIP = entry point,
        # then 8 zeroed GPRs.
        frame = (0,) * Reg.COUNT + (task.entry, Flag.IF)
        self.memory.write_words(esp, frame, actor, descending=True)
        task.saved_esp = esp
        task.started = False
        task.resume_mode = None

    def push_gpr_frame(self, task, actor):
        """Write the CPU's 8 GPRs below the hardware-pushed EIP/EFLAGS
        on ``task``'s stack and record the frame pointer.

        A frame that would land below the task's stack floor is a stack
        overflow; the task is killed before it corrupts its own inbox
        (the FreeRTOS-style overflow check, at save time).
        """
        regs = self.platform.cpu.regs
        esp = regs.esp
        floor = None
        if task.base is not None and task.stack_size:
            floor = task.end - task.stack_size
            if esp - FRAME_GPR_BYTES < floor:
                raise StackOverflow(task.name, esp - FRAME_GPR_BYTES, floor)
        esp -= FRAME_GPR_BYTES
        # Register i lands at esp + 4 * (COUNT - 1 - i), EAX pushed first.
        self.memory.write_words(esp, regs.gpr[::-1], actor, descending=True)
        task.saved_esp = esp
        regs.esp = esp

    def pop_gpr_frame(self, task, actor):
        """Reload the 8 GPRs from ``task``'s saved frame.

        ESP is *not* taken from the frame (its slot is a snapshot); it
        ends up pointing at the hardware-pushed EIP/EFLAGS, ready for
        the IRET half of the restore.
        """
        regs = self.platform.cpu.regs
        esp = task.saved_esp
        # push_gpr_frame stored register i at esp + 4 * (COUNT - 1 - i),
        # so the frame reads back EAX first.
        frame = self.memory.read_words(esp, Reg.COUNT, actor, descending=True)
        regs.gpr[:] = frame[::-1]
        # ESP's slot is a snapshot; the real ESP is computed.
        regs.esp = esp + FRAME_GPR_BYTES
        task.saved_esp = None

    # -- trap / IRQ registration ------------------------------------------------

    def register_trap(self, vector, handler):
        """Install ``handler(kernel, task)`` for software trap ``vector``."""
        self._trap_handlers[vector] = handler

    def register_irq(self, vector, handler):
        """Install ``handler(kernel)`` for device IRQ ``vector``."""
        self._irq_handlers[vector] = handler

    # -- the run loop --------------------------------------------------------

    def stop(self):
        """Ask the run loop to return at the next dispatch point."""
        self._stopped = True

    def run(self, max_cycles=None, until=None):
        """Run the system; returns a :class:`RunResult`.

        Stops when ``max_cycles`` elapse, when ``until()`` returns true
        (checked at dispatch points), when :meth:`stop` is called, or
        when no task can ever run again.  The result carries the
        retired-instruction and cycle deltas for this call plus the
        stop reason.
        """
        if self._in_run:
            raise KernelPanic("kernel run loop re-entered")
        self._in_run = True
        self._stopped = False
        start_cycle = self.clock.now
        start_retired = self.platform.cpu.retired
        deadline = None if max_cycles is None else self.clock.now + max_cycles
        if not self.platform.tick_timer.enabled:
            self.platform.tick_timer.start(self.clock.now)
        bus = self.obs
        if bus is not None and bus.enabled:
            bus.publish("rtos", "run-begin", max_cycles=max_cycles)
        reason = "idle"
        try:
            while True:
                if self._stopped:
                    reason = "stopped"
                    break
                if deadline is not None and self.clock.now >= deadline:
                    reason = "max-cycles"
                    break
                if until is not None and until():
                    reason = "until"
                    break
                self.service_interrupts()
                task = self.scheduler.dispatch()
                if task is None:
                    if not self.scheduler.tasks:
                        break  # nothing will ever run again
                    if not self._idle_wait(deadline):
                        break
                    continue
                self.clock.charge(cycles.SCHEDULE_PICK)
                self._arm_wake_alarm()
                self._run_slice(task, deadline)
        finally:
            self._in_run = False
        result = RunResult(
            retired=self.platform.cpu.retired - start_retired,
            cycles=self.clock.now - start_cycle,
            stop_reason=reason,
        )
        if bus is not None and bus.enabled:
            bus.publish(
                "rtos",
                "run-end",
                reason=result.stop_reason,
                retired=result.retired,
                cycles=result.cycles,
            )
        return result

    def _idle_wait(self, deadline):
        """No ready task: fast-forward to the next event.

        Returns ``False`` when nothing will ever happen (stop the run).
        """
        candidates = []
        wake = self.scheduler.next_wake()
        if wake is not None:
            candidates.append(wake)
        device = self.platform.next_device_event()
        if device is not None:
            candidates.append(device)
        if not candidates:
            return False
        target = min(candidates)
        if deadline is not None:
            target = min(target, deadline)
        gap = target - self.clock.now
        if gap > 0:
            self.clock.charge(gap)
        self.service_interrupts()
        return True

    def _arm_wake_alarm(self):
        """Program the RTC one-shot alarm for the next task deadline.

        The paper's real-time clock provides "special alarms and
        time-outs"; without it, a delayed task could only be woken at
        the next scheduler tick, adding up to one tick period of
        release jitter.
        """
        wake = self.scheduler.next_wake()
        rtc = self.platform.rtc
        if wake is None:
            rtc.alarm_enabled = False
            return
        rtc.alarm = wake
        rtc.alarm_enabled = True

    # -- interrupt servicing ------------------------------------------------

    def service_interrupts(self):
        """Poll devices and handle all pending IRQs in kernel context."""
        self.platform.poll_devices()
        controller = self.platform.engine.controller
        while controller.has_pending():
            vector = controller.take()
            if vector == self.platform.tick_timer.vector:
                self._handle_ticks()
            else:
                handler = self._irq_handlers.get(vector)
                if handler is not None:
                    handler(self)
                self.emit("irq", vector=vector)
        # High-resolution delays may expire between tick boundaries.
        for task in self.scheduler.wake_sleepers(self.clock.now):
            self.clock.charge(cycles.LIST_OP)
            self.emit("task-woken", name=task.name, tid=task.tid)

    def _handle_ticks(self):
        """Process every tick boundary crossed since the last call."""
        timer = self.platform.tick_timer
        while self.tick_count < timer.ticks:
            self.tick_count += 1
            self.clock.charge(
                cycles.TICK_BASE
                + cycles.TICK_PER_DELAYED * self.scheduler.delayed_count()
            )
            woken = self.scheduler.wake_sleepers(self.clock.now)
            for task in woken:
                self.clock.charge(cycles.LIST_OP)
                self.emit("task-woken", name=task.name, tid=task.tid)
            self.timer_service.expire(self, self.tick_count)
            self.platform.poll_devices()

    # -- slice execution -------------------------------------------------------

    def _run_slice(self, task, deadline):
        """Resume ``task`` and run it until it blocks or is preempted.

        Publishes a ``slice-begin``/``slice-end`` pair on the bus (per
        task, with the cycles consumed) - the backbone of the Perfetto
        per-task tracks and the per-task cycle accounting.
        """
        bus = self.obs
        observed = bus is not None and bus.enabled
        if observed:
            bus.publish(
                "rtos",
                "slice-begin",
                task=task.name,
                tid=task.tid,
                priority=task.priority,
                flavor="native" if task.is_native else "isa",
            )
        start = self.clock.now
        try:
            if task.is_native:
                self._run_native_slice(task, deadline)
            else:
                self._run_isa_slice(task, deadline)
        finally:
            if observed:
                bus.publish(
                    "rtos",
                    "slice-end",
                    task=task.name,
                    tid=task.tid,
                    cycles=self.clock.now - start,
                )

    # .. ISA tasks ...........................................................

    def _run_isa_slice(self, task, deadline):
        start = self.clock.now
        self._isa_resume(task)
        try:
            self._isa_execute(task, deadline)
        except HardwareFault as fault:
            self._kill_faulted(task, fault)
        finally:
            task.cycles_used += self.clock.now - start

    def _isa_resume(self, task):
        """Physically restore ``task``'s context and enter it."""
        regs = self.platform.cpu.regs
        regs.esp = task.saved_esp
        self.context_policy.restore_context(task)
        task.started = True
        task.resume_mode = None
        self.platform.cpu.halted = False

    def _isa_execute(self, task, deadline):
        """Instruction loop: run until a handled event parks the task."""
        while True:
            budget = None if deadline is None else deadline - self.clock.now
            if budget is not None and budget <= 0:
                self._park_current(task)
                return
            entry = self.platform.run_isa_until_event(max_cycles=budget)
            if entry.kind == "halt":
                if self.platform.cpu.halted:
                    # The task executed hlt: it is done.
                    self._exit_task(task)
                    return
                # Run budget exhausted mid-task: park it ready.
                self._park_current(task)
                return
            vector = entry.vector
            if vector is not None and vector < Vector.SYSCALL:
                # Hardware interrupt (tick, RTC alarm, device IRQ):
                # save the task's context and service it in kernel
                # context; the scheduler re-decides who runs next.
                if self._isa_irq_preempt(task, vector):
                    return
                continue
            if vector == Vector.SYSCALL:
                if self._handle_syscall(task):
                    return
                continue
            handler = self._trap_handlers.get(vector)
            if handler is not None:
                if handler(self, task):
                    return
                continue
            # Unknown trap: kill the task (no handler installed).
            self._kill_faulted(
                task, KernelPanic("unhandled trap vector 0x%X" % vector)
            )
            return

    def _isa_irq_preempt(self, task, vector):
        """A hardware interrupt fired while ``task`` ran.

        The context is saved (Int Mux path for secure tasks), the
        interrupt serviced in kernel context, and the task re-queued;
        the main loop re-dispatches, so a higher-priority task woken by
        the interrupt wins the CPU.  Returns ``True`` (slice ends).
        """
        self.context_policy.save_context(task)
        self._run_preempt_hooks(task)
        task.preemptions += 1
        if vector == self.platform.tick_timer.vector:
            self._handle_ticks()
        else:
            handler = self._irq_handlers.get(vector)
            if handler is not None:
                handler(self)
            self.emit("irq", vector=vector)
        # Wake any due sleepers (RTC-alarm wakeups land here).
        for woken in self.scheduler.wake_sleepers(self.clock.now):
            self.clock.charge(cycles.LIST_OP)
            self.emit("task-woken", name=woken.name, tid=woken.tid)
        self.scheduler.make_ready(task)
        self.scheduler.current = None
        self.emit("preempt", name=task.name, tid=task.tid)
        return True

    def _park_current(self, task):
        """Deadline hit mid-slice: save context and stay ready."""
        # The task is still between instructions; emulate an interrupt
        # save so the next run() can resume it cleanly.
        self.platform.engine.deliver(self.platform.cpu, Vector.TIMER, charge=False)
        self.context_policy.save_context(task)
        self._run_preempt_hooks(task)
        self.scheduler.make_ready(task)
        self.scheduler.current = None

    def _exit_task(self, task):
        """Terminate ``task`` voluntarily."""
        self.emit("task-exit", name=task.name, tid=task.tid)
        self.delete_task(task)

    def _kill_faulted(self, task, fault):
        """Terminate ``task`` after a hardware fault; the system keeps
        running - isolation means a fault is contained to its task."""
        self.faulted[task] = fault
        self.emit(
            "task-fault",
            name=task.name,
            tid=task.tid,
            fault=type(fault).__name__,
            detail=str(fault),
        )
        self.delete_task(task)

    # .. syscalls ...............................................................

    def _handle_syscall(self, task):
        """Dispatch an ``int 0x20`` service call from an ISA task.

        Returns ``True`` when the slice ends (the task blocked, yielded
        or exited), ``False`` to continue executing the task.
        """
        regs = self.platform.cpu.regs
        func = regs.read(Syscall.FUNC_REG)
        arg1 = regs.read(Syscall.ARG1_REG)
        self.emit("syscall", name=task.name, func=func, arg=arg1)
        self.clock.charge(cycles.LIST_OP)

        if func == Syscall.YIELD:
            self.context_policy.save_context(task)
            self.scheduler.make_ready(task)
            self.scheduler.current = None
            return True
        if func == Syscall.DELAY:
            wake_at = self.clock.now + arg1 * self.platform.tick_timer.period
            self.context_policy.save_context(task)
            self.scheduler.delay_until(task, wake_at)
            return True
        if func == Syscall.DELAY_CYCLES:
            wake_at = self.clock.now + arg1
            self.context_policy.save_context(task)
            self.scheduler.delay_until(task, wake_at)
            return True
        if func == Syscall.EXIT:
            self._exit_task(task)
            return True
        if func == Syscall.SUSPEND_SELF:
            self.context_policy.save_context(task)
            self.scheduler.suspend(task)
            return True
        if func == Syscall.GET_TIME:
            regs.write(Syscall.RESULT_REG, self.clock.now & 0xFFFFFFFF)
            self.platform.engine.hw_return(self.platform.cpu)
            return False
        if func == Syscall.IPC_POLL:
            rd, wr = self._inbox_indices(task)
            regs.write(Syscall.RESULT_REG, 1 if rd != wr else 0)
            self.platform.engine.hw_return(self.platform.cpu)
            return False
        if func == Syscall.IPC_CLEAR:
            rd, wr = self._inbox_indices(task)
            actor = self.memory.HW_ACTOR if task.is_secure else self.os_actor
            self.memory.write_u32(task.inbox_base + INBOX_RD, wr, actor)
            self.platform.engine.hw_return(self.platform.cpu)
            return False
        if func == Syscall.QUEUE_SEND:
            return self._syscall_queue_send(task, regs)
        if func == Syscall.QUEUE_RECV:
            return self._syscall_queue_recv(task, regs)
        # Unknown function: report failure in EAX and continue.
        regs.write(Syscall.RESULT_REG, 0xFFFFFFFF)
        self.platform.engine.hw_return(self.platform.cpu)
        return False

    # .. blocking queue syscalls ..............................................

    def register_queue(self, queue, qid=None):
        """Expose ``queue`` to ISA tasks under an integer id."""
        if qid is None:
            qid = queue.qid
        self._queue_registry[qid] = queue
        return qid

    def _syscall_queue_send(self, task, regs):
        queue = self._queue_registry.get(regs.read(Syscall.ARG1_REG))
        if queue is None:
            regs.write(Syscall.RESULT_REG, 0xFFFFFFFF)
            self.platform.engine.hw_return(self.platform.cpu)
            return False
        value = regs.read(Syscall.ARG2_REG)
        if queue.try_send(value):
            self.wake(queue.not_empty, limit=1)
            regs.write(Syscall.RESULT_REG, 0)
            self.platform.engine.hw_return(self.platform.cpu)
            return False
        self._block_and_restart_syscall(task, queue.not_full)
        return True

    def _syscall_queue_recv(self, task, regs):
        queue = self._queue_registry.get(regs.read(Syscall.ARG1_REG))
        if queue is None:
            regs.write(Syscall.RESULT_REG, 0xFFFFFFFF)
            self.platform.engine.hw_return(self.platform.cpu)
            return False
        ok, item = queue.try_receive()
        if ok:
            self.wake(queue.not_full, limit=1)
            regs.write(Syscall.RESULT_REG, item & 0xFFFFFFFF)
            self.platform.engine.hw_return(self.platform.cpu)
            return False
        self._block_and_restart_syscall(task, queue.not_empty)
        return True

    def _block_and_restart_syscall(self, task, wait_object):
        """Park an ISA task on ``wait_object`` such that its resume
        *re-issues the trapping instruction* (restartable syscalls:
        the hardware-pushed return address is rewound over the 2-byte
        ``int``).  The rewrite is performed with bus-master privilege,
        modelling the exception engine's restart support.
        """
        self.context_policy.save_context(task)
        eip_slot = task.saved_esp + FRAME_GPR_BYTES
        saved_eip = self.memory.read_u32(eip_slot, self.memory.HW_ACTOR)
        self.memory.write_u32(eip_slot, saved_eip - 2, self.memory.HW_ACTOR)
        self.scheduler.block(task, wait_object)

    def _inbox_indices(self, task):
        """Read a task's inbox ring indices.

        For secure tasks the kernel may not touch the memory, so the
        indices come through the hardware oracle (the real
        implementation keeps this status in a proxy-owned table;
        modelling that table is equivalent).
        """
        actor = self.memory.HW_ACTOR if task.is_secure else self.os_actor
        # The write index is the word after the read index.
        return self.memory.read_words(task.inbox_base + INBOX_RD, 2, actor)

    # .. native tasks ..............................................................

    def _run_native_slice(self, task, deadline):
        start = self.clock.now
        self._charge_native_resume(task)
        gen = task.start_native(self)
        try:
            while True:
                try:
                    call = gen.send(None)
                except StopIteration as stop:
                    task.result = getattr(stop, "value", None)
                    self._exit_task(task)
                    return
                task.started = True
                outcome = self._apply_native_call(task, call, deadline)
                if outcome == "continue":
                    continue
                if outcome == "preempted":
                    return
                if outcome == "blocked":
                    return
                if outcome == "exited":
                    return
        except HardwareFault as fault:
            self._kill_faulted(task, fault)
        finally:
            task.cycles_used += self.clock.now - start

    def _charge_native_resume(self, task):
        """Charge the context-restore cost for a native task.

        Native tasks have no register file to reload, but the real
        component would: the policy decides the cost (baseline restore
        or secure entry-routine restore).
        """
        self.context_policy.restore_context_native(task)

    def _apply_native_call(self, task, call, deadline):
        """Execute one yielded :class:`NativeCall`; returns the outcome."""
        kind = call.kind
        if kind == NativeCall.CHARGE:
            self.clock.charge(call.value)
            if self._native_preempt_check(task, deadline):
                return "preempted"
            return "continue"
        if kind == NativeCall.DELAY:
            wake_at = self.clock.now + call.value * self.platform.tick_timer.period
            self.context_policy.save_context_native(task)
            self.scheduler.delay_until(task, wake_at)
            return "blocked"
        if kind == NativeCall.DELAY_CYCLES:
            wake_at = self.clock.now + call.value
            self.context_policy.save_context_native(task)
            self.scheduler.delay_until(task, wake_at)
            return "blocked"
        if kind == NativeCall.DELAY_UNTIL:
            if call.value <= self.clock.now:
                return "continue"  # deadline already passed: keep going
            self.context_policy.save_context_native(task)
            self.scheduler.delay_until(task, call.value)
            return "blocked"
        if kind == NativeCall.BLOCK:
            self.context_policy.save_context_native(task)
            self.scheduler.block(task, call.value)
            return "blocked"
        if kind == NativeCall.YIELD:
            self.context_policy.save_context_native(task)
            self.scheduler.make_ready(task)
            self.scheduler.current = None
            return "preempted"
        if kind == NativeCall.EXIT:
            task.result = call.value
            self._exit_task(task)
            return "exited"
        raise SchedulerError("unknown native call %r" % kind)

    def _native_preempt_check(self, task, deadline):
        """After a charge chunk: process interrupts, maybe preempt.

        Returns ``True`` when ``task`` lost the CPU.
        """
        self.platform.poll_devices()
        controller = self.platform.engine.controller
        tick_seen = False
        while controller.has_pending():
            vector = controller.take()
            if vector == self.platform.tick_timer.vector:
                tick_seen = True
            else:
                handler = self._irq_handlers.get(vector)
                if handler is not None:
                    handler(self)
        if tick_seen:
            self._handle_ticks()
        for woken in self.scheduler.wake_sleepers(self.clock.now):
            self.clock.charge(cycles.LIST_OP)
            self.emit("task-woken", name=woken.name, tid=woken.tid)
        preempt = self.scheduler.preempt_pending() or (
            tick_seen and self.scheduler.round_robin_pending()
        )
        over_deadline = deadline is not None and self.clock.now >= deadline
        if preempt or over_deadline:
            self.context_policy.save_context_native(task)
            task.preemptions += 1
            self.scheduler.make_ready(task)
            self.scheduler.current = None
            self.emit("preempt", name=task.name, tid=task.tid)
            return True
        return False

    # -- blocking helpers usable from native tasks ----------------------------

    def wake(self, wait_object, limit=None):
        """Wake tasks blocked on ``wait_object``."""
        woken = self.scheduler.wake_waiters(wait_object, limit)
        for task in woken:
            self.clock.charge(cycles.LIST_OP)
        return woken

    def resume_task(self, task):
        """Resume a suspended task."""
        if task.state != TaskState.SUSPENDED:
            raise SchedulerError("task %s is not suspended" % task.name)
        self.scheduler.make_ready(task)
        self.clock.charge(cycles.LIST_OP)

    def suspend_task(self, task):
        """Suspend a task that is not currently running."""
        if self.scheduler.current is task:
            raise SchedulerError("cannot suspend the running task here")
        self.scheduler.suspend(task)
        self.clock.charge(cycles.LIST_OP)

    # -- queue operations (native-task API) --------------------------------------

    def queue_send(self, task, queue, item):
        """Non-blocking send with waiter wake-up; returns success."""
        self.clock.charge(cycles.LIST_OP)
        if queue.try_send(item):
            self.wake(queue.not_empty, limit=1)
            return True
        return False

    def queue_receive(self, task, queue):
        """Non-blocking receive with waiter wake-up; returns (ok, item)."""
        self.clock.charge(cycles.LIST_OP)
        ok, item = queue.try_receive()
        if ok:
            self.wake(queue.not_full, limit=1)
        return ok, item

    # -- semaphores and mutexes ----------------------------------------------

    def sem_take(self, task, semaphore):
        """Non-blocking take; returns success.

        On failure the caller should ``yield NativeCall.block(
        semaphore.wait_token)`` and retry when woken.
        """
        self.clock.charge(cycles.LIST_OP)
        return semaphore.try_take()

    def sem_give(self, task, semaphore):
        """Give the semaphore, waking one waiter if the count rose."""
        self.clock.charge(cycles.LIST_OP)
        if semaphore.give():
            self.wake(semaphore.wait_token, limit=1)
            return True
        return False

    def mutex_take(self, task, mutex):
        """Non-blocking take with priority inheritance on contention.

        Returns success; on failure the holder is boosted to the
        waiter's priority (requeued at its new level) and the caller
        should block on ``mutex.wait_token``.
        """
        self.clock.charge(cycles.LIST_OP)
        if mutex.try_take(task):
            return True
        boost = mutex.on_block(task)
        if boost is not None:
            holder = mutex.holder
            holder.priority = boost
            if holder.state == TaskState.READY:
                self.scheduler.make_ready(holder)  # requeue at new level
            self.clock.charge(cycles.LIST_OP)
            self.emit(
                "priority-inherit",
                holder=holder.name,
                boosted_to=boost,
                waiter=task.name,
            )
        return False

    def mutex_release(self, task, mutex):
        """Release the mutex, undoing any inheritance boost and waking
        one waiter."""
        self.clock.charge(cycles.LIST_OP)
        base = mutex.on_release(task)
        if base is not None:
            task.priority = base
            self.emit("priority-restore", holder=task.name, to=base)
        self.wake(mutex.wait_token, limit=1)

    # -- event groups ----------------------------------------------------------

    def event_set(self, group, mask):
        """Set event bits and wake satisfied waiters.

        Each released waiter's consumed bits are left in its
        ``event_result`` attribute for pickup after the wake.
        """
        self.clock.charge(cycles.LIST_OP)
        released = group.set_bits(mask)
        for task, seen in released:
            task.event_result = seen
            self.scheduler.make_ready(task)
            self.clock.charge(cycles.LIST_OP)
        return [task for task, _ in released]

    def event_wait(self, task, group, mask, wait_all=False, clear_on_exit=True):
        """Non-blocking event wait; returns ``(satisfied, bits)``.

        On failure the task is registered as a waiter: a native task
        should then ``yield NativeCall.block(group.wait_token(task))``
        and read ``task.event_result`` when it resumes.
        """
        self.clock.charge(cycles.LIST_OP)
        return group.try_wait(task, mask, wait_all, clear_on_exit)
