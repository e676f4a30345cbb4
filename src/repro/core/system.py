"""The TyTAN system facade.

:class:`TyTAN` assembles the full stack of Figure 1 - hardware platform,
FreeRTOS-like kernel, and the six trusted components - runs secure boot,
and exposes the public API a task provider or integrator uses:

* build and load tasks (from assembly source or linked images),
  normal or secure, dynamically at runtime;
* unload / suspend / resume tasks;
* secure IPC between tasks;
* local and remote attestation;
* secure storage;
* the run loop (:meth:`TyTAN.run`).

:func:`build_freertos_baseline` builds the same kernel *without* any
TyTAN component - the plain-FreeRTOS baseline every comparison table in
the paper is measured against.
"""

from __future__ import annotations

from repro.hw.exceptions import Vector
from repro.hw.platform import MachineConfig, Platform
from repro.isa.assembler import assemble
from repro.image.linker import link
from repro.rtos.kernel import Kernel

from repro.core.int_mux import IntMux, TyTANContextPolicy
from repro.core.ipc import IPCProxy
from repro.core.loader import TaskLoader
from repro.core.mpu_driver import EAMPUDriver
from repro.core.remote_attest import RemoteAttest, Verifier
from repro.core.rtm import RTM
from repro.core.secure_boot import SecureBoot
from repro.core.secure_storage import SecureStorage

#: Synchronous-IPC trap vector (async IPC uses :data:`Vector.IPC`).
VECTOR_IPC_SYNC = 0x24


#: One period of the ``131 * i`` byte ramp under every component page.
_RAMP = bytes(131 * index & 0xFF for index in range(256))
#: Identity byte table; rotated by ``k`` it adds ``k`` modulo 256.
_BYTES = bytes(range(256))


def _fill_component_page(platform, component):
    """Give a component page deterministic pseudo-binary contents so
    secure boot has real bytes to measure.

    Byte ``i`` is ``(seed[i % len(seed)] + 131 * i) & 0xFF``: the ramp
    tiled to the page size, with each seed residue class shifted by its
    seed byte through one ``bytes.translate``.
    """
    seed = component.NAME.encode("utf-8")
    size = component.size
    ramp = _RAMP * -(-size // len(_RAMP))
    page = bytearray(size)
    step = len(seed)
    for residue, byte in enumerate(seed):
        shift = _BYTES[byte:] + _BYTES[:byte]
        page[residue::step] = ramp[residue:size:step].translate(shift)
    platform.memory.write_raw(component.base, bytes(page))


class TyTAN:
    """A booted TyTAN system."""

    def __init__(self, config=None):
        self.platform = Platform(config if config is not None else MachineConfig())
        self.kernel = Kernel(self.platform)

        # -- trusted components --------------------------------------------
        self.mpu_driver = self.platform.register_firmware(
            EAMPUDriver(self.platform.mpu, self.platform.clock)
        )
        self.int_mux = self.platform.register_firmware(IntMux(self.kernel))
        self.rtm = self.platform.register_firmware(RTM(self.kernel))
        self.ipc = self.platform.register_firmware(
            IPCProxy(self.kernel, self.rtm, self.mpu_driver)
        )
        self.remote_attest = self.platform.register_firmware(
            RemoteAttest(self.kernel, self.rtm, self.platform.key_store)
        )
        self.secure_storage = self.platform.register_firmware(
            SecureStorage(self.kernel, self.rtm, self.platform.key_store)
        )
        for component in (
            self.kernel.trap_gate,
            self.mpu_driver,
            self.int_mux,
            self.rtm,
            self.ipc,
            self.remote_attest,
            self.secure_storage,
        ):
            _fill_component_page(self.platform, component)

        # -- context policy: secure tasks go through the Int Mux ---------
        self.kernel.context_policy = TyTANContextPolicy(self.kernel, self.int_mux)

        # -- loader ------------------------------------------------------------
        self.loader = TaskLoader(self.kernel, self.mpu_driver, self.rtm)
        # Any deleted task gives back its EA-MPU slots (native services
        # exiting on their own bypass the loader's unload path).
        self.kernel.add_delete_hook(self.mpu_driver.unprotect_task)

        # -- task updater (the paper's future-work extension) ---------------
        from repro.core.update import TaskUpdater

        self.updater = self.platform.register_firmware(
            TaskUpdater(
                self.kernel,
                self.loader,
                self.rtm,
                self.mpu_driver,
                self.secure_storage,
                self.platform.key_store,
            )
        )
        _fill_component_page(self.platform, self.updater)

        # -- CFI watchdog (future-work extension: runtime attack
        #    detection; opt-in per task via enable_cfi) -----------------
        from repro.core.cfi import CfiWatchdog

        self.cfi = self.platform.register_firmware(CfiWatchdog(self.kernel))
        _fill_component_page(self.platform, self.cfi)

        # -- CFA monitor (control-flow attestation: path-hashed
        #    execution evidence; opt-in per task via enable_cfa) --------
        from repro.cfa.engine import CfaEngine

        self.cfa = self.platform.register_firmware(
            CfaEngine(self.kernel, self.rtm, self.remote_attest)
        )
        _fill_component_page(self.platform, self.cfa)

        # -- trap wiring --------------------------------------------------------
        # Bound methods, not lambdas: a deep-copied system (the fleet's
        # snapshot-fork boot) must dispatch traps into its own IPC
        # proxy, and lambdas would keep closing over this instance.
        self.kernel.register_trap(Vector.IPC, self._ipc_trap_async)
        self.kernel.register_trap(VECTOR_IPC_SYNC, self._ipc_trap_sync)
        self.kernel.register_trap(Vector.ATTEST, self._attest_trap)
        self.kernel.register_trap(Vector.STORAGE, self._storage_trap)

        # -- secure boot -----------------------------------------------------------
        self.secure_boot = SecureBoot(self.platform, self.kernel, self.mpu_driver)
        self.boot_log = self.secure_boot.boot(
            {
                "int_mux": self.int_mux,
                "ipc_proxy": self.ipc,
                "rtm": self.rtm,
                "remote_attest": self.remote_attest,
                "secure_storage": self.secure_storage,
                "task_updater": self.updater,
            }
        )

    # -- task construction --------------------------------------------------

    def build_image(self, source, name, stack_size=512):
        """Assemble and link ``source`` into a loadable task image."""
        return link(assemble(source, name), name=name, stack_size=stack_size)

    def load_task(
        self,
        image,
        secure=True,
        priority=1,
        name=None,
        measure=None,
        verify=None,
        verify_policy=None,
    ):
        """Load a task image synchronously; returns the TCB.

        ``verify`` selects the loader's static admission gate
        (``"reject"`` / ``"warn"`` / ``"off"``); ``None`` uses the
        loader default.  See :mod:`repro.analysis`.
        """
        result = self.loader.load_synchronously(
            image,
            secure=secure,
            priority=priority,
            name=name,
            measure=measure,
            verify=verify,
            verify_policy=verify_policy,
        )
        return result.task

    def load_task_async(self, image, secure=True, priority=1, name=None, measure=None, loader_priority=0, verify=None, verify_policy=None):
        """Start an interruptible background load; returns a LoadResult."""
        return self.loader.spawn_load_task(
            image,
            loader_priority=loader_priority,
            secure=secure,
            priority=priority,
            name=name,
            measure=measure,
            verify=verify,
            verify_policy=verify_policy,
        )

    def load_source(
        self,
        source,
        name,
        secure=True,
        priority=1,
        stack_size=512,
        verify=None,
        verify_policy=None,
    ):
        """Assemble, link, and load in one call; returns the TCB."""
        return self.load_task(
            self.build_image(source, name, stack_size),
            secure=secure,
            priority=priority,
            verify=verify,
            verify_policy=verify_policy,
        )

    def unload_task(self, task):
        """Unload a task and reclaim its memory."""
        self.cfi.unmonitor_task(task)
        self.cfa.unenroll_task(task)
        self.loader.unload(task)

    def suspend_task(self, task):
        """Suspend a loaded task."""
        self.loader.suspend(task)

    def resume_task(self, task):
        """Resume a suspended task."""
        self.loader.resume(task)

    def create_service_task(
        self, name, priority, factory, secure=True, memory_size=256, protect=None
    ):
        """Create a native (HLE) task, e.g. an application service.

        Secure services get an EA-MPU rule over their memory (inbox,
        stack) like any secure task; pass ``protect=False`` to skip it
        (e.g. for large swarms of test fixtures that would exhaust the
        dynamic slots).
        """
        from repro.rtos.task import TaskType

        task = self.kernel.create_native_task(
            name,
            priority,
            factory,
            task_type=TaskType.SECURE if secure else TaskType.NORMAL,
            memory_size=memory_size,
        )
        if protect is None:
            protect = secure
        if protect:
            os_range = (
                self.platform.config.os_code_base,
                self.platform.config.os_code_base
                + self.platform.config.os_code_size,
            )
            self.mpu_driver.protect_task(
                task, os_code_range=None if secure else os_range
            )
        return task

    # -- IPC ----------------------------------------------------------------

    def send_message(self, sender, receiver_identity64, words, sync=False):
        """Native-path secure IPC send; returns the proxy status."""
        status, _ = self.ipc.send(sender, receiver_identity64, words, sync=sync)
        return status

    def read_message(self, task):
        """Read and clear ``task``'s inbox; ``None`` when empty."""
        return self.ipc.read_inbox(task)

    # -- live task update ---------------------------------------------------------

    def make_update_authority(self, provider=b""):
        """Provider-side token signer (shares K_p out of band)."""
        from repro.core.update import UpdateAuthority

        return UpdateAuthority(self.platform.key_store.raw_key(), provider)

    def update_task(self, task, new_image, token, provider=b""):
        """Apply an authorized live update synchronously; returns the
        :class:`~repro.core.update.UpdateResult`."""
        was_monitored = task.tid in self.cfi._monitored
        cfa_state = self.cfa._tasks.get(task.tid)
        was_recorded = cfa_state is not None and cfa_state.attached
        if was_recorded:
            # The path log describes the old binary; close it out.
            self.cfa.unenroll_task(task)
            self.cfa.discard(task.tid)
        result = self.updater.update_synchronously(task, new_image, token, provider)
        if was_monitored:
            # Re-extract the CFG for the new binary at its new base.
            self.cfi.monitor_task(task)
        if was_recorded:
            # Fresh recorder under the new binary's identity.
            self.cfa.enroll_task(task)
        return result

    def enable_cfi(self, task):
        """Enroll ``task`` with the runtime attack detector; returns
        the extracted control-flow graph."""
        return self.cfi.monitor_task(task)

    def enable_cfa(self, task, segment_runs=None, max_segments=None):
        """Enroll ``task`` with the control-flow-attestation monitor;
        returns its :class:`~repro.cfa.recorder.PathRecorder`."""
        return self.cfa.enroll_task(
            task, segment_runs=segment_runs, max_segments=max_segments
        )

    def cfa_evidence(self, name, nonce, provider=b""):
        """Generate a MACed CFA evidence record for task ``name``."""
        return self.cfa.evidence_report(name, nonce, provider)

    def update_task_async(self, task, new_image, token, provider=b"", priority=0):
        """Start a preemptible background update."""
        return self.updater.spawn_update_task(
            task, new_image, token, provider, priority=priority
        )

    # -- attestation ------------------------------------------------------------

    def local_attest(self, task):
        """Local attestation: the RTM-held identity of ``task``."""
        return self.rtm.local_attest(task)

    def remote_attest_task(self, task, nonce, provider=b""):
        """Produce a remote attestation report for ``task``."""
        return self.remote_attest.attest(task, nonce, provider)

    def make_verifier(self, provider=b""):
        """A :class:`Verifier` sharing this platform's key out of band."""
        return Verifier(self.platform.key_store.raw_key(), provider)

    # -- storage ----------------------------------------------------------------

    def store(self, task, slot_name, payload):
        """Store ``payload`` under ``task``'s identity-bound key."""
        self.secure_storage.store(task, slot_name, payload)

    def retrieve(self, task, slot_name):
        """Retrieve a blob stored by (the same binary as) ``task``."""
        return self.secure_storage.retrieve(task, slot_name)

    # -- execution ----------------------------------------------------------------

    def run(self, max_cycles=None, until=None):
        """Run the kernel; returns a
        :class:`~repro.rtos.kernel.RunResult`."""
        return self.kernel.run(max_cycles=max_cycles, until=until)

    @property
    def clock(self):
        """The platform cycle clock."""
        return self.platform.clock

    @property
    def obs(self):
        """The platform's observability bus (:mod:`repro.obs`)."""
        return self.platform.obs

    # -- ISA trap handlers for IPC / attest / storage -----------------------------

    def _ipc_trap_async(self, kernel, task):
        """``int 0x21``: asynchronous secure-IPC send."""
        return self.ipc.handle_trap(kernel, task, sync=False)

    def _ipc_trap_sync(self, kernel, task):
        """``int 0x24``: synchronous secure-IPC send."""
        return self.ipc.handle_trap(kernel, task, sync=True)

    def _attest_trap(self, kernel, task):
        """``int 0x22``: attest the calling task; report goes to its inbox.

        EBX carries a 32-bit nonce.  The report (identity | MAC prefix)
        is written into the task's inbox message words; EAX returns 0 on
        success, 1 when the task is unregistered.
        """
        regs = kernel.platform.cpu.regs
        nonce = regs.read(3).to_bytes(4, "little")  # EBX
        try:
            report = self.remote_attest.attest(task, nonce)
        except Exception:
            regs.write(0, 1)
            kernel.platform.engine.hw_return(kernel.platform.cpu)
            return False
        mac_words = [
            int.from_bytes(report.mac[4 * index : 4 * index + 4], "little")
            for index in range(4)
        ]
        delivered = self.ipc.deliver_system_message(
            task, mac_words, b"ATTESTSV"
        )
        regs.write(0, 0 if delivered else 2)
        kernel.platform.engine.hw_return(kernel.platform.cpu)
        return False

    def _storage_trap(self, kernel, task):
        """``int 0x23``: tiny register-level storage for ISA tasks.

        EBX selects the operation (0 = store, 1 = load), ECX is the
        slot number, EDX the value.  Values are encrypted under K_t like
        any other blob.  EAX returns 0 on success.
        """
        regs = kernel.platform.cpu.regs
        op = regs.read(3)  # EBX
        slot = "reg-slot-%d" % regs.read(1)  # ECX
        try:
            if op == 0:
                payload = regs.read(2).to_bytes(4, "little")  # EDX
                self.secure_storage.store(task, slot, payload)
                regs.write(0, 0)
            elif op == 1:
                payload = self.secure_storage.retrieve(task, slot)
                regs.write(2, int.from_bytes(payload[:4], "little"))
                regs.write(0, 0)
            else:
                regs.write(0, 0xFFFFFFFF)
        except Exception:
            regs.write(0, 1)
        kernel.platform.engine.hw_return(kernel.platform.cpu)
        return False


def build_freertos_baseline(config=None):
    """A plain FreeRTOS system: same platform and kernel, no TyTAN.

    No EA-MPU rules, no Int Mux (OS context policy), no RTM/IPC/attest.
    This is the baseline of Tables 2, 3, 4, and 8.
    """
    platform = Platform(config if config is not None else MachineConfig())
    kernel = Kernel(platform)
    loader = TaskLoader(kernel, mpu_driver=None, rtm=None)
    return platform, kernel, loader
