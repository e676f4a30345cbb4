"""The secure IPC proxy.

"The sender S loads the message m and the identity id_R of the receiver
R into the CPU registers and issues an interrupt.  This invokes the IPC
proxy, which obtains the origin of the interrupt from the hardware and
determines S's identity id_S. ... Then the IPC proxy writes m and id_S
to the memory of R.  This implicitly authenticates m and id_S since the
EA-MPU ensures that only the IPC proxy can write to R's memory."
(Sections 3 and 4)

Reproduced behaviours:

* **Sender authentication by interrupt origin** - the proxy reads the
  latched origin EIP from the exception engine and resolves it to the
  sending task; a task cannot claim another's identity because the
  origin is hardware-provided.
* **Receiver addressing by truncated identity** - the 64-bit prefix of
  the receiver's digest (footnote 9) is looked up in the RTM registry.
* **Implicit authentication** - the message and sender identity are
  written into the receiver's inbox *by the proxy* (its EA-MPU rule is
  the only one allowing that write), so the receiver trusts them.
* **Sync vs async** - synchronous sends hand the CPU to the receiver
  (the proxy "branches to R"); asynchronous sends let the sender
  continue and the receiver finds the message at its next activation.
* **Shared memory** - for bulk data the proxy can install a dedicated
  EA-MPU rule making a buffer accessible to exactly the two endpoints.

Costs are the Section 6 numbers: the proxy path totals 1,208 cycles in
the reference configuration and the receiver's entry routine adds 116.
"""

from __future__ import annotations

import struct

from repro import cycles
from repro.errors import IPCError
from repro.hw.ea_mpu import MpuRule, Perm
from repro.hw.platform import FirmwareComponent
from repro.rtos.syscalls import IpcAbi
from repro.rtos.task import (
    INBOX_ENTRIES,
    INBOX_ENTRY_BYTES,
    INBOX_MSG,
    INBOX_RD,
    INBOX_SLOTS,
    INBOX_WR,
    TaskState,
)

#: Sender identity recorded for unmeasured (normal, anonymous) tasks.
ANONYMOUS_ID64 = b"\x00" * 8


class IPCProxy(FirmwareComponent):
    """The trusted IPC proxy component."""

    NAME = "ipc-proxy"

    def __init__(self, kernel, rtm, mpu_driver=None):
        super().__init__()
        self.kernel = kernel
        self.rtm = rtm
        self.mpu_driver = mpu_driver
        #: Count of delivered messages (diagnostics).
        self.delivered = 0
        #: Breakdown of the last send (Section 6 bench hook).
        self.last_send = None
        #: Active shared-memory windows: (task_a, task_b) -> slot.
        self._shared_windows = {}

    def _publish(self, kind, task=None, **data):
        """Publish a proxy event on the observability bus."""
        bus = self.kernel.obs
        if bus is not None:
            bus.publish("tc", kind, task=task, component=self.NAME, **data)

    # -- trap entry (ISA tasks) ---------------------------------------------

    def handle_trap(self, kernel, sender_task, sync=False):
        """Handle an ``int 0x21``/``0x24`` IPC trap from an ISA task.

        Returns ``True`` when the kernel slice must end (sync handover),
        ``False`` when the sender continues.
        """
        regs = kernel.platform.cpu.regs
        message = [regs.read(index) for index in IpcAbi.MSG_REGS]
        id_lo = regs.read(IpcAbi.ID_LO_REG)
        id_hi = regs.read(IpcAbi.ID_HI_REG)
        receiver_id64 = id_lo.to_bytes(4, "little") + id_hi.to_bytes(4, "little")

        status, receiver = self.send(
            sender_task, receiver_id64, message, sync=sync
        )
        regs.write(IpcAbi.MSG_REGS[0], status)

        if status == IpcAbi.STATUS_OK and sync:
            # Synchronous handover: park the sender, run the receiver.
            kernel.context_policy.save_context(sender_task)
            kernel.scheduler.make_ready(sender_task)
            kernel.scheduler.current = None
            return True
        # Sender keeps running: return through the hardware path.
        kernel.platform.engine.hw_return(kernel.platform.cpu)
        return False

    # -- the proxy proper ------------------------------------------------------

    def send(self, sender_task, receiver_id64, message_words, sync=False):
        """Deliver a message; returns ``(status, receiver_or_None)``.

        ``message_words`` is at most
        :data:`repro.cycles.IPC_MAX_MESSAGE_WORDS` 32-bit words.
        """
        if len(message_words) > cycles.IPC_MAX_MESSAGE_WORDS:
            raise IPCError(
                "message exceeds %d register words" % cycles.IPC_MAX_MESSAGE_WORDS
            )
        clock = self.kernel.clock
        start = clock.now

        clock.charge(cycles.IPC_ENTRY)

        # 1. Sender authentication from the hardware interrupt origin.
        clock.charge(cycles.IPC_ORIGIN_LOOKUP)
        sender_id64 = self._authenticate_sender(sender_task)

        # 2. Receiver lookup in the RTM registry (charged per entry).
        entry = self.rtm.lookup64(receiver_id64)
        if entry is None:
            self.last_send = {"status": "unknown-receiver", "cycles": clock.now - start}
            self._publish(
                "ipc-send",
                task=sender_task.name,
                status="unknown-receiver",
                cycles=clock.now - start,
            )
            return IpcAbi.STATUS_UNKNOWN_RECEIVER, None
        receiver = entry.task

        # 3. Inbox write (proxy-only by EA-MPU rule).
        inbox = receiver.inbox_base
        memory = self.kernel.memory
        clock.charge(cycles.IPC_INBOX_BASE)
        read_index, write_index = memory.read_words(inbox + INBOX_RD, 2, actor=self.base)
        if (write_index - read_index) & 0xFFFFFFFF >= INBOX_SLOTS:
            self.last_send = {"status": "inbox-full", "cycles": clock.now - start}
            self._publish(
                "ipc-send",
                task=sender_task.name,
                status="inbox-full",
                receiver=receiver.name,
                cycles=clock.now - start,
            )
            return IpcAbi.STATUS_INBOX_FULL, receiver
        self._write_entry(inbox, write_index, message_words, sender_id64)
        for _ in range(cycles.IPC_MAX_MESSAGE_WORDS + cycles.IPC_IDENTITY_WORDS):
            clock.charge(cycles.IPC_INBOX_PER_WORD)
        memory.write_u32(
            inbox + INBOX_WR, (write_index + 1) & 0xFFFFFFFF, actor=self.base
        )

        # 4. Delivery: schedule the receiver (sync puts it at the front).
        clock.charge(cycles.IPC_DELIVER)
        self._deliver(receiver, sync)

        self.delivered += 1
        self.last_send = {
            "status": "ok",
            "cycles": clock.now - start,
            "receiver": receiver.name,
        }
        self._publish(
            "ipc-send",
            task=sender_task.name,
            status="ok",
            receiver=receiver.name,
            words=len(message_words),
            sync=sync,
            cycles=clock.now - start,
        )
        return IpcAbi.STATUS_OK, receiver

    def _authenticate_sender(self, sender_task):
        """Resolve the sender's identity from the interrupt origin.

        The origin EIP must lie inside the sender's code region; a
        mismatch means the trap did not come from where the kernel
        thinks and is treated as anonymous.
        """
        origin = self.kernel.platform.engine.last_origin
        if (
            not sender_task.is_native
            and origin is not None
            and not (sender_task.base <= origin < sender_task.end)
        ):
            return ANONYMOUS_ID64
        entry = self.rtm.lookup_task(sender_task)
        if entry is None:
            return ANONYMOUS_ID64
        return entry.identity64

    def _deliver(self, receiver, sync):
        """Hand the message over.

        Synchronous sends "branch to R": the receiver is made runnable
        immediately and placed at the front of its priority level.
        Asynchronous sends leave the receiver's scheduling state alone -
        "R processes m the next time it is scheduled".
        """
        receiver.resume_mode = IpcAbi.MODE_MESSAGE
        if not sync:
            return
        scheduler = self.kernel.scheduler
        if receiver.state in (TaskState.BLOCKED, TaskState.SUSPENDED, TaskState.READY):
            scheduler.make_ready(receiver)
        level = scheduler._ready[receiver.priority]
        if receiver in level:
            level.remove(receiver)
            level.appendleft(receiver)

    def deliver_system_message(self, receiver, words, sender_id64):
        """Write a message from a trusted component into an inbox.

        Used by the attestation and storage trap paths to return data
        to ISA tasks; same ring protocol as :meth:`send`, without the
        proxy-path charging.  Returns ``False`` when the ring is full.
        """
        memory = self.kernel.memory
        inbox = receiver.inbox_base
        read_index, write_index = memory.read_words(inbox + INBOX_RD, 2, actor=self.base)
        if (write_index - read_index) & 0xFFFFFFFF >= INBOX_SLOTS:
            return False
        self._write_entry(inbox, write_index, words, sender_id64)
        memory.write_u32(
            inbox + INBOX_WR, (write_index + 1) & 0xFFFFFFFF, actor=self.base
        )
        return True

    def _write_entry(self, inbox, write_index, words, sender_id64):
        """Copy one message into ring slot ``write_index``, as the proxy.

        The zero-padded payload and the sender identity are the entry's
        consecutive words, so they move in one transfer.
        """
        entry = (
            inbox + INBOX_ENTRIES + (write_index % INBOX_SLOTS) * INBOX_ENTRY_BYTES
        )
        padded = list(words) + [0] * (cycles.IPC_MAX_MESSAGE_WORDS - len(words))
        sender = struct.unpack("<%dI" % cycles.IPC_IDENTITY_WORDS, sender_id64)
        self.kernel.memory.write_words(
            entry + INBOX_MSG, padded + list(sender), actor=self.base
        )

    # -- receive helpers -----------------------------------------------------

    def read_inbox(self, task):
        """Pop one message from ``task``'s inbox *as the task itself*.

        Returns ``(message_words, sender_id64)`` or ``None`` when empty.
        Native tasks call this; ISA tasks read their inbox directly with
        loads (it lies in their own protected region).  Only the read
        index is written, so receiver and proxy never race on a field.
        """
        memory = self.kernel.memory
        actor = task.base
        inbox = task.inbox_base
        read_index, write_index = memory.read_words(inbox + INBOX_RD, 2, actor=actor)
        if read_index == write_index:
            return None
        entry = (
            inbox + INBOX_ENTRIES + (read_index % INBOX_SLOTS) * INBOX_ENTRY_BYTES
        )
        stored = memory.read_words(
            entry + INBOX_MSG,
            cycles.IPC_MAX_MESSAGE_WORDS + cycles.IPC_IDENTITY_WORDS,
            actor=actor,
        )
        words = list(stored[: cycles.IPC_MAX_MESSAGE_WORDS])
        sender = struct.pack(
            "<%dI" % cycles.IPC_IDENTITY_WORDS, *stored[cycles.IPC_MAX_MESSAGE_WORDS :]
        )
        memory.write_u32(
            inbox + INBOX_RD, (read_index + 1) & 0xFFFFFFFF, actor=actor
        )
        self._publish("ipc-recv", task=task.name, sender=sender.hex())
        return words, sender

    # -- shared memory ------------------------------------------------------

    def setup_shared_memory(self, task_a, task_b, size):
        """Allocate a buffer accessible to exactly two tasks.

        "To efficiently transfer large amounts of data between tasks,
        the IPC proxy sets up shared memory that is accessible only to
        the communicating tasks."  Returns the buffer base address.
        """
        if self.mpu_driver is None:
            raise IPCError("shared memory needs the EA-MPU driver")
        base = self.kernel.allocator.allocate(size)
        rule = MpuRule(
            "shared:%s+%s" % (task_a.name, task_b.name),
            task_a.base,
            task_a.end,
            base,
            base + size,
            Perm.RW,
            extra_subjects=((task_b.base, task_b.end),),
        )
        slot = self.mpu_driver.configure_rule(rule)
        self._shared_windows[(task_a.tid, task_b.tid)] = (slot, base, size)
        return base

    def teardown_shared_memory(self, task_a, task_b):
        """Release a shared-memory window."""
        key = (task_a.tid, task_b.tid)
        if key not in self._shared_windows:
            raise IPCError("no shared window between these tasks")
        slot, base, _ = self._shared_windows.pop(key)
        self.mpu_driver.release_rule(slot)
        self.kernel.allocator.free(base)
