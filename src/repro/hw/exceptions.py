"""Hardware exception engine and interrupt controller.

On an interrupt or software trap the exception engine:

1. pushes EFLAGS and EIP onto the stack of the *interrupted task* (this
   hardware/software split is what Tables 2 and 3 measure around);
2. latches the interrupt *origin* (the interrupted EIP) in a register
   that trusted software can read - the IPC proxy uses it to identify
   the sender of a message;
3. masks further maskable interrupts (clears EFLAGS.IF);
4. vectors through the interrupt descriptor table (IDT).

The IDT lives in memory, its integrity protected by the EA-MPU, and the
register pointing to it is static (Section 4, "Interrupts") - modelled
here by making the IDT base a constructor argument with no setter.
"""

from __future__ import annotations

from repro import cycles
from repro.errors import ConfigurationError
from repro.hw.memory import PhysicalMemory
from repro.hw.registers import Flag


class Vector:
    """Well-known interrupt/trap vector numbers."""

    DIVIDE_ERROR = 0x00
    PROTECTION_FAULT = 0x05
    TIMER = 0x08
    DEVICE_BASE = 0x10  #: device IRQs occupy 0x10..0x1F
    SYSCALL = 0x20  #: OS services (yield, delay, queues, task mgmt)
    IPC = 0x21  #: secure IPC proxy
    ATTEST = 0x22  #: remote attestation requests
    STORAGE = 0x23  #: secure storage requests

    COUNT = 0x30


class InterruptController:
    """Collects device interrupt requests until the CPU can take one.

    Lower vector numbers win, matching fixed-priority interrupt
    controllers on small cores.
    """

    def __init__(self):
        self._pending = set()

    def raise_irq(self, vector):
        """Latch interrupt ``vector`` as pending."""
        self._pending.add(vector)

    def has_pending(self):
        """Whether any interrupt is waiting."""
        return bool(self._pending)

    def take(self):
        """Pop and return the highest-priority pending vector."""
        vector = min(self._pending)
        self._pending.remove(vector)
        return vector

    def peek(self):
        """Return the highest-priority pending vector without popping."""
        return min(self._pending) if self._pending else None

    def clear(self):
        """Drop all pending interrupts (reset)."""
        self._pending.clear()


class ExceptionEngine:
    """The hardware exception engine.

    Parameters
    ----------
    memory:
        The physical memory bus (hardware pushes bypass the EA-MPU, as
        bus-master hardware does).
    idt_base:
        Physical address of the IDT: :data:`Vector.COUNT` little-endian
        32-bit handler addresses.  Fixed at construction - the paper's
        IDT register "is static and cannot be modified".
    """

    def __init__(self, memory, idt_base):
        self.memory = memory
        self.idt_base = idt_base
        self.controller = InterruptController()
        #: EIP of the most recently interrupted instruction stream; the
        #: IPC proxy reads this to authenticate the sender.
        self.last_origin = None
        #: Vector most recently delivered (diagnostics).
        self.last_vector = None
        #: Observability bus (set by the platform); each delivery
        #: publishes an ``exception`` event.
        self.obs = None

    # -- IDT management (boot-time only) -----------------------------------

    def install_handler(self, vector, handler_address):
        """Write one IDT entry.  Used by secure boot before the EA-MPU
        locks the IDT region."""
        if not 0 <= vector < Vector.COUNT:
            raise ConfigurationError("vector %d out of range" % vector)
        self.memory.write_u32(self.idt_base + 4 * vector, handler_address)

    def handler_address(self, vector):
        """Read the handler address for ``vector`` from the IDT."""
        if not 0 <= vector < Vector.COUNT:
            raise ConfigurationError("vector %d out of range" % vector)
        return self.memory.read_words(self.idt_base + 4 * vector, 1)[0]

    # -- delivery ---------------------------------------------------------

    def deliver(self, cpu, vector, charge=True):
        """Deliver ``vector`` to ``cpu`` (hardware exception entry).

        Pushes EFLAGS then EIP onto the current stack, latches the
        origin, masks interrupts, and jumps to the IDT handler.  Returns
        the handler address.
        """
        regs = cpu.regs
        self.last_origin = regs.eip
        self.last_vector = vector
        # Hardware pushes EFLAGS, then EIP, to the interrupted task's stack.
        regs.esp = regs.esp - 8
        self.memory.write_words(
            regs.esp, (regs.eip, regs.eflags), PhysicalMemory.HW_ACTOR, descending=True
        )
        regs.set_flag(Flag.IF, False)
        handler = self.handler_address(vector)
        regs.eip = handler
        if charge:
            cpu.clock.charge(cycles.EXCEPTION_ENTRY)
        if self.obs is not None:
            self.obs.publish(
                "hw", "exception", vector=vector, origin=self.last_origin
            )
        return handler

    def hw_return(self, cpu):
        """Execute the IRET half the hardware performs: pop EIP and
        EFLAGS from the current stack and resume.  The transfer is
        privileged (it may land mid-region in an interrupted task).

        Every IRET and every kernel/Int Mux context restore comes
        through here, so it also raises ``cpu.resumed``: the compiled
        tiers may re-enter cached code at the resume point rather than
        treat it as a new entry (no simulated effect)."""
        regs = cpu.regs
        new_eip, new_eflags = self.memory.read_words(
            regs.esp, 2, PhysicalMemory.HW_ACTOR
        )
        regs.esp = regs.esp + 8
        regs.eip = new_eip
        regs.eflags = new_eflags
        cpu.resumed = True
        return new_eip
