"""Execution-aware Memory Protection Unit (EA-MPU).

The EA-MPU (introduced by TrustLite and extended by TyTAN with *dynamic*
rule configuration) enforces memory access control based on **which code
performs the access**: a rule grants read/write/execute rights over a
data range to code executing inside a specific code range.  The stack of
a task is thus accessible to that task's code and nothing else.

Semantics implemented here, following Section 3 of the paper:

1. every data access is checked against the rule table using the address
   of the *currently executing instruction* as the subject;
2. protected code regions may only be **entered at their dedicated entry
   point** (control transfers into the region from outside must target
   it); the trusted Int Mux resumes interrupted tasks with a privileged
   transfer that bypasses this check, exactly like the hardware
   resume path on the real platform;
3. addresses not covered by any rule are public (background region) -
   this is how ordinary shared OS memory stays reachable;
4. the rule table has :data:`repro.cycles.EAMPU_SLOTS` slots; rules for
   static trusted components are written during secure boot and locked,
   dynamic rules for tasks come and go at runtime (Table 6 measures the
   cost of installing one).

The MPU itself is a passive checker; the *EA-MPU driver*
(:mod:`repro.core.mpu_driver`) is the only software allowed to program
it, and programming calls carry the driver's code address as ``actor`` so
the MPU can enforce that too.
"""

from __future__ import annotations

from repro import cycles
from repro.errors import (
    EntryPointFault,
    MPUSlotError,
    ProtectionFault,
)
from repro.hw.memory import PhysicalMemory
from repro.perf.decision_cache import MPUDecisionCache


class Perm:
    """Permission bits of an EA-MPU rule."""

    R = 1
    W = 2
    X = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X

    _KIND_BITS = {"read": R, "write": W, "execute": X}

    @classmethod
    def bit_for(cls, kind):
        """Map an access kind string to its permission bit."""
        return cls._KIND_BITS[kind]

    @classmethod
    def describe(cls, perms):
        """Render permission bits as an ``rwx`` string."""
        return "".join(
            letter if perms & bit else "-"
            for letter, bit in (("r", cls.R), ("w", cls.W), ("x", cls.X))
        )


class MpuRule:
    """One EA-MPU rule slot.

    Parameters
    ----------
    name:
        Diagnostic label (e.g. ``task:sensor`` or ``boot:rtm``).
    code_start, code_end:
        Subject range: the rule applies to instructions executing in
        ``[code_start, code_end)``.  ``None`` makes the rule apply to any
        subject (used for public read-only regions like the IDT).
    data_start, data_end:
        Object range the rule grants rights over.
    perms:
        OR of :class:`Perm` bits.
    entry_point:
        If set (and the rule grants X), control may enter the object
        range from outside only at this address.
    extra_subjects:
        Additional subject ranges: ``(start, end)`` tuples sharing the
        rule's full permissions, or ``(start, end, perms)`` tuples with
        a narrower per-subject mask.  Used for normal tasks (the OS code
        range gets RW access) and for the trusted components' per-task
        reach (Int Mux and IPC proxy write, the RTM only reads).
    """

    def __init__(
        self,
        name,
        code_start,
        code_end,
        data_start,
        data_end,
        perms,
        entry_point=None,
        extra_subjects=(),
    ):
        if data_end <= data_start:
            raise MPUSlotError("rule %r has empty data range" % name)
        self.name = name
        self.code_start = code_start
        self.code_end = code_end
        self.data_start = data_start
        self.data_end = data_end
        self.perms = perms
        self.entry_point = entry_point
        self.extra_subjects = tuple(
            (entry[0], entry[1], entry[2] if len(entry) > 2 else None)
            for entry in extra_subjects
        )

    def subject_matches(self, eip):
        """Whether code at ``eip`` is a subject of this rule."""
        return self.subject_perms(eip) is not None

    def subject_perms(self, eip):
        """The permission mask granted to code at ``eip``, or ``None``
        when ``eip`` is not a subject of this rule."""
        if self.code_start is None:
            return self.perms
        if self.code_start <= eip < self.code_end:
            return self.perms
        for start, end, mask in self.extra_subjects:
            if start <= eip < end:
                return self.perms if mask is None else (self.perms & mask)
        return None

    def object_covers(self, address, size=1):
        """Whether the access range lies inside the rule's object range."""
        return self.data_start <= address and address + size <= self.data_end

    def object_overlaps(self, start, end):
        """Whether ``[start, end)`` overlaps the rule's object range."""
        return start < self.data_end and self.data_start < end

    def allows(self, kind, address, size, eip):
        """Full check: subject, object, and (per-subject) permission."""
        if not self.object_covers(address, size):
            return False
        granted = self.subject_perms(eip)
        return granted is not None and bool(granted & Perm.bit_for(kind))

    def __repr__(self):
        return "MpuRule(%s, data=0x%X..0x%X, %s)" % (
            self.name,
            self.data_start,
            self.data_end,
            Perm.describe(self.perms),
        )


class EAMPU:
    """The EA-MPU rule table and checking engine.

    ``slot_count`` defaults to the paper's 18.  The table starts empty;
    secure boot programs and locks the static rules, the EA-MPU driver
    manages the dynamic remainder.
    """

    def __init__(self, slot_count=cycles.EAMPU_SLOTS, decision_cache=True):
        self.slot_count = slot_count
        self.slots = [None] * slot_count
        self._locked = [False] * slot_count
        self.fault_log = []
        #: Optional driver code range; once set, only accesses from inside
        #: it (or hardware) may program slots.
        self._driver_range = None
        #: Rule-table generation: bumped by every successful
        #: ``program_slot``/``clear_slot``.  Cached allow verdicts are
        #: valid for exactly one epoch.
        self.epoch = 0
        #: Memoized allow verdicts (``None`` disables the fast path;
        #: denials are never cached, so faults and ``fault_log`` are
        #: identical either way).
        self.decisions = MPUDecisionCache(self) if decision_cache else None
        #: Observability bus (set by the platform); denials publish
        #: ``mpu-denial`` / ``mpu-entry-fault`` events here.
        self.obs = None

    # -- configuration ------------------------------------------------------

    def set_driver_range(self, start, end):
        """Restrict slot programming to code in ``[start, end)``."""
        self._driver_range = (start, end)

    def _check_programmer(self, actor):
        if actor == PhysicalMemory.HW_ACTOR or self._driver_range is None:
            return
        start, end = self._driver_range
        if isinstance(actor, int) and start <= actor < end:
            return
        raise ProtectionFault(
            start, "write", actor, detail="EA-MPU registers are driver-only"
        )

    def program_slot(self, index, rule, actor=PhysicalMemory.HW_ACTOR, lock=False):
        """Write ``rule`` into slot ``index``.

        Only the EA-MPU driver (or boot hardware) may program slots, and
        locked slots are immutable until reset.  Overlap policy is the
        *driver's* job (it charges the Table 6 policy-check cycles); the
        MPU itself only validates slot bounds and lock state.
        """
        self._check_programmer(actor)
        if not 0 <= index < self.slot_count:
            raise MPUSlotError("slot index %d out of range" % index)
        if self._locked[index]:
            raise MPUSlotError("slot %d is locked" % index)
        self.slots[index] = rule
        self.epoch += 1
        if lock:
            self._locked[index] = True

    def clear_slot(self, index, actor=PhysicalMemory.HW_ACTOR):
        """Free a dynamic slot (task unload)."""
        self._check_programmer(actor)
        if not 0 <= index < self.slot_count:
            raise MPUSlotError("slot index %d out of range" % index)
        if self._locked[index]:
            raise MPUSlotError("slot %d is locked" % index)
        self.slots[index] = None
        self.epoch += 1

    def is_locked(self, index):
        """Whether slot ``index`` was locked by secure boot."""
        return self._locked[index]

    def free_slots(self):
        """Indices of currently free slots."""
        return [i for i, rule in enumerate(self.slots) if rule is None]

    def active_rules(self):
        """All programmed rules with their slot indices."""
        return [(i, rule) for i, rule in enumerate(self.slots) if rule is not None]

    # -- checking -------------------------------------------------------------

    def check(self, kind, address, size, eip):
        """Enforce an access; raises :class:`ProtectionFault` on denial.

        An address covered by at least one rule's object range is
        protected: some matching rule must allow the access.  Uncovered
        addresses form the public background region.

        Allow verdicts are memoized per rule-table epoch in
        :attr:`decisions`; denials always re-run the full scan so the
        fault is raised and logged on every occurrence.
        """
        decisions = self.decisions
        if decisions is not None:
            key = (kind, address, size, eip)
            if decisions.lookup_access(key):
                return
        covered = False
        for rule in self.slots:
            if rule is None:
                continue
            if not rule.object_overlaps(address, address + size):
                continue
            covered = True
            if rule.allows(kind, address, size, eip):
                if decisions is not None:
                    decisions.store_access(key)
                return
        if not covered:
            if decisions is not None:
                decisions.store_access(key)
            return
        fault = ProtectionFault(address, kind, eip)
        self.fault_log.append(fault)
        if self.obs is not None:
            self.obs.publish(
                "hw", "mpu-denial", access=kind, address=address, size=size, eip=eip
            )
        raise fault

    def probe(self, kind, address, size, eip):
        """Pure allow/deny query: no fault, no log, no obs, no memo.

        The block-translation engine uses this at discovery time to ask
        whether an instruction *would* pass :meth:`check` without
        producing any architecturally visible side effect - a denial
        must only ever be raised and logged when the single-step path
        actually reaches the instruction.
        """
        covered = False
        for rule in self.slots:
            if rule is None:
                continue
            if not rule.object_overlaps(address, address + size):
                continue
            covered = True
            if rule.allows(kind, address, size, eip):
                return True
        return not covered

    def allows(self, kind, address, size, eip):
        """:meth:`probe` with allow verdicts memoized like :meth:`check`'s.

        An allow verdict for a range is exactly a passing :meth:`check`
        of it, so both share one memo.  A denial is only reported; it is
        never raised, logged or published here.
        """
        decisions = self.decisions
        if decisions is None:
            return self.probe(kind, address, size, eip)
        key = (kind, address, size, eip)
        if decisions.lookup_access(key):
            return True
        if self.probe(kind, address, size, eip):
            decisions.store_access(key)
            return True
        return False

    def check_transfer(self, from_eip, to_eip, privileged=False):
        """Enforce entry-point rules on a control transfer.

        When control moves into an entry-point-protected region *from
        outside that region*, the target must equal the entry point.
        ``privileged`` marks the trusted resume path used by the Int Mux
        and the hardware IRET into an interrupted task.

        Transfers proven allowed (same coverage cell, or previously
        allowed this epoch) skip the slot scan; denials always re-run
        it so the fault is raised and logged every time.
        """
        if privileged:
            return
        decisions = self.decisions
        if decisions is not None and decisions.lookup_transfer(from_eip, to_eip):
            return
        for rule in self.slots:
            if rule is None or rule.entry_point is None:
                continue
            inside_to = rule.object_covers(to_eip)
            inside_from = rule.object_covers(from_eip)
            if inside_to and not inside_from and to_eip != rule.entry_point:
                fault = EntryPointFault(to_eip, from_eip, rule.entry_point)
                self.fault_log.append(fault)
                if self.obs is not None:
                    self.obs.publish(
                        "hw",
                        "mpu-entry-fault",
                        to_eip=to_eip,
                        from_eip=from_eip,
                        entry_point=rule.entry_point,
                    )
                raise fault
        if decisions is not None:
            decisions.store_transfer(from_eip, to_eip)

    def covering_rules(self, address):
        """Rules whose object range covers ``address`` (diagnostics)."""
        return [
            rule
            for rule in self.slots
            if rule is not None and rule.object_covers(address)
        ]

    def isolation_matrix(self, probes):
        """Access matrix for tests and the Figure 1 bench.

        ``probes`` maps subject names to a representative EIP and object
        names to ``(address, size)``.  Returns
        ``{(subject, object, kind): bool}``.
        """
        matrix = {}
        for sname, eip in probes["subjects"].items():
            for oname, (address, size) in probes["objects"].items():
                for kind in ("read", "write", "execute"):
                    try:
                        self.check(kind, address, size, eip)
                        allowed = True
                    except ProtectionFault:
                        allowed = False
                    matrix[(sname, oname, kind)] = allowed
        return matrix
