"""The 32-bit core: instruction interpreter with EA-MPU enforcement.

Every instruction fetch runs an execute check against the EA-MPU; every
data access carries the current EIP as the *actor*, which is what makes
the MPU execution-aware.  Control transfers (including sequential flow
across a region boundary) run the entry-point check; only the hardware
resume path (IRET) and the trusted Int Mux restore are privileged.

Interrupts are taken **between** instructions when EFLAGS.IF is set -
the core never blocks interrupts for longer than one instruction, which
is the hardware half of TyTAN's real-time story.

The interpreter has a fast-path layer (``fastpath=True``, the default)
that never changes simulated semantics - faults, fault logs, hooks, and
cycle accounting are identical with it on or off:

* a decoded-instruction cache keyed by EIP, invalidated when any write
  (checked or raw) lands in cached code bytes;
* the EA-MPU's allow-verdict memo (see
  :class:`repro.perf.decision_cache.MPUDecisionCache`), which turns the
  per-instruction execute check into a dict hit;
* a sequential-advance shortcut that skips the transfer check while
  execution provably stays inside one entry-point coverage cell;
* precomputed dispatch tables replacing the opcode ``if``/``elif``
  chain and the condition-code decoder.

On top of the fast path sits an optional *block-translation tier*
(:meth:`CPU.enable_blocks`): hot straight-line runs are compiled into
Python functions with hoisted EA-MPU checks and batched cycle-counter
updates, and a block only runs as far as its static cycle cost fits
before the next event horizon (whole, or up to a checkpoint) - so
interrupts are still delivered on exactly the same instruction
boundary as single-stepping (see :mod:`repro.perf.blocks`).
"""

from __future__ import annotations

from repro import cycles
from repro.errors import IllegalInstruction, TyTANError
from repro.hw.memory import RamRegion, u32
from repro.hw.registers import Flag, RegisterFile
from repro.isa.encoding import decode
from repro.isa.opcodes import BASE_CYCLES, Op
from repro.perf.insn_cache import DecodedInsnCache
from repro.perf.spans import SpanIndex

#: Longest instruction encoding; fetch reads this many bytes.
MAX_INSN_BYTES = 6

#: opcode -> predicate over the raw EFLAGS word (conditional branches).
_CONDITIONS = {
    Op.JZ: lambda f: f & Flag.ZF != 0,
    Op.JNZ: lambda f: f & Flag.ZF == 0,
    Op.JC: lambda f: f & Flag.CF != 0,
    Op.JNC: lambda f: f & Flag.CF == 0,
    Op.JS: lambda f: f & Flag.SF != 0,
    Op.JNS: lambda f: f & Flag.SF == 0,
    Op.JG: lambda f: f & Flag.ZF == 0 and bool(f & Flag.SF) == bool(f & Flag.OF),
    Op.JL: lambda f: bool(f & Flag.SF) != bool(f & Flag.OF),
    Op.JGE: lambda f: bool(f & Flag.SF) == bool(f & Flag.OF),
    Op.JLE: lambda f: f & Flag.ZF != 0 or bool(f & Flag.SF) != bool(f & Flag.OF),
}


class CPU:
    """The simulated Siskiyou Peak core."""

    def __init__(self, memory, clock, fastpath=True):
        self.memory = memory
        self.clock = clock
        self.regs = RegisterFile()
        self.engine = None  # wired by the Platform
        self.halted = False
        #: Count of retired instructions (diagnostics / tests).
        self.retired = 0
        #: Optional callable invoked as ``hook(cpu, insn)`` before each
        #: instruction executes (tracing).
        self.trace_hook = None
        #: Optional control-transfer monitor ``hook(from_eip, to_eip)``
        #: invoked on every taken branch/call/return.  This is the
        #: attachment point for hardware-assisted runtime attack
        #: detection (the paper's second future-work item); the hook
        #: may raise a :class:`~repro.errors.HardwareFault` to kill the
        #: offending task.
        self.transfer_hook = None
        #: Control-flow-attestation monitor port
        #: (:class:`repro.cfa.recorder.CfaCore` or ``None``).  Unlike
        #: ``transfer_hook`` it stays compatible with the block/trace
        #: tiers: compiled bodies emit the same hash updates the
        #: interpreter performs here, so attaching it never forces
        #: deoptimisation.
        self.cfa = None
        #: Whether the core-side caches are active (wall-clock only;
        #: simulated behaviour is identical either way).
        self.fastpath = bool(fastpath)
        self._insn_cache = None
        #: Exact-span write snoop shared by every code cache (created
        #: with the first one; see :attr:`spans`).
        self._spans = None
        #: ``(lo, hi, epoch)`` coverage cell the sequential-advance
        #: shortcut is valid in, or ``None``.
        self._advance_cell = None
        #: Block-translation engine (``None`` until ``enable_blocks``).
        self._blocks = None
        #: Raised by the exception engine's ``hw_return`` (IRET and
        #: context restores), consumed by the block engine's next
        #: dispatch; wall-clock only, like every perf-tier hint.
        self.resumed = False
        if self.fastpath:
            self._insn_cache = DecodedInsnCache(self.spans)

    def attach_engine(self, engine):
        """Wire the exception engine (done by the Platform)."""
        self.engine = engine

    # -- fast-path introspection --------------------------------------------

    @property
    def insn_cache(self):
        """The decoded-instruction cache (``None`` when fastpath is off)."""
        return self._insn_cache

    @property
    def spans(self):
        """The :class:`~repro.perf.spans.SpanIndex` every code cache
        registers its bodies' byte spans with (created on first use)."""
        if self._spans is None:
            self._spans = SpanIndex(self.memory)
        return self._spans

    @property
    def block_engine(self):
        """The block-translation engine (``None`` unless enabled)."""
        return self._blocks

    def enable_blocks(self, horizon=None, traces=True):
        """Turn on the block-translation tier.

        ``horizon`` is an optional callable returning the earliest
        absolute cycle at which an IRQ can become pending (usually
        :meth:`repro.hw.clock.CycleClock.next_event_horizon`); a block
        whose static cycle cost does not fit before it runs only up to
        its last checkpoint that does, or falls back to single-stepping.
        With no horizon, blocks always run whole - only
        correct when nothing raises IRQs between instructions, which is
        the caller's contract (bench rigs without timers).

        ``traces`` additionally enables the trace-recording JIT on top
        of the block tier (hot block-to-block edges are stitched into
        multi-block traces with guarded side exits; see
        :mod:`repro.perf.traces`).  Like blocks, traces change
        wall-clock speed only, never simulated semantics.
        """
        from repro.perf.translate import BlockEngine

        self._blocks = BlockEngine(self, horizon=horizon, traces=traces)
        return self._blocks

    def cache_stats(self):
        """Hit/miss snapshots of every cache on the execution path."""
        stats = {"region": self.memory.map.stats.snapshot()}
        if self._insn_cache is not None:
            stats["insn"] = self._insn_cache.stats.snapshot()
        mpu = self.memory.mpu
        if mpu is not None and mpu.decisions is not None:
            stats["mpu_access"] = mpu.decisions.access_stats.snapshot()
            stats["mpu_transfer"] = mpu.decisions.transfer_stats.snapshot()
        if self._blocks is not None:
            stats["block"] = self._blocks.snapshot()
        return stats

    # -- interrupt intake ---------------------------------------------------

    def maybe_take_interrupt(self):
        """Deliver the highest-priority pending IRQ if unmasked.

        Returns the delivered vector or ``None``.  Delivery wakes a
        halted core.
        """
        if self.engine is None:
            return None
        controller = self.engine.controller
        if not controller.has_pending():
            return None
        if not self.regs.interrupts_enabled:
            return None
        vector = controller.take()
        self.halted = False
        self.engine.deliver(self, vector)
        return vector

    # -- execution ------------------------------------------------------------

    def step(self):
        """Execute one instruction; returns cycles charged.

        A halted core just burns one idle cycle waiting for an
        interrupt.
        """
        if self.halted:
            self.clock.charge(1)
            return 1
        if self._blocks is not None:
            charged = self._blocks.try_execute(self)
            if charged is not None:
                return charged
        before = self.clock.now
        eip = self.regs.eip
        memory = self.memory
        mpu = memory.mpu
        cache = self._insn_cache
        if cache is not None:
            entry = cache.get(eip)
            if entry is not None:
                if mpu is None or entry[1] == mpu.epoch:
                    # Same rule-table epoch: the execute check is
                    # provably still the allow it was when cached.
                    insn = entry[0]
                else:
                    memory.check_execute(eip, eip)
                    entry[1] = mpu.epoch
                    insn = entry[0]
            else:
                memory.check_execute(eip, eip)
                insn = self._fetch(eip)
                # Only RAM-backed code is cached: RAM bytes change only
                # through the bus (which the cache snoops), whereas MMIO
                # windows may mutate behind it.
                if isinstance(memory.map.try_find(eip, insn.length), RamRegion):
                    cache.put(
                        eip,
                        insn,
                        mpu.epoch if mpu is not None else cache.NO_MPU_EPOCH,
                    )
        else:
            memory.check_execute(eip, eip)
            insn = self._fetch(eip)
        if self.trace_hook is not None:
            self.trace_hook(self, insn)
        self._execute(insn)
        self.retired += 1
        return self.clock.now - before

    def _fetch(self, eip):
        window = min(MAX_INSN_BYTES, self._fetch_limit(eip))
        blob = self.memory.read_raw(eip, window)
        return decode(blob, 0, address=eip)

    def _fetch_limit(self, eip):
        region = self.memory.map.try_find(eip, 1)
        if region is None:
            raise IllegalInstruction(eip, 0xFF)
        return region.end - eip

    # -- memory helpers (actor = current EIP) -------------------------------

    def _load(self, address, size):
        payload = self.memory.read(address, size, actor=self.regs.eip)
        return int.from_bytes(payload, "little")

    def _store(self, address, value, size):
        payload = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        self.memory.write(address, payload, actor=self.regs.eip)

    def push(self, value):
        """Push a 32-bit value onto the current stack."""
        self.regs.esp = self.regs.esp - 4
        self._store(self.regs.esp, value, 4)

    def pop(self):
        """Pop a 32-bit value from the current stack."""
        value = self._load(self.regs.esp, 4)
        self.regs.esp = self.regs.esp + 4
        return value

    # -- flag helpers -----------------------------------------------------------

    def _set_zsf(self, result):
        self.regs.set_flag(Flag.ZF, result == 0)
        self.regs.set_flag(Flag.SF, bool(result & 0x80000000))

    def _alu_add(self, a, b):
        raw = a + b
        result = u32(raw)
        self.regs.set_flag(Flag.CF, raw > 0xFFFFFFFF)
        sa, sb, sr = a >> 31, b >> 31, result >> 31
        self.regs.set_flag(Flag.OF, sa == sb and sr != sa)
        self._set_zsf(result)
        return result

    def _alu_sub(self, a, b):
        raw = a - b
        result = u32(raw)
        self.regs.set_flag(Flag.CF, raw < 0)
        sa, sb, sr = a >> 31, b >> 31, result >> 31
        self.regs.set_flag(Flag.OF, sa != sb and sr != sa)
        self._set_zsf(result)
        return result

    def _alu_logic(self, result):
        result = u32(result)
        self.regs.set_flag(Flag.CF, False)
        self.regs.set_flag(Flag.OF, False)
        self._set_zsf(result)
        return result

    # -- control transfer ---------------------------------------------------

    def _jump(self, target, privileged=False, taken_cost=True):
        if self.memory.mpu is not None:
            self.memory.mpu.check_transfer(self.regs.eip, target, privileged)
        if self.transfer_hook is not None:
            self.transfer_hook(self.regs.eip, u32(target))
        if self.cfa is not None:
            self.cfa.on_transfer(self.regs.eip, u32(target))
        self.regs.eip = u32(target)
        if taken_cost:
            self.clock.charge(cycles.INSN_BRANCH_TAKEN)

    def _advance(self, insn):
        """Sequential flow to the next instruction.

        Region boundaries are still subject to the entry-point check:
        falling off the end of public code into a protected region is a
        control transfer like any other.  The fast path skips the check
        while source and target provably lie inside the same coverage
        cell (no entry-point rule boundary between them) at the current
        rule-table epoch.
        """
        eip = self.regs.eip
        target = eip + insn.length
        mpu = self.memory.mpu
        if mpu is not None:
            cell = self._advance_cell
            if (
                cell is not None
                and cell[2] == mpu.epoch
                and cell[0] <= eip
                and target < cell[1]
            ):
                pass  # provably no entry-point boundary is crossed
            else:
                mpu.check_transfer(eip, target, False)
                if self.fastpath and mpu.decisions is not None:
                    self._advance_cell = mpu.decisions.cell_bounds(eip)
        self.regs.eip = u32(target)

    # -- condition evaluation ----------------------------------------------

    def _condition(self, opcode):
        predicate = _CONDITIONS.get(opcode)
        if predicate is None:
            raise AssertionError("not a condition: %02X" % opcode)
        return predicate(self.regs.eflags)

    # -- the interpreter ------------------------------------------------------

    def _execute(self, insn):
        entry = _DISPATCH.get(insn.opcode)
        if entry is None:  # pragma: no cover - opcode table is closed
            raise TyTANError("unhandled opcode 0x%02X" % insn.opcode)
        self.clock.charge(entry[1])
        entry[0](self, insn)

    # -- per-opcode handlers (dispatched via _DISPATCH) ---------------------

    def _op_nop(self, insn):
        self._advance(insn)

    def _op_hlt(self, insn):
        self.halted = True
        self._advance(insn)

    def _op_cli(self, insn):
        self.regs.set_flag(Flag.IF, False)
        self._advance(insn)

    def _op_sti(self, insn):
        self.regs.set_flag(Flag.IF, True)
        self._advance(insn)

    def _op_ret(self, insn):
        self._jump(self.pop())

    def _op_iret(self, insn):
        # The hardware half of interrupt return: pop EIP/EFLAGS and
        # resume the interrupted stream (privileged transfer).
        self.engine.hw_return(self)

    def _op_mov(self, insn):
        self.regs.write(insn.reg, self.regs.read(insn.reg2))
        self._advance(insn)

    def _op_add(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_add(regs.read(insn.reg), regs.read(insn.reg2)))
        self._advance(insn)

    def _op_sub(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_sub(regs.read(insn.reg), regs.read(insn.reg2)))
        self._advance(insn)

    def _op_and(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) & regs.read(insn.reg2)))
        self._advance(insn)

    def _op_or(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) | regs.read(insn.reg2)))
        self._advance(insn)

    def _op_xor(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) ^ regs.read(insn.reg2)))
        self._advance(insn)

    def _op_cmp(self, insn):
        self._alu_sub(self.regs.read(insn.reg), self.regs.read(insn.reg2))
        self._advance(insn)

    def _op_shl(self, insn):
        regs = self.regs
        shift = regs.read(insn.reg2) & 0x1F
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) << shift))
        self._advance(insn)

    def _op_shr(self, insn):
        regs = self.regs
        shift = regs.read(insn.reg2) & 0x1F
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) >> shift))
        self._advance(insn)

    def _op_mul(self, insn):
        regs = self.regs
        raw = regs.read(insn.reg) * regs.read(insn.reg2)
        regs.write(insn.reg, u32(raw))
        regs.set_flag(Flag.CF, raw > 0xFFFFFFFF)
        regs.set_flag(Flag.OF, raw > 0xFFFFFFFF)
        self._set_zsf(u32(raw))
        self._advance(insn)

    def _op_div(self, insn):
        regs = self.regs
        divisor = regs.read(insn.reg2)
        if divisor == 0:
            self._advance(insn)
            self.engine.deliver(self, 0x00)  # divide error
            return
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) // divisor))
        self._advance(insn)

    def _op_movi(self, insn):
        self.regs.write(insn.reg, insn.imm)
        self._advance(insn)

    def _op_addi(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_add(regs.read(insn.reg), u32(insn.imm)))
        self._advance(insn)

    def _op_subi(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_sub(regs.read(insn.reg), u32(insn.imm)))
        self._advance(insn)

    def _op_andi(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) & insn.imm))
        self._advance(insn)

    def _op_ori(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) | insn.imm))
        self._advance(insn)

    def _op_xori(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) ^ insn.imm))
        self._advance(insn)

    def _op_cmpi(self, insn):
        self._alu_sub(self.regs.read(insn.reg), u32(insn.imm))
        self._advance(insn)

    def _op_shli(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) << (insn.imm & 0x1F)))
        self._advance(insn)

    def _op_shri(self, insn):
        regs = self.regs
        regs.write(insn.reg, self._alu_logic(regs.read(insn.reg) >> (insn.imm & 0x1F)))
        self._advance(insn)

    def _op_ld(self, insn):
        regs = self.regs
        address = u32(regs.read(insn.reg2) + insn.imm)
        regs.write(insn.reg, self._load(address, 4))
        self._advance(insn)

    def _op_st(self, insn):
        regs = self.regs
        address = u32(regs.read(insn.reg2) + insn.imm)
        self._store(address, regs.read(insn.reg), 4)
        self._advance(insn)

    def _op_ldb(self, insn):
        regs = self.regs
        address = u32(regs.read(insn.reg2) + insn.imm)
        regs.write(insn.reg, self._load(address, 1))
        self._advance(insn)

    def _op_stb(self, insn):
        regs = self.regs
        address = u32(regs.read(insn.reg2) + insn.imm)
        self._store(address, regs.read(insn.reg), 1)
        self._advance(insn)

    def _op_ldh(self, insn):
        regs = self.regs
        address = u32(regs.read(insn.reg2) + insn.imm)
        regs.write(insn.reg, self._load(address, 2))
        self._advance(insn)

    def _op_sth(self, insn):
        regs = self.regs
        address = u32(regs.read(insn.reg2) + insn.imm)
        self._store(address, regs.read(insn.reg), 2)
        self._advance(insn)

    def _op_jmp(self, insn):
        self._jump(insn.imm)

    def _op_call(self, insn):
        self.push(self.regs.eip + insn.length)
        self._jump(insn.imm)

    def _op_jcc(self, insn):
        if _CONDITIONS[insn.opcode](self.regs.eflags):
            self._jump(insn.imm)
        else:
            self._advance(insn)

    def _op_push(self, insn):
        self.push(self.regs.read(insn.reg))
        self._advance(insn)

    def _op_pop(self, insn):
        self.regs.write(insn.reg, self.pop())
        self._advance(insn)

    def _op_pushi(self, insn):
        self.push(insn.imm)
        self._advance(insn)

    def _op_not(self, insn):
        self.regs.write(insn.reg, self._alu_logic(~self.regs.read(insn.reg)))
        self._advance(insn)

    def _op_neg(self, insn):
        self.regs.write(insn.reg, self._alu_sub(0, self.regs.read(insn.reg)))
        self._advance(insn)

    def _op_int(self, insn):
        self._advance(insn)
        self.engine.deliver(self, insn.imm, charge=False)


#: opcode -> unbound handler; expanded below into ``_DISPATCH`` entries
#: of ``(handler, base_cycles)`` so ``_execute`` pays one dict hit
#: instead of a 40-arm ``if``/``elif`` chain plus a cycle-table lookup.
_HANDLERS = {
    Op.NOP: CPU._op_nop,
    Op.HLT: CPU._op_hlt,
    Op.CLI: CPU._op_cli,
    Op.STI: CPU._op_sti,
    Op.RET: CPU._op_ret,
    Op.IRET: CPU._op_iret,
    Op.MOV: CPU._op_mov,
    Op.ADD: CPU._op_add,
    Op.SUB: CPU._op_sub,
    Op.AND: CPU._op_and,
    Op.OR: CPU._op_or,
    Op.XOR: CPU._op_xor,
    Op.CMP: CPU._op_cmp,
    Op.SHL: CPU._op_shl,
    Op.SHR: CPU._op_shr,
    Op.MUL: CPU._op_mul,
    Op.DIV: CPU._op_div,
    Op.MOVI: CPU._op_movi,
    Op.ADDI: CPU._op_addi,
    Op.SUBI: CPU._op_subi,
    Op.ANDI: CPU._op_andi,
    Op.ORI: CPU._op_ori,
    Op.XORI: CPU._op_xori,
    Op.CMPI: CPU._op_cmpi,
    Op.SHLI: CPU._op_shli,
    Op.SHRI: CPU._op_shri,
    Op.LD: CPU._op_ld,
    Op.ST: CPU._op_st,
    Op.LDB: CPU._op_ldb,
    Op.STB: CPU._op_stb,
    Op.LDH: CPU._op_ldh,
    Op.STH: CPU._op_sth,
    Op.JMP: CPU._op_jmp,
    Op.CALL: CPU._op_call,
    Op.JZ: CPU._op_jcc,
    Op.JNZ: CPU._op_jcc,
    Op.JC: CPU._op_jcc,
    Op.JNC: CPU._op_jcc,
    Op.JS: CPU._op_jcc,
    Op.JNS: CPU._op_jcc,
    Op.JG: CPU._op_jcc,
    Op.JL: CPU._op_jcc,
    Op.JGE: CPU._op_jcc,
    Op.JLE: CPU._op_jcc,
    Op.PUSH: CPU._op_push,
    Op.POP: CPU._op_pop,
    Op.PUSHI: CPU._op_pushi,
    Op.NOT: CPU._op_not,
    Op.NEG: CPU._op_neg,
    Op.INT: CPU._op_int,
}

#: opcode -> (handler, base cycle cost); the interpreter's single-lookup
#: dispatch table.
_DISPATCH = {op: (handler, BASE_CYCLES[op]) for op, handler in _HANDLERS.items()}
