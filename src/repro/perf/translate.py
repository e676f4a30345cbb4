"""Superblock translation: compile straight-line runs to Python closures.

This is the simulator's equivalent of QEMU's TCG / Embra's block
translation: each discovered :class:`~repro.perf.blocks.SuperBlock` is
turned into **one** generated Python function that executes the whole
run with

* inline ALU statements operating directly on the GPR list (dead flag
  computation elided: a flag-writing instruction only materializes
  EFLAGS when it is the last writer before a point where flags are
  architecturally observable - a potential fault site or the block
  end);
* one *hoisted* EA-MPU check per memory instruction: the first
  execution runs the full :meth:`repro.hw.ea_mpu.EAMPU.check` (so a
  denial faults and logs exactly like single-stepping), and the allow
  verdict is widened to the surrounding data cell
  (:meth:`repro.perf.decision_cache.MPUDecisionCache.allow_window`)
  clamped to the backing RAM region; subsequent executions compare the
  effective address against that window and go straight to the region
  bytes;
* one batched cycle-counter update: cycles accumulate in a local and
  are flushed in a single ``clock.charge`` - but always *before*
  anything externally visible (an MMIO access, a potential fault, the
  block exit), so every observer still sees the same ``clock.now`` it
  would under single-stepping;
* the PR 3 constant-propagation idea at translation time: a ``movi``
  whose register reaches a load/store unclobbered folds the effective
  address to a literal (see :mod:`repro.analysis.constprop`, the static
  twin of this dict).

Bit-identical equivalence contract (the same one the PR 1 caches obey):
registers, memory, ``clock.now``, ``retired``, faults, fault logs, and
non-``perf`` obs events are indistinguishable from single-stepping.
Anything the translator cannot prove equivalent falls off the fast
path: MMIO accesses route through the checked bus and abort the block,
faults propagate from the exact instruction boundary with EIP/ESP
already matching the single-step state, and a store that invalidates
the executing block (self-modifying code) finishes its instruction and
aborts.
"""

from __future__ import annotations

from repro.analysis.constprop import _FLAG_WRITERS
from repro.hw.memory import RamRegion
from repro.isa.opcodes import BASE_CYCLES, Op
from repro.obs.counters import Counter
from repro.perf.blocks import ALU_OPS, MEM_OPS, BlockCache, discover
from repro.perf.traces import (
    _ALIGN_SHIFT,
    _ESP,
    _FLAG_KEEP,
    _M,
    _SIGN,
    _SITE_WIDTH,
    CHECKPOINT_INSNS,
    TraceJIT,
    _decode_at,
    _Source,
    compile_cached,
)

#: Instructions that write their ``reg`` operand (kills a known const).
_REG_KILLERS = frozenset(
    {
        Op.MOV,
        Op.ADD,
        Op.SUB,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.SHL,
        Op.SHR,
        Op.MUL,
        Op.ADDI,
        Op.SUBI,
        Op.ANDI,
        Op.ORI,
        Op.XORI,
        Op.SHLI,
        Op.SHRI,
        Op.NOT,
        Op.NEG,
        Op.LD,
        Op.LDB,
        Op.POP,
    }
)

_SIZE_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}


def _flag_liveness(insns):
    """Which flag writers must materialize EFLAGS.

    Backward scan: flags written by instruction ``i`` are observable iff
    no later flag writer overwrites them before the next *sync point* -
    a memory instruction (whose fault would expose EFLAGS to the
    handler) or the end of the block (where the terminator may branch on
    them).
    """
    needs = [False] * len(insns)
    live = True
    for i in range(len(insns) - 1, -1, -1):
        opcode = insns[i][1].opcode
        if opcode in MEM_OPS:
            live = True
        elif opcode in _FLAG_WRITERS:
            needs[i] = live
            live = False
    return needs


def _emit_flags(out, indent, carry=None, overflow=None, zero_sign_of="res"):
    """The common tail of a flag-materializing ALU instruction."""
    out.emit(indent, "f = regs.eflags & %d" % _FLAG_KEEP)
    if carry is not None:
        out.emit(indent, "if %s:" % carry)
        out.emit(indent + 1, "f |= 1")
    out.emit(indent, "if %s == 0:" % zero_sign_of)
    out.emit(indent + 1, "f |= 64")
    out.emit(indent, "if %s & %d:" % (zero_sign_of, _SIGN))
    out.emit(indent + 1, "f |= 128")
    if overflow is not None:
        out.emit(indent, "if %s:" % overflow)
        out.emit(indent + 1, "f |= 2048")
    out.emit(indent, "regs.eflags = f")


def generate(block):
    """Generate the Python source for ``block``'s closure.

    The closure signature is ``__block__(cpu, blk)``; it assumes the
    dispatcher has already verified the EA-MPU epoch, the event
    horizon, and ``blk.valid``.
    """
    insns = block.insns
    count = len(insns)
    needs_flags = _flag_liveness(insns)
    out = _Source()
    out.emit(0, "def __block__(cpu, blk):")
    out.emit(1, "regs = cpu.regs")
    out.emit(1, "r = regs.gpr")
    out.emit(1, "memory = cpu.memory")
    out.emit(1, "clock = cpu.clock")
    out.emit(1, "W = blk.windows")
    if any(
        insn.opcode in (Op.ST, Op.STB, Op.STH, Op.PUSH, Op.PUSHI)
        for _, insn in insns
    ):
        out.emit(1, "S = memory.snooped_pages")
    out.emit(1, "p = 0")

    #: reg index -> constant value (the runtime twin of the PR 3
    #: constprop pass: only ``movi`` defines, any other write kills).
    known = {}
    pend = 0  # batched base cycles of fully inlined instructions
    done = 0  # instructions whose retirement is already credited
    mem_index = 0

    def flush_pend(indent):
        nonlocal pend
        if pend:
            out.emit(indent, "p += %d" % pend)
            pend = 0

    def slow_prologue(i, address, base):
        """Fall off the fast path: make cpu state bit-identical to
        single-stepping *before* instruction ``i`` touches the bus."""
        out.emit(2, "if p:")
        out.emit(3, "clock.charge(p)")
        out.emit(3, "p = 0")
        if i - done:
            out.emit(2, "cpu.retired += %d" % (i - done))
        out.emit(2, "regs.eip = %d" % address)
        out.emit(2, "clock.charge(%d)" % base)

    def addr_expr(insn):
        base = known.get(insn.reg2)
        if base is not None:
            return str((base + insn.imm) & _M)
        if insn.imm:
            return "(r[%d] + %d) & %d" % (insn.reg2, insn.imm, _M)
        return "r[%d]" % insn.reg2

    for i, (address, insn) in enumerate(insns):
        opcode = insn.opcode
        x = insn.reg
        y = insn.reg2
        base = BASE_CYCLES[opcode]
        nxt = address + insn.length

        if opcode in ALU_OPS:
            pend += base
            flags = needs_flags[i]
            if opcode is Op.NOP:
                pass
            elif opcode is Op.MOV:
                out.emit(1, "r[%d] = r[%d]" % (x, y))
            elif opcode is Op.MOVI:
                out.emit(1, "r[%d] = %d" % (x, insn.imm))
                known[x] = insn.imm
                continue  # movi defines; skip the generic kill below
            elif opcode in (Op.ADD, Op.ADDI):
                b_expr = "r[%d]" % y if opcode is Op.ADD else str(insn.imm & _M)
                if not flags:
                    out.emit(1, "r[%d] = (r[%d] + %s) & %d" % (x, x, b_expr, _M))
                else:
                    out.emit(1, "a = r[%d]" % x)
                    out.emit(1, "b = %s" % b_expr)
                    out.emit(1, "raw = a + b")
                    out.emit(1, "res = raw & %d" % _M)
                    out.emit(1, "r[%d] = res" % x)
                    _emit_flags(
                        out,
                        1,
                        carry="raw > %d" % _M,
                        overflow="not ((a ^ b) & %d) and ((a ^ res) & %d)"
                        % (_SIGN, _SIGN),
                    )
            elif opcode in (Op.SUB, Op.SUBI, Op.CMP, Op.CMPI, Op.NEG):
                if opcode is Op.NEG:
                    a_expr, b_expr = "0", "r[%d]" % x
                elif opcode in (Op.SUB, Op.CMP):
                    a_expr, b_expr = "r[%d]" % x, "r[%d]" % y
                else:
                    a_expr, b_expr = "r[%d]" % x, str(insn.imm & _M)
                writes = opcode not in (Op.CMP, Op.CMPI)
                if not flags:
                    if opcode is Op.NEG:
                        out.emit(1, "r[%d] = (-r[%d]) & %d" % (x, x, _M))
                    elif writes:
                        out.emit(1, "r[%d] = (%s - %s) & %d" % (x, a_expr, b_expr, _M))
                    # a flag-dead cmp/cmpi is a pure cycle charge
                else:
                    out.emit(1, "a = %s" % a_expr)
                    out.emit(1, "b = %s" % b_expr)
                    out.emit(1, "raw = a - b")
                    out.emit(1, "res = raw & %d" % _M)
                    if writes:
                        out.emit(1, "r[%d] = res" % x)
                    _emit_flags(
                        out,
                        1,
                        carry="raw < 0",
                        overflow="((a ^ b) & %d) and ((a ^ res) & %d)"
                        % (_SIGN, _SIGN),
                    )
            elif opcode is Op.MUL:
                if not flags:
                    out.emit(1, "r[%d] = (r[%d] * r[%d]) & %d" % (x, x, y, _M))
                else:
                    out.emit(1, "raw = r[%d] * r[%d]" % (x, y))
                    out.emit(1, "res = raw & %d" % _M)
                    out.emit(1, "r[%d] = res" % x)
                    # MUL sets CF and OF together (raw overflowed 32 bits)
                    out.emit(1, "f = regs.eflags & %d" % _FLAG_KEEP)
                    out.emit(1, "if raw > %d:" % _M)
                    out.emit(2, "f |= 2049")
                    out.emit(1, "if res == 0:")
                    out.emit(2, "f |= 64")
                    out.emit(1, "if res & %d:" % _SIGN)
                    out.emit(2, "f |= 128")
                    out.emit(1, "regs.eflags = f")
            else:
                # the logic family: AND/OR/XOR/SHL/SHR (+imm forms), NOT
                if opcode is Op.AND:
                    expr = "r[%d] & r[%d]" % (x, y)
                elif opcode is Op.OR:
                    expr = "r[%d] | r[%d]" % (x, y)
                elif opcode is Op.XOR:
                    expr = "r[%d] ^ r[%d]" % (x, y)
                elif opcode is Op.ANDI:
                    expr = "r[%d] & %d" % (x, insn.imm & _M)
                elif opcode is Op.ORI:
                    expr = "r[%d] | %d" % (x, insn.imm & _M)
                elif opcode is Op.XORI:
                    expr = "r[%d] ^ %d" % (x, insn.imm & _M)
                elif opcode is Op.SHL:
                    expr = "(r[%d] << (r[%d] & 31)) & %d" % (x, y, _M)
                elif opcode is Op.SHR:
                    expr = "r[%d] >> (r[%d] & 31)" % (x, y)
                elif opcode is Op.SHLI:
                    expr = "(r[%d] << %d) & %d" % (x, insn.imm & 31, _M)
                elif opcode is Op.SHRI:
                    expr = "r[%d] >> %d" % (x, insn.imm & 31)
                elif opcode is Op.NOT:
                    expr = "(~r[%d]) & %d" % (x, _M)
                else:  # pragma: no cover - ALU_OPS is closed
                    raise AssertionError("untranslatable ALU op %r" % opcode)
                if not flags:
                    out.emit(1, "r[%d] = %s" % (x, expr))
                else:
                    out.emit(1, "res = %s" % expr)
                    out.emit(1, "r[%d] = res" % x)
                    _emit_flags(out, 1)  # logic clears CF and OF
            if opcode in _REG_KILLERS:
                known.pop(x, None)
            continue

        # -- memory instructions: hoisted-window fast path + checked
        #    slow path that is bit-identical to single-stepping --------
        flush_pend(1)
        k = mem_index
        mem_index += 1
        credit = i + 1 - done

        if opcode in (Op.LD, Op.LDH, Op.LDB):
            size = _SITE_WIDTH[opcode]
            mask, shift = _ALIGN_SHIFT[size]
            out.emit(1, "addr = %s" % addr_expr(insn))
            out.emit(1, "w = W[%d]" % k)
            # The align guard keeps the direct index exact; misaligned
            # (but in-window) accesses take the checked slow path.
            if mask:
                out.emit(
                    1,
                    "if w is not None and w[0] <= addr <= w[1] and not addr & %d:" % mask,
                )
            else:
                out.emit(1, "if w is not None and w[0] <= addr <= w[1]:")
            if shift:
                out.emit(2, "r[%d] = w[2][(addr >> %d) - w[3]]" % (x, shift))
            else:
                out.emit(2, "r[%d] = w[2][addr - w[3]]" % x)
            out.emit(2, "p += %d" % base)
            out.emit(2, "cpu.retired += %d" % credit)
            out.emit(1, "else:")
            slow_prologue(i, address, base)
            out.emit(2, "v, ram = slow_load(cpu, blk, %d, addr, %d, %d)" % (k, size, address))
            out.emit(2, "r[%d] = v" % x)
            out.emit(2, "cpu.retired += 1")
            out.emit(2, "if not ram:")
            out.emit(3, "regs.eip = %d" % nxt)
            out.emit(3, "return")
            known.pop(x, None)
            done = i + 1
            continue

        if opcode in (Op.ST, Op.STH, Op.STB):
            size = _SITE_WIDTH[opcode]
            mask, shift = _ALIGN_SHIFT[size]
            value = "r[%d]" % x if size == 4 else "(r[%d] & %d)" % (x, _SIZE_MASK[size])
            out.emit(1, "addr = %s" % addr_expr(insn))
            out.emit(1, "w = W[%d]" % k)
            if mask:
                out.emit(
                    1,
                    "if w is not None and w[0] <= addr <= w[1] and not addr & %d:" % mask,
                )
            else:
                out.emit(1, "if w is not None and w[0] <= addr <= w[1]:")
            # An aligned access never crosses the 256-byte snoop page,
            # so a single page probe decides broadcast vs. slab write.
            out.emit(2, "if addr >> 8 in S:")
            out.emit(3, 'memory.write_raw(addr, %s.to_bytes(%d, "little"))' % (value, size))
            out.emit(3, "p += %d" % base)
            out.emit(3, "cpu.retired += %d" % credit)
            out.emit(3, "if not blk.valid:")
            out.emit(4, "clock.charge(p)")
            out.emit(4, "regs.eip = %d" % nxt)
            out.emit(4, "return")
            out.emit(2, "else:")
            if shift:
                out.emit(3, "w[2][(addr >> %d) - w[3]] = %s" % (shift, value))
            else:
                out.emit(3, "w[2][addr - w[3]] = %s" % value)
            out.emit(3, "p += %d" % base)
            out.emit(3, "cpu.retired += %d" % credit)
            out.emit(1, "else:")
            slow_prologue(i, address, base)
            out.emit(
                2,
                "ram = slow_store(cpu, blk, %d, addr, r[%d], %d, %d)" % (k, x, size, address),
            )
            out.emit(2, "cpu.retired += 1")
            out.emit(2, "if not ram or not blk.valid:")
            out.emit(3, "regs.eip = %d" % nxt)
            out.emit(3, "return")
            done = i + 1
            continue

        if opcode in (Op.PUSH, Op.PUSHI):
            # push reads its operand *before* decrementing ESP (so
            # ``push esp`` stores the old value), and a faulting store
            # leaves ESP already decremented - both exactly as
            # CPU.push does.
            value = "r[%d]" % x if opcode is Op.PUSH else str(insn.imm & _M)
            out.emit(1, "v = %s" % value)
            out.emit(1, "addr = (r[%d] - 4) & %d" % (_ESP, _M))
            out.emit(1, "w = W[%d]" % k)
            out.emit(1, "if w is not None and w[0] <= addr <= w[1] and not addr & 3:")
            out.emit(2, "r[%d] = addr" % _ESP)
            out.emit(2, "if addr >> 8 in S:")
            out.emit(3, 'memory.write_raw(addr, v.to_bytes(4, "little"))')
            out.emit(3, "p += %d" % base)
            out.emit(3, "cpu.retired += %d" % credit)
            out.emit(3, "if not blk.valid:")
            out.emit(4, "clock.charge(p)")
            out.emit(4, "regs.eip = %d" % nxt)
            out.emit(4, "return")
            out.emit(2, "else:")
            out.emit(3, "w[2][(addr >> 2) - w[3]] = v")
            out.emit(3, "p += %d" % base)
            out.emit(3, "cpu.retired += %d" % credit)
            out.emit(1, "else:")
            slow_prologue(i, address, base)
            out.emit(2, "r[%d] = addr" % _ESP)
            out.emit(2, "ram = slow_store(cpu, blk, %d, addr, v, 4, %d)" % (k, address))
            out.emit(2, "cpu.retired += 1")
            out.emit(2, "if not ram or not blk.valid:")
            out.emit(3, "regs.eip = %d" % nxt)
            out.emit(3, "return")
            known.pop(_ESP, None)
            done = i + 1
            continue

        if opcode is Op.POP:
            # pop loads first (a faulting load leaves ESP and the
            # destination untouched), then bumps ESP, then writes the
            # destination - so ``pop esp`` ends with the loaded value.
            out.emit(1, "addr = r[%d]" % _ESP)
            out.emit(1, "w = W[%d]" % k)
            out.emit(1, "if w is not None and w[0] <= addr <= w[1] and not addr & 3:")
            out.emit(2, "v = w[2][(addr >> 2) - w[3]]")
            out.emit(2, "r[%d] = (addr + 4) & %d" % (_ESP, _M))
            out.emit(2, "r[%d] = v" % x)
            out.emit(2, "p += %d" % base)
            out.emit(2, "cpu.retired += %d" % credit)
            out.emit(1, "else:")
            slow_prologue(i, address, base)
            out.emit(2, "v, ram = slow_load(cpu, blk, %d, addr, 4, %d)" % (k, address))
            out.emit(2, "r[%d] = (addr + 4) & %d" % (_ESP, _M))
            out.emit(2, "r[%d] = v" % x)
            out.emit(2, "cpu.retired += 1")
            out.emit(2, "if not ram:")
            out.emit(3, "regs.eip = %d" % nxt)
            out.emit(3, "return")
            known.pop(_ESP, None)
            known.pop(x, None)
            done = i + 1
            continue

        raise AssertionError(  # pragma: no cover - discovery filters ops
            "untranslatable op %r at 0x%X" % (opcode, address)
        )

    flush_pend(1)
    out.emit(1, "if p:")
    out.emit(2, "clock.charge(p)")
    if count - done:
        out.emit(1, "cpu.retired += %d" % (count - done))
    out.emit(1, "regs.eip = %d" % block.end)
    return out.source()


def translate(block, codes):
    """Compile ``block`` in place: fills ``run``, ``source``, ``windows``.

    ``codes`` is the engine's code-object memo
    (:func:`~repro.perf.traces.compile_cached`)."""
    source = generate(block)
    namespace = {"slow_load": _slow_load, "slow_store": _slow_store}
    exec(compile_cached(source, "<block@0x%X>" % block.start, codes), namespace)
    block.windows = [None] * sum(
        1 for _, insn in block.insns if insn.opcode in MEM_OPS
    )
    block.source = source
    block.run = namespace["__block__"]
    return block


# -- slow-path helpers referenced by the generated code -------------------


def _window_tuple(region, lo, hi, size):
    """Width-specialized window over ``region``: ``(lo, hi - size,
    slab_view, shifted_base, byte_slab, base)``.

    ``slab_view`` is the region's typed cast for ``size`` (``words``,
    ``halves``, or the raw byte slab) and ``shifted_base`` the region
    base pre-shifted to that view's element index space, so the
    generated fast path is one index expression:
    ``view[(addr >> shift) - shifted_base]``.  The typed mapping is
    exact only for accesses aligned to ``size`` - the generated code
    guards alignment - and only when the region base itself is aligned;
    an unaligned or castless region gets no window (every access takes
    the checked slow path, which handles any alignment).

    The trailing ``(byte_slab, base)`` pair is the region's raw byte
    slab and unshifted base: the window's *range* proves MPU permission
    for any in-bounds start address regardless of alignment, so trace
    bodies serve in-window misaligned loads straight off the byte slab
    instead of paying a checked slow call per access.
    """
    base = region.base
    if size == 4:
        view = region.words if not base & 3 else None
        shift = 2
    elif size == 2:
        view = region.halves if not base & 1 else None
        shift = 1
    else:
        view = region.data
        shift = 0
    if view is None:
        return None
    return (lo, hi - size, view, base >> shift, region.data, base)


def _window_for(mpu, region, address, size):
    """Widen an allow verdict at ``address`` to its data cell.

    The verdict just computed by the full check holds for any access of
    the same (kind, size, actor) whose whole span stays inside the cell
    and inside the backing region; the window stores the inclusive
    address range ``[lo, hi - size]`` a future effective address may
    start at, plus the slab view/base of :func:`_window_tuple`.
    """
    decisions = mpu.decisions
    if decisions is None:
        return None
    lo, hi = decisions.allow_window(address)
    if lo < region.base:
        lo = region.base
    if hi > region.end:
        hi = region.end
    if hi - size < lo:
        return None
    return _window_tuple(region, lo, hi, size)


def _slow_load(cpu, blk, index, address, size, actor):
    """Checked load for a window miss; returns ``(value, ram)``.

    Runs the full EA-MPU check (denials raise and log exactly as
    single-stepping does, because this *is* the single check for this
    execution), then installs the widened window for next time.  A
    non-RAM target takes the checked bus path - the device sees the
    fully flushed clock - and returns ``ram=False`` so the block aborts
    (the access may have changed device state or the event horizon).
    """
    memory = cpu.memory
    region = memory.map.try_find(address, size)
    if isinstance(region, RamRegion):
        mpu = memory.mpu
        if mpu is not None:
            mpu.check("read", address, size, actor)
            window = _window_for(mpu, region, address, size)
        else:
            window = _window_tuple(region, region.base, region.end, size)
        # Traces keep a per-site victim slot: demoting the displaced
        # window lets a load whose EA alternates between two regions
        # hit the slab both ways instead of re-installing every miss.
        victims = getattr(blk, "windows2", None)
        if victims is not None:
            old = blk.windows[index]
            if old is not None:
                victims[index] = old
        blk.windows[index] = window
        return int.from_bytes(region.read(address, size), "little"), True
    payload = memory.read(address, size, actor=actor)
    return int.from_bytes(payload, "little"), False


def _slow_store(cpu, blk, index, address, value, size, actor):
    """Checked store for a window miss; returns ``ram``.

    Mirrors :func:`_slow_load`; the RAM slow path still goes through
    ``write_raw`` so every write listener (instruction cache, block
    cache) snoops it.
    """
    memory = cpu.memory
    payload = (value & _SIZE_MASK[size]).to_bytes(size, "little")
    region = memory.map.try_find(address, size)
    if isinstance(region, RamRegion):
        mpu = memory.mpu
        if mpu is not None:
            mpu.check("write", address, size, actor)
            blk.windows[index] = _window_for(mpu, region, address, size)
        else:
            blk.windows[index] = _window_tuple(
                region, region.base, region.end, size
            )
        memory.write_raw(address, payload)
        return True
    memory.write(address, payload, actor=actor)
    return False


class BlockEngine:
    """Dispatcher: block cache + heat + horizon + epoch management.

    One per CPU (see :meth:`repro.hw.cpu.CPU.enable_blocks`).  The
    engine owns the :class:`~repro.perf.blocks.BlockCache` (snooped
    through the CPU's :class:`~repro.perf.spans.SpanIndex`) and decides
    per dispatch whether a translated block may run:

    * never while a trace hook or memory watchpoint is attached (their
      callbacks must see every instruction / access);
    * never when the EA-MPU has no decision cache (the hoisting proofs
      come from it);
    * only when the block's whole static cycle cost fits at or before
      the event horizon - the earliest cycle any IRQ can become
      pending - so the poll/deliver point after the block observes
      exactly the state single-stepping would have produced.

    Heat counts *entries*: an address strictly inside a cached block or
    trace earns heat only when a single-stepped control transfer lands
    on it (a loop head inside a compiled body) or a compiled body exits
    there on its own (a trace's end, an MMIO or self-modification
    abort).  A resumed task, single-step fall-through and a trace
    segment cut at the event horizon never heat it - a resume
    re-enters a cached trace at a checkpoint boundary instead
    (:meth:`~repro.perf.traces.TraceJIT.resume`).  A discovered block
    compiles on its first horizon-admitted dispatch.
    """

    def __init__(self, cpu, horizon=None, traces=True):
        self.cpu = cpu
        #: Callable returning the earliest cycle an IRQ can become
        #: pending, or ``None`` for "no scheduled events".
        self.horizon = horizon
        self.cache = BlockCache(cpu.spans)
        #: Observability bus (optional); block lifecycle events publish
        #: under the diagnostic ``perf`` source, which equivalence
        #: comparisons exclude (it only exists when blocks are on).
        self.obs = None
        self.stats = self.cache.stats
        self.translations = Counter("block-translations")
        self.executions = Counter("block-executions")
        self.deferrals = Counter("block-horizon-deferrals")
        #: Generated-source digest -> code object, for every block and
        #: trace body this engine compiles (per CPU: never shared
        #: between machines; see ``compile_cached``).
        self.codes = {}
        #: EIP of the previous dispatch when it single-stepped, else
        #: ``None`` (a compiled body ran): tells a single-stepped
        #: control transfer from sequential fall-through.
        self._stepped = None
        #: Whether the previous dispatch ran a trace only up to a horizon
        #: checkpoint (its exit is the horizon's, not an entry).
        self._cut = False
        #: Dispatches left in the current resume window.
        self._resume_left = 0
        #: ``_inside_body`` answers by EIP, valid for span-index version
        #: ``_inside_version`` (any body added or dropped clears them).
        self._inside = {}
        self._inside_version = None
        #: CFA enrolment generation the cached traces were built under
        #: (trace bodies embed hash updates for the enrolled regions,
        #: so an enrolment change flushes them like an MPU epoch move).
        self._cfa_generation = 0
        #: The trace tier (PR 6) stacked on top of the block tier, or
        #: ``None`` when disabled (``--no-traces`` ablation).
        self.traces = TraceJIT(self, cpu) if traces else None

    def counters(self):
        """All counters, for registration with an obs registry."""
        counters = [self.stats, self.translations, self.executions, self.deferrals]
        if self.traces is not None:
            counters.append(self.traces.cache.stats)
            counters.extend(self.traces.counters.all())
        return counters

    def snapshot(self):
        """One dict with every block-tier statistic."""
        snap = self.stats.snapshot()
        snap["translations"] = self.translations.value
        snap["executions"] = self.executions.value
        snap["horizon_deferrals"] = self.deferrals.value
        snap["cached_blocks"] = len(self.cache)
        if self.traces is not None:
            trace_snap = self.traces.counters.snapshot()
            trace_snap["cache"] = self.traces.cache.stats.snapshot()
            trace_snap["cached_traces"] = len(self.traces.cache)
            snap["traces"] = trace_snap
        return snap

    def try_execute(self, cpu):
        """Run the block at the current EIP if provably safe.

        Returns the cycles charged, or ``None`` to single-step.
        """
        memory = cpu.memory
        mpu = memory.mpu
        cache = self.cache
        jit = self.traces
        if mpu is not None:
            if mpu.decisions is None:
                return None
            if cache.epoch != mpu.epoch:
                if cache.entries:
                    cache.flush()
                    if self.obs is not None:
                        self.obs.publish("perf", "block-flush", reason="mpu-epoch")
                if jit is not None:
                    jit.epoch_flush()
                cache.epoch = mpu.epoch
        generation = 0 if cpu.cfa is None else cpu.cfa.generation
        if generation != self._cfa_generation:
            # Cached trace bodies bake the CFA hash updates of the
            # enrolment set they were compiled under; an enrol/unenrol
            # invalidates them (blocks contain no transfers, so the
            # block cache is unaffected).
            self._cfa_generation = generation
            if jit is not None:
                jit.epoch_flush(reason="cfa-generation")
        if (
            cpu.trace_hook is not None
            or cpu.transfer_hook is not None
            or memory.has_watchpoints()
        ):
            # A transfer hook (e.g. the CFI watchdog) must observe every
            # taken transfer; compiled bodies would bypass it silently,
            # so the whole perf tier deoptimises to the interpreter.
            return None
        eip = cpu.regs.eip
        resumed = cpu.resumed
        if resumed:
            # The resume point may re-enter a cached trace, or the single
            # steps to the next checkpoint boundary (at most this many
            # instructions apart) may.
            cpu.resumed = False
            window = CHECKPOINT_INSNS
        else:
            window = self._resume_left
        charged = self._dispatch(cpu, eip, resumed, window > 0)
        if charged is None:
            self._stepped = eip
            self._cut = False
            self._resume_left = window - 1 if window else 0
        else:
            self._stepped = None
            self._cut = jit is not None and jit.cut
            self._resume_left = 0
        return charged

    def _dispatch(self, cpu, eip, resumed, in_window):
        """:meth:`try_execute` past its refusal checks: trace head,
        resume segment, then block (discovering and compiling it)."""
        jit = self.traces
        if jit is not None:
            charged = jit.dispatch(cpu, eip)
            if charged is None and in_window:
                charged = jit.resume(cpu, eip)
            if charged is not None:
                return charged
        cache = self.cache
        block = cache.entries.get(eip)
        stats = cache.stats
        if block is None:
            stats.misses += 1
            if not (self._entry(eip) and not resumed) and self._inside_body(eip):
                return None
            if not cache.note_miss(eip):
                return None
            block = discover(cpu.memory, eip)
            cache.put(block)
            if not block.insns:
                return None
        elif not block.insns:
            stats.misses += 1
            return None
        else:
            stats.hits += 1
        clock = cpu.clock
        horizon = self.horizon
        if horizon is not None:
            limit = horizon()
            if limit is not None and clock.now + block.cost > limit:
                # The block could retire past the point where an IRQ
                # becomes pending: single-step up to it instead.
                self.deferrals.add()
                return None
        if block.run is None:
            translate(block, self.codes)
            self.translations.add()
            if self.obs is not None:
                self.obs.publish(
                    "perf",
                    "block-translate",
                    start=block.start,
                    end=block.end,
                    insns=len(block.insns),
                    cost=block.cost,
                )
        before = clock.now
        self.executions.add()
        block.run(cpu, block)
        if jit is not None:
            # The block exits at its ender (a branch or other
            # non-translatable op); the next dispatch address closes a
            # profile edge for the trace builder.
            jit.pending_edge = cpu.regs.eip
        return clock.now - before

    def _inside_body(self, eip):
        """Whether ``eip`` lies strictly inside a cached block or trace
        (discovered or compiled; markers do not count)."""
        spans = self.cpu.spans
        if self._inside_version != spans.version:
            self._inside = {}
            self._inside_version = spans.version
        inside = self._inside.get(eip)
        if inside is None:
            caches = (self.cache, None if self.traces is None else self.traces.cache)
            inside = self._inside[eip] = any(
                key != eip and owner in caches and not owner.entries[key].is_marker()
                for owner, key in spans.owners(eip)
            )
        return inside

    def _entry(self, eip):
        """Whether the previous dispatch entered ``eip``: a compiled
        body exited there on its own, or a single-stepped control
        transfer (not sequential fall-through) landed there."""
        if self._cut:
            return False
        stepped = self._stepped
        if stepped is None:
            return True
        insns = self.cpu.insn_cache
        insn = None if insns is None else insns.peek(stepped)
        if insn is None:
            insn = _decode_at(self.cpu.memory, stepped)
        return insn is None or stepped + insn.length != eip
