"""The block engine: dispatch, heat and epoch management for compiled code.

This is the simulator's equivalent of QEMU's TCG / Embra's block
translation.  Each discovered block (:func:`repro.perf.blocks.discover`,
a linear :class:`~repro.perf.blocks.Trace` of ``insn`` items) compiles
through the one trace emitter (:func:`repro.perf.traces.generate_trace`)
into a generated Python function that runs the whole straight-line run
with

* the GPRs in Python locals and register chains folded symbolically,
  EFLAGS materialized only where they are architecturally observable
  (a potential fault site or an exit);
* one *hoisted* EA-MPU check per memory instruction: the first
  execution runs the full :meth:`repro.hw.ea_mpu.EAMPU.check` (so a
  denial faults and logs exactly like single-stepping, through
  :func:`_slow_load`/:func:`_slow_store` below), and the allow verdict
  is widened to the surrounding data cell
  (:meth:`repro.perf.decision_cache.MPUDecisionCache.allow_window`)
  clamped to the backing RAM region; subsequent executions compare the
  effective address against that window and index the region's memory
  slab directly;
* batched cycle charging, always flushed *before* anything externally
  visible (an MMIO access, a potential fault, the body's exit), so every
  observer still sees the same ``clock.now`` it would under
  single-stepping.

Blocks are admitted exactly like linear traces
(:meth:`repro.perf.traces.TraceJIT.run_linear`): the whole body when it
fits before the event horizon, otherwise its largest checkpoint prefix
through the lazily compiled segment body, and a task resumed inside a
block re-enters it at a checkpoint boundary.

Bit-identical equivalence contract (the same one the fast-path caches
obey): registers, memory, ``clock.now``, ``retired``, faults, fault
logs, and non-``perf`` obs events are indistinguishable from
single-stepping.  Anything the emitter cannot prove equivalent falls
off the fast path: MMIO accesses route through the checked bus and
abort the body, faults propagate from the exact instruction boundary
with EIP/ESP already matching the single-step state, and a store that
invalidates the executing body (self-modifying code) finishes its
instruction and aborts.
"""

from __future__ import annotations

from repro.hw.memory import RamRegion
from repro.isa.opcodes import OP_LENGTHS, Op
from repro.obs.counters import Counter
from repro.perf.blocks import CHECKPOINT_INSNS, BlockCache, discover
from repro.perf.traces import TraceJIT, _decode_at, _translate

_SIZE_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}

_INT_LENGTH = OP_LENGTHS[Op.INT]


def translate(block, engine):
    """Compile ``block`` in place through the trace emitter: fills
    ``run`` and ``source``, crediting ``engine``'s counters and
    memoizing through its code-object table."""
    return _translate(block, engine.traces.counters, engine.codes, "block")


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
    for any in-bounds start address regardless of alignment, so compiled
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
    fully flushed clock - and returns ``ram=False`` so the body aborts
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
        # Every body keeps a per-site victim slot: demoting the
        # displaced window lets a load whose EA alternates between two
        # regions hit the slab both ways instead of re-installing every
        # miss.
        old = blk.windows[index]
        if old is not None:
            blk.windows2[index] = old
        blk.windows[index] = window
        return int.from_bytes(region.read(address, size), "little"), True
    payload = memory.read(address, size, actor=actor)
    return int.from_bytes(payload, "little"), False


def _slow_store(cpu, blk, index, address, value, size, actor):
    """Checked store for a window miss; returns ``ram``.

    Mirrors :func:`_slow_load`; the RAM slow path still goes through
    ``write_raw`` so every write listener (the span index over every
    cached instruction, block and trace) snoops it.
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
    """Dispatcher: block cache + heat + epoch management.

    One per CPU (see :meth:`repro.hw.cpu.CPU.enable_blocks`).  The
    engine owns the :class:`~repro.perf.blocks.BlockCache` (snooped
    through the CPU's :class:`~repro.perf.spans.SpanIndex`) and the
    :class:`~repro.perf.traces.TraceJIT` that admits and runs every
    compiled body, and decides per dispatch whether compiled code may
    run at all:

    * never while a trace hook, transfer hook or memory watchpoint is
      attached (their callbacks must see every instruction / transfer /
      access);
    * never when the EA-MPU has no decision cache (the hoisting proofs
      come from it);
    * otherwise a body runs only as far as fits at or before the event
      horizon - the earliest cycle any IRQ can become pending - so the
      poll/deliver point after it observes exactly the state
      single-stepping would have produced.

    Heat counts *entries*: an address strictly inside a cached block or
    trace earns heat only when a single-stepped control transfer lands
    on it (a loop head inside a compiled body) or a compiled body exits
    there on its own (a body's end, an MMIO or self-modification
    abort).  A resumed task, single-step fall-through and a segment cut
    at the event horizon never heat it - a resume re-enters a cached
    body at a checkpoint boundary instead
    (:meth:`~repro.perf.traces.TraceJIT.resume`).  A discovered block
    compiles on its first whole admission.

    A resume (``cpu.resumed``, raised by every
    :meth:`~repro.hw.exceptions.ExceptionEngine.hw_return`) also sets
    the trace profile's pending edge, which otherwise still holds the
    last body exit of whichever task ran before.  After a guest ISR's
    single-stepped ``iret`` the edge stays, so the ISR's return closes
    it.  A resume right after a cached ``int`` - a syscall returning or
    a sleep ending - closes the edge from that ``int``.  Any other
    kernel restore (after a preemption, a deadline park, or at a task's
    first start) lands wherever the tick did and closes no edge.  A
    refused dispatch spends a resume as well, and closes no edge.
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
        #: Generated-source digest -> code object, for every block and
        #: trace body this engine compiles (per CPU: never shared
        #: between machines; see ``repro.perf.traces._load``).
        self.codes = {}
        #: EIP of the previous dispatch when it single-stepped, else
        #: ``None`` (a compiled body ran): tells a single-stepped
        #: control transfer from sequential fall-through.
        self._stepped = None
        #: Whether the previous dispatch ran a body only up to a horizon
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
        #: The JIT that runs every compiled body; ``traces`` turns its
        #: trace stitching on (off: the ``--no-traces`` ablation).
        self.traces = TraceJIT(self, cpu, stitch=traces)

    def counters(self):
        """All counters, for registration with an obs registry: the
        trace cache and trace-only counters only when stitching is on."""
        jit = self.traces
        counters = [self.stats, self.translations, self.executions]
        if jit.stitch:
            counters.append(jit.cache.stats)
        counters.extend(jit.counters.all(jit.stitch))
        return counters

    def snapshot(self):
        """One dict with every block-tier statistic."""
        jit = self.traces
        snap = self.stats.snapshot()
        snap["translations"] = self.translations.value
        snap["executions"] = self.executions.value
        snap["cached_blocks"] = len(self.cache)
        trace_snap = jit.counters.snapshot()
        trace_snap["cache"] = jit.cache.stats.snapshot()
        trace_snap["cached_traces"] = len(jit.cache)
        snap["traces"] = trace_snap
        return snap

    def compile_block(self, block):
        """Compile ``block`` (the JIT calls this on its first whole
        admission)."""
        translate(block, self)
        self.translations.add()
        if self.obs is not None:
            self.obs.publish(
                "perf",
                "block-translate",
                start=block.start,
                end=block.exit_eip,
                insns=len(block.items),
                cost=block.iter_cost,
            )

    def try_execute(self, cpu):
        """Run compiled code at the current EIP if provably safe.

        Returns the cycles charged, or ``None`` to single-step.
        """
        memory = cpu.memory
        mpu = memory.mpu
        cache = self.cache
        jit = self.traces
        # A resume belongs to this dispatch alone, refused or not.
        resumed = cpu.resumed
        cpu.resumed = False
        if mpu is not None:
            if mpu.decisions is None:
                return self._refuse(cpu)
            if cache.epoch != mpu.epoch:
                if cache.entries:
                    cache.flush()
                    if self.obs is not None:
                        self.obs.publish("perf", "block-flush", reason="mpu-epoch")
                jit.epoch_flush()
                cache.epoch = mpu.epoch
        generation = 0 if cpu.cfa is None else cpu.cfa.generation
        if generation != self._cfa_generation:
            # Cached trace bodies bake the CFA hash updates of the
            # enrolment set they were compiled under; an enrol/unenrol
            # invalidates them (blocks contain no transfers, so the
            # block cache is unaffected).
            self._cfa_generation = generation
            jit.epoch_flush(reason="cfa-generation")
        if (
            cpu.trace_hook is not None
            or cpu.transfer_hook is not None
            or memory.has_watchpoints()
        ):
            # A transfer hook (e.g. the CFI watchdog) must observe every
            # taken transfer; compiled bodies would bypass it silently,
            # so the whole perf tier deoptimises to the interpreter.
            return self._refuse(cpu)
        eip = cpu.regs.eip
        if resumed:
            # The resume point may re-enter a cached body, or the single
            # steps to the next checkpoint boundary (at most this many
            # instructions apart) may.
            window = CHECKPOINT_INSNS
            # A guest ISR's iret keeps the pending edge; a kernel
            # restore closes only a syscall's.
            if not self._after_iret():
                jit.pending_edge = self._syscall_return(eip)
        else:
            window = self._resume_left
        charged = self._dispatch(cpu, eip, resumed, window > 0)
        if charged is None:
            self._stepped = eip
            self._cut = False
            self._resume_left = window - 1 if window else 0
        else:
            self._stepped = None
            self._cut = jit.cut
            self._resume_left = 0
        return charged

    def _dispatch(self, cpu, eip, resumed, in_window):
        """:meth:`try_execute` past its refusal checks: trace head,
        resume segment, then block (discovering it when hot)."""
        jit = self.traces
        charged = jit.dispatch(cpu, eip)
        if charged is None and in_window:
            charged = jit.resume(cpu, eip)
        if charged is not None:
            return charged
        cache = self.cache
        block = cache.entries.get(eip)
        if block is None:
            cache.stats.misses += 1
            if not (self._entry(eip) and not resumed) and self._inside_body(eip):
                return None
            if not cache.note_miss(eip):
                return None
            block = discover(cpu.memory, eip)
            cache.put(block)
            if block.is_marker():
                return None
        elif block.is_marker():
            cache.stats.misses += 1
            return None
        charged = jit.run_linear(cpu, cache, block)
        if charged is not None:
            self.executions.add()
        return charged

    def _inside_body(self, eip):
        """Whether ``eip`` lies strictly inside a cached block or trace
        (discovered or compiled; markers do not count)."""
        spans = self.cpu.spans
        if self._inside_version != spans.version:
            self._inside = {}
            self._inside_version = spans.version
        inside = self._inside.get(eip)
        if inside is None:
            caches = (self.cache, self.traces.cache)
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
        insn = self._insn_at(stepped)
        return insn is None or stepped + insn.length != eip

    def _insn_at(self, pc):
        """The instruction at ``pc``: cached, else decoded from RAM."""
        insns = self.cpu.insn_cache
        insn = None if insns is None else insns.peek(pc)
        return _decode_at(self.cpu.memory, pc) if insn is None else insn

    def _after_iret(self):
        """Whether the previous dispatch single-stepped an ``iret``."""
        if self._stepped is None:
            return False
        insn = self._insn_at(self._stepped)
        return insn is not None and insn.opcode == Op.IRET

    def _syscall_return(self, eip):
        """The address of the cached ``int`` right before resume point
        ``eip`` (a syscall or a sleep returning there), or ``None``."""
        insns = self.cpu.insn_cache
        source = eip - _INT_LENGTH
        insn = None if insns is None else insns.peek(source)
        return source if insn is not None and insn.opcode == Op.INT else None

    def _refuse(self, cpu):
        """Single-step a refused dispatch: it ends the resume window and,
        with nothing compiled watching its transfers, any profile edge."""
        self._stepped = cpu.regs.eip
        self._cut = False
        self._resume_left = 0
        self.traces.pending_edge = None
        return None
