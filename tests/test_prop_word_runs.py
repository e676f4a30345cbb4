"""Property: a word-run transfer is the per-word loop it replaces.

:meth:`PhysicalMemory.read_words` / :meth:`PhysicalMemory.write_words`
copy a run of 32-bit words straight to or from the RAM slab when one
check stands for every word, and otherwise run the checked per-word
accessors.  Each example builds two identical bare memories, runs the
same transfers on both - once word by word in the caller's order, once
through the run accessor - and asserts identical outcomes: region
bytes, read values, exceptions, the EA-MPU fault log and denial events,
watchpoint calls, sensor side effects and the bytes the write listeners
heard about.

The map holds a RAM region whose size is not a multiple of 4, a
word-sized RAM region right after it, a 2-byte hole, and an MMIO window
whose sensor counts its reads.  Rules, actors and addresses are drawn
from a window small enough that partial cover, straddles and the MMIO
window come up often.  No guest code runs.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.hw.clock import CycleClock  # noqa: E402
from repro.hw.devices import TraceSensor  # noqa: E402
from repro.hw.ea_mpu import EAMPU, MpuRule  # noqa: E402
from repro.hw.memory import MemoryMap, PhysicalMemory, RamRegion  # noqa: E402
from repro.hw.mmio import MmioRegion  # noqa: E402

HW = PhysicalMemory.HW_ACTOR
ODD_BASE, ODD_SIZE = 0x1000, 0x10E  # not a multiple of 4
WORD_BASE = ODD_BASE + ODD_SIZE  # a one-word region right after it
MMIO_BASE = 0x1118  # after a 2-byte hole
LOW, HIGH = ODD_BASE - 8, MMIO_BASE + 0x20
CODE_LOW, CODE_HIGH = 0x8000, 0x8040
SLOTS = 4


class Recorder:
    """Stands in for the observability bus: keeps every publish."""

    def __init__(self):
        self.events = []

    def publish(self, source, kind, **data):
        self.events.append((source, kind, sorted(data.items())))


def build(contents, rules, cached, watched):
    memory = PhysicalMemory(MemoryMap())
    odd = memory.map.add(RamRegion("odd", ODD_BASE, ODD_SIZE))
    word = memory.map.add(RamRegion("word", WORD_BASE, 4))
    odd.data[:] = contents[:ODD_SIZE]
    word.data[:] = contents[ODD_SIZE : ODD_SIZE + 4]
    sensor = TraceSensor("sensor", CycleClock(), [(0, 7)])
    memory.map.add(MmioRegion(sensor, MMIO_BASE))
    mpu = EAMPU(SLOTS, decision_cache=cached)
    mpu.obs = Recorder()
    for index, rule in enumerate(rules):
        if rule is not None:
            mpu.program_slot(index, MpuRule(*rule))
    memory.attach_mpu(mpu)
    written, watched_calls = [], []
    memory.add_write_listener(lambda address, size: written.append((address, size)))
    if watched:
        memory.add_watchpoint(lambda *call: watched_calls.append(call))
    return memory, sensor, written, watched_calls


def per_word(memory, op):
    """The per-word loop a caller would run, in the caller's order."""
    kind, address, payload, actor, descending = op
    count = len(payload) if kind == "write" else payload
    order = range(count - 1, -1, -1) if descending else range(count)
    if kind == "write":
        for index in order:
            memory.write_u32(address + 4 * index, payload[index], actor)
        return None
    values = [0] * count
    for index in order:
        values[index] = memory.read_u32(address + 4 * index, actor)
    return tuple(values)


def word_run(memory, op):
    kind, address, payload, actor, descending = op
    if kind == "write":
        memory.write_words(address, payload, actor, descending=descending)
        return None
    return memory.read_words(address, payload, actor, descending=descending)


def fault_key(fault):
    return (type(fault).__name__, fault.args, sorted(vars(fault).items()))


def run(memory, ops, transfer):
    outcomes = []
    for op in ops:
        if op[0] == "program":
            _, index, rule = op
            memory.mpu.program_slot(index, MpuRule(*rule))
            continue
        try:
            outcomes.append(("ok", transfer(memory, op)))
        except Exception as fault:  # compared below, not handled
            outcomes.append(("fault", fault_key(fault)))
    return outcomes


def touched(calls):
    return {byte for address, size in calls for byte in range(address, address + size)}


codes = st.integers(min_value=CODE_LOW, max_value=CODE_HIGH)


@st.composite
def rules(draw):
    start = draw(st.integers(min_value=LOW, max_value=HIGH - 4))
    end = draw(st.integers(min_value=start + 1, max_value=min(start + 0x40, HIGH)))
    if draw(st.booleans()):
        code_start = code_end = None
    else:
        code_start = draw(codes)
        code_end = draw(st.integers(min_value=code_start + 1, max_value=CODE_HIGH + 1))
    perms = draw(st.integers(min_value=0, max_value=7))
    return (draw(st.sampled_from("abcd")), code_start, code_end, start, end, perms)


actors = st.one_of(st.just(HW), st.integers(min_value=CODE_LOW - 4, max_value=CODE_HIGH + 4))
addresses = st.one_of(
    st.integers(min_value=LOW, max_value=HIGH),
    st.sampled_from([WORD_BASE - 4, WORD_BASE - 2, WORD_BASE, MMIO_BASE - 4, MMIO_BASE]),
)
words = st.integers(min_value=0, max_value=0xFFFFFFFF)


@st.composite
def transfers(draw):
    address = draw(addresses)
    actor = draw(actors)
    descending = draw(st.booleans())
    if draw(st.booleans()):
        payload = tuple(draw(st.lists(words, min_size=1, max_size=10)))
        return ("write", address, payload, actor, descending)
    return ("read", address, draw(st.integers(min_value=1, max_value=10)), actor, descending)


operations = st.one_of(
    transfers(),
    st.tuples(st.just("program"), st.integers(min_value=0, max_value=SLOTS - 1), rules()),
)


@settings(max_examples=300, deadline=None)
@given(
    contents=st.binary(min_size=ODD_SIZE + 4, max_size=ODD_SIZE + 4),
    slots=st.lists(st.one_of(st.none(), rules()), min_size=SLOTS, max_size=SLOTS),
    ops=st.lists(operations, min_size=1, max_size=6),
    cached=st.booleans(),
    watched=st.booleans(),
)
def test_word_runs_match_the_per_word_loop(contents, slots, ops, cached, watched):
    reference, ref_sensor, ref_written, ref_watched = build(contents, slots, cached, watched)
    memory, sensor, written, watched_calls = build(contents, slots, cached, watched)

    assert run(memory, ops, word_run) == run(reference, ops, per_word)
    for region, ref_region in zip(memory.map.regions(), reference.map.regions()):
        if isinstance(region, RamRegion):
            assert bytes(region.data) == bytes(ref_region.data), region.name
    assert [fault_key(f) for f in memory.mpu.fault_log] == [
        fault_key(f) for f in reference.mpu.fault_log
    ]
    assert memory.mpu.obs.events == reference.mpu.obs.events
    assert watched_calls == ref_watched
    assert sensor.reads == ref_sensor.reads
    assert touched(written) == touched(ref_written)


def test_an_allowed_run_takes_the_slab_path():
    """The property above cannot tell a fast path from none at all."""
    memory, _, written, _ = build(bytes(ODD_SIZE + 4), [None] * SLOTS, True, False)
    memory.mpu.program_slot(0, MpuRule("task", CODE_LOW, CODE_HIGH, ODD_BASE, WORD_BASE, 3))
    memory.write_words(ODD_BASE + 8, (1, 2, 3), CODE_LOW, descending=True)
    assert memory.read_words(ODD_BASE + 8, 3, CODE_LOW) == (1, 2, 3)
    assert written == [(ODD_BASE + 8, 12)]
    assert (memory.range_stats.hits, memory.range_stats.misses) == (2, 0)
