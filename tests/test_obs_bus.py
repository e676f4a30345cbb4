"""The unified observability bus (repro.obs) and its exporters.

Covers: bus mechanics (ring bound, filtering, subscription), the
counter registry, JSONL round-trip, Chrome trace-event schema sanity,
the enabled-vs-disabled bit-identical equivalence guarantee,
:class:`RunResult`, the stable top-level API surface, and the
``repro.tools.trace`` CLI.
"""

import io
import json

import pytest

import repro
from repro import MachineConfig, RunResult, TyTAN
from repro.obs import (
    Counter,
    CounterRegistry,
    Event,
    EventBus,
    chrome_trace,
    read_jsonl,
    summary_text,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.workloads import busy_loop_source, counter_task_source
from repro.tools import trace as trace_cli


class FakeClock:
    def __init__(self, now=0):
        self.now = now


# -- bus mechanics ------------------------------------------------------------


class TestEventBus:
    def test_publish_stamps_cycle_and_stores(self):
        clock = FakeClock(42)
        bus = EventBus(clock=clock)
        event = bus.publish("rtos", "tick", task="t1", value=7)
        assert event.cycle == 42 and event.source == "rtos"
        assert event.task == "t1" and event.data == {"value": 7}
        assert len(bus) == 1 and bus.of_kind("tick") == [event]

    def test_disabled_bus_records_nothing(self):
        bus = EventBus(enabled=False)
        assert bus.publish("hw", "irq") is None
        assert len(bus) == 0

    def test_ring_buffer_bounds_memory(self):
        bus = EventBus(capacity=4)
        for i in range(10):
            bus.publish("rtos", "tick", index=i)
        assert len(bus) == 4 and bus.capacity == 4
        assert bus.dropped == 6
        assert [e.data["index"] for e in bus.events] == [6, 7, 8, 9]

    def test_mute_and_unmute(self):
        bus = EventBus()
        bus.mute("noise")
        assert bus.publish("rtos", "noise") is None
        assert bus.publish("rtos", "signal") is not None
        assert bus.muted_kinds() == ["noise"]
        bus.unmute("noise")
        assert bus.publish("rtos", "noise") is not None

    def test_keep_only_whitelist(self):
        bus = EventBus()
        bus.keep_only(["signal"])
        bus.publish("rtos", "noise")
        bus.publish("rtos", "signal")
        assert bus.kinds() == {"signal": 1}
        bus.keep_only(None)
        bus.publish("rtos", "noise")
        assert bus.count("noise") == 1

    def test_subscribers_see_live_events(self):
        bus = EventBus()
        seen = []
        callback = bus.subscribe(seen.append)
        bus.publish("hw", "irq", line=3)
        bus.unsubscribe(callback)
        bus.publish("hw", "irq", line=4)
        assert [e.data["line"] for e in seen] == [3]

    def test_queries(self):
        clock = FakeClock(0)
        bus = EventBus(clock=clock)
        for cycle in (5, 10, 15):
            clock.now = cycle
            bus.publish("rtos", "tick", at=cycle)
        assert [e.cycle for e in bus.between(5, 15)] == [5, 10]
        assert bus.last("tick").data["at"] == 15
        assert bus.last("absent") is None
        bus.clear()
        assert len(bus) == 0 and bus.dropped == 0

    def test_event_round_trips_through_dict(self):
        event = Event(9, "tc", "attest", task="app", data={"id": "ab"})
        clone = Event.from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone == event


class TestCounters:
    def test_registry_get_or_create_and_snapshot(self):
        registry = CounterRegistry()
        counter = registry.counter("loads")
        counter.add(3)
        assert registry.counter("loads") is counter
        assert registry.snapshot()["loads"] == {"value": 3}

    def test_register_rejects_duplicate_names(self):
        registry = CounterRegistry()
        registry.register(Counter("x"))
        with pytest.raises(ValueError):
            registry.register(Counter("x"))
        registry.register(Counter("x"), replace=True)


# -- a real run to export ----------------------------------------------------


def _traced_system(ms=3, **config):
    system = TyTAN(MachineConfig(**config))
    system.load_source(
        counter_task_source(period_ticks=1), "sensor", secure=True, priority=3
    )
    system.load_source(busy_loop_source(2_000), "cruncher", secure=False, priority=1)
    budget = int(ms * system.platform.config.hz / 1000)
    result = system.run(max_cycles=budget)
    return system, result


@pytest.fixture(scope="module")
def traced():
    return _traced_system()


class TestInstrumentation:
    def test_whole_stack_publishes(self, traced):
        system, _ = traced
        kinds = system.obs.kinds()
        assert kinds["secure-boot"] == 1  # trusted components
        assert kinds["slice-begin"] == kinds["slice-end"]  # scheduler
        assert "exception" in kinds  # hardware
        assert "task-measured" in kinds  # loader / RTM

    def test_accounting_totals(self, traced):
        system, _ = traced
        accounting = system.obs.accounting
        assert set(accounting.tasks()) >= {"sensor", "cruncher"}
        assert accounting.cycles_of("sensor") > 0
        assert accounting.slices_of("sensor") == len(
            [
                e
                for e in system.obs.of_kind("slice-end")
                if e.task == "sensor"
            ]
        )

    def test_fastpath_counters_registered(self, traced):
        system, _ = traced
        names = system.obs.counters.names()
        assert {"insn", "mpu-access", "mpu-transfer", "region"} <= set(names)

    def test_mpu_denial_event(self):
        system = TyTAN()
        from repro.errors import ProtectionFault

        with pytest.raises(ProtectionFault):
            system.platform.mpu.check("write", 0x10, 4, eip=0x400000)
        denial = system.obs.last("mpu-denial")
        assert denial.source == "hw"
        assert denial.data["access"] == "write" and denial.data["address"] == 0x10


class TestRunResult:
    def test_max_cycles_stop(self, traced):
        _, result = traced
        assert isinstance(result, RunResult)
        assert result.stop_reason == "max-cycles"
        assert result.retired > 0 and result.cycles > 0

    def test_idle_stop(self):
        system = TyTAN()
        result = system.run(max_cycles=100_000)
        assert result.stop_reason == "idle"
        assert result.retired == 0

    def test_until_stop(self):
        system = TyTAN()
        system.load_source(busy_loop_source(50_000), "spin", secure=False)
        result = system.run(until=lambda: system.clock.now > 1_000)
        assert result.stop_reason == "until"

    def test_deltas_accumulate_across_calls(self):
        system = TyTAN()
        system.load_source(busy_loop_source(50_000), "spin", secure=False)
        start = system.clock.now
        first = system.run(max_cycles=5_000)
        second = system.run(max_cycles=5_000)
        assert first.cycles > 0 and second.cycles > 0
        assert system.platform.cpu.retired == first.retired + second.retired
        assert system.clock.now - start == first.cycles + second.cycles


# -- exporters ----------------------------------------------------------------


class TestJsonl:
    def test_file_round_trip(self, traced, tmp_path):
        system, _ = traced
        events = list(system.obs.events)
        path = tmp_path / "events.jsonl"
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events

    def test_fp_round_trip(self):
        bus = EventBus(clock=FakeClock(7))
        bus.publish("tc", "attest", task="app", component="remote-attest")
        sink = io.StringIO()
        write_jsonl(bus.events, sink)
        assert read_jsonl(io.StringIO(sink.getvalue())) == list(bus.events)


class TestChromeTrace:
    def test_schema_sanity(self, traced):
        system, _ = traced
        trace = chrome_trace(system.obs.events, hz=system.platform.config.hz)
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        for entry in events:
            assert {"ph", "ts", "pid", "tid"} <= set(entry)
            assert entry["pid"] == 1
        json.dumps(trace)  # serialisable

    def test_duration_pairs_balance(self, traced):
        system, _ = traced
        events = chrome_trace(system.obs.events)["traceEvents"]
        depth = {}
        for entry in events:
            if entry["ph"] == "B":
                depth[entry["tid"]] = depth.get(entry["tid"], 0) + 1
            elif entry["ph"] == "E":
                depth[entry["tid"]] -= 1
                assert depth[entry["tid"]] >= 0
        assert all(value == 0 for value in depth.values())

    def test_one_track_per_task_and_component(self, traced):
        system, _ = traced
        events = chrome_trace(system.obs.events)["traceEvents"]
        tracks = {
            entry["args"]["name"]
            for entry in events
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        assert {"task:sensor", "task:cruncher", "tc:task-loader"} <= tracks

    def test_dangling_begin_is_closed(self):
        bus = EventBus(clock=FakeClock(100))
        bus.publish("rtos", "slice-begin", task="t")
        events = chrome_trace(bus.events)["traceEvents"]
        assert sum(1 for e in events if e["ph"] == "B") == 1
        assert sum(1 for e in events if e["ph"] == "E") == 1

    def test_write_chrome_trace(self, traced, tmp_path):
        system, _ = traced
        path = tmp_path / "trace.json"
        write_chrome_trace(system.obs.events, path)
        assert json.loads(path.read_text())["traceEvents"]


class TestSummary:
    def test_summary_mentions_tasks_and_counters(self, traced):
        system, _ = traced
        bus = system.obs
        text = summary_text(
            bus.events, accounting=bus.accounting, counters=bus.counters
        )
        assert "sensor" in text and "slice-begin" in text and "insn" in text


# -- the headline guarantee ---------------------------------------------------


class TestEquivalence:
    def test_enabled_vs_disabled_bit_identical(self):
        on, result_on = _traced_system()
        off, result_off = _traced_system(obs_enabled=False)
        assert len(off.obs) == 0
        assert (result_on.retired, result_on.cycles) == (
            result_off.retired,
            result_off.cycles,
        )
        assert on.clock.now == off.clock.now
        assert on.platform.cpu.regs.gpr == off.platform.cpu.regs.gpr
        assert on.platform.cpu.regs.eip == off.platform.cpu.regs.eip

    def test_capacity_config_respected(self):
        system, _ = _traced_system(obs_capacity=8)
        assert system.obs.capacity == 8 and len(system.obs) == 8


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_key_entry_points(self):
        assert repro.TyTAN is TyTAN
        assert repro.EventBus is EventBus
        assert repro.obs.Event is Event
        assert callable(repro.build_freertos_baseline)
        assert repro.Verifier is not None


# -- the CLI ------------------------------------------------------------------


class TestTraceCli:
    def test_demo_end_to_end(self, tmp_path):
        out = io.StringIO()
        trace_json = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = trace_cli.main(
            [
                "--demo",
                "--ms",
                "2",
                "--out",
                str(trace_json),
                "--jsonl",
                str(jsonl),
                "--summary",
            ],
            out=out,
        )
        assert code == 0
        trace = json.loads(trace_json.read_text())
        assert trace["traceEvents"]
        assert all(
            {"ph", "ts", "pid", "tid"} <= set(e) for e in trace["traceEvents"]
        )
        assert read_jsonl(jsonl)
        text = out.getvalue()
        assert "events captured" in text and "events by kind" in text

    def test_missing_image_reports_error(self, tmp_path, capsys):
        code = trace_cli.main(
            [str(tmp_path / "absent.img"), "--out", str(tmp_path / "t.json")]
        )
        assert code == 2
        assert "absent.img" in capsys.readouterr().err
