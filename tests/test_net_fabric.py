"""Tests for the simulated network fabric (repro.net.fabric)."""

import pytest

from repro.errors import NetworkError
from repro.net.fabric import FabricProfile, NetworkFabric
from repro.obs.bus import EventBus


def make_fabric(seed=0, **profile_kwargs):
    fabric = NetworkFabric(FabricProfile(**profile_kwargs), seed=seed)
    a = fabric.attach("a")
    b = fabric.attach("b")
    return fabric, a, b


class TestTopology:
    def test_duplicate_endpoint_rejected(self):
        fabric, a, b = make_fabric()
        with pytest.raises(NetworkError):
            fabric.attach("a")

    def test_unknown_endpoints_rejected(self):
        fabric, a, b = make_fabric()
        with pytest.raises(NetworkError):
            fabric.send("a", "nope", b"x")
        with pytest.raises(NetworkError):
            fabric.send("nope", "a", b"x")

    def test_bad_profiles_rejected(self):
        with pytest.raises(NetworkError):
            FabricProfile(loss=1.5)
        with pytest.raises(NetworkError):
            FabricProfile(latency_us=-1)

    def test_link_override(self):
        fabric, a, b = make_fabric(loss=0.0)
        lossy = FabricProfile(loss=1.0)
        fabric.set_link("a", "b", lossy)
        assert fabric.profile_for("a", "b") is lossy
        assert fabric.profile_for("b", "a") is fabric.default_profile


class TestDelivery:
    def test_latency_and_delivery(self):
        fabric, a, b = make_fabric(latency_us=100, jitter_us=0)
        assert a.send("b", b"hello")
        assert b.recv() is None
        fabric.advance(99)
        assert b.recv() is None
        fabric.advance(1)
        assert b.recv() == ("a", b"hello")
        assert fabric.stats["delivered"] == 1

    def test_fifo_order_without_faults(self):
        fabric, a, b = make_fabric(latency_us=50, jitter_us=0)
        for index in range(5):
            a.send("b", bytes([index]))
        fabric.advance(50)
        got = [b.recv()[1][0] for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]
        assert b.recv() is None

    def test_scheduled_send(self):
        fabric, a, b = make_fabric(latency_us=10, jitter_us=0)
        a.send("b", b"later", at=100)
        fabric.advance(50)
        assert b.pending() == 0
        fabric.advance_to(110)
        assert b.recv() == ("a", b"later")

    def test_total_loss(self):
        fabric, a, b = make_fabric(loss=1.0)
        assert a.send("b", b"x") is False
        fabric.advance(10_000)
        assert b.pending() == 0
        assert fabric.stats["dropped"] == 1

    def test_duplication(self):
        fabric, a, b = make_fabric(latency_us=10, jitter_us=0, duplicate=1.0)
        a.send("b", b"twice")
        fabric.advance(100)
        assert b.pending() == 2
        assert fabric.stats["duplicated"] == 1

    def test_reordering_overtakes(self):
        fabric, a, b = make_fabric(latency_us=100, jitter_us=0, reorder=1.0)
        fabric.set_link("a", "b", FabricProfile(latency_us=100, reorder=1.0))
        a.send("b", b"slow")
        fabric.set_link("a", "b", FabricProfile(latency_us=100))
        a.send("b", b"fast")
        fabric.advance(1_000)
        first = b.recv()[1]
        second = b.recv()[1]
        assert first == b"fast" and second == b"slow"
        assert fabric.stats["reordered"] == 1


class TestDeterminism:
    def run_once(self, seed):
        fabric, a, b = make_fabric(
            seed=seed, latency_us=100, jitter_us=40, loss=0.3, duplicate=0.1
        )
        for index in range(200):
            a.send("b", bytes([index & 0xFF]))
        fabric.advance(10_000)
        log = []
        while True:
            item = b.recv()
            if item is None:
                break
            log.append(item[1])
        return log, dict(fabric.stats)

    def test_same_seed_bit_identical(self):
        assert self.run_once(42) == self.run_once(42)

    def test_different_seed_differs(self):
        assert self.run_once(1) != self.run_once(2)


class TestObsEvents:
    def test_send_drop_deliver_events(self):
        fabric = NetworkFabric(FabricProfile(latency_us=10, loss=0.5), seed=3)
        bus = EventBus(clock=fabric)
        fabric.obs = bus
        a = fabric.attach("a")
        fabric.attach("b")
        for _ in range(50):
            a.send("b", b"payload")
        fabric.advance(1_000)
        kinds = bus.kinds()
        assert kinds["net-send"] == 50
        assert kinds.get("net-drop", 0) == fabric.stats["dropped"] > 0
        assert kinds.get("net-deliver", 0) == fabric.stats["delivered"] > 0
        assert fabric.stats["dropped"] + fabric.stats["delivered"] == 50

    def test_deliver_events_stamped_at_delivery_time(self):
        fabric = NetworkFabric(FabricProfile(latency_us=123, jitter_us=0), seed=0)
        bus = EventBus(clock=fabric)
        fabric.obs = bus
        a = fabric.attach("a")
        fabric.attach("b")
        a.send("b", b"x")
        fabric.advance(10_000)
        deliver = bus.of_kind("net-deliver")[0]
        assert deliver.cycle == 123
