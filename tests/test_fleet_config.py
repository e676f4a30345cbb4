"""Typed fleet configs, the attestation store, and fabric construction."""

import json
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig, ShardConfig, StoreConfig
from repro.fleet.store import JsonlStore, MemoryStore
from repro.net.fabric import FabricProfile, NetworkFabric


class TestFleetConfig:
    def test_defaults(self):
        config = FleetConfig()
        assert config.devices == 8
        assert config.boot_mode == "snapshot"
        assert config.workers == 4
        assert config.to_dict()["rogue"] == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(devices=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(boot_mode="warm")
        with pytest.raises(ConfigurationError):
            FleetConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            FleetConfig(workers=1)
        with pytest.raises(ConfigurationError):
            FleetConfig(max_attempts=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(timeout_us=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(devices=4, rogue=(9,))

    def test_to_dict_round_trips_through_json(self):
        config = FleetConfig(devices=12, seed=3, rogue=(1, 5), provider=b"\x01")
        echoed = json.loads(json.dumps(config.to_dict()))
        assert echoed["devices"] == 12
        assert echoed["rogue"] == [1, 5]
        assert echoed["provider"] == "01"


class TestShardAndStoreConfig:
    def test_shard_validation(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(0)
        with pytest.raises(ConfigurationError):
            ShardConfig(2, vnodes=0)
        assert ShardConfig(4).to_dict()["shards"] == 4

    def test_store_validation(self):
        with pytest.raises(ConfigurationError):
            StoreConfig("redis")
        with pytest.raises(ConfigurationError):
            StoreConfig("jsonl")  # path required

    def test_build_memory(self):
        store = StoreConfig("memory").build()
        assert isinstance(store, MemoryStore)
        assert store.path is None

    def test_build_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = StoreConfig("jsonl", path=str(path), resume=False).build()
        assert isinstance(store, JsonlStore)
        assert store.resume is False
        store.close()


class TestJsonlStore:
    def test_records_round_trip_sorted_and_compact(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(str(path))
        store.begin_epoch(0, seed=7, devices=2, shards=1)
        store.note_attested(450, 0, 0, 1, 450)
        store.checkpoint(500, attested=1, quarantined=0)
        store.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "epoch",
            "attested",
            "checkpoint",
        ]
        # Deterministic serialisation: keys sorted, single line per record.
        assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True)

    def test_fresh_run_truncates_resume_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first = JsonlStore(str(path))
        first.begin_epoch(0, seed=1, devices=1, shards=1)
        first.close()
        resumed = JsonlStore(str(path), resume=True)
        resumed.note_attested(9, 0, 0, 1, 9)
        resumed.close()
        assert len(path.read_text().splitlines()) == 2
        truncated = JsonlStore(str(path), resume=False)
        truncated.close()
        assert path.read_text() == ""

    def test_settled_scopes_to_newest_matching_epoch(self, tmp_path):
        store = JsonlStore(str(tmp_path / "log.jsonl"))
        store.begin_epoch(0, seed=1, devices=4, shards=1)
        store.note_attested(10, 0, 0, 1, 10)
        store.note_quarantined(11, 1, 0, "identity mismatch")
        store.begin_epoch(100, seed=2, devices=4, shards=1)  # other fleet
        store.note_attested(110, 2, 0, 1, 10)
        assert store.settled(1) == {
            0: ("attested", None),
            1: ("quarantined", "identity mismatch"),
        }
        assert store.settled(2) == {2: ("attested", None)}
        assert store.settled(99) == {}
        store.close()

    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(str(path))
        store.begin_epoch(0, seed=3, devices=1, shards=1)
        store.note_attested(5, 0, 0, 1, 5)
        store.flush()
        with open(path, "a") as handle:
            handle.write('{"kind": "attested", "device"')  # killed mid-write
        assert [r["kind"] for r in store.records()] == ["epoch", "attested"]
        assert store.settled(3) == {0: ("attested", None)}
        store.close()


class TestFabricShims:
    def test_profile_keyword_is_the_new_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fabric = NetworkFabric(FabricProfile(latency_us=100), seed=1)
        assert fabric.default_profile.latency_us == 100

    def test_no_profile_defaults_cleanly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fabric = NetworkFabric(seed=0)
        assert fabric.default_profile is not None
