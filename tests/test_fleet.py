"""Tests for the fleet attestation service (repro.fleet + the NIC)."""

import io
import json
import struct

import pytest

from repro.core.system import TyTAN
from repro.crypto.kdf import derive_key
from repro.crypto.sha1 import SHA1
from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig, ShardConfig
from repro.fleet.device import (
    FleetDevice,
    device_platform_key,
    expected_fleet_identity,
)
from repro.fleet.orchestrator import Fleet
from repro.fleet.service import VerifierService
from repro.fleet.store import MemoryStore
from repro.hw.nic import NetworkInterface
from repro.hw.platform import MachineConfig
from repro.net.fabric import FabricProfile
from repro.net.wire import Challenge, Response, decode_message
from repro.tools import fleet as fleet_cli


class TestNicMmio:
    """The NIC's register file, driven through the machine's memory bus."""

    def setup_method(self):
        self.machine = TyTAN(MachineConfig(obs_enabled=False))
        self.nic = self.machine.platform.attach_nic()
        self.base = self.machine.platform.nic_base
        self.memory = self.machine.kernel.memory

    def read(self, offset):
        return self.memory.read_u32(self.base + offset)

    def write(self, offset, value):
        self.memory.write_u32(self.base + offset, value)

    def test_rx_registers_stream_a_frame(self):
        assert self.read(NetworkInterface.REG_RX_COUNT) == 0
        self.nic.deliver(b"abcdef")  # 6 bytes: one full word + 2
        assert self.read(NetworkInterface.REG_RX_COUNT) == 1
        assert self.read(NetworkInterface.REG_RX_LEN) == 6
        first = self.read(NetworkInterface.REG_RX_DATA)
        assert first.to_bytes(4, "little") == b"abcd"
        second = self.read(NetworkInterface.REG_RX_DATA)
        assert second.to_bytes(4, "little") == b"ef\x00\x00"
        # Reading past the end popped the frame.
        assert self.read(NetworkInterface.REG_RX_COUNT) == 0
        assert self.read(NetworkInterface.REG_RX_LEN) == 0

    def test_tx_registers_stage_and_commit(self):
        self.write(
            NetworkInterface.REG_TX_DATA,
            int.from_bytes(b"wxyz", "little"),
        )
        self.write(
            NetworkInterface.REG_TX_DATA,
            int.from_bytes(b"12\x00\x00", "little"),
        )
        self.write(NetworkInterface.REG_TX_COMMIT, 6)
        assert self.read(NetworkInterface.REG_TX_COUNT) == 1
        assert self.nic.pop_outgoing() == b"wxyz12"
        assert self.nic.pop_outgoing() is None

    def test_rx_overflow_drops_and_counts(self):
        for index in range(NetworkInterface.RX_CAPACITY):
            assert self.nic.deliver(bytes([index & 0xFF]))
        assert self.nic.deliver(b"overflow") is False
        assert self.nic.rx_overflow == 1
        assert self.nic.rx_delivered == NetworkInterface.RX_CAPACITY

    def test_second_nic_rejected(self):
        with pytest.raises(ConfigurationError):
            self.machine.platform.attach_nic()


class TestFleetDevice:
    def test_device_answers_its_challenge(self):
        device = FleetDevice(3, fleet_seed=5)
        challenge = Challenge(3, 0, b"\x01" * 8)
        response_blob, spent = device.handle_frame(challenge.to_bytes())
        assert spent > 0  # machine cycles were charged
        message = decode_message(response_blob)
        assert isinstance(message, Response)
        assert (message.device_id, message.seq) == (3, 0)
        assert message.report.nonce == b"\x01" * 8
        assert message.report.identity == expected_fleet_identity()
        assert device.handled == 1

    def test_device_drops_misaddressed_and_malformed(self):
        device = FleetDevice(3, fleet_seed=5)
        blob, _ = device.handle_frame(Challenge(4, 0, b"n").to_bytes())
        assert blob is None and device.misaddressed == 1
        blob, _ = device.handle_frame(b"\xff garbage")
        assert blob is None and device.malformed == 1

    def test_rogue_device_reports_wrong_identity(self):
        rogue = FleetDevice(0, fleet_seed=5, rogue=True)
        blob, _ = rogue.handle_frame(Challenge(0, 0, b"n").to_bytes())
        message = decode_message(blob)
        assert message.report.identity != expected_fleet_identity()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_platform_key_derivation_is_pinned(self, seed):
        # The fleet master secret is computed once per seed; every
        # device key must still be KDF(SHA1(b"tytan-fleet-<seed>"), id).
        master = SHA1(b"tytan-fleet-%d" % seed).digest()
        for device_id in (0, 1, 1023):
            expected = derive_key(master, b"device", struct.pack("<I", device_id))
            assert device_platform_key(seed, device_id) == expected


class TestVerifierService:
    def make_service(self, device_ids=(0, 1), timeout_us=50_000, **kwargs):
        registry = {i: device_platform_key(0, i) for i in device_ids}
        config = FleetConfig(devices=max(device_ids) + 1, **kwargs)
        return VerifierService(
            registry, expected_fleet_identity(), config, timeout_us=timeout_us
        )

    def respond(self, device_id, frame, fleet_seed=0, rogue=False):
        device = FleetDevice(device_id, fleet_seed=fleet_seed, rogue=rogue)
        blob, _ = device.handle_frame(frame)
        return blob

    def test_happy_path_attests(self):
        service = self.make_service((0,))
        [(device_id, frame)] = service.poll(now=0)
        assert service.poll(now=1) == []  # challenge outstanding
        blob = self.respond(device_id, frame)
        assert service.handle(device_id, blob, now=400) == "attested"
        assert service.done
        report = service.report()
        assert report["attested"] == 1
        assert report["latency_us"]["p50"] == 400

    def test_timeout_backoff_and_retry(self):
        service = self.make_service((0,), timeout_us=1_000, backoff_us=500)
        [(_, first)] = service.poll(now=0)
        # Expiry flips the device back to pending with backoff.
        assert service.poll(now=1_000) == []
        assert service.timeouts == 1
        assert service.next_wakeup() == 1_500
        [(_, second)] = service.poll(now=1_500)
        assert second != first  # fresh nonce, bumped seq
        assert service.retries == 1
        # The late answer to the first challenge is stale now.
        blob = self.respond(0, first)
        assert service.handle(0, blob, now=1_600) == "stale"
        blob = self.respond(0, second)
        assert service.handle(0, blob, now=1_700) == "attested"

    def test_retries_exhausted_quarantines(self):
        service = self.make_service(
            (0,), timeout_us=100, max_attempts=3, backoff_us=100
        )
        now = 0
        challenges = 0
        for _ in range(20):  # safety bound; quarantine ends the loop
            challenges += len(service.poll(now))
            if service.done:
                break
            now = service.next_wakeup() + 1
        assert challenges == 3
        report = service.report()
        assert report["quarantined"] == 1
        assert report["quarantined_devices"][0]["reason"] == "retries-exhausted"
        assert service.done

    def test_duplicate_response_is_stale(self):
        service = self.make_service((0,))
        [(_, frame)] = service.poll(now=0)
        blob = self.respond(0, frame)
        assert service.handle(0, blob, now=100) == "attested"
        assert service.handle(0, blob, now=101) == "stale"

    def test_rogue_reports_rejected_then_quarantined(self):
        service = self.make_service((0,), max_rejects=2, backoff_us=10)
        [(_, frame)] = service.poll(now=0)
        blob = self.respond(0, frame, rogue=True)
        assert service.handle(0, blob, now=50) == "rejected"
        [(_, frame)] = service.poll(now=100)
        blob = self.respond(0, frame, rogue=True)
        assert service.handle(0, blob, now=150) == "rejected"
        report = service.report()
        assert report["quarantined_devices"] == [
            {"device": 0, "reason": "verification-rejected"}
        ]

    def test_malformed_and_unknown(self):
        service = self.make_service((0,))
        service.poll(now=0)
        assert service.handle(0, b"junk", now=1) == "malformed"
        assert service.handle(99, b"junk", now=1) == "unknown"

    def test_timeout_retires_nonce_on_tick(self):
        # Regression: pre-1.4 the nonce of a timed-out challenge stayed
        # in the verifier's issued set forever (expiry was only checked
        # when a response happened to arrive), so an unresponsive device
        # leaked one nonce per retry - and a straggler response to an
        # expired challenge could still verify.
        service = self.make_service((0,), timeout_us=1_000, backoff_us=500)
        [(_, first)] = service.poll(now=0)
        assert service.outstanding_nonces() == 1
        now = 0
        for _ in range(4):  # several timeout/retry cycles, never answered
            now = service.next_wakeup()
            service.poll(now)
        assert service.timeouts >= 2
        # Tick-time eviction keeps the issued set bounded by AWAITING.
        assert service.outstanding_nonces() <= 1
        # The straggler response to the first (expired) challenge can
        # never verify: its nonce was moved to the consumed set.
        device = FleetDevice(0, fleet_seed=0)
        blob, _ = device.handle_frame(first)
        assert service.handle(0, blob, now=now + 1) == "stale"
        assert service.report()["attested"] == 0

    def test_unset_timeout_rejected(self):
        registry = {0: device_platform_key(0, 0)}
        with pytest.raises(ConfigurationError):
            VerifierService(registry, expected_fleet_identity(), FleetConfig(devices=1))
        service = VerifierService(
            registry, expected_fleet_identity(), FleetConfig(devices=1, timeout_us=2_000)
        )
        assert service.timeout_us == 2_000

    def test_config_plus_legacy_knobs_rejected(self):
        registry = {0: device_platform_key(0, 0)}
        with pytest.raises(TypeError):
            VerifierService(
                registry,
                expected_fleet_identity(),
                FleetConfig(devices=1),
                max_attempts=5,
            )


def make_fleet(devices, *, seed=0, loss=0.0, workers=0, rogue=(), shards=1, **cfg):
    """A Fleet through the typed config path (jitterful default link)."""
    return Fleet(
        FleetConfig(devices=devices, seed=seed, workers=workers, rogue=rogue, **cfg),
        shards=ShardConfig(shards=shards),
        fabric=FabricProfile(latency_us=200, jitter_us=50, loss=loss),
    )


class TestFleetRuns:
    def test_serial_clean_link_all_attest(self):
        fleet = make_fleet(4, seed=1)
        result = fleet.run()
        assert fleet.healthy(result)
        assert result["schema"] == 3
        assert result["health"]["attested"] == 4
        assert result["health"]["retries"] == 0
        assert result["events"]["fleet-attested"] == 4
        assert result["fabric"]["dropped"] == 0
        assert "reports per simulated second" in repr(result)

    def test_lossy_link_retries_and_recovers(self):
        fleet = make_fleet(6, seed=3, loss=0.25)
        result = fleet.run()
        assert fleet.healthy(result)
        assert result["health"]["attested"] == 6
        # The retries the protocol performed are visible in the obs
        # stream alongside the fabric's drops.
        assert result["health"]["retries"] > 0
        assert result["events"]["fleet-retry"] == result["health"]["retries"]
        assert result["events"]["net-drop"] == result["fabric"]["dropped"] > 0

    def test_rogue_device_quarantined_others_attest(self):
        fleet = make_fleet(4, seed=2, rogue=(2,))
        result = fleet.run()
        assert fleet.healthy(result)
        assert result["health"]["attested"] == 3
        assert result["health"]["quarantined_devices"] == [
            {"device": 2, "reason": "verification-rejected"}
        ]
        assert result.quarantined[0]["device"] == 2

    def test_serial_runs_are_deterministic(self):
        first = make_fleet(5, seed=9, loss=0.2).run()
        second = make_fleet(5, seed=9, loss=0.2).run()
        assert first.to_json() == second.to_json()

    def test_sharded_run_matches_outcomes(self):
        plain = make_fleet(12, seed=6, rogue=(7,)).run()
        sharded = make_fleet(12, seed=6, rogue=(7,), shards=4).run()
        assert sharded["health"]["attested"] == plain["health"]["attested"] == 11
        assert sharded["health"]["quarantined"] == 1
        assert len(sharded["health"]["shards"]) == 4
        assert sum(s["total"] for s in sharded["health"]["shards"]) == 12

    def test_result_is_identical_for_any_workers(self):
        # Every device computes on its own simulated core, so how many
        # host processes step the machines never reaches the result.
        for cfa in (False, True):
            texts = {
                workers: make_fleet(
                    12, seed=5, loss=0.2, workers=workers, rogue=(5,), shards=3, cfa=cfa
                )
                .run()
                .to_json()
                for workers in (0, 2, 4)
            }
            assert texts[0] == texts[2] == texts[4], "cfa=%s" % cfa
            result = json.loads(texts[0])
            assert result["health"]["retries"] > 0
            assert result["health"]["quarantined_devices"] == [
                {"device": 5, "reason": "verification-rejected"}
            ]

    def test_default_timeout_does_not_grow_with_the_fleet(self):
        # One device's report, not a fleet round, sizes the expiry.
        assert make_fleet(4).timeout_us == make_fleet(64).timeout_us

    def test_cold_and_snapshot_boot_bit_identical(self):
        snap = make_fleet(5, seed=11, loss=0.1, boot_mode="snapshot").run().to_dict()
        cold = make_fleet(5, seed=11, loss=0.1, boot_mode="cold").run().to_dict()
        # The config echo names the boot mode; every *observable* output
        # (health, fabric traffic, obs events, compute cycles) is
        # byte-identical between the two boot strategies.
        assert snap["fleet"].pop("boot_mode") == "snapshot"
        assert cold["fleet"].pop("boot_mode") == "cold"
        assert json.dumps(snap, sort_keys=True) == json.dumps(cold, sort_keys=True)

    def test_rogue_id_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fleet(2, rogue=(5,))

    def test_new_path_rejects_legacy_kwargs(self):
        with pytest.raises(TypeError):
            Fleet(FleetConfig(devices=2), loss=0.5)

    def test_store_must_be_a_store_config(self):
        with pytest.raises(TypeError):
            Fleet(FleetConfig(devices=2), store=MemoryStore())


class TestFleetCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = fleet_cli.main(list(argv), out=out)
        return code, out.getvalue()

    def test_bad_config_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli("--devices", "2", "--workers", "1")
        assert exit_info.value.code == 2

    def test_json_output_deterministic_and_healthy(self):
        args = ("--devices", "4", "--loss", "0.1", "--seed", "7", "--serial", "--json")
        code_a, text_a = self.run_cli(*args)
        code_b, text_b = self.run_cli(*args)
        assert code_a == code_b == 0
        assert text_a == text_b
        result = json.loads(text_a)
        assert result["schema"] == 3
        assert result["health"]["attested"] == 4

    def test_sharded_cli_with_store(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        code, text = self.run_cli(
            "--devices", "8", "--shards", "4", "--serial", "--seed", "3",
            "--store", path, "--json",
        )
        assert code == 0
        result = json.loads(text)
        assert result["shards"]["shards"] == 4
        assert result["store"]["path"] == path
        assert result["store"]["records"] > 0
        with open(path) as handle:
            kinds = [json.loads(line)["kind"] for line in handle if line.strip()]
        assert kinds[0] == "epoch" and kinds[-1] == "checkpoint"
        assert kinds.count("attested") == 8

    def test_cold_boot_flag_matches_snapshot(self):
        args = ("--devices", "3", "--serial", "--seed", "2", "--json")
        _, snap_text = self.run_cli(*args, "--boot-mode", "snapshot")
        _, cold_text = self.run_cli(*args, "--boot-mode", "cold")
        snap, cold = json.loads(snap_text), json.loads(cold_text)
        assert snap["fleet"].pop("boot_mode") == "snapshot"
        assert cold["fleet"].pop("boot_mode") == "cold"
        assert snap == cold

    def test_human_summary_mentions_quarantine(self):
        code, text = self.run_cli(
            "--devices", "3", "--seed", "1", "--serial", "--rogue", "1"
        )
        assert code == 0  # quarantining the rogue is a healthy outcome
        assert "quarantined: device 1 (verification-rejected)" in text
        assert text.startswith("fleet: 3 devices, snapshot boot, seed 1\n")
        assert "reports per simulated second" in text
