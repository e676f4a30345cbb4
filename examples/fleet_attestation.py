#!/usr/bin/env python3
"""Fleet attestation over a lossy network.

A manufacturer operates a fleet of TyTAN devices in the field and
wants to know, centrally, that every unit still runs the genuine agent
binary.  This example drives the typed `repro.fleet` API four ways:

* a clean-link round — every device attests on the first challenge;
* a lossy link (20% datagram loss) — the verifier tier retries with
  fresh nonces and exponential backoff until the whole fleet is
  attested anyway, and the obs bus shows the drops and retries;
* a fleet with one compromised member — the rogue device's reports
  carry a wrong measured identity, so it is quarantined with reason
  ``verification-rejected`` while the rest attest normally;
* a sharded, checkpointed round — 64 devices across 4 verifier
  shards, protocol state written to a JSONL store, then the same run
  resumed: every already-settled device is skipped.

Everything is simulated and seeded, so this script prints the same
numbers on every run.

Run with:  python examples/fleet_attestation.py
"""

import os
import tempfile

from repro import FabricProfile, Fleet, FleetConfig, ShardConfig, StoreConfig


def show(title, result):
    health = result["health"]
    print("\n%s" % title)
    print(
        "  %d/%d attested, %d quarantined, in %.1f ms simulated"
        % (
            health["attested"],
            health["total"],
            health["quarantined"],
            result["sim_elapsed_us"] / 1000,
        )
    )
    print(
        "  challenges %d, retries %d, timeouts %d, rejects %d"
        % (
            health["challenges"],
            health["retries"],
            health["timeouts"],
            health["rejects"],
        )
    )
    fabric = result["fabric"]
    print(
        "  fabric: %d sent, %d dropped, %d delivered"
        % (fabric["sent"], fabric["dropped"], fabric["delivered"])
    )
    for entry in health["quarantined_devices"]:
        print("  quarantined: device %d (%s)" % (entry["device"], entry["reason"]))
    latency = health["latency_us"]
    if latency:
        print(
            "  latency: p50 %dus, p99 %dus" % (latency["p50"], latency["p99"])
        )


def main():
    # 1. A clean link: one challenge per device suffices.  A Fleet is
    # built from typed configs; workers=0 steps devices in-process.
    result = Fleet(FleetConfig(devices=8, seed=1, workers=0)).run()
    show("Clean link, 8 devices", result)
    assert result.health["attested"] == 8
    assert result.health["retries"] == 0

    # 2. A lossy link: 20% of datagrams vanish.  Challenges (or the
    # responses) get lost, time out, and are reissued with fresh
    # nonces until everyone is in.
    result = Fleet(
        FleetConfig(devices=8, seed=1, workers=0),
        fabric=FabricProfile(loss=0.2),
    ).run()
    show("Lossy link (20% loss), 8 devices", result)
    assert result.health["attested"] == 8
    assert result.health["retries"] > 0
    # The protocol's retries are visible on the observability bus,
    # right next to the fabric's drops.
    print(
        "  obs: fleet-retry=%d net-drop=%d"
        % (
            result["events"].get("fleet-retry", 0),
            result["events"].get("net-drop", 0),
        )
    )

    # 3. One compromised device: device 5 runs a tampered agent
    # binary.  Its MACs are valid under its key, but the measured
    # identity is wrong, so the verifier rejects and quarantines it.
    result = Fleet(FleetConfig(devices=8, seed=1, workers=0, rogue=(5,))).run()
    show("One rogue member, 8 devices", result)
    assert result.health["attested"] == 7
    assert result.quarantined == [
        {"device": 5, "reason": "verification-rejected"}
    ]

    # 4. Scale shape: a sharded verifier tier with a JSONL checkpoint
    # store, then the same configuration resumed from that store.
    with tempfile.TemporaryDirectory(prefix="tytan-fleet-") as tmp:
        store_path = os.path.join(tmp, "run.jsonl")
        config = FleetConfig(devices=64, seed=2, workers=0)
        shards = ShardConfig(shards=4)
        fleet = Fleet(
            config,
            shards=shards,
            store=StoreConfig("jsonl", path=store_path),
        )
        result = fleet.run()
        fleet.store.close()
        show("Sharded tier (4 shards), 64 devices, checkpointed", result)
        assert result.health["attested"] == 64
        assert len(result.shard_health) == 4
        assert result.checkpoint_path == store_path

        resumed_fleet = Fleet(
            config,
            shards=shards,
            store=StoreConfig("jsonl", path=store_path, resume=True),
        )
        resumed = resumed_fleet.run()
        resumed_fleet.store.close()
        print(
            "\nResumed from %s: %d devices already settled, %d new challenges"
            % (store_path, resumed["resumed"], resumed.health["challenges"])
        )
        assert resumed["resumed"] == 64
        assert resumed.health["challenges"] == 0

    print("\nAll fleet scenarios behaved as expected.")


if __name__ == "__main__":
    main()
