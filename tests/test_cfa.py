"""Tests for control-flow attestation: recorder, evidence record,
path verifier, the CFA engine on a booted system, the wire frames, and
the fleet hijack scenario (static attestation passes, path evidence
quarantines)."""

import pytest

from repro import cycles
from repro.analysis.edges import EdgeModel
from repro.cfa import (
    CfaCore,
    CfaEvidence,
    PathRecorder,
    PathVerifier,
    VERDICT_CLEAN,
    VERDICT_HIJACKED,
    VERDICT_INCONSISTENT,
    VERDICT_UNKNOWN,
    evidence_mac_ok,
    segment_digest,
)
from repro.cfa.recorder import ROOT_DIGEST
from repro.core.identity import identity_of_image
from repro.crypto.hmac import hmac_sha1
from repro.crypto.kdf import derive_key
from repro.errors import AttestationError, ConfigurationError
from repro.fleet.config import FleetConfig, ShardConfig
from repro.fleet.device import (
    FleetDevice,
    expected_fleet_identity,
    fleet_task_image,
)
from repro.fleet.orchestrator import Fleet
from repro.hw.clock import CycleClock
from repro.hw.platform import MachineConfig, Platform
from repro.image.linker import link
from repro.isa.assembler import assemble
from repro.net.fabric import FabricProfile
from repro.rtos.task import TaskState
from repro.net.wire import CfaChallenge, CfaResponse, Challenge, Response, decode_message

#: A task with a function call, a bounded loop, and a clean exit - the
#: shape every CFA scenario here records and verifies.
LOOPY_TASK = """
.section .text
.global start
start:
    movi ecx, 3
loop:
    call work
    subi ecx, 1
    cmpi ecx, 0
    jnz loop
    movi eax, 2
    int 0x20
work:
    movi ebx, result
    ld eax, [ebx]
    addi eax, 5
    st [ebx], eax
    ret
.section .data
result:
    .word 0
"""

#: A compute-bound task long enough to be slice-preempted.
SPIN_TASK = """
.section .text
.global start
start:
    movi ecx, 4000
spin:
    addi eax, 1
    xori eax, 9
    subi ecx, 1
    cmpi ecx, 0
    jnz spin
    movi eax, 2
    int 0x20
"""


class TestPathRecorder:
    def test_record_run_equals_repeated_record(self):
        a = PathRecorder(segment_runs=4)
        b = PathRecorder(segment_runs=4)
        for src, dst, count in [(0, 8, 5), (8, 0, 1), (0, 8, 3), (12, 4, 2)]:
            a.record_run(src, dst, count)
            for _ in range(count):
                b.record(src, dst)
        assert a.path_digest() == b.path_digest()
        assert (a.edges, a.sealed, a.dropped) == (b.edges, b.sealed, b.dropped)
        assert a.open_runs() == b.open_runs()

    def test_consecutive_repeats_fold_into_one_run(self):
        recorder = PathRecorder()
        for _ in range(100):
            recorder.record(4, 0)
        assert recorder.edges == 100
        assert recorder.open_runs() == [(4, 0, 100)]

    def test_segment_seals_after_segment_runs_closed_runs(self):
        recorder = PathRecorder(segment_runs=2)
        recorder.record(0, 4)
        recorder.record(4, 8)
        recorder.record(8, 0)  # closes the second run -> auto-seal
        assert recorder.sealed == 1
        (segment,) = recorder.segments
        assert segment.prev == ROOT_DIGEST
        assert segment.digest == segment_digest(ROOT_DIGEST, segment.runs)
        assert recorder.open_runs() == [(8, 0, 1)]

    def test_chain_links_across_seals(self):
        recorder = PathRecorder(segment_runs=1)
        for src, dst in [(0, 4), (4, 8), (8, 12), (12, 0)]:
            recorder.record(src, dst)
        recorder.seal()
        prev = ROOT_DIGEST
        for segment in recorder.segments:
            assert segment.prev == prev
            assert segment.digest == segment_digest(prev, segment.runs)
            prev = segment.digest
        assert recorder.path_digest() == prev

    def test_eviction_is_counted_and_window_still_chains(self):
        recorder = PathRecorder(segment_runs=1, max_segments=2)
        for i in range(7):
            recorder.record(i * 4, (i + 1) * 4)
        assert recorder.sealed == 6
        assert len(recorder.segments) == 2
        assert recorder.dropped == 4
        first = recorder.segments[0]
        assert first.index == 4
        prev = first.prev  # pre-eviction digest carried for recompute
        for segment in recorder.segments:
            assert segment.prev == prev
            assert segment_digest(prev, segment.runs) == segment.digest
            prev = segment.digest

    def test_explicit_seal_at_preemption_boundary(self):
        """A preemption-point seal closes the open run mid-segment and
        the next edge starts a fresh segment chained onto it."""
        recorder = PathRecorder(segment_runs=64)
        recorder.record(0, 4)
        recorder.record(4, 0)
        sealed = recorder.seal()
        assert sealed is not None and sealed.runs == ((0, 4, 1), (4, 0, 1))
        assert recorder.open_runs() == []
        recorder.record(8, 12)
        recorder.seal()
        assert recorder.sealed == 2
        assert recorder.segments[1].prev == recorder.segments[0].digest

    def test_empty_seal_is_a_no_op(self):
        recorder = PathRecorder()
        assert recorder.seal() is None
        assert recorder.sealed == 0
        assert recorder.path_digest() == ROOT_DIGEST

    def test_snapshot_does_not_mutate(self):
        recorder = PathRecorder(segment_runs=4)
        recorder.record(0, 4)
        recorder.record(4, 8)
        before = (recorder.edges, recorder.sealed, recorder.open_runs())
        one = recorder.snapshot_segments()
        two = recorder.snapshot_segments()
        assert [(s.index, s.runs, s.digest) for s in one] == [
            (s.index, s.runs, s.digest) for s in two
        ]
        assert (recorder.edges, recorder.sealed, recorder.open_runs()) == before


class TestCfaCore:
    def test_records_only_edges_fully_inside_a_region(self):
        core = CfaCore(CycleClock())
        recorder = PathRecorder()
        core.attach_region(0x1000, 0x2000, recorder)
        core.on_transfer(0x1004, 0x1010)  # inside: recorded, relative
        core.on_transfer(0x1004, 0x3000)  # destination escapes: skipped
        core.on_transfer(0x3000, 0x1004)  # source outside: skipped
        assert recorder.open_runs() == [(0x4, 0x10, 1)]
        assert recorder.edges == 1
        assert core.covers(0x1004, 0x1010)
        assert not core.covers(0x1004, 0x3000)

    def test_interpreter_path_charges_trace_path_does_not(self):
        clock = CycleClock()
        core = CfaCore(clock)
        core.attach_region(0, 0x100, PathRecorder())
        start = clock.now
        core.on_transfer(0, 4)
        assert clock.now - start == cycles.CFA_EDGE_CYCLES
        mark = clock.now
        core.record_edge(4, 8)
        core.record_edge_run(8, 0, 10)
        assert clock.now == mark
        assert core.recorded == 2
        assert core.bulk_recorded == 10

    def test_generation_bumps_on_every_enrolment_change(self):
        core = CfaCore(CycleClock())
        start = core.generation
        core.attach_region(0, 0x100, PathRecorder())
        assert core.generation == start + 1
        core.detach_region(0)
        assert core.generation == start + 2
        assert not core.covers(0, 4)


def _mac_evidence(recorder, identity=b"\x11" * 20, key=b"k", nonce=b"n"):
    evidence = CfaEvidence.from_recorder(identity, recorder)
    evidence.mac = hmac_sha1(
        key, evidence.identity + nonce + evidence.body_bytes()
    )
    return evidence


class TestEvidenceRecord:
    def make(self):
        recorder = PathRecorder(segment_runs=2)
        for src, dst in [(0, 4), (4, 8), (8, 0), (0, 4)]:
            recorder.record(src, dst)
        return _mac_evidence(recorder)

    def test_wire_roundtrip(self):
        evidence = self.make()
        back = CfaEvidence.from_bytes(evidence.to_bytes())
        assert back.identity == evidence.identity
        assert back.sealed_total == evidence.sealed_total
        assert back.dropped == evidence.dropped
        assert back.edges == evidence.edges
        assert back.first_prev == evidence.first_prev
        assert back.segments == [
            (index, tuple(runs), bytes(digest))
            for index, runs, digest in evidence.segments
        ]
        assert back.mac == evidence.mac

    def test_trailing_bytes_rejected(self):
        with pytest.raises(AttestationError):
            CfaEvidence.from_bytes(self.make().to_bytes() + b"\x00")

    def test_truncation_rejected(self):
        blob = self.make().to_bytes()
        with pytest.raises(AttestationError):
            CfaEvidence.from_bytes(blob[:-1])

    def test_mac_binds_key_nonce_and_body(self):
        recorder = PathRecorder()
        recorder.record(0, 4)
        evidence = _mac_evidence(recorder, key=b"k", nonce=b"n")
        assert evidence_mac_ok(b"k", evidence, b"n")
        assert not evidence_mac_ok(b"k", evidence, b"m")
        assert not evidence_mac_ok(b"x", evidence, b"n")
        evidence.edges += 1  # body tamper
        assert not evidence_mac_ok(b"k", evidence, b"n")


def _loopy_image():
    return link(assemble(LOOPY_TASK, "loopy"), name="loopy", stack_size=256)


def _craft_evidence(identity, runs):
    """A digest-consistent single-segment evidence record."""
    runs = tuple(runs)
    digest = segment_digest(ROOT_DIGEST, runs)
    edges = sum(count for _, _, count in runs)
    return CfaEvidence(identity, 1, 0, edges, ROOT_DIGEST, [(0, runs, digest)])


class TestPathVerifier:
    def setup_method(self):
        self.image = _loopy_image()
        self.identity = identity_of_image(self.image)
        self.model = EdgeModel.from_image(self.image)
        self.verifier = PathVerifier()
        self.verifier.register(self.identity, self.image)
        # The loop back-edge: the one conditional branch targeting an
        # earlier offset.
        self.back_edge = next(
            (src, dst)
            for src, targets in self.model.branch_targets.items()
            for dst in targets
            if dst < src
        )

    def test_unknown_identity(self):
        verdict = self.verifier.verify(
            _craft_evidence(b"\xEE" * 20, [self.back_edge + (1,)])
        )
        assert verdict.verdict == VERDICT_UNKNOWN
        assert not verdict.ok

    def test_clean_cfg_edges(self):
        src, dst = self.back_edge
        verdict = self.verifier.verify(
            _craft_evidence(self.identity, [(src, dst, 2)])
        )
        assert verdict.verdict == VERDICT_CLEAN
        assert verdict.ok
        assert verdict.edges == 2

    def test_hijacked_return_edge(self):
        ret = next(iter(self.model.ret_offsets))
        gadget = next(
            offset
            for offset in sorted(self.model.instruction_starts)
            if offset not in self.model.return_sites
        )
        verdict = self.verifier.verify(
            _craft_evidence(self.identity, [(ret, gadget, 1)])
        )
        assert verdict.verdict == VERDICT_HIJACKED
        assert "return to a non-call-site" in verdict.reason

    def test_inconsistent_digest(self):
        src, dst = self.back_edge
        evidence = _craft_evidence(self.identity, [(src, dst, 2)])
        index, runs, digest = evidence.segments[0]
        evidence.segments[0] = (index, runs, b"\x00" * len(digest))
        verdict = self.verifier.verify(evidence)
        assert verdict.verdict == VERDICT_INCONSISTENT

    def test_inconsistent_segment_gap(self):
        src, dst = self.back_edge
        runs = ((src, dst, 1),)
        first = segment_digest(ROOT_DIGEST, runs)
        third = segment_digest(first, runs)
        evidence = CfaEvidence(
            self.identity, 3, 0, 2, ROOT_DIGEST,
            [(0, runs, first), (2, runs, third)],
        )
        verdict = self.verifier.verify(evidence)
        assert verdict.verdict == VERDICT_INCONSISTENT
        assert "consecutive" in verdict.reason

    def test_loop_bound_exceeded(self):
        src, header = self.back_edge
        strict = PathVerifier()
        strict.register(self.identity, self.image, {header: 2})
        ok = strict.verify(_craft_evidence(self.identity, [(src, header, 2)]))
        assert ok.verdict == VERDICT_CLEAN
        over = strict.verify(_craft_evidence(self.identity, [(src, header, 3)]))
        assert over.verdict == VERDICT_HIJACKED
        assert "loop header" in over.reason


class TestCfaEngineOnSystem:
    def _attest_key(self, system):
        return derive_key(system.platform.key_store.raw_key(), b"attest", b"")

    def test_clean_roundtrip_device_to_verifier(self, system):
        image = _loopy_image()
        task = system.load_task(image, secure=True)
        recorder = system.enable_cfa(task)
        system.run(max_cycles=300_000)
        assert recorder.edges > 0
        nonce = b"fresh-nonce"
        evidence = system.cfa_evidence("loopy", nonce)
        assert evidence_mac_ok(self._attest_key(system), evidence, nonce)
        verifier = PathVerifier()
        verifier.register(task.identity, image)
        verdict = verifier.verify(evidence)
        assert verdict.ok, verdict
        assert verdict.edges == recorder.edges

    def test_evidence_survives_task_exit(self, system):
        image = _loopy_image()
        task = system.load_task(image, secure=True)
        system.enable_cfa(task)
        system.run(max_cycles=300_000)
        assert task.state == TaskState.DELETED
        assert system.cfa.enrolled_count() == 0
        evidence = system.cfa_evidence("loopy", b"post-exit")
        verifier = PathVerifier()
        verifier.register(task.identity, image)
        assert verifier.verify(evidence).ok

    def test_repeated_challenges_see_a_stable_log(self, system):
        task = system.load_task(_loopy_image(), secure=True)
        recorder = system.enable_cfa(task)
        system.run(max_cycles=300_000)
        edges = recorder.edges
        one = system.cfa_evidence("loopy", b"nonce-a")
        two = system.cfa_evidence("loopy", b"nonce-a")
        assert one.to_bytes() == two.to_bytes()
        assert recorder.edges == edges

    def test_report_generation_charges_the_clock(self, system):
        task = system.load_task(_loopy_image(), secure=True)
        system.enable_cfa(task)
        system.run(max_cycles=300_000)
        before = system.kernel.clock.now
        system.cfa_evidence("loopy", b"n")
        charged = system.kernel.clock.now - before
        assert charged >= cycles.KEY_DERIVATION + cycles.ATTEST_MAC

    def test_preemption_boundaries_seal_segments(self, system):
        """Slice preemption between two compute-bound tasks seals the
        running task's open segment - and the evidence still verifies."""
        image_a = system.build_image(SPIN_TASK, "spin-a")
        image_b = system.build_image(SPIN_TASK, "spin-b")
        task_a = system.load_task(image_a, secure=True, priority=3)
        task_b = system.load_task(image_b, secure=True, priority=3)
        recorder = system.enable_cfa(task_a)
        system.enable_cfa(task_b)
        system.run(max_cycles=2_000_000)
        assert task_a.state == TaskState.DELETED
        assert task_b.state == TaskState.DELETED
        assert system.cfa.preempt_seals.value > 0
        assert recorder.sealed > 0
        evidence = system.cfa_evidence("spin-a", b"n")
        verifier = PathVerifier()
        verifier.register(task_a.identity, image_a)
        assert verifier.verify(evidence).ok

    def test_unmeasured_task_cannot_enroll(self, system):
        task = system.load_task(
            system.build_image(SPIN_TASK, "anon"), secure=False
        )
        with pytest.raises(AttestationError):
            system.enable_cfa(task)


def _bare_loop_platform():
    """A bare JIT-enabled platform running a hot loop to completion."""
    platform = Platform(MachineConfig(blocks=True, traces=True))
    base = platform.config.task_ram_base
    source = (
        "start:\n"
        "movi ecx, 400\n"
        "loop:\n"
        "addi eax, 1\n"
        "xori eax, 5\n"
        "subi ecx, 1\n"
        "jnz loop\n"
        "hlt\n"
    )
    image = link(assemble(source), stack_size=64)
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + base) & 0xFFFFFFFF).to_bytes(
            4, "little"
        )
    platform.memory.write_raw(base, bytes(blob))
    platform.cpu.regs.eip = base + image.entry
    platform.cpu.regs.esp = base + 0x8000
    return platform


def _perf_kinds(platform):
    return {e.kind for e in platform.obs.events if e.source == "perf"}


class TestTransferHookDeoptimisesJits:
    """Regression: a transfer hook must observe every taken transfer,
    so the whole compiled tier (blocks and traces) deoptimises to the
    interpreter while one is installed."""

    def test_hook_forces_interpreter(self):
        platform = _bare_loop_platform()
        seen = []
        platform.cpu.transfer_hook = lambda src, dst: seen.append((src, dst))
        entry = platform.run_isa_until_event(max_cycles=200_000)
        assert entry.kind == "halt"
        assert len(seen) >= 399  # every taken loop back-edge observed
        kinds = _perf_kinds(platform)
        assert "block-translate" not in kinds
        assert "trace-compile" not in kinds

    def test_same_program_compiles_without_hook(self):
        platform = _bare_loop_platform()
        entry = platform.run_isa_until_event(max_cycles=200_000)
        assert entry.kind == "halt"
        assert "block-translate" in _perf_kinds(platform)

    def test_cfa_port_does_not_deoptimise(self):
        """cpu.cfa is tier-compatible: compiled bodies still run (and
        emit the same hash updates the interpreter would)."""
        platform = _bare_loop_platform()
        base = platform.config.task_ram_base
        recorder = PathRecorder()
        platform.cpu.cfa = CfaCore(platform.clock)
        platform.cpu.cfa.attach_region(base, base + 0x1000, recorder)
        entry = platform.run_isa_until_event(max_cycles=200_000)
        assert entry.kind == "halt"
        assert "block-translate" in _perf_kinds(platform)
        assert recorder.edges >= 399


class TestCfaWire:
    def test_challenge_roundtrip(self):
        challenge = CfaChallenge(7, 3, b"nonce-bytes")
        back = decode_message(challenge.to_bytes())
        assert isinstance(back, CfaChallenge)
        assert (back.device_id, back.seq, back.nonce) == (7, 3, b"nonce-bytes")

    def test_plain_challenge_still_decodes_plain(self):
        back = decode_message(Challenge(7, 3, b"n").to_bytes())
        assert type(back) is Challenge

    def test_response_roundtrip_via_device(self):
        device = FleetDevice(0, cfa=True)
        blob, _ = device.handle_frame(CfaChallenge(0, 1, b"nonce-1").to_bytes())
        message = decode_message(blob)
        assert isinstance(message, CfaResponse)
        assert message.evidence.edges > 0
        again = decode_message(message.to_bytes())
        assert again.report.to_bytes() == message.report.to_bytes()
        assert again.evidence.to_bytes() == message.evidence.to_bytes()

    def test_truncated_response_rejected(self):
        device = FleetDevice(0, cfa=True)
        blob, _ = device.handle_frame(CfaChallenge(0, 1, b"nonce-1").to_bytes())
        with pytest.raises(AttestationError):
            decode_message(blob[:-3])


class TestFleetCfaDevice:
    def test_cfa_device_answers_plain_challenge_statically(self):
        device = FleetDevice(0, cfa=True)
        blob, _ = device.handle_frame(Challenge(0, 1, b"n").to_bytes())
        assert type(decode_message(blob)) is Response

    def test_hijacked_device_passes_static_fails_path(self):
        """The hijack rogue runs the *shipped* binary (identity intact)
        but with a corrupted return edge - invisible to static
        attestation, caught by path evidence."""
        device = FleetDevice(3, rogue=True, cfa=True, rogue_mode="hijack")
        blob, _ = device.handle_frame(CfaChallenge(3, 1, b"nonce-2").to_bytes())
        message = decode_message(blob)
        assert message.report.identity == expected_fleet_identity(cfa=True)
        verifier = PathVerifier()
        verifier.register(
            expected_fleet_identity(cfa=True), fleet_task_image(cfa=True)
        )
        verdict = verifier.verify(message.evidence)
        assert verdict.verdict == VERDICT_HIJACKED
        assert "return to a non-call-site" in verdict.reason

    def test_clean_device_path_verifies(self):
        device = FleetDevice(0, cfa=True)
        blob, _ = device.handle_frame(CfaChallenge(0, 1, b"nonce-3").to_bytes())
        message = decode_message(blob)
        verifier = PathVerifier()
        verifier.register(
            expected_fleet_identity(cfa=True), fleet_task_image(cfa=True)
        )
        assert verifier.verify(message.evidence).ok


def make_cfa_fleet(devices, **cfg):
    return Fleet(
        FleetConfig(devices=devices, seed=1, workers=0, cfa=True, **cfg),
        shards=ShardConfig(shards=1),
        fabric=FabricProfile(latency_us=200, jitter_us=0),
    )


class TestFleetCfa:
    def test_clean_cfa_fleet_all_attest(self):
        result = make_cfa_fleet(4).run()
        health = result["health"]
        assert health["attested"] == 4
        assert health["quarantined"] == 0
        assert health["cfa_quarantines"] == 0

    def test_hijack_quarantined_by_path_evidence(self):
        result = make_cfa_fleet(4, rogue=[2], rogue_mode="hijack").run()
        health = result["health"]
        assert health["attested"] == 3
        assert health["quarantined"] == 1
        (entry,) = health["quarantined_devices"]
        assert entry["device"] == 2
        assert entry["reason"] == "cfa-hijacked"
        assert health["cfa_quarantines"] == 1

    def test_tamper_in_cfa_fleet_caught_statically(self):
        result = make_cfa_fleet(4, rogue=[1], rogue_mode="tamper").run()
        health = result["health"]
        (entry,) = health["quarantined_devices"]
        assert entry["device"] == 1
        assert entry["reason"] == "verification-rejected"
        assert health["cfa_quarantines"] == 0

    def test_clean_cfa_fleet_is_deterministic(self):
        one = make_cfa_fleet(3).run().to_json()
        two = make_cfa_fleet(3).run().to_json()
        assert one == two

    def test_hijack_mode_requires_cfa(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(devices=2, rogue=[1], rogue_mode="hijack")

    def test_unknown_rogue_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(devices=2, rogue_mode="melt")


class TestCfaOverheadBench:
    def test_overhead_compares_the_fastest_run_of_each_side(self, monkeypatch):
        from repro.perf import bench_core

        # Per mode: interleaved off/on pairs.  The fastest off run is the
        # second (1.0 s), the fastest on run the second too (2.0 s); the
        # first pair alone would read 25%.
        pair_times = [3.0, 4.0, 1.0, 2.0, 2.0, 5.0]
        times = iter(pair_times * len(bench_core.MODES))
        real_run = bench_core._run

        def timed_run(cpu, timer):
            real_run(cpu, timer)
            return next(times)

        monkeypatch.setattr(bench_core, "_run", timed_run)
        result = bench_core.run_cfa_bench(instructions=2_000)
        assert next(times, None) is None  # every run was a timed pair
        for mode in bench_core.MODES:
            entry = result["modes"][mode]
            assert entry["off_insns_per_sec"] == result["retired"] / 1.0
            assert entry["on_insns_per_sec"] == result["retired"] / 2.0
            assert entry["recording_overhead_pct"] == 50.0
