"""Property tests for the control-flow-attestation wire formats.

The same two invariants :mod:`tests.test_prop_net_wire` pins for the
static attestation messages, fuzzed with hypothesis over the CFA ones:

1. **Roundtrip**: any well-formed :class:`CfaEvidence` record and any
   :class:`CfaChallenge` / :class:`CfaResponse` frame encodes and
   decodes back to an equal value.
2. **Total parsing**: arbitrary bytes, and truncations or byte flips of
   valid blobs, either parse or raise :class:`AttestationError` - never
   ``struct.error``, ``IndexError`` or ``ValueError``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.cfa import CfaEvidence  # noqa: E402
from repro.cfa.recorder import DIGEST_SIZE  # noqa: E402
from repro.core.remote_attest import AttestationReport  # noqa: E402
from repro.errors import AttestationError  # noqa: E402
from repro.net.wire import (  # noqa: E402
    MAX_NONCE,
    T_CHALLENGE_CFA,
    T_RESPONSE_CFA,
    CfaChallenge,
    CfaResponse,
    decode_message,
    encode_frame,
)

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u64 = st.integers(min_value=0, max_value=0xFFFFFFFFFFFFFFFF)
digests = st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE)
twenty = st.binary(min_size=20, max_size=20)
runs = st.tuples(u32, u32, u64)
segments = st.tuples(u32, st.lists(runs, max_size=5).map(tuple), digests)


@st.composite
def evidences(draw):
    return CfaEvidence(
        draw(twenty),
        draw(u32),
        draw(u32),
        draw(u64),
        draw(digests),
        draw(st.lists(segments, max_size=4)),
        mac=draw(twenty),
    )


@st.composite
def reports(draw):
    return AttestationReport(draw(twenty), draw(st.binary(max_size=64)), draw(twenty))


def fields(evidence):
    return (
        evidence.identity,
        evidence.sealed_total,
        evidence.dropped,
        evidence.edges,
        evidence.first_prev,
        evidence.segments,
        evidence.mac,
    )


def parse_or_reject(parse, blob):
    """``parse(blob)``, or ``None`` when it raises the documented error."""
    try:
        return parse(blob)
    except AttestationError:
        return None


class TestRoundtrip:
    @given(evidence=evidences())
    def test_evidence_roundtrip(self, evidence):
        assert fields(CfaEvidence.from_bytes(evidence.to_bytes())) == fields(evidence)

    @given(device_id=u32, seq=u16, nonce=st.binary(max_size=MAX_NONCE))
    def test_cfa_challenge_roundtrip(self, device_id, seq, nonce):
        challenge = CfaChallenge(device_id, seq, nonce)
        parsed = decode_message(challenge.to_bytes())
        assert isinstance(parsed, CfaChallenge)
        assert parsed == challenge

    @given(device_id=u32, seq=u16, report=reports(), evidence=evidences())
    def test_cfa_response_roundtrip(self, device_id, seq, report, evidence):
        parsed = decode_message(CfaResponse(device_id, seq, report, evidence).to_bytes())
        assert isinstance(parsed, CfaResponse)
        assert (parsed.device_id, parsed.seq) == (device_id, seq)
        assert parsed.report.to_bytes() == report.to_bytes()
        assert fields(parsed.evidence) == fields(evidence)


class TestTotalParsing:
    """CFA parsers over hostile input raise AttestationError, nothing else."""

    @given(blob=st.binary(max_size=512))
    def test_evidence_from_bytes_never_leaks(self, blob):
        parse_or_reject(CfaEvidence.from_bytes, blob)

    @given(
        frame_type=st.sampled_from([T_CHALLENGE_CFA, T_RESPONSE_CFA]),
        payload=st.binary(max_size=512),
    )
    def test_cfa_frames_never_leak(self, frame_type, payload):
        parse_or_reject(decode_message, encode_frame(frame_type, payload))

    @given(evidence=evidences(), cut=st.integers(min_value=0, max_value=2048))
    def test_truncated_evidence_rejected(self, evidence, cut):
        blob = evidence.to_bytes()
        truncated = blob[: min(cut, len(blob))]
        parsed = parse_or_reject(CfaEvidence.from_bytes, truncated)
        # Only the whole record parses.
        assert (parsed is None) == (len(truncated) < len(blob))

    @settings(max_examples=200)
    @given(
        evidence=evidences(),
        position=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_bitflipped_evidence_never_leaks(self, evidence, position, flip):
        blob = bytearray(evidence.to_bytes())
        blob[position % len(blob)] ^= flip
        parse_or_reject(CfaEvidence.from_bytes, bytes(blob))

    @settings(max_examples=200)
    @given(
        report=reports(),
        evidence=evidences(),
        position=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=0, max_value=255),
        cut=st.integers(min_value=0, max_value=4096),
    )
    def test_damaged_cfa_response_never_leaks(self, report, evidence, position, flip, cut):
        blob = bytearray(CfaResponse(7, 1, report, evidence).to_bytes())
        blob[position % len(blob)] ^= flip
        parse_or_reject(decode_message, bytes(blob[:cut]))
