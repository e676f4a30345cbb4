"""repro.net - the deterministic simulated network fabric.

* :mod:`repro.net.fabric` - seeded datagram transport with per-link
  latency, jitter, loss, duplication, and reordering; endpoints with
  send/receive queues; ``net-send`` / ``net-drop`` / ``net-deliver``
  events on the observability bus.
* :mod:`repro.net.wire` - the strict length-prefixed codec for
  attestation challenge/response frames.
"""

from repro.net.fabric import Endpoint, FabricProfile, NetworkFabric
from repro.net.wire import (
    Challenge,
    Response,
    decode_frame,
    decode_message,
    encode_frame,
)

__all__ = [
    "Challenge",
    "Endpoint",
    "FabricProfile",
    "NetworkFabric",
    "Response",
    "decode_frame",
    "decode_message",
    "encode_frame",
]
