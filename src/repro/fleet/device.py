"""One fleet member: a full TyTAN machine behind a NIC.

Every :class:`FleetDevice` boots an independent
:class:`~repro.core.system.TyTAN` (secure boot, trusted components,
EA-MPU rules) with a *per-device* platform key derived from the fleet
seed, attaches a :class:`~repro.hw.nic.NetworkInterface`, and loads the
fleet agent task whose identity the verifier whitelists.  Challenges
arrive as framed datagrams through the NIC; the device decodes them,
asks its Remote Attest component for a report (charging the machine's
own cycle clock), and queues the response frame on the NIC.

A *rogue* device models a compromised member.  Two behaviours
(:class:`~repro.fleet.config.FleetConfig.rogue_mode`):

* ``"tamper"`` - the device runs a tampered agent binary, so its
  reports carry an identity the verifier will not accept: the MAC is
  valid under the device's key, but the measurement is wrong.
* ``"hijack"`` (CFA fleets) - the device runs the *shipped* agent
  binary, but a mode word in its RAM is corrupted after load and
  measurement, steering the agent through a ``pushi gadget; ret``
  return-edge hijack.  The measured identity is untouched - static
  attestation passes - and only the recorded path evidence (an
  impossible return edge) betrays the compromise.
"""

from __future__ import annotations

import functools
import struct

from repro.core.identity import identity_of_image
from repro.core.system import TyTAN
from repro.crypto.kdf import derive_key
from repro.crypto.sha1 import SHA1
from repro.errors import AttestationError
from repro.hw.platform import MachineConfig
from repro.image.linker import link
from repro.isa.assembler import assemble
from repro.net.wire import CfaChallenge, CfaResponse, Challenge, Response, decode_message
from repro.sim.workloads import synthetic_image

#: Name under which every device loads the fleet agent task.
AGENT_NAME = "fleet-agent"
#: Image seed of the genuine agent binary.
AGENT_SEED = 11
#: Image seed of the tampered (rogue) agent binary.
ROGUE_SEED = 13

#: The executable agent CFA fleets run (once, at boot) under the path
#: monitor.  Every device ships this exact binary; the trailing ``mode``
#: word decides at *run time* whether the final return is hijacked into
#: the gadget - clean devices leave it 0, hijacked devices have it
#: corrupted in RAM after measurement (see :func:`hijack_mode_address`).
CFA_AGENT_SOURCE = """
.section .text
.global start
start:
    movi ebx, mode
    ld edx, [ebx]
    movi ecx, 6
loop:
    call work
    subi ecx, 1
    cmpi ecx, 0
    jnz loop
    cmpi edx, 0
    jnz hijack
    movi eax, 2
    int 0x20
hijack:
    pushi gadget         ; overwrite the return address
    ret                  ; "returns" into the gadget
gadget:
    movi eax, 2
    int 0x20
work:
    addi eax, 3
    xori eax, 21
    ret
.section .data
mode:
    .word 0
"""

#: The tampered CFA agent (``rogue_mode="tamper"`` in a CFA fleet):
#: one constant differs, so the measured identity differs.
CFA_ROGUE_AGENT_SOURCE = CFA_AGENT_SOURCE.replace("xori eax, 21", "xori eax, 22")

#: Value a hijacked device's mode word is corrupted to.
HIJACK_MODE = 1


def fleet_task_image(rogue=False, cfa=False, rogue_mode="tamper"):
    """The agent task image a device loads.

    Static (non-CFA) fleets keep the synthetic never-executed agent;
    CFA fleets assemble the real executable agent.  ``rogue`` tampers
    the binary only in ``"tamper"`` mode - a hijacked device ships the
    genuine image by construction.
    """
    if cfa or rogue_mode == "hijack":
        tampered = rogue and rogue_mode == "tamper"
        return link(
            assemble(
                CFA_ROGUE_AGENT_SOURCE if tampered else CFA_AGENT_SOURCE,
                AGENT_NAME,
            ),
            name=AGENT_NAME,
            stack_size=256,
        )
    return synthetic_image(
        blocks=3,
        relocations=1,
        name=AGENT_NAME,
        seed=ROGUE_SEED if rogue else AGENT_SEED,
    )


def hijack_mode_offset(image):
    """Link-base-0 offset of the agent's ``mode`` word.

    The mode word is the last ``.data`` word of the agent, so it sits
    in the image's final four bytes.
    """
    return len(image.blob) - 4


def expected_fleet_identity(cfa=False):
    """The agent identity a verifier whitelists (provider-side oracle)."""
    return identity_of_image(fleet_task_image(cfa=cfa))


def device_platform_key(fleet_seed, device_id):
    """The per-device fused platform key K_p.

    Derived from a fleet master secret so device machines and the
    verifier registry agree without shipping key material around -
    this models the out-of-band K_p sharing of the paper's symmetric
    scheme at fleet scale.
    """
    return derive_key(_fleet_master(fleet_seed), b"device", struct.pack("<I", device_id))


@functools.lru_cache(maxsize=16)
def _fleet_master(fleet_seed):
    """The fleet master secret: one SHA-1 per seed, not per device."""
    return SHA1(b"tytan-fleet-%d" % fleet_seed).digest()


class FleetDevice:
    """A booted TyTAN machine speaking the attestation wire protocol."""

    def __init__(
        self,
        device_id,
        fleet_seed=0,
        rogue=False,
        provider=b"",
        obs_enabled=False,
        cfa=False,
        rogue_mode="tamper",
    ):
        self.device_id = int(device_id)
        self.fleet_seed = int(fleet_seed)
        self.provider = bytes(provider)
        self.rogue = bool(rogue)
        self.cfa = bool(cfa)
        self.rogue_mode = rogue_mode
        config = MachineConfig(
            obs_enabled=obs_enabled,
            platform_key=device_platform_key(fleet_seed, device_id),
        )
        self.machine = TyTAN(config)
        self.nic = self.machine.platform.attach_nic()
        image = fleet_task_image(rogue, cfa=cfa, rogue_mode=rogue_mode)
        self.task = self.machine.load_task(image, secure=True, name=AGENT_NAME)
        if cfa:
            # The agent genuinely executes under the path monitor; its
            # evidence outlives the task (the engine retains the path
            # log after exit), so challenges arriving later still get a
            # full report.
            self.machine.enable_cfa(self.task)
            if rogue and rogue_mode == "hijack":
                # Corrupt the mode word *after* load and measurement:
                # the identity is the genuine binary's, but the run
                # takes the gadget return edge.
                self.machine.platform.memory.write_raw(
                    self.task.base + hijack_mode_offset(image),
                    struct.pack("<I", HIJACK_MODE),
                )
            self.machine.run(max_cycles=200_000)
        #: Challenges answered.
        self.handled = 0
        #: Frames that failed to decode.
        self.malformed = 0
        #: Well-formed frames addressed to another device (dropped).
        self.misaddressed = 0

    def rekey(self, device_id=None, fleet_seed=None):
        """Re-identify this machine as another fleet member.

        Re-runs only the per-device work a cold boot would do
        differently: the platform-key derivation and the fuse write.
        Everything attestation-visible besides K_p - the measured task
        identity, the MPU rules, the agent binary - is key-independent
        (secure boot never reads K_p), so a forked-and-rekeyed machine
        answers challenges byte-identically to a cold-booted one.
        """
        if device_id is not None:
            self.device_id = int(device_id)
        if fleet_seed is not None:
            self.fleet_seed = int(fleet_seed)
        self.machine.platform.key_store.rekey(
            device_platform_key(self.fleet_seed, self.device_id)
        )
        return self

    def handle_frame(self, payload):
        """Process one datagram; returns ``(response bytes | None, cycles)``.

        ``cycles`` is the simulated compute cost the machine charged
        while producing the response (key derivation + MAC); the
        orchestrator converts it into fabric time.
        """
        self.nic.deliver(payload)
        start = self.machine.clock.now
        frame = self.nic.take_frame()
        try:
            message = decode_message(frame)
        except AttestationError:
            self.malformed += 1
            return None, self.machine.clock.now - start
        if not isinstance(message, Challenge) or message.device_id != self.device_id:
            self.misaddressed += 1
            return None, self.machine.clock.now - start
        report = self.machine.remote_attest.attest(
            self.task, message.nonce, self.provider
        )
        if isinstance(message, CfaChallenge) and self.cfa:
            evidence = self.machine.cfa_evidence(
                AGENT_NAME, message.nonce, self.provider
            )
            response = CfaResponse(self.device_id, message.seq, report, evidence)
        else:
            response = Response(self.device_id, message.seq, report)
        self.nic.transmit(response.to_bytes())
        self.handled += 1
        return self.nic.pop_outgoing(), self.machine.clock.now - start

    def __repr__(self):
        return "FleetDevice(%d%s, %d handled)" % (
            self.device_id,
            ", rogue" if self.rogue else "",
            self.handled,
        )
