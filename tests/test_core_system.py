"""Tests for the TyTAN facade and end-to-end integration scenarios."""

from repro import build_freertos_baseline
from repro.core.identity import identity_of_image

from conftest import COUNTER_TASK, read_counter


class TestFacade:
    def test_components_bound_to_firmware_pages(self, system):
        components = [
            system.mpu_driver,
            system.int_mux,
            system.rtm,
            system.ipc,
            system.remote_attest,
            system.secure_storage,
        ]
        bases = [component.base for component in components]
        assert len(set(bases)) == len(bases)
        for component in components:
            assert system.platform.in_firmware(component.base)

    def test_component_pages_hold_the_seeded_ramp(self, system):
        # Secure boot measures these bytes: byte i of a component page
        # is (NAME[i % len(NAME)] + 131 * i) & 0xFF.
        components = [
            system.kernel.trap_gate,
            system.mpu_driver,
            system.int_mux,
            system.rtm,
            system.ipc,
            system.remote_attest,
            system.secure_storage,
            system.updater,
            system.cfi,
            system.cfa,
        ]
        for component in components:
            seed = component.NAME.encode("utf-8")
            expected = bytes(
                (seed[index % len(seed)] + index * 131) & 0xFF
                for index in range(component.size)
            )
            got = system.platform.memory.read_raw(component.base, component.size)
            assert got == expected, component.NAME

    def test_build_image_convenience(self, system):
        image = system.build_image(COUNTER_TASK, "x", stack_size=300)
        assert image.stack_size == 300
        assert image.name == "x"

    def test_load_source_runs(self, system):
        task = system.load_source(COUNTER_TASK, "x", secure=True)
        system.run(max_cycles=100_000)
        assert read_counter(system, task) >= 2

    def test_clock_property(self, system):
        assert system.clock is system.platform.clock

    def test_baseline_has_no_mpu_rules(self):
        platform, kernel, loader = build_freertos_baseline()
        assert platform.mpu.active_rules() == []
        assert kernel.context_policy.describe() == "freertos"


class TestIsaAttestTrap:
    def test_isa_task_attests_itself(self, system):
        src = "\n".join(
            [
                ".global start",
                "start:",
                "    movi ebx, 0x1234     ; nonce",
                "    int 0x22             ; ATTEST",
                "    movi esi, out",
                "    st [esi], eax",
                "    movi eax, 2",
                "    int 0x20",
                ".section .data",
                "out:",
                "    .word 0xFFFFFFFF",
            ]
        )
        task = system.load_source(src, "selfattest", secure=True)
        identity = task.identity
        system.run(max_cycles=500_000)
        assert read_counter(system, task) == 0  # status OK
        # The MAC landed in the task's inbox as a system message.
        message = system.ipc.read_inbox(task)
        assert message is not None
        words, sender = message
        assert sender == b"ATTESTSV"
        # Verify the MAC against the oracle.
        from repro.crypto.hmac import hmac_sha1
        from repro.crypto.kdf import derive_key

        key = derive_key(system.platform.key_store.raw_key(), b"attest", b"")
        expected = hmac_sha1(key, identity + (0x1234).to_bytes(4, "little"))
        got = b"".join(word.to_bytes(4, "little") for word in words)
        assert got == expected[:16]


class TestIsaStorageTrap:
    def test_store_then_load_roundtrip(self, system):
        src = "\n".join(
            [
                ".global start",
                "start:",
                "    movi ebx, 0          ; op = store",
                "    movi ecx, 3          ; slot 3",
                "    movi edx, 0xC0FFEE",
                "    int 0x23",
                "    movi ebx, 1          ; op = load",
                "    movi ecx, 3",
                "    movi edx, 0",
                "    int 0x23",
                "    movi esi, out",
                "    st [esi], edx",
                "    movi eax, 2",
                "    int 0x20",
                ".section .data",
                "out:",
                "    .word 0",
            ]
        )
        task = system.load_source(src, "storer", secure=True)
        system.run(max_cycles=1_000_000)
        assert read_counter(system, task) == 0xC0FFEE

    def test_normal_task_storage_denied(self, system):
        src = "\n".join(
            [
                ".global start",
                "start:",
                "    movi ebx, 0",
                "    movi ecx, 1",
                "    movi edx, 5",
                "    int 0x23",
                "    movi esi, out",
                "    st [esi], eax",
                "    movi eax, 2",
                "    int 0x20",
                ".section .data",
                "out:",
                "    .word 9",
            ]
        )
        task = system.load_task(
            system.build_image(src, "n"), secure=False
        )
        system.run(max_cycles=1_000_000)
        assert read_counter(system, task) == 1  # error status


class TestMultiStakeholder:
    """The paper's multi-stakeholder story: mutually distrusting
    providers coexist; each can attest and store independently."""

    def test_two_providers_independent(self, system):
        from repro.sim.workloads import synthetic_image

        supplier_image = synthetic_image(blocks=3, seed=10, name="supplier")
        oem_image = synthetic_image(blocks=3, seed=20, name="oem")
        supplier = system.load_task(supplier_image, secure=True)
        oem = system.load_task(oem_image, secure=True)

        # Independent attestation whitelists per provider key.
        supplier_verifier = system.make_verifier(provider=b"supplier")
        supplier_verifier.expect(identity_of_image(supplier_image))
        nonce = supplier_verifier.fresh_nonce()
        report = system.remote_attest_task(supplier, nonce, provider=b"supplier")
        assert supplier_verifier.verify(report, nonce)
        # The OEM's verifier (different provider key) rejects it.
        oem_verifier = system.make_verifier(provider=b"oem")
        oem_verifier.expect(identity_of_image(supplier_image))
        assert not oem_verifier.verify(report, nonce)

        # Storage namespaces are disjoint.
        system.store(supplier, "cal", b"supplier-data")
        system.store(oem, "cal", b"oem-data")
        assert system.retrieve(supplier, "cal") == b"supplier-data"
        assert system.retrieve(oem, "cal") == b"oem-data"

    def test_many_tasks_coexist(self, system):
        tasks = [
            system.load_source(COUNTER_TASK, "task-%d" % index, secure=(index % 2 == 0))
            for index in range(4)
        ]
        system.run(max_cycles=200_000)
        for task in tasks:
            assert read_counter(system, task) >= 4
        assert not system.kernel.faulted
