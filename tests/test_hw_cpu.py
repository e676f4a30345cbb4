"""Tests for the CPU interpreter: ALU semantics, flags, control flow."""

import pytest

from repro.errors import IllegalInstruction
from repro.hw.clock import CycleClock
from repro.hw.cpu import CPU
from repro.hw.exceptions import ExceptionEngine, Vector
from repro.hw.memory import MemoryMap, PhysicalMemory, RamRegion
from repro.hw.registers import Flag, Reg
from repro.isa.assembler import assemble
from repro.image.linker import link

CODE_BASE = 0x1000
STACK_TOP = 0x3000
IDT_BASE = 0x4000
HANDLER = 0x5000


def make_cpu(source):
    """Assemble+link ``source``, place at CODE_BASE, return a ready CPU."""
    if "start:" not in source:
        source = "start:\n" + source
    memory = PhysicalMemory(MemoryMap())
    memory.map.add(RamRegion("ram", 0x0, 0x10000))
    clock = CycleClock()
    cpu = CPU(memory, clock)
    engine = ExceptionEngine(memory, IDT_BASE)
    cpu.attach_engine(engine)
    for vector in range(Vector.COUNT):
        engine.install_handler(vector, HANDLER)
    image = link(assemble(source), stack_size=64)
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + CODE_BASE) & 0xFFFFFFFF).to_bytes(
            4, "little"
        )
    memory.write_raw(CODE_BASE, bytes(blob))
    cpu.regs.eip = CODE_BASE + image.entry
    cpu.regs.esp = STACK_TOP
    return cpu


def run_until_halt(cpu, max_steps=10_000):
    steps = 0
    while not cpu.halted:
        cpu.step()
        steps += 1
        assert steps < max_steps, "program did not halt"
    return cpu


class TestALU:
    def test_add_sub(self):
        cpu = run_until_halt(make_cpu("movi eax, 7\nmovi ebx, 5\nadd eax, ebx\nhlt"))
        assert cpu.regs.read(Reg.EAX) == 12

    def test_sub_borrow_sets_carry(self):
        cpu = run_until_halt(make_cpu("movi eax, 3\nsubi eax, 5\nhlt"))
        assert cpu.regs.read(Reg.EAX) == 0xFFFFFFFE
        assert cpu.regs.get_flag(Flag.CF)
        assert cpu.regs.get_flag(Flag.SF)

    def test_add_overflow_wraps(self):
        cpu = run_until_halt(
            make_cpu("movi eax, 0xFFFFFFFF\naddi eax, 2\nhlt")
        )
        assert cpu.regs.read(Reg.EAX) == 1
        assert cpu.regs.get_flag(Flag.CF)

    def test_signed_overflow_flag(self):
        cpu = run_until_halt(
            make_cpu("movi eax, 0x7FFFFFFF\naddi eax, 1\nhlt")
        )
        assert cpu.regs.get_flag(Flag.OF)

    def test_zero_flag(self):
        cpu = run_until_halt(make_cpu("movi eax, 5\nsubi eax, 5\nhlt"))
        assert cpu.regs.get_flag(Flag.ZF)

    def test_logic_ops(self):
        cpu = run_until_halt(
            make_cpu(
                "movi eax, 0xF0F0\nmovi ebx, 0x0FF0\n"
                "mov ecx, eax\nand ecx, ebx\n"
                "mov edx, eax\nor edx, ebx\n"
                "xor eax, ebx\nhlt"
            )
        )
        assert cpu.regs.read(Reg.ECX) == 0x00F0
        assert cpu.regs.read(Reg.EDX) == 0xFFF0
        assert cpu.regs.read(Reg.EAX) == 0xFF00

    def test_shifts(self):
        cpu = run_until_halt(
            make_cpu("movi eax, 1\nshli eax, 4\nmovi ebx, 0x100\nshri ebx, 4\nhlt")
        )
        assert cpu.regs.read(Reg.EAX) == 16
        assert cpu.regs.read(Reg.EBX) == 16

    def test_mul_div(self):
        cpu = run_until_halt(
            make_cpu(
                "movi eax, 7\nmovi ebx, 6\nmul eax, ebx\n"
                "movi ecx, 100\nmovi edx, 7\ndiv ecx, edx\nhlt"
            )
        )
        assert cpu.regs.read(Reg.EAX) == 42
        assert cpu.regs.read(Reg.ECX) == 14

    def test_div_by_zero_traps(self):
        cpu = make_cpu("movi eax, 1\nmovi ebx, 0\ndiv eax, ebx\nhlt")
        for _ in range(3):
            cpu.step()
        assert cpu.regs.eip == HANDLER
        assert cpu.engine.last_vector == 0

    def test_not_neg(self):
        cpu = run_until_halt(make_cpu("movi eax, 0\nnot eax\nmovi ebx, 5\nneg ebx\nhlt"))
        assert cpu.regs.read(Reg.EAX) == 0xFFFFFFFF
        assert cpu.regs.read(Reg.EBX) == 0xFFFFFFFB


class TestControlFlow:
    def test_conditional_branches(self):
        cpu = run_until_halt(
            make_cpu(
                "movi eax, 0\nmovi ecx, 4\n"
                "loop:\naddi eax, 2\nsubi ecx, 1\ncmpi ecx, 0\njnz loop\nhlt"
            )
        )
        assert cpu.regs.read(Reg.EAX) == 8

    def test_signed_compare(self):
        # -1 < 1 signed
        cpu = run_until_halt(
            make_cpu(
                "movi eax, 0xFFFFFFFF\ncmpi eax, 1\n"
                "jl neg_path\nmovi ebx, 0\nhlt\n"
                "neg_path:\nmovi ebx, 1\nhlt"
            )
        )
        assert cpu.regs.read(Reg.EBX) == 1

    def test_call_ret(self):
        cpu = run_until_halt(
            make_cpu(
                "call fn\nmovi ebx, 9\nhlt\n"
                "fn:\nmovi eax, 4\nret"
            )
        )
        assert cpu.regs.read(Reg.EAX) == 4
        assert cpu.regs.read(Reg.EBX) == 9

    def test_push_pop(self):
        cpu = run_until_halt(
            make_cpu("movi eax, 77\npush eax\nmovi eax, 0\npop ebx\nhlt")
        )
        assert cpu.regs.read(Reg.EBX) == 77
        assert cpu.regs.esp == STACK_TOP

    def test_pushi(self):
        cpu = run_until_halt(make_cpu("pushi 0xABCD\npop ecx\nhlt"))
        assert cpu.regs.read(Reg.ECX) == 0xABCD


class TestMemoryOps:
    def test_word_store_load(self):
        cpu = run_until_halt(
            make_cpu(
                "movi ebx, buf\nmovi eax, 0x11223344\nst [ebx], eax\n"
                "ld ecx, [ebx]\nhlt\n.section .data\nbuf:\n.word 0"
            )
        )
        assert cpu.regs.read(Reg.ECX) == 0x11223344

    def test_byte_store_load(self):
        cpu = run_until_halt(
            make_cpu(
                "movi ebx, buf\nmovi eax, 0x1FF\nstb [ebx], eax\n"
                "ldb ecx, [ebx]\nhlt\n.section .data\nbuf:\n.word 0"
            )
        )
        assert cpu.regs.read(Reg.ECX) == 0xFF

    def test_displacement_addressing(self):
        cpu = run_until_halt(
            make_cpu(
                "movi ebx, arr\nld eax, [ebx+4]\nhlt\n"
                ".section .data\narr:\n.word 10, 20, 30"
            )
        )
        assert cpu.regs.read(Reg.EAX) == 20


class TestInterrupts:
    def test_software_interrupt_vectors_and_pushes(self):
        cpu = make_cpu("movi eax, 3\nint 0x20\nhlt")
        cpu.step()  # movi
        next_eip = cpu.regs.eip + 2  # int is 2 bytes
        cpu.step()  # int
        assert cpu.regs.eip == HANDLER
        assert cpu.engine.last_vector == Vector.SYSCALL
        # Origin latches the return address - still inside the sender's
        # code region, which is what sender authentication needs.
        assert cpu.engine.last_origin == next_eip
        # Stack: EIP then EFLAGS (EIP at lower address).
        saved_eip = cpu.memory.read_u32(cpu.regs.esp)
        assert saved_eip == next_eip
        assert not cpu.regs.interrupts_enabled

    def test_hw_return_resumes(self):
        cpu = make_cpu("movi eax, 3\nint 0x20\nmovi ebx, 1\nhlt")
        cpu.step()
        cpu.step()
        cpu.engine.hw_return(cpu)
        assert cpu.regs.interrupts_enabled
        run_until_halt(cpu)
        assert cpu.regs.read(Reg.EBX) == 1

    def test_pending_irq_taken_between_instructions(self):
        cpu = make_cpu("movi eax, 1\nmovi ebx, 2\nhlt")
        cpu.step()
        cpu.engine.controller.raise_irq(Vector.TIMER)
        assert cpu.maybe_take_interrupt() == Vector.TIMER
        assert cpu.regs.eip == HANDLER

    def test_masked_irq_not_taken(self):
        cpu = make_cpu("cli\nmovi eax, 1\nhlt")
        cpu.step()
        cpu.engine.controller.raise_irq(Vector.TIMER)
        assert cpu.maybe_take_interrupt() is None

    def test_halt_wakes_on_interrupt(self):
        cpu = run_until_halt(make_cpu("hlt"))
        cpu.engine.controller.raise_irq(Vector.TIMER)
        cpu.maybe_take_interrupt()
        assert not cpu.halted


class TestMisc:
    def test_illegal_instruction(self):
        cpu = make_cpu("hlt")
        cpu.memory.write_raw(CODE_BASE, b"\xEE")
        with pytest.raises(IllegalInstruction):
            cpu.step()

    def test_cycles_charged(self):
        cpu = make_cpu("movi eax, 1\nhlt")
        before = cpu.clock.now
        cpu.step()
        assert cpu.clock.now > before

    def test_retired_counter(self):
        cpu = run_until_halt(make_cpu("nop\nnop\nhlt"))
        assert cpu.retired == 3
