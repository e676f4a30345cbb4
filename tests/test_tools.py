"""Tests for the command-line toolchain (asm / link / objdump / run)."""

import io

import pytest

from repro.tools import asm, link, objdump, run

SOURCE = """
.section .text
.global start
start:
    movi esi, counter
again:
    ld eax, [esi]
    addi eax, 1
    st [esi], eax
    movi eax, 7
    movi ebx, 32000
    int 0x20
    jmp again
.section .data
counter:
    .word 0
"""

BAD_SOURCE = "frobnicate eax\n"


@pytest.fixture
def workspace(tmp_path):
    source = tmp_path / "task.s"
    source.write_text(SOURCE)
    return tmp_path, source


class TestAsm:
    def test_assembles_to_default_output(self, workspace, capsys):
        tmp, source = workspace
        assert asm.main([str(source)]) == 0
        assert (tmp / "task.obj").exists()
        assert "relocations" in capsys.readouterr().out

    def test_explicit_output_and_name(self, workspace):
        tmp, source = workspace
        out = tmp / "renamed.o"
        assert asm.main([str(source), "-o", str(out), "--name", "renamed"]) == 0
        from repro.image.telf import ObjectFile

        assert ObjectFile.from_bytes(out.read_bytes()).name == "renamed"

    def test_missing_file(self, tmp_path, capsys):
        assert asm.main([str(tmp_path / "nope.s")]) == 2

    def test_syntax_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(BAD_SOURCE)
        assert asm.main([str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err


class TestLink:
    def test_links_image(self, workspace, capsys):
        tmp, source = workspace
        asm.main([str(source)])
        image_path = tmp / "task.img"
        assert link.main([str(tmp / "task.obj"), "-o", str(image_path)]) == 0
        out = capsys.readouterr().out
        assert "identity (id_t)" in out
        from repro.image.telf import TaskImage

        image = TaskImage.from_bytes(image_path.read_bytes())
        assert image.stack_size == 512

    def test_custom_stack_and_entry(self, workspace):
        tmp, source = workspace
        asm.main([str(source)])
        image_path = tmp / "task.img"
        assert (
            link.main(
                [str(tmp / "task.obj"), "-o", str(image_path), "--stack", "1024"]
            )
            == 0
        )
        from repro.image.telf import TaskImage

        assert TaskImage.from_bytes(image_path.read_bytes()).stack_size == 1024

    def test_undefined_entry_fails(self, workspace, capsys):
        tmp, source = workspace
        asm.main([str(source)])
        code = link.main(
            [str(tmp / "task.obj"), "-o", str(tmp / "x.img"), "--entry", "nope"]
        )
        assert code == 1

    def test_bad_object_rejected(self, tmp_path):
        junk = tmp_path / "junk.obj"
        junk.write_bytes(b"not a container")
        assert link.main([str(junk), "-o", str(tmp_path / "x.img")]) == 2


class TestObjdump:
    def build(self, workspace):
        tmp, source = workspace
        asm.main([str(source)])
        link.main([str(tmp / "task.obj"), "-o", str(tmp / "task.img")])
        return tmp

    def test_dump_object(self, workspace):
        tmp = self.build(workspace)
        out = io.StringIO()
        assert objdump.main([str(tmp / "task.obj")], out=out) == 0
        text = out.getvalue()
        assert "TELF object" in text
        assert "start" in text

    def test_dump_image_with_disassembly(self, workspace):
        tmp = self.build(workspace)
        out = io.StringIO()
        assert objdump.main([str(tmp / "task.img"), "-d"], out=out) == 0
        text = out.getvalue()
        assert "identity:" in text
        assert "movi esi" in text
        assert "int 0x20" in text

    def test_not_a_container(self, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"garbage here")
        assert objdump.main([str(junk)]) == 1


class TestRun:
    def test_end_to_end(self, workspace):
        tmp, source = workspace
        asm.main([str(source)])
        link.main([str(tmp / "task.obj"), "-o", str(tmp / "task.img")])
        out = io.StringIO()
        code = run.main([str(tmp / "task.img"), "--ms", "3", "--attest"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "loaded task" in text
        assert "remote attestation: OK" in text

    def test_missing_image(self, tmp_path):
        assert run.main([str(tmp_path / "nope.img")]) == 2

    def test_trace_output(self, workspace):
        tmp, source = workspace
        asm.main([str(source)])
        link.main([str(tmp / "task.obj"), "-o", str(tmp / "task.img")])
        out = io.StringIO()
        assert (
            run.main([str(tmp / "task.img"), "--ms", "1", "--trace"], out=out) == 0
        )
        trace = out.getvalue().split("\nevent trace:\n", 1)[1]
        kinds = {line.split()[1] for line in trace.splitlines()}
        # One kind from each layer: kernel, hardware, trusted component.
        assert {"syscall", "exception", "task-measured"} <= kinds

    def test_vcd_output(self, workspace):
        tmp, source = workspace
        asm.main([str(source)])
        link.main([str(tmp / "task.obj"), "-o", str(tmp / "task.img")])
        out = io.StringIO()
        vcd_path = tmp / "run.vcd"
        assert (
            run.main(
                [str(tmp / "task.img"), "--ms", "2", "--vcd", str(vcd_path)],
                out=out,
            )
            == 0
        )
        text = vcd_path.read_text()
        assert "$enddefinitions $end" in text
        assert "task_task" in text

    def test_normal_flag(self, workspace):
        tmp, source = workspace
        asm.main([str(source)])
        link.main([str(tmp / "task.obj"), "-o", str(tmp / "task.img")])
        out = io.StringIO()
        assert run.main([str(tmp / "task.img"), "--ms", "1", "--normal"], out=out) == 0
        assert "(normal)" in out.getvalue()
        assert "(unmeasured)" in out.getvalue()


class TestRunFaultReporting:
    def test_faulting_image_reported(self, tmp_path):
        bad = tmp_path / "bad.s"
        bad.write_text(
            ".global start\nstart:\n    movi ebx, 0x50000\n"
            "    st [ebx], eax     ; OS data: EA-MPU fault\n    hlt\n"
        )
        asm.main([str(bad)])
        link.main([str(tmp_path / "bad.obj"), "-o", str(tmp_path / "bad.img")])
        out = io.StringIO()
        assert run.main([str(tmp_path / "bad.img"), "--ms", "2"], out=out) == 0
        assert "FAULTED" in out.getvalue()


class TestBenchTool:
    def test_table4_driver(self):
        from repro.sim.experiments import measure_table4

        rows = {label: (paper, measured) for label, paper, measured in measure_table4()}
        paper, measured = rows["secure: overall"]
        assert abs(measured - paper) / paper < 0.05
        assert rows["normal: RTM"][1] == 0
