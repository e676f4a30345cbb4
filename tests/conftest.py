"""Shared fixtures for the TyTAN reproduction test suite."""

from __future__ import annotations

import pytest

from repro import TyTAN, build_freertos_baseline
from repro.hw.platform import Platform


#: Writes at the edges of a cached code body's bytes ``[lo, hi)``:
#: ``(address(lo, hi), size, drops_the_body)``.
SPAN_EDGE_WRITES = [
    pytest.param(lambda lo, hi: lo - 1, 1, False, id="byte-before"),
    pytest.param(lambda lo, hi: hi, 1, False, id="byte-after"),
    pytest.param(lambda lo, hi: hi - 1, 1, True, id="last-byte"),
    pytest.param(lambda lo, hi: hi - 1, 2, True, id="u16-straddling-end"),
    pytest.param(lambda lo, hi: hi - 2, 4, True, id="u32-straddling-end"),
]


@pytest.fixture
def platform():
    """A bare hardware platform (no kernel, no MPU rules)."""
    return Platform()


@pytest.fixture
def baseline():
    """Plain FreeRTOS: (platform, kernel, loader), no TyTAN components."""
    return build_freertos_baseline()


@pytest.fixture
def system():
    """A booted TyTAN system."""
    return TyTAN()


#: A minimal well-formed task: bump a counter each period, forever.
COUNTER_TASK = """
.section .text
.global start
start:
    movi esi, counter
again:
    ld eax, [esi]
    addi eax, 1
    st [esi], eax
    movi eax, 7          ; DELAY_CYCLES
    movi ebx, 32000
    int 0x20
    jmp again
.section .data
counter:
    .word 0
"""

#: A task that computes then exits.
EXIT_TASK = """
.section .text
.global start
start:
    movi eax, 0
    movi ecx, 5
spin:
    addi eax, 10
    subi ecx, 1
    cmpi ecx, 0
    jnz spin
    movi ebx, result
    st [ebx], eax
    movi eax, 2          ; EXIT
    int 0x20
.section .data
result:
    .word 0
"""


@pytest.fixture
def counter_source():
    """Source of the periodic counter task."""
    return COUNTER_TASK


@pytest.fixture
def exit_source():
    """Source of the compute-and-exit task."""
    return EXIT_TASK


def read_counter(system_or_kernel, task):
    """Read the last data word of a task's blob (the counter/result)."""
    kernel = getattr(system_or_kernel, "kernel", system_or_kernel)
    address = task.base + len(task.image.blob) - 4
    return kernel.memory.read_u32(address, actor=task.base)
