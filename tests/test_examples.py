"""Every example program runs to completion and cleans up after itself.

Each ``examples/*.py`` runs as its own process, the way a reader runs
it, with ``PYTHONPATH=src`` and a private ``TMPDIR``.  It must exit 0
(the examples assert their own outcomes) and leave that directory
empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs_and_leaves_no_temp_files(example, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(example)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert not list(tmp_path.iterdir())
