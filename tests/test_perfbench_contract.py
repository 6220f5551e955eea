"""The benchmark's self-test, run as part of the test suite.

``perfbench/`` drives the program through ``cli.run_job``,
``cli.run_manifest``, ``cli.REPORT_VERSION`` and the module-level binding
``cli.serialize_result``, and patches traced call sites by name; a change
that breaks any of these fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
