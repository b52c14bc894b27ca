"""The benchmark harness still runs against the package.

``benchmarks/selftest.py`` drives every benchmark workload on tiny shapes
through the CLI flags and public names the harness relies on, so a removed
flag or name fails here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
