"""The benchmark's tracer wraps library attributes by name (bench/tracing.py).

Installing it against the package fails as soon as one of those attributes
is renamed or removed, so this guards the names the benchmark relies on.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import fkneuro, tracing; tracing.install(tracing.Tracer(), fkneuro)",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
