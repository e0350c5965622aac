"""The benchmark's tracer wraps library attributes by name (bench/tracing.py).

Installing it against the package fails as soon as one of those attributes
is renamed or removed, so this guards the names the benchmark relies on.
A wrapper only sees the calls made through the attribute it replaced, so
the graph time loop must reach its step through the module attribute, not
through a reference taken when the module was imported.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GRAPH_RUN = """
import sys
import fkneuro, tracing
from fkneuro.config import SimulationConfig
from fkneuro.geometry import generate_connectome, write_connectome

tracer = tracing.Tracer()
tracing.install(tracer, fkneuro)
tmp = sys.argv[1]
write_connectome(generate_connectome(5, topology="ring"), tmp + "/ring.csv")
cfg = SimulationConfig(
    domain="graph", graph_path=tmp + "/ring.csv", atlas_table="slabs",
    seed_regions="II", T=0.5, output_dir=tmp + "/out",
)
result = fkneuro.run(cfg)
print(tracer.totals()["graph.step"][0], result.trajectory.n_steps)
"""


def run_with_bench(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_bench_tracer_installs():
    proc = run_with_bench("import fkneuro, tracing; tracing.install(tracing.Tracer(), fkneuro)")
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_records_every_graph_step(tmp_path):
    proc = run_with_bench(GRAPH_RUN, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    spans, steps = map(int, proc.stdout.split())
    assert steps == 10
    assert spans == steps
