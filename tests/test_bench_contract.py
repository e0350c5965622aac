"""The benchmark's tracer wraps library attributes by name (bench/tracing.py).

Installing it against the package fails as soon as one of those attributes
is renamed or removed, so this guards the names the benchmark relies on.
A wrapper only sees the calls made through the attribute it replaced, so
the time loops must reach their step, and the DG step its linear solve,
through the module or class attribute, not through a reference taken when
the module was imported; a mesh sweep, likewise, must reach its time loop
once per alpha through the harness attribute.  The probe sample of the
sweep workloads steps the solvers through their 1-D entry points, which no
harness run reaches, so it runs here too.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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
print(
    tracer.totals()["graph.step"][0], result.trajectory.n_steps,
    len(tracer.values["graph.nodes"]), tracer.values["graph.nodes"][0],
    tracer.values["graph.edges"][0],
)
"""

GRAPH_DUMP = """
import os, sys
import fkneuro, tracing
from fkneuro.config import SimulationConfig
from fkneuro.geometry import generate_connectome, write_connectome

tracer = tracing.Tracer()
tracing.install(tracer, fkneuro)
tmp = sys.argv[1]
write_connectome(generate_connectome(5, topology="ring"), tmp + "/ring.csv")
cfg = SimulationConfig(
    domain="graph", graph_path=tmp + "/ring.csv", atlas_table="slabs",
    seed_regions="II", T=0.5, dump_states=True, output_dir=tmp + "/out",
)
result = fkneuro.run(cfg)
print(
    os.path.getsize(result.paths["region_averages"]), os.path.getsize(result.paths["nodes"]),
    *tracer.values["io.series_csv_bytes"],
)
"""

GRAPH_SWEEP = """
import sys
import fkneuro, tracing
from fkneuro.config import SimulationConfig
from fkneuro.geometry import generate_connectome, write_connectome

tracer = tracing.Tracer()
tracing.install(tracer, fkneuro)
tmp = sys.argv[1]
write_connectome(generate_connectome(6, topology="ring", extra_edges=[(1, 4)]), tmp + "/ring.csv")
cfg = SimulationConfig(
    domain="graph", graph_path=tmp + "/ring.csv", atlas_table="slabs",
    seed_regions="all", T=40.0, workers=1, output_dir=tmp + "/out",
)
fkneuro.sweep(cfg, [0.5, 1.0, 2.0])
print(
    tracer.totals()["graph.load"][0],
    *tracer.values["graph.nodes"], *tracer.values["graph.edges"],
)
"""

MESH_RUN = """
import sys
import fkneuro, tracing
from fkneuro.config import SimulationConfig
from fkneuro.geometry import generate_structured_mesh, slab_labeler, write_mesh

tracer = tracing.Tracer()
tracing.install(tracer, fkneuro)
tmp = sys.argv[1]
mesh = generate_structured_mesh(2, 5, 100.0, labeler=slab_labeler(5, 100.0))
write_mesh(mesh, tmp + "/slabs.fkmesh")
cfg = SimulationConfig(
    domain="mesh", mesh_path=tmp + "/slabs.fkmesh", atlas_table="slabs",
    seed_regions="II", T=0.5, output_dir=tmp + "/out",
)
result = fkneuro.run(cfg)
totals = tracer.totals()
print(
    totals["dg.step"][0], totals["dg.solve"][0], max(tracer.values["dg.static_nnz"]),
    result.trajectory.n_steps, totals["dg.space"][0], totals["dg.assemble"][0],
    len(tracer.values["dg.dofs"]), tracer.values["dg.dofs"][0],
    result.trajectory.states.shape[1],
    len(tracer.values["mesh.elements"]), tracer.values["mesh.elements"][0],
    tracer.values["mesh.internal_faces"][0],
)
"""

MESH_SWEEP = """
import sys
import fkneuro, tracing
from fkneuro.config import SimulationConfig
from fkneuro.geometry import generate_structured_mesh, slab_labeler, write_mesh

tracer = tracing.Tracer()
tracing.install(tracer, fkneuro)
tmp = sys.argv[1]
mesh = generate_structured_mesh(2, 3, 100.0, labeler=slab_labeler(5, 100.0))
write_mesh(mesh, tmp + "/slabs.fkmesh")
cfg = SimulationConfig(
    domain="mesh", mesh_path=tmp + "/slabs.fkmesh", atlas_table="slabs",
    seed_regions="all", T=0.5, output_dir=tmp + "/out",
)
fkneuro.sweep(cfg, [6.3, 8.54])
totals = tracer.totals()
print(
    totals["dg.loop"][0], len(tracer.values["mem.states_bytes"]),
    totals["mesh.load"][0], totals["dg.assemble"][0],
)
"""


# appended to a traced run: the reduction spans and the series CSVs it wrote
REDUCTIONS = """
totals = tracer.totals()
print(
    totals.get("staging.spatial_average", (0,))[0],
    totals.get("staging.stage_average_curves", (0,))[0],
    sum(size > 0 for size in tracer.values["io.series_csv_bytes"]),
)
"""


def assert_reductions_traced(averages, stage_curves, series_files):
    # a run reaches both wrapped reductions through the attributes the
    # tracer replaced, and writes trajectory.csv and region_averages.csv
    assert averages >= 1
    assert stage_curves >= 1
    assert series_files >= 2


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
    proc = run_with_bench(GRAPH_RUN + REDUCTIONS, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    *numbers, averages, stage_curves, series_files = map(float, proc.stdout.split())
    spans, steps, loads_recorded, nodes, edges = numbers
    assert_reductions_traced(averages, stage_curves, series_files)
    assert steps == 10
    assert spans == steps
    # the per-layer graph counts keep their meaning: one load of the
    # 5-node ring, which has 5 edges
    assert loads_recorded == 1
    assert nodes == 5
    assert edges == 5


def test_bench_tracer_sees_one_load_per_graph_sweep(tmp_path):
    # a graph sweep loads its file once, through harness.load_connectome,
    # and solves every alpha on it: one graph.load span with the file's
    # 6 nodes and its 6 ring edges plus one shortcut
    proc = run_with_bench(GRAPH_SWEEP, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    loads, *counts = map(float, proc.stdout.split())
    assert loads == 1
    assert counts == [6, 7]


def test_bench_tracer_counts_the_series_files_of_a_graph_state_dump(tmp_path):
    # nodes.csv is written in the pass that writes region_averages.csv,
    # which still goes through the harness's write_series_csv: the tracer
    # sees trajectory.csv and region_averages.csv, and counts their bytes
    proc = run_with_bench(GRAPH_DUMP, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    region_bytes, node_bytes, *series_bytes = map(float, proc.stdout.split())
    assert node_bytes > 0
    assert len(series_bytes) == 2
    assert region_bytes in series_bytes


def test_bench_tracer_counts_the_bytes_of_a_streamed_state_dump(tmp_path):
    # the dump is streamed from the time loop, and harness.write_state_dump
    # puts it at its path: the tracer's io.state_dump_bytes is the size of
    # states.bin, header and every state
    code = GRAPH_DUMP + """
print(os.path.getsize(result.paths["states"]), *tracer.values["io.state_dump_bytes"])
"""
    proc = run_with_bench(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    size, *recorded = map(float, proc.stdout.splitlines()[-1].split())
    assert recorded == [size]
    assert size == len(b"FKSTATE 1 5 10\n") + 11 * 5 * 8  # T = 0.5, dt = 0.05


def test_bench_tracer_records_every_mesh_step_and_solve(tmp_path):
    proc = run_with_bench(MESH_RUN + REDUCTIONS, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    *numbers, averages, stage_curves, series_files = map(float, proc.stdout.split())
    assert_reductions_traced(averages, stage_curves, series_files)
    step_spans, solve_spans, static_nnz, steps, *rest = numbers
    space_spans, assemble_spans, dofs_recorded, dofs, n_states, *counts = rest
    loads_recorded, elements, internal_faces = counts
    assert steps == 10
    assert step_spans == steps
    assert solve_spans == steps
    assert static_nnz > 0
    # one space and one assembly per run, and the space the tracer saw is
    # the one the trajectory lives in
    assert space_spans == 1
    assert assemble_spans == 1
    assert dofs_recorded == 1
    assert dofs == n_states
    # the per-layer mesh counts keep their meaning: 2 * 5^2 triangles, and
    # the 85 edges of the 5 x 5 grid with its diagonals minus the 20 on the
    # boundary
    assert loads_recorded == 1
    assert elements == 50
    assert internal_faces == 65


def test_bench_tracer_sees_each_alpha_of_a_mesh_sweep(tmp_path):
    # the benchmark's per-layer mesh-sweep numbers come from these spans:
    # one time loop and one state block per alpha, on one load and assembly
    proc = run_with_bench(MESH_SWEEP, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    loops, states, loads, assemblies = map(float, proc.stdout.split())
    assert loops == 2
    assert states == 2
    assert loads == 1
    assert assemblies == 1


@pytest.mark.parametrize("workload", ["mesh-sweep", "graph-sweep"])
def test_bench_probe_step_is_finite_and_matches_the_reference(workload, tmp_path):
    # worker.probe takes one step from a seeded non-uniform state through
    # MeshStepper.step or a 1-D step_cn_extrapolated
    proc = subprocess.run(
        [
            sys.executable, "bench/worker.py", "--workload", workload, "--seed", "0",
            "--outdir", str(tmp_path), "--t-spawn", str(time.monotonic()), "--mode", "probe",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads((tmp_path / "probe.json").read_text())
    assert set(probe) == {"energy", "norm", "change"}
    assert all(math.isfinite(v) and v > 0 for v in probe.values())
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    expected = reference["entries"][workload]["0"]["probe"]
    for name, value in expected.items():
        assert probe[name] == pytest.approx(value, rel=reference["probe_rtol"])
