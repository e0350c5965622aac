#!/usr/bin/env python3
"""Reproduce ROADMAP's "Baseline numbers to beat" table on one thread.

    python3 bench/ladder.py

Each row is measured at the table's size and compared with the table's
value.  Times agree when within a factor TIME_FACTOR of the table (the
sandbox the table came from is shared, and its CPU speed drifts); counts
and computed bytes agree when within COUNT_RTOL.  Rows that disagree are
listed at the end and make the exit status 1.  The rows are also written
to bench/out/ladder.json.  Not part of the gated benchmark runs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from worker import EXTENT, HERE, N_SLABS, long_range_edges  # noqa: E402

import fkneuro  # noqa: E402
from fkneuro import geometry as geo  # noqa: E402
from fkneuro.config import SimulationConfig  # noqa: E402
from fkneuro.dg.stepper import MeshStepper  # noqa: E402

TIME_FACTOR = 2.0
COUNT_RTOL = 0.10
DT = 0.05
ALPHA = 0.61

# (row, unit, table value); times in the table's units
TABLE = [
    ("graph step M=83", "ms", 0.09),
    ("graph step M=256", "ms", 2.5),
    ("graph step M=257", "ms", 4.6),
    ("graph step M=1015", "ms", 117.0),
    ("graph step M=4000", "ms", 6400.0),
    ("DG assembly 2D n=48", "s", 5.4),
    ("DG assembly 3D n=6", "s", 3.5),
    ("DG assembly 2D n=96", "s", 22.0),
    ("DG step 2D n=48", "ms", 120.0),
    ("DG step 3D n=6", "ms", 131.0),
    ("DG step CG iterations 2D n=48", "count", 3.4),
    ("DG step CG iterations 3D n=6", "count", 3.4),
    ("nonlinear_reaction 3D n=6", "ms", 34.0),
    ("static LU fill 2D n=48", "count", 9.8e6),
    ("static LU solve 2D n=48", "ms", 22.0),
    ("harness.run 2D n=12 T=40", "s", 2.3),
    ("states bytes 2D n=96", "MB", 709.0),
]


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slab_mesh(dim, n):
    return geo.generate_structured_mesh(
        dim, n, EXTENT, labeler=geo.slab_labeler(N_SLABS, EXTENT)
    )


def graph_rows(out):
    rng = np.random.default_rng(0)
    for M in (83, 256, 257, 1015, 4000):
        conn = geo.generate_connectome(
            M, "ring", extra_edges=long_range_edges(rng, M, 3 * M)
        )
        C = fkneuro.graphfk.seed_vector(conn, [2], 0.1)
        step = lambda: fkneuro.graphfk.step_cn_extrapolated(conn, C, C, ALPHA, DT)  # noqa: E731
        if M < 4000:
            step()  # the dense path caches the Laplacian on its first call
        out[f"graph step M={M}"] = 1e3 * median_time(step, 25 if M < 4000 else 1)


def dg_rows(out, label, dim, n, steps=True):
    mesh = slab_mesh(dim, n)
    model = geo.DiffusionModel(d_ext=8.0, d_axn=80.0)
    t0 = time.perf_counter()
    system = fkneuro.dg.assemble(mesh, model, ALPHA, 10.0, 2)
    out[f"DG assembly {label}"] = time.perf_counter() - t0
    if label == "2D n=96":
        n_steps = int(round(SimulationConfig().T / DT))
        out[f"states bytes {label}"] = (n_steps + 1) * system.N * 8 / 1e6
    if not steps:
        return
    C0 = system.space.seed_vector({2}, 0.1)
    stepper = MeshStepper(system, DT)
    states, iters = [C0], []

    def step():  # advance the state, as the time loop does
        C, stats = stepper.step(states[-1])
        states.append(C)
        iters.append(stats["iterations"])

    out[f"DG step {label}"] = 1e3 * median_time(step, 5)
    out[f"DG step CG iterations {label}"] = statistics.fmean(iters)
    C = states[-1]
    if label == "3D n=6":
        out[f"nonlinear_reaction {label}"] = 1e3 * median_time(
            lambda: system.nonlinear_reaction(C), 5
        )
    if label == "2D n=48":
        lu = spla.splu(stepper.static_part.tocsc())
        out[f"static LU fill {label}"] = lu.L.nnz + lu.U.nnz
        b = np.ones(system.N)
        out[f"static LU solve {label}"] = 1e3 * median_time(lambda: lu.solve(b), 5)


def harness_row(out, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "slabs12.fkmesh"
    geo.write_mesh(slab_mesh(2, 12), path)
    cfg = SimulationConfig(domain="mesh", mesh_path=str(path), output_dir=str(workdir / "run"))
    t0 = time.perf_counter()
    fkneuro.run(cfg)
    out["harness.run 2D n=12 T=40"] = time.perf_counter() - t0


def agrees(unit, measured, table):
    if unit in ("s", "ms"):
        return 1 / TIME_FACTOR <= measured / table <= TIME_FACTOR
    return abs(measured - table) <= COUNT_RTOL * table


def main():
    measured = {}
    graph_rows(measured)
    dg_rows(measured, "2D n=48", 2, 48)
    dg_rows(measured, "3D n=6", 3, 6)
    # no step at 2D n=96: the table has no row for it, and its static LU
    # would need on the order of a gigabyte
    dg_rows(measured, "2D n=96", 2, 96, steps=False)
    harness_row(measured, HERE / "out" / "ladder")

    rows, disagree = [], []
    print(f"{'row':34s} {'unit':>5s} {'table':>12s} {'measured':>12s} {'ratio':>7s}")
    for name, unit, table in TABLE:
        value = measured[name]
        ok = agrees(unit, value, table)
        rows.append({"row": name, "unit": unit, "table": table, "measured": value, "agrees": ok})
        print(f"{name:34s} {unit:>5s} {table:12.4g} {value:12.4g} {value / table:7.2f}"
              + ("" if ok else "  DISAGREES"))
        if not ok:
            disagree.append(name)
    with open(HERE / "out" / "ladder.json", "w") as f:
        json.dump({"rows": rows, "time_factor": TIME_FACTOR, "count_rtol": COUNT_RTOL}, f, indent=1)
    if disagree:
        print("rows that disagree with the table: " + ", ".join(disagree))
        return 1
    print("every row agrees with the table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
