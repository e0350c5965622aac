"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Heavy quantitative gates live here; unit-level coverage is in the other
test modules.  Every tolerance is pinned in the assertions below.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    cn_extrapolated_predicted_error,
    edgeless_graph,
    graph_run,
    logistic,
    mesh_run,
)
from fkneuro import graphfk, harness
from fkneuro.config import SimulationConfig
from fkneuro.dg import assemble, solve_fk_mesh
from fkneuro.geometry import (
    DiffusionModel,
    generate_connectome,
    generate_structured_mesh,
    slab_atlas,
    slab_labeler,
    write_connectome,
    write_mesh,
)
from fkneuro.staging import (
    ACTIVE,
    LAG,
    braak_activation_order,
    classify_phase,
    inflection_count,
    map_suvr_abeta,
    map_suvr_tau,
    reconstruct_macrostages,
    stage_average_curves,
)
from fkneuro.trajectory import read_series_csv
from test_dg_system import element_gram_blocks, perturbed_mesh


def report(criterion, checks):
    ok = all(flag for flag, _ in checks)
    details = "; ".join(msg for _, msg in checks)
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {details}")
    return ok


def mesh_global_average(system, states):
    weights = system.space.basis_integrals.ravel()
    return states @ weights / system.mesh.measure


def test_criterion_1_graph_logistic_oracle():
    # The bound is the scheme's own leading error from the truncation
    # analysis (see cn_extrapolated_predicted_error), with 5% room for the
    # O(dt^3) terms; it is computed before the timed solver calls.  The
    # runtime is this process's CPU time, which other processes on the
    # host do not add to.
    times = 0.05 * np.arange(801)
    predicted = {
        alpha: np.abs(cn_extrapolated_predicted_error(times, 0.1, alpha, 0.05)).max()
        for alpha in (0.61, 0.70)
    }
    t0 = time.process_time()
    conn = edgeless_graph(1)
    checks = []
    for alpha, pred in predicted.items():
        traj, states = graph_run(conn, np.array([0.1]), alpha=alpha, dt=0.05, T=40.0)
        err = np.abs(states[:, 0] - logistic(traj.times, 0.1, alpha)).max()
        bound = 1.05 * pred
        checks.append(
            (
                err <= bound,
                f"alpha={alpha}: max err {err:.3e} (<={bound:.3e}), "
                f"measured/predicted {err / pred:.4f}",
            )
        )
    errors = []
    for dt in (0.1, 0.05, 0.025):
        traj, states = graph_run(conn, np.array([0.1]), alpha=0.61, dt=dt, T=40.0)
        errors.append(np.abs(states[:, 0] - logistic(traj.times, 0.1, 0.61)).max())
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    checks.append(
        (all(1.8 <= o <= 2.2 for o in orders), f"orders {[f'{o:.2f}' for o in orders]}")
    )
    elapsed = time.process_time() - t0
    checks.append((elapsed < 1.0, f"runtime {elapsed:.2f}s (<1s)"))
    assert report(1, checks)


def test_criterion_2_dg_logistic_oracle():
    t0 = time.perf_counter()
    mesh = generate_structured_mesh(2, 8, 1.0)
    checks = []
    for alpha in (0.61, 0.70):
        system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=alpha, eta0=10.0, degree=2)
        C0 = system.space.seed_vector([1], 0.1)
        traj, states = mesh_run(system, C0, dt=0.01, T=40.0)
        avg = mesh_global_average(system, states)
        err = np.abs(avg - logistic(traj.times, 0.1, alpha)).max()
        checks.append((err <= 5e-3, f"alpha={alpha}: max err {err:.3e} (<=5e-3)"))
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    C0 = system.space.seed_vector([1], 0.1)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        traj, states = mesh_run(system, C0, dt=dt, T=40.0)
        avg = mesh_global_average(system, states)
        errors.append(np.abs(avg - logistic(traj.times, 0.1, 0.61)).max())
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    checks.append(
        (all(0.9 <= o <= 1.1 for o in orders), f"orders {[f'{o:.2f}' for o in orders]}")
    )
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s (<30s)"))
    assert report(2, checks)


def test_criterion_3_dg_spatial_convergence():
    t0 = time.perf_counter()
    alpha, T = 1.0, 0.1

    def exact(pts, t):
        return (
            np.exp(-t)
            * (1.0 + np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1]))
            / 4.0
        )

    def forcing(pts, t):
        g = np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
        c = np.exp(-t) * (1.0 + g) / 4.0
        return -c + (np.pi**2 / 2.0) * np.exp(-t) * g - alpha * c * (1.0 - c)

    checks = []
    for degree, levels, dt in ((1, (4, 8, 16, 32), 1e-3), (2, (2, 4, 8, 16), 2e-4)):
        errors = []
        for n in levels:
            mesh = generate_structured_mesh(2, n, 1.0)
            system = assemble(
                mesh, DiffusionModel(1.0, 0.0), alpha=alpha, eta0=10.0, degree=degree
            )
            C0 = system.space.project(lambda p: exact(p, 0.0))
            traj = solve_fk_mesh(system, C0, dt=dt, T=T, forcing=forcing)
            errors.append(system.space.l2_error(traj.states[-1], lambda p: exact(p, T)))
        # least-squares slope of log error against log h over the levels
        x = np.log(1.0 / np.array(levels))
        slope = np.polyfit(x, np.log(errors), 1)[0]
        checks.append(
            (
                slope >= degree + 0.8,
                f"ell={degree}: order {slope:.2f} (>= {degree + 0.8})",
            )
        )
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 300.0, f"runtime {elapsed:.1f}s (<5min)"))
    assert report(3, checks)


def test_criterion_4_structural_algebra():
    checks = []
    mesh = perturbed_mesh(4, seed=13)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    A, M = system.stiffness, element_gram_blocks(system.space)
    scale_a = np.abs(A.data).max()
    asym = A - A.T
    a_sym = (np.abs(asym.data).max() if asym.nnz else 0.0) / scale_a
    m_sym = np.abs(M - M.transpose(0, 2, 1)).max()
    checks.append((a_sym <= 1e-12, f"A asymmetry {a_sym:.2e} rel"))
    checks.append((m_sym <= 1e-12, f"M asymmetry {m_sym:.2e}"))
    ones = system.space.project(lambda p: np.ones(len(p)))
    kernel = np.abs(A @ ones).max() / scale_a
    checks.append((kernel <= 1e-10, f"|A@const| {kernel:.2e} rel"))

    conn = generate_connectome(7, topology="ring")
    L = conn.laplacian
    row = np.abs(np.asarray(L.sum(axis=1)).ravel()).max()
    checks.append((row <= 1e-12 * np.abs(L.data).max(), f"|L@1| {row:.2e}"))

    C = graphfk.seed_vector(conn, [1, 3], 0.8)
    total = C.sum()
    prev = curr = C
    worst = 0.0
    for _ in range(800):
        nxt, _ = graphfk.step_cn_extrapolated(conn, curr, prev, alpha=0.0, dt=0.05)
        worst = max(worst, abs(nxt.sum() - total))
        total = nxt.sum()
        prev, curr = curr, nxt
    checks.append((worst <= 1e-12, f"per-step mass drift {worst:.2e} over 800 steps"))
    assert report(4, checks)


def test_criterion_5_penalty_point_check():
    from test_dg_system import equilateral_pair_mesh
    from fkneuro.dg import face_penalties

    mesh = equilateral_pair_mesh()
    (eta,) = face_penalties(
        mesh, DiffusionModel(8.0, 80.0), degree=2, eta0=10.0, alpha=0.61
    )
    checks = [(eta == 3520.0, f"eta = {eta!r} (== 3520.0 exactly)")]
    assert report(5, checks)


@pytest.fixture(scope="module")
def sweep_domains(tmp_path_factory):
    # wide slab domain so the low-alpha front does not homogenize the
    # slabs before the half-crossing
    root = tmp_path_factory.mktemp("sweep_domains")
    mesh = generate_structured_mesh(2, 12, 100.0, labeler=slab_labeler(5, 100.0))
    mesh_path = root / "slabs.fkmesh"
    write_mesh(mesh, mesh_path)
    conn = generate_connectome(5, topology="chain")
    graph_path = root / "chain.csv"
    write_connectome(conn, graph_path)
    return {"mesh": str(mesh_path), "graph": str(graph_path), "root": root}


def test_criterion_6_sensitivity_monotonicity(sweep_domains, tmp_path):
    t0 = time.perf_counter()
    checks = []
    cases = [
        ("dg-abeta", "mesh", harness.ABETA_ALPHAS, "all", 0.1),
        ("dg-tau", "mesh", harness.TAU_ALPHAS, "II", 0.1),
        ("graph-abeta", "graph", harness.ABETA_ALPHAS, "all", 0.1),
        ("graph-tau", "graph", harness.TAU_ALPHAS, "II", 0.3),
    ]
    for name, domain, alphas, seeds, seed_value in cases:
        cfg = SimulationConfig(
            domain=domain,
            mesh_path=sweep_domains["mesh"],
            graph_path=sweep_domains["graph"],
            atlas_table="slabs",
            dt=0.05,
            T=40.0,
            seed_regions=seeds,
            seed_value=seed_value,
            output_dir=str(tmp_path / name),
        )
        summary = harness.sweep(cfg, alphas)  # raises unless t_half strictly decreasing
        rows = open(summary).read().strip().splitlines()[1:]
        t_half = [float(r.split(",")[1]) for r in rows]
        mono = all(b < a for a, b in zip(t_half, t_half[1:]))
        sigmoid = []
        for alpha in alphas:
            _, cols = read_series_csv(tmp_path / name / f"alpha_{alpha:g}" / "trajectory.csv")
            sigmoid.append(inflection_count(cols["avg_global"]) == 1)
        checks.append(
            (
                mono and all(sigmoid),
                f"{name}: t_half {t_half[0]:.2f}..{t_half[-1]:.2f} monotone={mono} "
                f"sigmoidal {sum(sigmoid)}/{len(sigmoid)}",
            )
        )
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 600.0, f"runtime {elapsed:.1f}s (<10min)"))
    assert report(6, checks)


def test_criterion_7_suvr_mapping_goldens():
    checks = []
    pa = SimulationConfig().suvr_abeta()
    checks.append((map_suvr_abeta(1.3, pa) == 0.0, "abeta(1.3)=0"))
    checks.append((map_suvr_abeta(2.2, pa) == 1.0, "abeta(2.2)=1"))
    v = map_suvr_abeta(1.55, pa)
    checks.append((abs(v - 0.2778) <= 1e-4, f"abeta(1.55)={v:.6f} (0.2778 +/- 1e-4)"))
    pt = SimulationConfig().suvr_tau()
    lag_v = map_suvr_tau(1.475, LAG, pt)
    checks.append((abs(lag_v - 0.125) <= 1e-12, f"tau lag(1.475)={lag_v!r}"))

    pt.abnormality_thresholds["ROI"] = 1.5
    r1 = classify_phase("ROI", [0.8, 0.9, 1.0, 1.1, 1.45, 1.55, 1.9], pt)
    checks.append((r1.phases[4] == ACTIVE and r1.phases[3] == LAG, "onset one before crossing"))
    r2 = classify_phase("ROI", [0.8, 0.9, 1.0, 1.1, 1.30, 1.55, 1.9], pt)
    checks.append((r2.phases[3] == ACTIVE and r2.phases[2] == LAG, "back-shift two stages"))
    r3 = classify_phase("Braak II", [0.9, 1.2, 1.5], pt, early_region=True)
    checks.append((r3.phases[0] == ACTIVE, "early region active from first stage"))
    assert report(7, checks)


def test_criterion_8_staging_order_and_robustness():
    mesh = generate_structured_mesh(2, 12, 100.0, labeler=slab_labeler(5, 100.0))
    atlas = slab_atlas()
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.70, eta0=10.0, degree=2)
    C0 = system.space.seed_vector(atlas.stages["II"], 0.1)
    traj, states = mesh_run(system, C0, dt=0.05, T=20.0)
    curves = stage_average_curves(states, atlas, system.space)

    checks = []
    timelines = {}
    for c_crit in (0.4, 0.5):
        rep = braak_activation_order(traj.times, curves, c_crit)
        strict = [s for s, _ in rep.entries] == ["II", "III", "IV", "V", "VI"] and all(
            b[1] > a[1] for a, b in zip(rep.entries, rep.entries[1:])
        )
        checks.append(
            (rep.order == "anatomical" and strict, f"c_crit={c_crit}: order II<III<IV<V<VI")
        )
        timelines[c_crit] = reconstruct_macrostages(traj.times, curves, c_crit)
    earlier = (
        timelines[0.4].t1 < timelines[0.5].t1 and timelines[0.4].t2 < timelines[0.5].t2
    )
    checks.append((earlier, "boundaries shift earlier at 0.4"))
    d04 = timelines[0.4].t2 - timelines[0.4].t1
    d05 = timelines[0.5].t2 - timelines[0.5].t1
    change = abs(d04 - d05) / d05
    checks.append(
        (change <= 0.25, f"central duration {d05:.2f}->{d04:.2f}y, change {change:.1%} (<=25%)")
    )
    assert report(8, checks)


def test_criterion_9_scheme_variant_audit():
    conn = edgeless_graph(1)
    consistent, _ = graphfk.step_cn_extrapolated(
        conn, np.array([0.1]), np.array([0.1]), alpha=0.61, dt=0.05
    )
    literal, _ = graphfk.step_cn_extrapolated(
        conn, np.array([0.1]), np.array([0.1]), alpha=0.61, dt=0.05, literal_rhs=True
    )
    # brute-force scalar solves of both variants
    r = 0.61 * 0.05 * 0.9
    oracle_consistent = 0.1 * (2.0 + r) / (2.0 - r)
    oracle_literal = 0.1 * (2.0 - r) / (2.0 - r)
    checks = [
        (
            abs(consistent[0] - oracle_consistent) <= 1e-15,
            f"consistent C1 {consistent[0]:.9f}",
        ),
        (abs(literal[0] - oracle_literal) <= 1e-15, f"literal C1 {literal[0]:.9f}"),
        (literal[0] < consistent[0], "literal < consistent"),
        (literal[0] < 0.102814, "literal below quoted consistent level"),
    ]
    assert report(9, checks)
