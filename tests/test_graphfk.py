import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edgeless_graph, graph_run, logistic, scalar_cn_extrapolated
from fkneuro import graphfk, trajectory
from fkneuro.dg.stepper import solve_linear
from fkneuro.errors import LinearSolverError
from fkneuro.geometry import Connectome, Edges, generate_connectome
from fkneuro.trajectory import first_crossing


def dense_cn_system(conn, C_n, C_nm1, alpha, dt):
    """The Crank-Nicolson system (A, b) of one step, from the dense Laplacian."""
    L = conn.laplacian.toarray()
    eye = np.eye(conn.n_nodes)
    reaction = np.diag(alpha * dt * (1.0 - 0.5 * (3.0 * C_n - C_nm1)))
    return 2.0 * eye + dt * L - reaction, (2.0 * eye - dt * L + reaction) @ C_n


def dense_cn_states(conn, C0, alpha, dt, n_steps):
    """Direct-solve reference of solve_fk_graph: np.linalg.solve every step."""
    states = [np.asarray(C0, dtype=float)]
    prev = states[0]
    for _ in range(n_steps):
        states.append(np.linalg.solve(*dense_cn_system(conn, states[-1], prev, alpha, dt)))
        prev = states[-2]
    return np.array(states)


def test_rhs_equilibria(triangle_graph):
    ones = np.ones(3)
    assert np.abs(graphfk.rhs_semidiscrete(triangle_graph, ones, 0.7)).max() <= 1e-14
    zeros = np.zeros(3)
    assert np.abs(graphfk.rhs_semidiscrete(triangle_graph, zeros, 0.7)).max() == 0.0


def test_rhs_triangle_hand_value(triangle_graph):
    rhs = graphfk.rhs_semidiscrete(triangle_graph, np.array([1.0, 0.0, 0.0]), 0.0)
    assert np.allclose(rhs, [-2.0, 1.0, 1.0], atol=1e-14)


def test_rhs_dimension_mismatch(triangle_graph):
    with pytest.raises(ValueError, match="shape"):
        graphfk.rhs_semidiscrete(triangle_graph, np.zeros(4), 0.7)


def test_step_residuals_are_true_residuals():
    # a step's "residual" is |rhs - (a C' + dt L C')| / |rhs| of its own
    # system, also on the steps CG leaves at its start (0 iterations), where
    # it comes from CG's first residual instead of a check of its own
    conn = generate_connectome(5, topology="chain")
    L = conn.laplacian
    alpha, dt = 3.0, 0.05
    traj, states = graph_run(conn, np.array([0.1, 0, 0, 0, 0]), alpha, dt, T=40.0)
    iterations = [stats["iterations"] for stats in traj.solver_stats]
    assert 0 in iterations and max(iterations) > 0
    for n, stats in enumerate(traj.solver_stats):
        C_n, C_next = states[n], states[n + 1]
        C_nm1 = states[max(n - 1, 0)]
        reaction = alpha * dt * (1.0 - 0.5 * (3.0 * C_n - C_nm1))
        rhs = (2.0 + reaction) * C_n - dt * (L @ C_n)
        d = rhs - ((2.0 - reaction) * C_next + dt * (L @ C_next))
        true = np.linalg.norm(d) / np.linalg.norm(rhs)
        assert stats["residual"] == pytest.approx(true, rel=1e-9, abs=0.0), n


def test_single_node_update_matches_brute_force():
    conn = edgeless_graph(1)
    c1, stats = graphfk.step_cn_extrapolated(
        conn, np.array([0.1]), np.array([0.1]), alpha=0.61, dt=0.05
    )
    oracle = scalar_cn_extrapolated(0.1, 0.61, 0.05, 1)[-1]
    assert c1[0] == pytest.approx(oracle, abs=1e-15)
    assert c1[0] == pytest.approx(0.1 * 2.02745 / 1.97255, abs=1e-15)
    assert stats["residual"] <= 1e-12


def test_literal_rhs_variant_damps_growth():
    conn = edgeless_graph(1)
    consistent, _ = graphfk.step_cn_extrapolated(
        conn, np.array([0.1]), np.array([0.1]), alpha=0.61, dt=0.05
    )
    literal, _ = graphfk.step_cn_extrapolated(
        conn, np.array([0.1]), np.array([0.1]), alpha=0.61, dt=0.05, literal_rhs=True
    )
    # the as-printed sign cancels the reaction on a single node
    assert literal[0] == pytest.approx(0.1, abs=1e-15)
    assert literal[0] < consistent[0]


def test_edgeless_no_reaction_is_identity():
    conn = edgeless_graph(3)
    C = np.array([0.2, 0.5, 0.9])
    nxt, _ = graphfk.step_cn_extrapolated(conn, C, C, alpha=0.0, dt=0.05)
    assert np.abs(nxt - C).max() <= 1e-15


def test_equilibria_are_fixed_points():
    conn = generate_connectome(6, topology="ring")
    for value in (0.0, 1.0):
        state = np.full(6, value)
        nxt, _ = graphfk.step_cn_extrapolated(conn, state, state, alpha=0.7, dt=0.05)
        assert np.abs(nxt - state).max() <= 1e-12


def test_diffusion_only_mass_conservation():
    conn = generate_connectome(6, topology="ring")
    C0 = graphfk.seed_vector(conn, [1, 4], 0.8)
    total0 = C0.sum()
    prev = curr = C0
    for _ in range(800):
        nxt, _ = graphfk.step_cn_extrapolated(conn, curr, prev, alpha=0.0, dt=0.05)
        assert abs(nxt.sum() - total0) <= 1e-12
        prev, curr = curr, nxt


def test_no_edges_matches_scalar_scheme_and_logistic():
    conn = edgeless_graph(4)
    C0 = np.full(4, 0.1)
    traj, states = graph_run(conn, C0, alpha=0.70, dt=0.05, T=40.0)
    oracle = scalar_cn_extrapolated(0.1, 0.70, 0.05, traj.n_steps)
    for j in range(4):
        assert np.abs(states[:, j] - oracle).max() <= 1e-12
    # the scheme itself sits ~7e-5 from the continuous logistic at this step
    assert np.abs(states[:, 0] - logistic(traj.times, 0.1, 0.70)).max() <= 1e-4


def test_temporal_order_two():
    errors = []
    conn = edgeless_graph(1)
    for dt in (0.1, 0.05, 0.025):
        traj, states = graph_run(conn, np.array([0.1]), alpha=0.61, dt=dt, T=40.0)
        errors.append(np.abs(states[:, 0] - logistic(traj.times, 0.1, 0.61)).max())
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    n = 6
    nodes = [(i, i + 1) for i in range(n - 1)] + [(0, 3)]
    counts = [10.0] * (n - 1) + [4.0]
    lengths = [5.0] * (n - 1) + [2.0]
    conn = Connectome(
        region_ids=np.arange(1, n + 1),
        coords=np.zeros((n, 3)),
        volumes=np.ones(n),
        edges=Edges(nodes, counts, lengths),
    )
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    conn_p = Connectome(
        region_ids=conn.region_ids[perm],
        coords=conn.coords[perm],
        volumes=conn.volumes[perm],
        edges=Edges(inv[conn.edges.nodes], counts, lengths),
    )
    C0 = rng.uniform(0.0, 0.3, n)
    _, states = graph_run(conn, C0, alpha=0.7, dt=0.05, T=2.0)
    _, states_p = graph_run(conn_p, C0[perm], alpha=0.7, dt=0.05, T=2.0)
    assert np.abs(states[:, perm] - states_p).max() <= 1e-12


def test_cn_system_matrix_symmetric(triangle_graph):
    import scipy.sparse as sp

    dt, alpha = 0.05, 0.7
    C = np.array([0.3, 0.1, 0.0])
    g = 1.0 - 0.5 * (3.0 * C - C)
    lhs = (
        2.0 * sp.identity(3)
        + dt * triangle_graph.laplacian
        - sp.diags(alpha * dt * g)
    )
    asym = lhs - lhs.T
    assert (np.abs(asym.data).max() if asym.nnz else 0.0) <= 1e-15


def test_chain_activation_monotone_in_hops(chain5):
    C0 = graphfk.seed_vector(chain5, [1], 0.3)
    traj, states = graph_run(chain5, C0, alpha=0.70, dt=0.05, T=40.0)
    times = [first_crossing(traj.times, states[:, i], 0.5) for i in range(5)]
    assert all(t is not None for t in times)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_large_graph_matches_dense_direct_solve():
    conn = generate_connectome(
        300, topology="ring", extra_edges=[(1, 150), (40, 260), (75, 226)]
    )
    C0 = graphfk.seed_vector(conn, [1, 150], 0.4)
    traj, states = graph_run(conn, C0, alpha=0.7, dt=0.05, T=0.5)
    reference = dense_cn_states(conn, C0, 0.7, 0.05, traj.n_steps)
    assert np.abs(states - reference).max() <= 1e-12

    ones = np.ones(300)
    nxt, _ = graphfk.step_cn_extrapolated(conn, ones, ones, alpha=0.7, dt=0.05)
    assert np.abs(nxt - 1.0).max() <= 1e-12


def test_solver_stats_recorded(chain5):
    C0 = graphfk.seed_vector(chain5, [1], 0.3)
    traj = graphfk.solve_fk_graph(chain5, C0, alpha=0.61, dt=0.05, T=0.5)
    dg_keys = solve_linear(
        sp.identity(2, format="csr"), np.ones(2), x0=np.zeros(2), rtol=1e-10, maxiter=20,
        precond=lambda r: r,
    )[1].keys()
    assert len(traj.solver_stats) == traj.n_steps
    for entry in traj.solver_stats:
        assert entry.keys() == dg_keys
        assert entry["residual"] <= 1e-12
        assert entry["fallback"] is False
        assert 1 <= entry["iterations"] <= 10


@st.composite
def cn_steps(draw):
    """A ring plus random weighted chords, two back states and (alpha, dt)."""
    M = draw(st.integers(2, 40))
    pairs = {(i, (i + 1) % M) for i in range(M if M > 2 else 1)}
    chords = draw(
        st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)), max_size=2 * M)
    )
    pairs |= {(i, j) for i, j in chords if i != j}
    pairs = {(min(p), max(p)) for p in pairs}
    n_ij = st.floats(0.1, 50.0)
    l_ij = st.floats(1.0, 20.0)
    pairs = sorted(pairs)
    rows = [(draw(n_ij), draw(l_ij)) for _ in pairs]
    conn = Connectome(
        region_ids=np.arange(1, M + 1), coords=np.zeros((M, 3)), volumes=np.ones(M),
        edges=Edges(pairs, *zip(*rows)),
    )
    state = st.lists(st.floats(-0.1, 1.1), min_size=M, max_size=M).map(np.array)
    alpha = draw(st.floats(0.0, 45.0))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    return conn, draw(state), draw(state), alpha, dt


def test_step_matches_dense_direct_solve():
    # a backward-stable solve has forward error <= cond(A) * its residual, so
    # the 1e-12 agreement with the dense solve is asked where cond(A) <= 100
    # (CG stops at 1e-14); every step must pass the residual gate
    indefinite_seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cn_steps())
    def check(case):
        conn, C_n, C_nm1, alpha, dt = case
        A, b = dense_cn_system(conn, C_n, C_nm1, alpha, dt)
        indefinite = bool((2.0 - alpha * dt * (1.0 - 0.5 * (3.0 * C_n - C_nm1))).min() <= 0)
        indefinite_seen.add(indefinite)
        try:
            reference = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            with pytest.raises(LinearSolverError):
                graphfk.step_cn_extrapolated(conn, C_n, C_nm1, alpha, dt)
            return
        try:
            C_next, stats = graphfk.step_cn_extrapolated(conn, C_n, C_nm1, alpha, dt)
        except LinearSolverError:
            assert np.linalg.cond(A) > 100
            return
        assert stats["residual"] <= 1e-12
        if indefinite:
            assert stats["fallback"] and stats["iterations"] == 0
        if np.linalg.cond(A) <= 100:
            scale = np.abs(reference).max()
            assert np.abs(C_next - reference).max() <= 1e-12 * scale
            assert np.linalg.norm(b - A @ C_next) <= 1e-12 * np.linalg.norm(b)

    check()
    assert indefinite_seen == {False, True}


@st.composite
def cn_blocks(draw):
    """A graph, dt and up to five (C_n, C_nm1, alpha) rows of one block step."""
    conn, C_n, C_nm1, alpha, dt = draw(cn_steps())
    M = conn.n_nodes
    state = st.lists(st.floats(-0.1, 1.1), min_size=M, max_size=M).map(np.array)
    rows = [(C_n, C_nm1, alpha)]
    for _ in range(draw(st.integers(0, 4))):
        rows.append((draw(state), draw(state), draw(st.floats(0.0, 45.0))))
    return conn, rows, dt


def test_block_step_rows_equal_single_steps():
    # each row keeps its own scale, CG recurrence, gate and LU fallback, so
    # it gets the bits and stats of a 1-D step, and a row whose 1-D step
    # raises carries that error, whatever the other rows do
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cn_blocks())
    def check(case):
        conn, rows, dt = case
        C_n, C_nm1, alphas = (np.array(column) for column in zip(*rows))
        block, stats = graphfk.step_cn_extrapolated(conn, C_n, C_nm1, alphas, dt)
        assert block.shape == C_n.shape and len(stats) == len(rows)
        for i, (c, c_prev, alpha) in enumerate(rows):
            try:
                single, single_stats = graphfk.step_cn_extrapolated(conn, c, c_prev, alpha, dt)
            except LinearSolverError as exc:
                seen.add("error")
                assert str(stats[i]["error"]) == str(exc)
                assert np.isnan(block[i]).all()
                continue
            seen.add("fallback" if single_stats["fallback"] else "cg")
            assert block[i].tobytes() == single.tobytes()
            assert stats[i] == single_stats

    check()
    assert {"cg", "fallback"} <= seen


def test_lu_fallback_refines_a_solve_above_the_gate(chain5, monkeypatch):
    # at alpha = 50 some a <= 0, so the LU solves the step; its first solve
    # is perturbed by 1e-9 relative, above the 1e-12 gate, and a refinement
    # step with the same factors takes the residual back under it
    C0 = graphfk.seed_vector(chain5, [1], 0.1)
    exact, _ = graphfk.step_cn_extrapolated(chain5, C0, C0, 50.0, 0.05)
    real = spla.splu

    class PerturbedFirstSolve:
        def __init__(self, *args, **kwargs):
            self.lu, self.solves = real(*args, **kwargs), 0

        def solve(self, b):
            self.solves += 1
            x = self.lu.solve(b)
            return x * (1.0 + 1e-9) if self.solves == 1 else x

    monkeypatch.setattr(spla, "splu", PerturbedFirstSolve)
    C_next, stats = graphfk.step_cn_extrapolated(chain5, C0, C0, 50.0, 0.05)
    assert stats["fallback"] is True and stats["iterations"] == 0
    assert stats["residual"] <= 1e-12
    assert np.abs(C_next - exact).max() <= 1e-14 * np.abs(exact).max()


def test_hub_and_ring_graph_passes_the_gate_and_matches_the_direct_solve():
    # a hub joined to a ring of 82 leaves at k = 100: each step takes 47-48
    # of the 50 CG iterations, and must still pass the 1e-12 gate
    rng = np.random.default_rng(0)
    M = 83
    pairs = [(0, j) for j in range(1, M)] + [(j, j + 1) for j in range(1, M - 1)] + [(1, M - 1)]
    conn = Connectome(
        region_ids=np.arange(1, M + 1), coords=np.zeros((M, 3)), volumes=np.ones(M),
        edges=Edges(pairs, rng.uniform(1.0, 50.0, len(pairs)), rng.uniform(1.0, 20.0, len(pairs))),
        scale_k=100.0,
    )
    C0 = graphfk.seed_vector(conn, [2], 0.1)
    traj, states = graph_run(conn, C0, 0.61, 0.05, 2.0)
    assert traj.n_steps == 40
    assert all(row["residual"] <= 1e-12 for row in traj.solver_stats)
    assert min(row["iterations"] for row in traj.solver_stats) >= 40
    reference = dense_cn_states(conn, C0, 0.61, 0.05, traj.n_steps)
    assert np.abs(states - reference).max() <= 1e-10 * np.abs(reference).max()


def test_block_step_keeps_a_singular_rows_error_to_itself():
    conn = edgeless_graph(1)
    C = np.array([[0.0], [0.1]])
    # alpha*dt*(1 - c*) == 2 makes the first row's system exactly singular
    block, stats = graphfk.step_cn_extrapolated(conn, C, C, [40.0, 0.61], 0.05)
    assert isinstance(stats[0]["error"], LinearSolverError)
    assert "singular" in str(stats[0]["error"])
    assert np.isnan(block[0]).all()
    single, single_stats = graphfk.step_cn_extrapolated(conn, C[1], C[1], 0.61, 0.05)
    assert block[1].tobytes() == single.tobytes()
    assert stats[1] == single_stats


def test_block_step_scales_a_row_above_2_1023():
    # max|rhs| of the first row is 1e308, whose power of two above is not a
    # float; the scale stops at 2**1023 and the other row is untouched
    conn = edgeless_graph(2)
    C = np.array([[0.5e308, 0.1], [0.1, 0.1]])
    block, stats = graphfk.step_cn_extrapolated(conn, C, C, [0.0, 0.61], 0.05)
    assert "error" not in stats[0]
    assert block[0, 0] == 0.5e308
    single, single_stats = graphfk.step_cn_extrapolated(conn, C[1], C[1], 0.61, 0.05)
    assert block[1].tobytes() == single.tobytes()
    assert stats[1] == single_stats


def test_block_step_checks_alpha_shape(triangle_graph):
    C = np.full((2, 3), 0.2)
    with pytest.raises(ValueError, match="alpha"):
        graphfk.step_cn_extrapolated(triangle_graph, C, C, [0.5, 0.6, 0.7], 0.05)


def test_singular_system_raises():
    conn = edgeless_graph(1)
    # alpha*dt*(1 - c*) == 2 makes the scalar system exactly singular
    with pytest.raises(LinearSolverError):
        graphfk.step_cn_extrapolated(
            conn, np.array([0.0]), np.array([0.0]), alpha=40.0, dt=0.05
        )


def test_dt_validation():
    conn = edgeless_graph(1)
    with pytest.raises(ValueError, match="dt"):
        graphfk.step_cn_extrapolated(conn, np.array([0.1]), np.array([0.1]), 0.7, 0.0)


@st.composite
def preconditioner_cases(draw):
    """A connected graph (ring plus chords, M 1-30), dt and k rows of a > 0."""
    M = draw(st.integers(1, 30))
    pairs = {(i, (i + 1) % M) for i in range(M if M > 2 else M - 1)}
    chords = draw(
        st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)), max_size=2 * M)
    )
    pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs | set(chords) if i != j})
    counts = [draw(st.floats(0.1, 50.0)) for _ in pairs]
    lengths = [draw(st.floats(1.0, 20.0)) for _ in pairs]
    conn = Connectome(
        region_ids=np.arange(1, M + 1), coords=np.zeros((M, 3)), volumes=np.ones(M),
        edges=Edges(pairs, counts, lengths), scale_k=draw(st.floats(0.01, 100.0)),
    )
    k = draw(st.integers(1, 4))
    a = draw(
        st.lists(st.floats(1e-3, 2.0), min_size=k * M, max_size=k * M).map(
            lambda v: np.reshape(v, (k, M))
        )
    )
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    return conn, a, dt, draw(st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3))


def test_constant_mode_preconditioner_properties():
    # the callback's dense matrix is P^T D^-1 P + 1 1^T / sum(a): symmetric
    # positive definite; it maps a*c to c*1; and a block row gets the bits
    # of a one-row block
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(preconditioner_cases(), st.randoms(use_true_random=False))
    def check(case, random):
        conn, a, dt, c = case
        M = conn.n_nodes
        d = a + dt * conn.degree
        precond = graphfk.constant_mode_preconditioner(a, d)
        R = np.array([[random.uniform(-1.0, 1.0) for _ in range(M)] for _ in a])
        Z = precond(R)
        for i in range(len(a)):
            one = graphfk.constant_mode_preconditioner(a[i : i + 1], d[i : i + 1])
            assert one(R[i : i + 1]).tobytes() == Z[i : i + 1].tobytes()
        a0, d0 = np.tile(a[0], (M, 1)), np.tile(d[0], (M, 1))
        dense = graphfk.constant_mode_preconditioner(a0, d0)(np.eye(M))
        P = np.eye(M) - np.outer(a[0], np.ones(M)) / a[0].sum()
        expected = P.T @ np.diag(1.0 / d[0]) @ P + np.ones((M, M)) / a[0].sum()
        scale = np.abs(expected).max()
        assert np.abs(dense - expected).max() <= 1e-13 * scale
        assert np.abs(dense - dense.T).max() <= 1e-14 * scale
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0
        z = graphfk.constant_mode_preconditioner(a[:1], d[:1])(a[:1] * c)
        assert np.linalg.norm(z - c) <= 1e-15 * np.linalg.norm(np.full(M, c))

    check()


def test_uniform_state_takes_one_cg_iteration_per_row():
    # a uniform state leaves a uniform residual, which the coarse term
    # solves exactly; Jacobi scaling on this mixed-degree graph took 8-9
    conn = generate_connectome(12, "chain", extra_edges=[(1, 5), (1, 9), (3, 12), (5, 9)])
    assert len(set(conn.degree.tolist())) > 2
    C_n, C_nm1 = np.full((3, 12), 0.3), np.full((3, 12), 0.28)
    nxt, stats = graphfk.step_cn_extrapolated(conn, C_n, C_nm1, [0.61, 2.18, 8.54], 0.05)
    assert [row["iterations"] for row in stats] == [1, 1, 1]
    assert not any(row["fallback"] for row in stats)
    assert np.abs(nxt - nxt[:, :1]).max() <= 1e-14


def test_hub_graph_at_scale_k_100_does_not_fall_back():
    # a star of 83 nodes with random tract weights, k = 100: the hub's
    # degree is about 200 times a leaf's.  Scaling by diag(a) alone falls
    # back on every step; Jacobi scaling takes 3.9 iterations per step
    rng = np.random.default_rng(4)
    M = 83
    pairs = [(0, j) for j in range(1, M)]
    conn = Connectome(
        region_ids=np.arange(1, M + 1), coords=np.zeros((M, 3)), volumes=np.ones(M),
        edges=Edges(pairs, rng.uniform(1.0, 50.0, M - 1), rng.uniform(1.0, 20.0, M - 1)),
        scale_k=100.0,
    )
    traj = graphfk.solve_fk_graph(conn, graphfk.seed_vector(conn, [2], 0.1), 0.61, 0.05, 2.0)
    assert not any(row["fallback"] for row in traj.solver_stats)
    assert np.mean([row["iterations"] for row in traj.solver_stats]) <= 3.0


def test_one_node_seed_on_a_ring_with_chords_takes_few_iterations():
    # the 83-node ring plus 3M random chords of the graph sweeps, seeded on
    # one node: Jacobi scaling alone took 6.8-6.9 iterations per step
    rng = np.random.default_rng(0)
    M = 83
    chords = set()
    while len(chords) < 3 * M:
        i, j = sorted(int(x) for x in rng.integers(1, M + 1, size=2))
        if j - i > 1 and not (i == 1 and j == M):
            chords.add((i, j))
    conn = generate_connectome(M, "ring", extra_edges=sorted(chords))
    traj = graphfk.solve_fk_graph(conn, graphfk.seed_vector(conn, [1], 0.1), 0.61, 0.05, 40.0)
    assert traj.n_steps == 800
    assert np.mean([row["iterations"] for row in traj.solver_stats]) < 3.0
    assert not any(row["fallback"] for row in traj.solver_stats)


def test_lu_fallback_logs_one_warning_per_alpha(chain5, caplog):
    # at alpha = 50, dt = 0.05 the diagonal a = 2 - alpha*dt*g is negative
    # from the first step, so every step of that row goes to the LU
    C0 = graphfk.seed_vector(chain5, [1], 0.1)
    with caplog.at_level(logging.WARNING, logger="fkneuro.graphfk"):
        trajectories, failure = graphfk.solve_fk_graph_alphas(
            chain5, C0, [0.61, 50.0], 0.05, 0.1
        )
    assert failure is None
    assert [sum(row["fallback"] for row in t.solver_stats) for t in trajectories] == [0, 2]
    records = [r for r in caplog.records if r.name == "fkneuro.graphfk"]
    assert [r.getMessage() for r in records] == [
        "2 of 2 steps fell back to the sparse LU (alpha=50, dt=0.05)"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fkneuro.graphfk"):
        graphfk.solve_fk_graph(chain5, C0, 0.61, 0.05, 0.1)
    assert not caplog.records


def test_direct_call_keeps_a_window_of_states(chain5, monkeypatch):
    # a direct call holds the two states a step reads and one block, as a
    # harness run does: blocks of 8 states here, over 40 steps
    monkeypatch.setattr(trajectory, "BLOCK_VALUES", 8 * chain5.n_nodes)
    C0 = graphfk.seed_vector(chain5, [1], 0.3)
    traj = graphfk.solve_fk_graph(chain5, C0, 0.61, 0.05, 2.0)
    assert traj.n_steps == 40 and len(traj.states) <= 2 + 8
    assert traj.first_step == 41 - len(traj.states) > 0
    _, states = graph_run(chain5, C0, 0.61, 0.05, 2.0)
    assert traj.states.tobytes() == states[traj.first_step :].tobytes()
