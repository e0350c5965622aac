import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edgeless_graph, logistic, scalar_cn_extrapolated
from fkneuro import graphfk
from fkneuro.dg.stepper import solve_linear
from fkneuro.errors import LinearSolverError
from fkneuro.geometry import Connectome, generate_connectome
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
    traj = graphfk.solve_fk_graph(conn, C0, alpha=0.70, dt=0.05, T=40.0)
    oracle = scalar_cn_extrapolated(0.1, 0.70, 0.05, traj.n_steps)
    for j in range(4):
        assert np.abs(traj.states[:, j] - oracle).max() <= 1e-12
    # the scheme itself sits ~7e-5 from the continuous logistic at this step
    assert np.abs(traj.states[:, 0] - logistic(traj.times, 0.1, 0.70)).max() <= 1e-4


def test_temporal_order_two():
    errors = []
    conn = edgeless_graph(1)
    for dt in (0.1, 0.05, 0.025):
        traj = graphfk.solve_fk_graph(conn, np.array([0.1]), alpha=0.61, dt=dt, T=40.0)
        errors.append(np.abs(traj.states[:, 0] - logistic(traj.times, 0.1, 0.61)).max())
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    n = 6
    edges = [(i, i + 1, 10.0, 5.0) for i in range(n - 1)] + [(0, 3, 4.0, 2.0)]
    conn = Connectome(
        region_ids=np.arange(1, n + 1),
        coords=np.zeros((n, 3)),
        volumes=np.ones(n),
        edges=edges,
    )
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    conn_p = Connectome(
        region_ids=conn.region_ids[perm],
        coords=conn.coords[perm],
        volumes=conn.volumes[perm],
        edges=[(int(inv[i]), int(inv[j]), nij, lij) for i, j, nij, lij in edges],
    )
    C0 = rng.uniform(0.0, 0.3, n)
    t1 = graphfk.solve_fk_graph(conn, C0, alpha=0.7, dt=0.05, T=2.0)
    t2 = graphfk.solve_fk_graph(conn_p, C0[perm], alpha=0.7, dt=0.05, T=2.0)
    assert np.abs(t1.states[:, perm] - t2.states).max() <= 1e-12


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
    traj = graphfk.solve_fk_graph(chain5, C0, alpha=0.70, dt=0.05, T=40.0)
    times = [first_crossing(traj.times, traj.states[:, i], 0.5) for i in range(5)]
    assert all(t is not None for t in times)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_large_graph_matches_dense_direct_solve():
    conn = generate_connectome(
        300, topology="ring", extra_edges=[(1, 150), (40, 260), (75, 226)]
    )
    C0 = graphfk.seed_vector(conn, [1, 150], 0.4)
    traj = graphfk.solve_fk_graph(conn, C0, alpha=0.7, dt=0.05, T=0.5)
    reference = dense_cn_states(conn, C0, 0.7, 0.05, traj.n_steps)
    assert np.abs(traj.states - reference).max() <= 1e-12

    ones = np.ones(300)
    nxt, _ = graphfk.step_cn_extrapolated(conn, ones, ones, alpha=0.7, dt=0.05)
    assert np.abs(nxt - 1.0).max() <= 1e-12


def test_solver_stats_recorded(chain5):
    C0 = graphfk.seed_vector(chain5, [1], 0.3)
    traj = graphfk.solve_fk_graph(chain5, C0, alpha=0.61, dt=0.05, T=0.5)
    dg_keys = solve_linear(sp.identity(2, format="csr"), np.ones(2))[1].keys()
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
    edges = [(i, j, draw(n_ij), draw(l_ij)) for i, j in sorted(pairs)]
    conn = Connectome(
        region_ids=np.arange(1, M + 1), coords=np.zeros((M, 3)), volumes=np.ones(M),
        edges=edges,
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
