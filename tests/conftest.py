import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from fkneuro import graphfk
from fkneuro.dg import solve_fk_mesh
from fkneuro.geometry import (
    Connectome,
    Edges,
    generate_connectome,
    generate_structured_mesh,
    slab_atlas,
    slab_labeler,
)


def region_mean_weights(domain, region_ids):
    """Dense w with w @ C the mean of C over the regions: the one column of
    the domain's region weight matrix."""
    return domain.region_weight_matrix([region_ids]).toarray()[:, 0]


def _observed(solve, *args, **kwargs):
    """solve(*args, observers=[...], **kwargs) and the states of its time
    loop's first row in each block, in order."""
    blocks = []
    result = solve(*args, observers=[lambda block: blocks.append(block[0].copy())], **kwargs)
    return result, blocks


def _with_states(traj, blocks):
    """(traj, every state of its run): the blocks concatenated, (n_steps + 1, N),
    checked to end with the window the trajectory holds."""
    states = np.concatenate(blocks)
    assert traj.states.tobytes() == states[traj.first_step :].tobytes()
    return traj, states


def mesh_run(system, C0, dt, T, **kwargs):
    """A direct solve_fk_mesh call's trajectory and every state of its run."""
    return _with_states(*_observed(solve_fk_mesh, system, C0, dt, T, **kwargs))


def graph_run(conn, C0, alpha, dt, T, **kwargs):
    """The graph time loop's trajectory at one alpha and every state of its
    run, from graphfk.solve_fk_graph_alphas; raises the loop's failure."""
    (trajectories, failure), blocks = _observed(
        graphfk.solve_fk_graph_alphas, conn, C0, [alpha], dt, T, **kwargs
    )
    if failure is not None:
        raise failure
    return _with_states(trajectories[0], blocks)


def logistic(t, c0, alpha):
    e = np.exp(alpha * np.asarray(t, dtype=float))
    return c0 * e / (1.0 - c0 + c0 * e)


def scalar_euler_semi_implicit(c0, alpha, dt, n_steps):
    """Independent 1x1 reduction of the mesh update (brute-force oracle)."""
    out = [c0]
    c = c0
    for _ in range(n_steps):
        c = c / (1.0 - dt * alpha * (1.0 - c))
        out.append(c)
    return np.array(out)


def scalar_cn_extrapolated(c0, alpha, dt, n_steps, literal_rhs=False):
    """Independent 1x1 reduction of the graph update (brute-force oracle)."""
    out = [c0]
    prev = curr = c0
    sign = -1.0 if literal_rhs else 1.0
    for _ in range(n_steps):
        r = alpha * dt * (1.0 - 0.5 * (3.0 * curr - prev))
        nxt = curr * (2.0 + sign * r) / (2.0 - r)
        prev, curr = curr, nxt
        out.append(nxt)
    return np.array(out)


def cn_extrapolated_predicted_error(t, c0, alpha, dt):
    """Leading global error of the self-started 1x1 graph update (analysis oracle).

    Derived from the scheme alone, without running it.  The 1x1 update of
    `scalar_cn_extrapolated` reads

        (c^{n+1} - c^n) / dt = alpha * g^n * (c^{n+1} + c^n) / 2,
        g^n = 1 - (3 c^n - c^{n-1}) / 2.

    Along the exact logistic c(t), with c' = alpha c (1 - c),
    c'' = alpha (1 - 2c) c' and c''' = alpha (1 - 2c) c'' - 2 alpha c'^2,
    Taylor expansion about t_n cancels the O(dt) terms and leaves the local
    truncation dt^2 * tau2, tau2 = c'''/6 - alpha (c'' - c'^2)/4, which the
    c''' identity turns into

        tau2 = c'''/24 - alpha (1 - c) c''/8 - (3/8) alpha c c''.

    The global error dt^2 * E then solves E' = alpha (1 - 2c) E - tau2,
    E(0) = 0.  Since c' solves the homogeneous equation,

        E(t) = -c'(t) * int_0^t tau2 / c' ds.

    The loop self-starts with C^{-1} := C^0, so the first step uses
    g = 1 - c0 in place of 1 - c0 - dt c'(0)/2 + O(dt^2).  That adds
    dt^2 * alpha c0 c'(0)/2 to C^1, which the linearized equation carries
    forward as dt^2 * S(t) with S(t) = (alpha c0 / 2) c'(t).

    Returns dt^2 * (E + S) at the times `t` (numerical minus exact), and 0
    at t = 0, where C^0 is exact; the neglected terms are O(dt^3).  The
    integral is a trapezoid rule on 40001 points over [0, max(t)].
    """
    t = np.asarray(t, dtype=float)
    s = np.linspace(0.0, t.max(), 40_001)
    c = logistic(s, c0, alpha)
    c1 = alpha * c * (1.0 - c)
    c2 = alpha * (1.0 - 2.0 * c) * c1
    c3 = alpha * (1.0 - 2.0 * c) * c2 - 2.0 * alpha * c1**2
    tau2 = c3 / 24.0 - alpha * (1.0 - c) * c2 / 8.0 - 0.375 * alpha * c * c2
    E = -c1 * cumulative_trapezoid(tau2 / c1, s, initial=0.0)
    S = 0.5 * alpha * c0 * c1
    return np.where(t > 0.0, dt**2 * np.interp(t, s, E + S), 0.0)


@pytest.fixture(scope="session")
def unit_square_mesh():
    return generate_structured_mesh(2, 1, 1.0)


@pytest.fixture(scope="session")
def square_mesh_4():
    return generate_structured_mesh(2, 4, 1.0)


@pytest.fixture(scope="session")
def slab_mesh():
    return generate_structured_mesh(2, 8, 40.0, labeler=slab_labeler(5, 40.0))


@pytest.fixture(scope="session")
def atlas5():
    return slab_atlas()


@pytest.fixture(scope="session")
def chain5():
    return generate_connectome(5, topology="chain")


@pytest.fixture()
def triangle_graph():
    # three nodes, all pairwise weights exactly 1 (k * n / l = 1)
    return Connectome(
        region_ids=np.array([1, 2, 3]),
        coords=np.zeros((3, 3)),
        volumes=np.ones(3),
        edges=Edges([[0, 1], [1, 2], [0, 2]], [5.0, 5.0, 5.0], [5.0, 5.0, 5.0]),
        scale_k=1.0,
    )


def edgeless_graph(n):
    return Connectome(
        region_ids=np.arange(1, n + 1),
        coords=np.zeros((n, 3)),
        volumes=np.ones(n),
        edges=Edges([], [], []),
        scale_k=1.0,
    )
