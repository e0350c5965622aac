"""Reduced-order spreading dynamics on the connectome graph.

Semi-discrete system per node j:

    dC_j/dt = -sum_i L_ji C_i + alpha * C_j * (1 - C_j)

integrated by Crank-Nicolson with the nonlinear factor frozen at the
second-order extrapolant g = 1 - (3 C^n - C^{n-1}) / 2, self-started by
C^{-1} := C^0 (see ``solve_fk_graph``).  The consistent
averaging puts + alpha*dt*diag(g) on the right-hand side; the originally
printed update formula carries a minus sign there, which cancels the
reaction and damps growth.  That variant stays available behind
``literal_rhs`` for auditability.

Each step solves (diag(a) + dt*L) C^{n+1} = b with a = 2 - alpha*dt*g.
The matrix changes only on its diagonal, so CG applies it as
a*v + dt*(L @ v), started from the extrapolant 2 C^n - C^{n-1}, under the
solve policy the DG stepper shares (``linsolve.solve``; see ``linsolve``).
The preconditioner is Jacobi scaling with the constant vector deflated,
which the system maps to a since L 1 = 0 (``constant_mode_preconditioner``):
CG removes a constant error in one iteration, so a step from a uniform
state takes one.  While every
a_j > 0 the system is symmetric positive definite (diag(a) > 0,
dt*L >= 0) and CG applies; it iterates to a relative residual of 1e-14,
two decades under the 1e-12 gate every step must pass.  When some
a_j <= 0, or CG does not pass the gate within _CG_MAXITER iterations (or
breaks down or stagnates first), a refined sparse LU of the system solves
the step instead.

A step solves a (k, M) block of k states, one per alpha, as k
independent systems that share each CG iteration's L @ V (a row that stops,
or never runs CG, stays in the block, frozen); a single state is a block
of one.  ``solve_fk_graph_alphas`` advances the alphas of a sweep in
lockstep that way, through the time loop the DG solver shares
(``trajectory.advance``: step count, the states, whose latest it hands
each step as its history, non-finite check, failure rule and fallback
warning).
Every row gets, from ``linsolve.solve``, its own power-of-two scale, gate
and fallback, and comes out bit-identical to a run at its alpha alone
(``solve_fk_graph``, which is the lockstep loop at one alpha).
"""

import logging

import numpy as np
import scipy.sparse as sp

from .linsolve import solve
from .trajectory import Trajectory, advance

logger = logging.getLogger(__name__)

_RESIDUAL_TOL = 1e-12  # gate on the true relative residual of every step
# CG stops under the gate so that the states do not drift away from a
# direct solve over many steps: on an 83-node graph over 800 steps the
# drift was 1.3e-11 relative when CG stopped at the gate, 9.6e-14 at 1e-14
_CG_RTOL = 1e-14
_CG_MAXITER = 50  # then the sparse LU fallback


def rhs_semidiscrete(conn, C: np.ndarray, alpha: float) -> np.ndarray:
    """Time derivative of the nodal concentrations."""
    C = np.asarray(C, dtype=float)
    if C.shape != (conn.n_nodes,):
        raise ValueError(f"state has shape {C.shape}, want ({conn.n_nodes},)")
    return -(conn.laplacian @ C) + alpha * C * (1.0 - C)


def constant_mode_preconditioner(a, d):
    """The balancing preconditioner of diag(a) + dt*L, with the constants as its coarse space.

    ``a`` and ``d`` are (k, M) blocks, one row per system: the
    Crank-Nicolson diagonal a > 0 and the system's diagonal
    d = a + dt * degree.  Since L 1 = 0, the system maps the constant
    vector 1 to a, so its coarse problem is the scalar sum(a), and

        M^{-1} = P^T D^{-1} P + 1 1^T / sum(a),  P = I - a 1^T / sum(a),

    with D = diag(d) (Mandel 1993; Tang, Nabben, Vuik & Erlangga 2009).
    M^{-1} is symmetric positive definite whenever every a > 0, and maps
    a*c to c*1, so CG removes a constant error, the mode Jacobi scaling
    alone resolves worst, in one iteration.  Written out with w = a/d, it
    is D^{-1} plus a rank-two term in the span of 1 and w,

        M^{-1} r = r/d + [(1 + a.w/sum(a) - w) sum(r) - w.r] / sum(a),

    so an application is r/d plus two matrix-vector products: one with
    the rows 1 and w, and one with the rows (1 + a.w/sum(a) - w)/sum(a)
    and -1/sum(a).  Returns the callback R -> M_i^{-1} R_i, row by row,
    for (k, M) blocks only.  It applies both products as batched
    ``matmul``s, which call one BLAS matrix-vector product per row, so each
    row of a block gets the bits of a block of one.
    """
    k, M = a.shape
    inv_d = 1.0 / d
    basis = np.empty((k, 2, M))  # the rows 1 and w
    basis[:, 0] = 1.0
    w = np.multiply(a, inv_d, out=basis[:, 1])
    sum_a, aw = np.matmul(basis, a[:, :, None]).transpose(1, 0, 2)  # each (k, 1)
    coefficients = np.empty((k, 2, M))
    np.subtract(1.0 + aw / sum_a, w, out=coefficients[:, 0])
    coefficients[:, 0] /= sum_a
    coefficients[:, 1] = -1.0 / sum_a

    def apply(R):
        R = np.ascontiguousarray(R)
        # sum(r) and w.r of each row, then their combination of its coefficients
        sums = np.matmul(basis, R[:, :, None]).transpose(0, 2, 1)
        Z = np.matmul(sums, coefficients)[:, 0]
        Z += inv_d * R
        return Z

    return apply


def step_cn_extrapolated(
    conn,
    C_n: np.ndarray,
    C_nm1: np.ndarray,
    alpha,
    dt: float,
    literal_rhs: bool = False,
):
    """One Crank-Nicolson step; returns (C_next, stats).

    ``C_n`` and ``C_nm1`` are (k, M) blocks whose row i is an independent
    state at conversion rate ``alpha[i]`` (``alpha`` a scalar or of shape
    (k,)), or (M,) states, which are stepped as a block of one.  Every row
    has its own reaction and preconditioner, and, through
    ``linsolve.solve``, its own power-of-two scale, CG recurrence, residual
    gate and LU fallback, and gets the bits a block of its own gives it.
    The rows share one block CG, one ``L @ V`` per iteration, in which a
    row that stops stays, frozen, as does, from the start, a row that is
    not definite or has a zero right-hand side.

    ``stats`` has the keys of ``dg.stepper.solve_linear`` (see
    ``linsolve``): ``iterations`` (CG iterations), ``residual`` (true
    relative residual of C_next) and ``fallback`` (whether the sparse LU
    solved the step).  A 1-D step raises LinearSolverError when its solve
    fails.  A block step returns a list of k such dicts instead; a row
    whose solve failed has NaN in C_next and its LinearSolverError under
    the extra key ``error``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    C_n = np.asarray(C_n, dtype=float)
    C_nm1 = np.asarray(C_nm1, dtype=float)
    M = conn.n_nodes
    if C_n.ndim not in (1, 2) or C_n.shape[-1] != M or C_nm1.shape != C_n.shape:
        raise ValueError("state vectors do not match the connectome size")
    single = C_n.ndim == 1
    if single:
        C_n, C_nm1 = C_n[None], C_nm1[None]
    k = len(C_n)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim:
        if alpha.shape != (k,):
            raise ValueError(f"alpha has shape {alpha.shape}, want () or ({k},)")
        alpha = alpha[:, None]

    L = conn.laplacian
    reaction = alpha * dt * (1.0 - 0.5 * (3.0 * C_n - C_nm1))
    a = 2.0 - reaction
    # the literal right-hand side's factor 2 - reaction is a itself
    rhs = (a if literal_rhs else 2.0 + reaction) * C_n - dt * (L @ C_n.T).T
    # the system is definite while every a_j > 0; another row skips CG, and
    # its preconditioner, never read, is built on a = 1 to divide by no zero
    definite = [m > 0 for m in a.min(axis=1).tolist()]
    a_cg = a if all(definite) else np.where(np.array(definite)[:, None], a, 1.0)
    # CG starts from the extrapolant
    C_next, stats = solve(
        lambda V: a * V + dt * (L @ V.T).T,
        constant_mode_preconditioner(a_cg, a_cg + dt * conn.degree),
        lambda i: sp.diags(a[i]) + dt * L, rhs, 2.0 * C_n - C_nm1,
        _CG_RTOL, _RESIDUAL_TOL, _CG_MAXITER, definite,
    )
    if single:
        if "error" in stats[0]:
            raise stats[0]["error"]
        return C_next[0], stats[0]
    return C_next, stats


def solve_fk_graph_alphas(
    conn,
    C0: np.ndarray,
    alphas,
    dt: float,
    T: float,
    literal_rhs: bool = False,
    observers=(),
):
    """Run the graph time loop from C0 up to final time T at every alpha at once.

    The alphas are the rows of one state block, advanced in lockstep by
    ``trajectory.advance`` with one call of the module attribute
    ``step_cn_extrapolated`` per step, on C^n and C^{n-1} from the states
    the loop holds; the first step self-starts with C^{-1} := C^0.  Each
    row gets the bits of a run at its alpha alone (``solve_fk_graph``,
    which raises the failure this returns).  The loop holds only the last
    two states and one block; ``observers`` get every (live, b, M) block
    of states, as ``advance`` describes, so one that needs every state,
    such as a harness run's state dump (trajectory.StateDumps), gets them
    block by block.  Returns advance's (trajectories, failure), each
    trajectory holding the loop's last window of states.
    """

    def step(history, live_alphas, t):
        C_n = history[:, -1]
        C_nm1 = history[:, -2] if history.shape[1] > 1 else C_n
        return step_cn_extrapolated(conn, C_n, C_nm1, live_alphas, dt, literal_rhs=literal_rhs)

    return advance(step, C0, alphas, dt, T, logger, 2, observers)


def solve_fk_graph(
    conn,
    C0: np.ndarray,
    alpha: float,
    dt: float,
    T: float,
    literal_rhs: bool = False,
) -> Trajectory:
    """Run the graph time loop from C0 up to final time T.

    Every step goes through the module attribute ``step_cn_extrapolated``,
    whose solve the module docstring describes.  ``solver_stats`` holds one
    {"iterations", "residual", "fallback"} entry per step, and a run whose
    steps fell back to the LU logs one warning.  This is
    ``solve_fk_graph_alphas`` at the single alpha, raising its failure, so
    ``states`` holds the loop's last window; a caller that needs every
    state observes the blocks of ``solve_fk_graph_alphas``.

    The scheme needs two back states; its step in
    ``solve_fk_graph_alphas`` self-starts with C^{-1} := C^0, degrading
    only the first step to first-order extrapolation.  The scheme stays
    second order, but the start adds dt^2 * (alpha * c0 / 2) * c'(t) to
    the leading error of a logistic solution c(t) from c(0) = c0.  At the
    defaults (alpha=0.61, c0=0.1, dt=0.05) that term peaks at about 26% of
    the maximum of the scheme's own leading error.
    """
    trajectories, failure = solve_fk_graph_alphas(conn, C0, [alpha], dt, T, literal_rhs)
    if failure is not None:
        raise failure
    return trajectories[0]


def seed_vector(conn, region_ids, value: float) -> np.ndarray:
    """Nodal initial condition: `value` on the listed regions, zero elsewhere."""
    return np.where(np.isin(conn.region_ids, list(region_ids)), value, 0.0)
