"""Reduced-order spreading dynamics on the connectome graph.

Semi-discrete system per node j:

    dC_j/dt = -sum_i L_ji C_i + alpha * C_j * (1 - C_j)

integrated by Crank-Nicolson with the nonlinear factor frozen at the
second-order extrapolant g = 1 - (3 C^n - C^{n-1}) / 2.  The consistent
averaging puts + alpha*dt*diag(g) on the right-hand side; the originally
printed update formula carries a minus sign there, which cancels the
reaction and damps growth.  That variant stays available behind
``literal_rhs`` for auditability.

Each step solves (diag(a) + dt*L) C^{n+1} = b with a = 2 - alpha*dt*g.
The matrix changes only on its diagonal, so no matrix is built: the
operator is applied as a*v + dt*(L @ v) inside Jacobi-preconditioned CG
(``linsolve.pcg``, the loop the DG stepper uses too), started from the
extrapolant 2 C^n - C^{n-1}.  While every a_j > 0 the system is symmetric
positive definite (diag(a) > 0, dt*L >= 0) and CG applies; it iterates to
a relative residual of 1e-14, two decades under the 1e-12 gate every step
must pass.  When some a_j <= 0, or CG does not get there within
_CG_MAXITER iterations (or breaks down or stagnates first), one sparse LU
of the system solves the step instead.
"""

import logging
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolverError
from .linsolve import pcg
from .trajectory import Trajectory

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


def step_cn_extrapolated(
    conn,
    C_n: np.ndarray,
    C_nm1: np.ndarray,
    alpha: float,
    dt: float,
    literal_rhs: bool = False,
):
    """One Crank-Nicolson step; returns (C_next, stats).

    ``stats`` has the keys of ``dg.stepper.solve_linear``: ``iterations``
    (CG iterations), ``residual`` (true relative residual of C_next) and
    ``fallback`` (whether the sparse LU solved the step).
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    C_n = np.asarray(C_n, dtype=float)
    C_nm1 = np.asarray(C_nm1, dtype=float)
    M = conn.n_nodes
    if C_n.shape != (M,) or C_nm1.shape != (M,):
        raise ValueError("state vectors do not match the connectome size")

    L = conn.laplacian
    reaction = alpha * dt * (1.0 - 0.5 * (3.0 * C_n - C_nm1))
    sign = -1.0 if literal_rhs else 1.0
    a = 2.0 - reaction
    rhs = (2.0 + sign * reaction) * C_n - dt * (L @ C_n)
    # solve for C_next / scale, with scale the power of two just above
    # max|rhs|: exact, and no squared norm of the scaled rhs underflows
    scale = math.ldexp(1.0, math.frexp(np.abs(rhs).max())[1])
    rhs = rhs / scale
    rhs_norm = float(np.linalg.norm(rhs))

    def apply(v):
        return a * v + dt * (L @ v)

    def relative_residual(x):
        residual = float(np.linalg.norm(rhs - apply(x)))
        return residual / rhs_norm if rhs_norm > 0 else residual

    C_next, iterations, rel = None, 0, np.inf
    # the singular/indefinite test comes first: a zero right-hand side
    # says nothing about whether the system has a unique solution
    if a.min() > 0:
        if rhs_norm == 0.0:
            return np.zeros(M), {"iterations": 0, "residual": 0.0, "fallback": False}
        # CG starts from the extrapolant; one far from the solution may
        # overflow, which ends in the LU fallback below
        inv_diag = 1.0 / (a + dt * conn.degree)
        tol = _CG_RTOL * rhs_norm
        x, iterations, residuals = pcg(
            apply, lambda r: inv_diag * r, rhs, (2.0 * C_n - C_nm1) / scale, tol,
            _CG_MAXITER,
        )
        if residuals[-1] <= tol:
            C_next = x
            rel = relative_residual(C_next)
    fallback = not rel <= _RESIDUAL_TOL
    if fallback:
        try:
            C_next = spla.splu((sp.diags(a) + dt * L).tocsc()).solve(rhs)
        except RuntimeError as exc:
            raise LinearSolverError(f"singular Crank-Nicolson system: {exc}")
        rel = relative_residual(C_next)
    if rel > _RESIDUAL_TOL:
        raise LinearSolverError(
            f"Crank-Nicolson solve residual {rel:.3e} above {_RESIDUAL_TOL:.0e}",
            residual_history=[rel],
        )
    return scale * C_next, {"iterations": iterations, "residual": rel, "fallback": fallback}


def solve_fk_graph(
    conn,
    C0: np.ndarray,
    alpha: float,
    dt: float,
    T: float,
    literal_rhs: bool = False,
) -> Trajectory:
    """Run the graph time loop from C0 up to final time T.

    Every step goes through the module attribute ``step_cn_extrapolated``:
    Jacobi-preconditioned CG on the Crank-Nicolson system while it is
    positive definite (2 - alpha*dt*g > 0 on every node), iterated to a
    relative residual of 1e-14, with one sparse LU as the fallback; each
    step must pass the 1e-12 residual gate.  ``solver_stats`` holds one
    {"iterations", "residual", "fallback"} entry per step.

    The scheme needs two back states; the loop self-starts with
    C^{-1} := C^0, degrading only the first step to first-order
    extrapolation.  The scheme stays second order, but the start adds
    dt^2 * (alpha * c0 / 2) * c'(t) to the leading error of a logistic
    solution c(t) from c(0) = c0.  At the defaults (alpha=0.61, c0=0.1,
    dt=0.05) that term peaks at about 26% of the maximum of the scheme's
    own leading error.
    """
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"final time {T} shorter than one step {dt}")
    C0 = np.asarray(C0, dtype=float)
    states = np.empty((n_steps + 1, conn.n_nodes))
    states[0] = C0
    stats = []
    prev = C0.copy()
    curr = C0.copy()
    for n in range(n_steps):
        nxt, step_stats = step_cn_extrapolated(
            conn, curr, prev, alpha, dt, literal_rhs=literal_rhs
        )
        if not np.isfinite(nxt).all():
            raise FloatingPointError(
                f"non-finite state after step {n + 1} (t={(n + 1) * dt:g})"
            )
        states[n + 1] = nxt
        stats.append(step_stats)
        prev, curr = curr, nxt
    times = dt * np.arange(n_steps + 1)
    return Trajectory(times=times, states=states, solver_stats=stats)


def seed_vector(conn, region_ids, value: float) -> np.ndarray:
    """Nodal initial condition: `value` on the listed regions, zero elsewhere."""
    return np.where(np.isin(conn.region_ids, list(region_ids)), value, 0.0)
