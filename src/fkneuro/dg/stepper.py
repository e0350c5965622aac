"""Semi-implicit Euler time integration of the assembled DG system.

Each step solves

    (I + dt*(A - alpha*I + M_nl(C^n))) C^{n+1} = C^n [+ dt F(t^{n+1})]

with the nonlinear reaction matrix rebuilt from the current state.  The
basis is orthonormal per element, so the mass matrix is the identity I.  The
optional forcing term F exists only for manufactured-solution verification
and defaults to zero.

Linear systems go through conjugate gradients at relative tolerance 1e-10
with an iteration cap, preconditioned by a factorization of the static
part I + dt*(A - alpha*I) computed once per run (the per-step matrix
differs from it only by the O(dt*alpha*c) nonlinear block, so CG needs a
handful of iterations).  If the iteration stalls -- e.g. the matrix loses
definiteness for large dt*alpha -- the step falls back to a direct
factorization of the full matrix.
"""

import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import LinearSolverError
from ..trajectory import Trajectory

logger = logging.getLogger(__name__)


def solve_linear(
    A: sp.csr_matrix, b: np.ndarray, x0=None, rtol=1e-10, maxiter=None, precond=None
):
    """Solve A x = b to relative residual <= rtol; returns (x, stats).

    Tries preconditioned CG first (pointwise-diagonal scaling unless a
    preconditioner is supplied), then a direct factorization.  Raises
    LinearSolverError (with the residual history) if neither reaches the
    tolerance.
    """
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), {"iterations": 0, "residual": 0.0, "fallback": False}
    if maxiter is None:
        maxiter = 10 * A.shape[0]

    if precond is None:
        diag = A.diagonal()
        inv_diag = np.where(np.abs(diag) > 0, 1.0 / np.where(diag == 0, 1.0, diag), 1.0)
        precond = spla.LinearOperator(A.shape, matvec=lambda v: inv_diag * v)

    history = []
    iterations = 0

    def callback(xk):
        nonlocal iterations
        iterations += 1
        if iterations % 25 == 0:
            history.append(float(np.linalg.norm(b - A @ xk)) / b_norm)

    with np.errstate(divide="ignore", invalid="ignore"):
        # breakdown on indefinite/singular systems is handled by the fallback
        x, info = spla.cg(
            A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter, M=precond,
            callback=callback,
        )
    residual = float(np.linalg.norm(b - A @ x)) / b_norm
    history.append(residual)
    if info == 0 and residual <= rtol:
        return x, {"iterations": iterations, "residual": residual, "fallback": False}

    try:
        lu = spla.splu(A.tocsc())
        x = lu.solve(b)
    except RuntimeError as exc:
        raise LinearSolverError(
            f"iterative solve stalled (residual {residual:.3e}) and direct "
            f"factorization failed: {exc}",
            residual_history=history,
        )
    residual = float(np.linalg.norm(b - A @ x)) / b_norm
    history.append(residual)
    if residual > rtol:
        raise LinearSolverError(
            f"direct fallback residual {residual:.3e} above tolerance {rtol:.3e}",
            residual_history=history,
        )
    return x, {"iterations": iterations, "residual": residual, "fallback": True}


class MeshStepper:
    """Reusable per-run stepping context (fixed system and dt)."""

    def __init__(self, system, dt: float, rtol: float = 1e-10, maxiter: int | None = None):
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        self.system = system
        self.dt = dt
        self.rtol = rtol
        self.maxiter = maxiter if maxiter is not None else 10 * system.N
        self.static_part = (
            system.mass + dt * (system.stiffness - system.linear_reaction)
        ).tocsr()
        self.precond = None
        try:
            lu = spla.splu(self.static_part.tocsc())
            self.precond = spla.LinearOperator(
                (system.N, system.N), matvec=lu.solve
            )
        except RuntimeError:
            logger.warning(
                "static step matrix not factorizable; CG falls back to "
                "diagonal scaling"
            )

    def step(self, C_n: np.ndarray, forcing=None, t_next: float = 0.0):
        """Advance one step; returns (C_next, stats)."""
        system = self.system
        C_n = np.asarray(C_n, dtype=float)
        if C_n.shape != (system.N,):
            raise ValueError(f"state has shape {C_n.shape}, want ({system.N},)")
        m_nl = system.nonlinear_reaction(C_n)
        lhs = (self.static_part + self.dt * m_nl).tocsr()
        rhs = C_n
        if forcing is not None:
            rhs = rhs + self.dt * _forcing_vector(system.space, forcing, t_next)
        return solve_linear(
            lhs,
            rhs,
            x0=C_n,
            rtol=self.rtol,
            maxiter=self.maxiter,
            precond=self.precond,
        )


def _forcing_vector(space, forcing, t: float) -> np.ndarray:
    F = np.empty(space.N)
    for e in range(space.mesh.n_elements):
        vals = np.asarray(forcing(space.quad_pts[e], t), dtype=float)
        F[space.element_dofs(e)] = space.basis_vals[e].T @ (space.quad_wts[e] * vals)
    return F


def solve_fk_mesh(
    system,
    C0: np.ndarray,
    dt: float,
    T: float,
    forcing=None,
    rtol: float = 1e-10,
    maxiter_factor: float = 10.0,
) -> Trajectory:
    """Run the semi-implicit time loop from C0 up to final time T."""
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"final time {T} shorter than one step {dt}")
    stepper = MeshStepper(
        system, dt, rtol=rtol, maxiter=int(maxiter_factor * system.N)
    )
    states = np.empty((n_steps + 1, system.N))
    states[0] = C0
    stats = []
    C = np.asarray(C0, dtype=float)
    for n in range(n_steps):
        C, st = stepper.step(C, forcing=forcing, t_next=(n + 1) * dt)
        if not np.isfinite(C).all():
            raise FloatingPointError(
                f"non-finite state after step {n + 1} (t={(n + 1) * dt:g})"
            )
        states[n + 1] = C
        stats.append(st)
    times = dt * np.arange(n_steps + 1)
    return Trajectory(times=times, states=states, solver_stats=stats)
