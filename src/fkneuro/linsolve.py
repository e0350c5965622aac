"""Preconditioned conjugate gradients, shared by the mesh and graph solvers.

One loop serves both time steppers: the graph passes Jacobi scaling, the
DG stepper a factorization of I + dt*A (see dg.stepper).  The loop stops as
soon as the recurrence residual reaches the absolute tolerance, and gives
up early when the iteration breaks down (p . A p <= 0, which an SPD
operator never produces) or stagnates (the residual does not halve within
_STALL iterations), so a solve that cannot converge costs a bounded
number of operator applications before the caller's direct fallback.
"""

import math

import numpy as np

_STALL = 50  # iterations in which the residual does not halve that end the solve


def pcg(apply, precond, b, x0, tol, maxiter):
    """Preconditioned CG for A x = b from x0 until ||b - A x|| <= tol.

    ``apply(v)`` returns A v and ``precond(r)`` returns M^{-1} r; both
    should be symmetric positive definite.  At most ``maxiter`` iterations
    are taken.  Returns (x, iterations, residuals), with ``residuals`` the
    norms of the recurrence residual at x0 and after every iteration: the
    solve converged when ``residuals[-1] <= tol``, and otherwise stopped on
    breakdown, stagnation or the iteration cap, returning its last iterate.
    """
    x = x0
    # a start far from the solution, or an indefinite operator, may
    # overflow; that shows as a non-finite residual or a failed p . A p > 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = b - apply(x)
        res = math.sqrt(r @ r)
        residuals = [res]
        mark, mark_at = res, 0  # the residual was last halved at mark_at
        p = rz = None
        iterations = 0
        # M^{-1} r is computed only when an iteration follows, so a solve
        # converging in k iterations applies the preconditioner k times
        while not res <= tol and iterations < maxiter:
            z = precond(r)
            rz_next = r @ z
            p = z if p is None else z + (rz_next / rz) * p
            rz = rz_next
            q = apply(p)
            pq = p @ q
            if not pq > 0:
                break
            iterations += 1
            step = rz / pq
            x = x + step * p
            r = r - step * q
            res = math.sqrt(r @ r)
            residuals.append(res)
            if res <= 0.5 * mark:
                mark, mark_at = res, iterations
            elif iterations - mark_at >= _STALL:
                break
    return x, iterations, residuals
