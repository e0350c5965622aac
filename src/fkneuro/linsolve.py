"""Preconditioned conjugate gradients, shared by the mesh and graph solvers.

One loop serves both time steppers: the graph passes Jacobi scaling with
the constant mode deflated (see graphfk.constant_mode_preconditioner), the
DG stepper a factorization of I + dt*A (see dg.stepper).  It solves k
independent systems at once, one per row of a (k, N) block; a 1-D right-
hand side is the k = 1 case.  Rows share the operator applications, so a
batch pays one block product per iteration instead of k, but each row keeps
its own recurrence, and every row operation (products row by row, dots
through the same BLAS call as a 1-D ``r @ z``) gives the bits the row would
get on its own.

A row stops as soon as its recurrence residual reaches its absolute
tolerance, and gives up early when its iteration breaks down (p . A p <= 0,
which an SPD operator never produces) or stagnates (the residual does not
halve within _STALL iterations), so a solve that cannot converge costs a
bounded number of operator applications before the caller's direct
fallback.  A stopped row stays in the block, frozen at its stop: the block
products run over it, unread, until the last row stops.
"""

import math

import numpy as np

_STALL = 50  # iterations in which the residual does not halve that end the solve


def row_dots(A, B):
    """The dot products of the rows of A and B, each bit-equal to ``A[i] @ B[i]``.

    A batched matmul of 1 x N by N x 1 rows goes through the vector dot of a
    1-D ``@``, as ``ndarray.dot`` does; the rows must be contiguous for it to
    give the same bits.
    """
    if len(A) == 1:  # the 1-D dot itself, without the set-up of a batch or of ``@``
        return np.array([np.ascontiguousarray(A[0]).dot(np.ascontiguousarray(B[0]))])
    A = np.ascontiguousarray(A)
    B = np.ascontiguousarray(B)
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def pcg(apply, precond, b, x0, tol, maxiter):
    """Preconditioned CG for A x = b from x0 until ||b - A x|| <= tol.

    With a 1-D ``b``, ``apply(v)`` returns A v and ``precond(r)`` returns
    M^{-1} r; both should be symmetric positive definite.  With a (k, N)
    block ``b`` (and ``x0``), row i is the system A_i x_i = b_i, ``tol``
    holds one tolerance per row, and ``apply(V)`` and ``precond(R)`` get
    the whole block and return A_i or M_i^{-1} applied to each row.  A
    stopped row's entries hold unread, possibly non-finite values, so a
    callback must keep each row's result to that row.

    At most ``maxiter`` iterations are taken.  Returns (x, iterations,
    residuals), with ``residuals`` the norms of the recurrence residual at
    x0 and after every iteration: the solve converged when
    ``residuals[-1] <= tol``, and otherwise stopped on breakdown,
    stagnation or the iteration cap, returning its last iterate.  For a
    block, ``x`` is (k, N), and ``iterations`` and ``residuals`` are lists
    of the k rows' counts and residual lists.
    """
    if np.ndim(b) == 1:
        x, iterations, residuals = pcg(
            lambda V: apply(V[0])[None],
            lambda R: precond(R[0])[None],
            np.asarray(b)[None], np.asarray(x0)[None], [tol], maxiter,
        )
        return x[0], iterations[0], residuals[0]

    X = np.array(x0, dtype=float)  # the returned iterates, each row set when it stops
    residuals = [[] for _ in X]
    # each row's residual last halved, and the iteration it was halved at
    mark, mark_at = [math.inf] * len(X), [0] * len(X)
    running = [True] * len(X)
    # a start far from the solution, or an indefinite operator, may
    # overflow; that shows as a non-finite residual or a failed p . A p > 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, r, p, it = X, b - apply(X), None, 0
        while True:
            for i, v in enumerate(row_dots(r, r).tolist()):
                if running[i]:
                    v = math.sqrt(v)
                    residuals[i].append(v)
                    if v <= 0.5 * mark[i]:
                        mark[i], mark_at[i] = v, it
                    if v <= tol[i] or it - mark_at[i] >= _STALL or it >= maxiter:
                        running[i] = False
                        X[i] = x[i]
            # M^{-1} r is computed only when an iteration follows, so a solve
            # converging in k iterations applies the preconditioner k times
            if not any(running):
                break
            z = precond(r)
            rz_next = row_dots(r, z)
            p = z if p is None else z + (rz_next / rz)[:, None] * p
            rz = rz_next
            q = apply(p)
            pq = row_dots(p, q)
            for i, v in enumerate(pq.tolist()):
                if running[i] and not v > 0:  # breakdown: the row stops unstepped
                    running[i] = False
                    X[i] = x[i]
            if not any(running):
                break
            it += 1
            step = (rz / pq)[:, None]
            x = x + step * p
            r = r - step * q
    return X, [len(h) - 1 for h in residuals], residuals
