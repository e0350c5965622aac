"""Preconditioned conjugate gradients, shared by the mesh and graph solvers.

One loop serves both time steppers: the graph passes Jacobi scaling, the
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
fallback.  A stopped row leaves the working set: the later iterations
apply the operator to the rows still running only.
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
    block ``b`` (and ``x0``), row i is the system A_i x_i = b_i, and ``tol``
    holds one tolerance per row.  ``apply(V, rows)`` and ``precond(R,
    rows)`` then get the running rows only: ``rows`` indexes them among the
    k, as ``slice(None)`` until some row stops and as an integer array
    after, and the callbacks return A_i or M_i^{-1} applied to each row.

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
            lambda V, rows: apply(V[0])[None],
            lambda R, rows: precond(R[0])[None],
            np.asarray(b)[None], np.asarray(x0)[None], [tol], maxiter,
        )
        return x[0], iterations[0], residuals[0]

    X = np.array(x0, dtype=float)  # the returned iterates, filled as rows stop
    # a start far from the solution, or an indefinite operator, may
    # overflow; that shows as a non-finite residual or a failed p . A p > 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = slice(None)
        r = b - apply(X, rows)
        res = [math.sqrt(v) for v in row_dots(r, r).tolist()]
        residuals = [[v] for v in res]
        # the working set: the running rows' iterate and residual, and (in
        # lists) their ids, tolerances and the residual last halved, with
        # the iteration it was halved at
        x, ids, tol, mark, mark_at = X, list(range(len(X))), list(tol), res, [0] * len(res)
        running = [maxiter > 0 and not v <= t for v, t in zip(res, tol)]
        if not any(running):
            ids = []
        elif not all(running):
            (x, r), (ids, tol, mark, mark_at) = _keep(running, (x, r), (ids, tol, mark, mark_at))
            rows = np.array(ids, dtype=int)
        p = rz = None
        it = 0
        # M^{-1} r is computed only when an iteration follows, so a solve
        # converging in k iterations applies the preconditioner k times
        while ids:
            z = precond(r, rows)
            rz_next = row_dots(r, z)
            p = z if p is None else z + (rz_next / rz)[:, None] * p
            rz = rz_next
            q = apply(p, rows)
            pq = row_dots(p, q)
            stepping = [v > 0 for v in pq.tolist()]
            if not all(stepping):  # breakdown: these rows stop unstepped
                X[rows] = x
                (x, r, p, q, rz, pq), (ids, tol, mark, mark_at) = _keep(
                    stepping, (x, r, p, q, rz, pq), (ids, tol, mark, mark_at)
                )
                rows = np.array(ids, dtype=int)
                if not ids:
                    break
            it += 1
            step = (rz / pq)[:, None]
            x = x + step * p
            r = r - step * q
            res = [math.sqrt(v) for v in row_dots(r, r).tolist()]
            running = []
            for j, v in enumerate(res):
                residuals[ids[j]].append(v)
                if v <= 0.5 * mark[j]:
                    mark[j], mark_at[j] = v, it
                running.append(not v <= tol[j] and it - mark_at[j] < _STALL and it < maxiter)
            if not all(running):
                X[rows] = x
                if not any(running):
                    break
                (x, r, p, rz), (ids, tol, mark, mark_at) = _keep(
                    running, (x, r, p, rz), (ids, tol, mark, mark_at)
                )
                rows = np.array(ids, dtype=int)
    return X, [len(h) - 1 for h in residuals], residuals


def _keep(keep, arrays, lists):
    """The rows of the arrays, and the entries of the lists, where keep is true."""
    index = [j for j, kept in enumerate(keep) if kept]
    return [a[index] for a in arrays], [[v[j] for j in index] for v in lists]
