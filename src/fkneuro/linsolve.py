"""Preconditioned conjugate gradients, shared by the mesh and graph solvers.

One loop serves both time steppers: the graph passes Jacobi scaling with
the constant mode deflated (see graphfk.constant_mode_preconditioner), the
DG stepper a float32 factorization of I + dt*A with the constant mode
deflated (see dg.stepper).  It works on (k, N) blocks only, one
independent system per row; a single system is a block of one.  Rows
share the operator applications, so a batch pays one block product per
iteration instead of k, but each row keeps its own recurrence, and every
row operation (products row by row, dots through the same BLAS call as a
1-D ``r @ z``) gives the bits the row would get in a block of its own.

A row stops as soon as its recurrence residual reaches its absolute
tolerance, and gives up early when its iteration breaks down (p . A p <= 0,
which an SPD operator never produces) or stagnates (the residual does not
halve within _STALL iterations), so a solve that cannot converge costs a
bounded number of operator applications before the direct fallback.  A
stopped row stays in the block, frozen at its stop: the block products run
over it, unread, until the last row stops.

``solve`` applies one policy to the k systems of a step, and every row
gets the bits, stats and error of a block of its own:

- a definite row (SPD, as the caller knows) with b = 0 is solved by 0;
- the other definite rows run ``pcg`` to relative residual ``cg_rtol``,
  and one block product gives their true residuals |b - A x| / |b| (a
  row CG left at its start reuses pcg's first residual);
- a row that CG did not converge or whose true residual is above
  ``gate``, and every row that is not definite, is solved by a sparse LU
  instead, refined up to _REFINEMENTS times while its round-off leaves the
  residual above the gate (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., ch. 12); the best iterate is kept;
- a row whose factorization fails, or whose best residual still misses
  the gate, gets NaN and a LinearSolverError with its relative residual
  history (CG's, then the LU's).

Each row's stats are {"iterations", "residual" (relative, of its
solution), "fallback" (whether the LU solved it)}.
"""

import math

import numpy as np
import scipy.sparse.linalg as spla

from .errors import LinearSolverError

_STALL = 50  # iterations in which the residual does not halve that end the solve
_REFINEMENTS = 3  # refinement steps of a direct fallback above the gate


def row_dots(A, B):
    """The dot products of the rows of A and B, each bit-equal to ``A[i] @ B[i]``.

    A batched matmul of 1 x N by N x 1 rows goes through the vector dot of a
    1-D ``@``, as ``ndarray.dot`` does; the rows must be contiguous for it to
    give the same bits.
    """
    A = np.ascontiguousarray(A)
    B = np.ascontiguousarray(B)
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def pcg(apply, precond, b, x0, tol, maxiter):
    """Preconditioned CG for A_i x_i = b_i, row by row, until ||b_i - A_i x_i|| <= tol[i].

    ``b`` and ``x0`` are (k, N) blocks and ``tol`` holds one tolerance per
    row.  ``apply(V)`` and ``precond(R)`` get the whole block and return
    A_i or M_i^{-1} applied to each row; both should be symmetric positive
    definite.  A stopped row's entries hold unread, possibly non-finite
    values, so a callback must keep each row's result to that row.

    At most ``maxiter`` iterations are taken.  Returns (x, iterations,
    residuals): the (k, N) iterates, and the k rows' iteration counts and
    lists of recurrence residual norms, at x0 and after every iteration.  A
    row converged when its ``residuals[i][-1] <= tol[i]``, and otherwise
    stopped on breakdown, stagnation or the iteration cap, returning its
    last iterate.
    """
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


def solve(operators, matrix, B, X0, cg_rtol, gate, maxiter, definite):
    """Solve A_i x_i = b_i for the rows b_i of the (k, N) block B; returns (X, stats).

    The policy of the module docstring.  ``operators(rows)`` returns pcg's
    ``(apply, precond)`` for the block of the listed rows, ``matrix(i)``
    the sparse A_i to factor, and ``definite[i]`` whether A_i is SPD.  CG
    starts from X0 and stops after ``maxiter`` iterations.  ``stats`` holds
    k dicts; a failed row's has its LinearSolverError under ``error``.
    """
    norms = [math.sqrt(v) for v in row_dots(B, B).tolist()]
    stats = [
        {"iterations": 0, "residual": 0.0 if d and norm == 0.0 else math.inf, "fallback": False}
        for d, norm in zip(definite, norms)
    ]
    X = np.zeros(B.shape)
    cg = [i for i, (d, norm) in enumerate(zip(definite, norms)) if d and norm != 0.0]
    histories = {}
    if cg:
        B_cg, X0_cg = B.take(cg, 0), X0.take(cg, 0)
        apply, precond = operators(cg)
        tol = [cg_rtol * norms[i] for i in cg]
        x, iterations, residuals = pcg(apply, precond, B_cg, X0_cg, tol, maxiter)
        converged = [res[-1] <= t for res, t in zip(residuals, tol)]
        for j, ok in enumerate(converged):
            if not ok:  # the LU below solves the row; zero keeps the residual finite
                x[j] = 0.0
        true = [res[0] for res in residuals]
        if any(iterations):
            d = B_cg - apply(x)
            true = [math.sqrt(v) for v in row_dots(d, d).tolist()]
        for i, its, ok, res, history in zip(cg, iterations, converged, true, residuals):
            stats[i]["iterations"] = its
            if ok:
                stats[i]["residual"] = res / norms[i]
            if not stats[i]["residual"] <= gate:
                histories[i] = [v / norms[i] for v in history]
                if ok:
                    histories[i].append(stats[i]["residual"])
        X[cg] = x
    for i, row in enumerate(stats):
        if row["residual"] <= gate:
            continue
        row["fallback"] = True
        history = histories.get(i, [])
        X[i], row["residual"], error = _direct(matrix(i), B[i], norms[i] or 1.0, gate, history)
        if error:
            row["error"] = LinearSolverError(error, residual_history=history)
    return X, stats


def _direct(A, b, norm, gate, history):
    """A refined sparse LU solve of A x = b; returns (x, residual, error text or None).

    Every iterate's |b - A x| / norm goes to ``history``; a failed x is NaN.
    """
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        return np.nan, math.inf, f"direct factorization failed: {exc}"
    x = lu.solve(b)
    r = b - A @ x
    best, residual = x, math.sqrt(r.dot(r)) / norm
    history.append(residual)
    for _ in range(_REFINEMENTS):
        if residual <= gate:
            break
        x = x + lu.solve(r)
        r = b - A @ x
        history.append(math.sqrt(r.dot(r)) / norm)
        if history[-1] < residual:
            best, residual = x, history[-1]
    if not residual <= gate:
        return np.nan, residual, f"direct fallback residual {residual:.3e} above gate {gate:.3e}"
    return best, residual, None
