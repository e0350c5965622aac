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

``solve`` applies one policy to the k systems of a step, through pcg's
whole-block callbacks, and every row gets the bits, stats and error of a
block of its own:

- row i is solved for b_i / s_i from x0_i / s_i and multiplied back, with
  s_i the power of two just above max |b_i| (at most 2^1023): exact, and
  no squared norm of a row underflows or overflows (a start x0_i / s_i
  that overflows is a far start, which CG gives up on);
- a definite row (SPD, as the caller knows) with b = 0 is solved by 0;
- the other definite rows run ``pcg`` to relative residual ``cg_rtol``,
  and one block product gives their true residuals |b - A x| / |b| (a
  row CG left at its start reuses pcg's first residual); the rows that
  skip CG stay in pcg's block, frozen from the start;
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


def pcg(apply, precond, b, x0, tol, maxiter, running=None):
    """Preconditioned CG for A_i x_i = b_i, row by row, until ||b_i - A_i x_i|| <= tol[i].

    ``b`` and ``x0`` are (k, N) blocks and ``tol`` holds one tolerance per
    row.  ``apply(V)`` and ``precond(R)`` get the whole block and return
    A_i or M_i^{-1} applied to each row; both should be symmetric positive
    definite.  A stopped row's entries hold unread, possibly non-finite
    values, so a callback must keep each row's result to that row.  A row
    whose ``running[i]`` is False (all run by default) is frozen at x0 from
    the start, with no residuals and 0 iterations.

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
    running = [True] * len(X) if running is None else list(running)
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
    return X, [max(len(h) - 1, 0) for h in residuals], residuals


def solve(apply, precond, matrix, B, X0, cg_rtol, gate, maxiter, definite):
    """Solve A_i x_i = b_i for the rows b_i of the (k, N) block B; returns (X, stats).

    The policy of the module docstring.  ``apply`` and ``precond`` are
    pcg's whole-block callbacks, ``matrix(i)`` returns the sparse A_i to
    factor, and ``definite[i]`` whether A_i is SPD.  CG starts from X0 and
    stops after ``maxiter`` iterations.  ``stats`` holds k dicts; a failed
    row's has its LinearSolverError under ``error``.
    """
    _, e = np.frexp(np.abs(B).max(axis=1, keepdims=True))
    scale = np.ldexp(1.0, np.minimum(e, 1023))  # s_i of the module docstring
    B = B / scale
    norms = [math.sqrt(v) for v in row_dots(B, B).tolist()]
    stats = [
        {"iterations": 0, "residual": 0.0 if d and norm == 0.0 else math.inf, "fallback": False}
        for d, norm in zip(definite, norms)
    ]
    running = [d and norm != 0.0 for d, norm in zip(definite, norms)]
    tol = [cg_rtol * norm for norm in norms]
    with np.errstate(over="ignore"):  # an overflowing start: pcg's non-finite residual
        X0 = X0 / scale
    X, iterations, residuals = pcg(apply, precond, B, X0, tol, maxiter, running)
    converged = [run and res[-1] <= t for run, res, t in zip(running, residuals, tol)]
    # a skipped row with b = 0 is solved by 0, and the LU below solves the
    # others; zero keeps their residuals finite
    zero = [i for i, ok in enumerate(converged) if not ok]
    if zero:
        X[zero] = 0.0
    true = None  # each row's |b - A x|; a row CG left at its start has pcg's first
    if any(iterations):
        d = B - apply(X)
        true = [math.sqrt(v) for v in row_dots(d, d).tolist()]
    histories = {}
    for i in (i for i, run in enumerate(running) if run):
        row = stats[i]
        row["iterations"] = iterations[i]
        if converged[i]:
            row["residual"] = (true[i] if true else residuals[i][0]) / norms[i]
        if not row["residual"] <= gate:
            histories[i] = [v / norms[i] for v in residuals[i]]
            if converged[i]:
                histories[i].append(row["residual"])
    for i, row in enumerate(stats):
        if row["residual"] <= gate:
            continue
        row["fallback"] = True
        history = histories.get(i, [])
        X[i], row["residual"], error = _direct(matrix(i), B[i], norms[i] or 1.0, gate, history)
        if error:
            row["error"] = LinearSolverError(error, residual_history=history)
    X *= scale
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
