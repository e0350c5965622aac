"""Property tests of the preconditioned CG loop both solvers share."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fkneuro.dg.stepper import solve_linear
from fkneuro.errors import LinearSolverError
from fkneuro.linsolve import _STALL, pcg, row_dots, solve

RTOL = 1e-10
MAXITER = 1000


@st.composite
def symmetric_systems(draw, kind, n=None):
    """(A, b): a random symmetric matrix with eigenvalues spread over up to
    eight decades, and a normal right-hand side; n x n if n is given.

    kind "spd": all eigenvalues positive; "indefinite": some negative;
    "singular": SPD on a subset of the unknowns, and the other rows and
    columns exactly zero, so b is not in the range of A.
    """
    if n is None:
        n = draw(st.integers(1 if kind == "spd" else 2, 12))
    k = 0 if kind == "spd" else draw(st.integers(1, n - 1))
    decades = draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = 10.0 ** rng.uniform(0.0, decades, size=n)
    if kind == "indefinite":
        lam[:k] *= -1.0
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    if kind == "singular":
        dead = rng.permutation(n)[:k]
        A[dead, :] = 0.0
        A[:, dead] = 0.0
    return A, rng.normal(size=n)


def inverse_diagonal(A):
    d = np.diag(A)
    return np.where(d != 0, 1.0 / np.where(d == 0, 1.0, d), 1.0)


def jacobi(A):
    inv_diag = inverse_diagonal(A)
    return lambda r: inv_diag * r


def pcg_one(A, precond, b, tol, maxiter):
    """``pcg`` on the one-row block of A x = b from 0; returns that row's results."""
    X, iterations, residuals = pcg(
        lambda V: A.dot(V[0])[None], precond, b[None], np.zeros((1, len(b))), [tol], maxiter
    )
    return X[0], iterations[0], residuals[0]


def run_pcg(A, b):
    return pcg_one(A, jacobi(A), b, RTOL * np.linalg.norm(b), MAXITER)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_systems("spd"))
def test_pcg_solves_spd_systems_to_the_tolerance(system):
    # forward error <= cond(A) * relative residual; the factor 2 covers the
    # gap between the recurrence residual and the true one, and the
    # reference solve's own rounding
    A, b = system
    x, iterations, residuals = run_pcg(A, b)
    assert residuals[-1] <= RTOL * np.linalg.norm(b)
    assert len(residuals) == iterations + 1 <= MAXITER + 1
    reference = np.linalg.solve(A, b)
    bound = 2.0 * np.linalg.cond(A) * RTOL * np.linalg.norm(reference)
    assert np.linalg.norm(x - reference) <= bound


@pytest.mark.parametrize("kind", ["indefinite", "singular"])
def test_pcg_ends_early_without_a_positive_definite_system(kind):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(symmetric_systems(kind))
    def check(system):
        A, b = system
        x, iterations, residuals = run_pcg(A, b)
        assert len(residuals) == iterations + 1
        converged = residuals[-1] <= RTOL * np.linalg.norm(b)
        # breakdown or stagnation, not the iteration cap, ends the solve:
        # on these small systems, within _STALL iterations of the residual's
        # last halving, which comes early
        assert converged or iterations <= 2 * _STALL
        if kind == "singular":
            assert not converged
            with pytest.raises(LinearSolverError) as err:
                solve_linear(
                    sp.csr_matrix(A), b, x0=np.zeros(len(b)), rtol=RTOL, maxiter=MAXITER,
                    precond=jacobi(A),
                )
            assert len(err.value.residual_history) >= 1

    check()


def test_pcg_stops_at_breakdown_before_stepping():
    # p . A p = 0 on the first direction: the step length would be infinite
    A = np.diag([1.0, -1.0])
    b = np.array([1.0, 1.0])
    x, iterations, residuals = pcg_one(A, lambda r: r, b, 1e-10, MAXITER)
    assert iterations == 0
    assert residuals == [pytest.approx(np.sqrt(2.0))]
    assert not x.any()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_block_rows_are_bit_equal_to_their_vector_products(seed):
    # the solver layer handles a single system as a block of one, which is
    # exact only because each row of a block product is the bits of the
    # row's own vector product: row_dots against the 1-D dot, and the
    # sparse product with V.T against L @ v (the graph step's Laplacian)
    rng = np.random.default_rng(seed)
    for N in [1, 7, 83, 1015, 6912]:
        L = sp.random(N, N, density=min(1.0, 8.0 / N), format="csr", rng=rng)
        L = (L + L.T).tocsr()
        for k in range(1, 9):
            A, B, V = rng.normal(size=(3, k, N))
            dots = row_dots(A, B)
            products = (L @ V.T).T
            assert dots.shape == (k,) and products.shape == (k, N)
            for i in range(k):
                assert dots[i].tobytes() == (A[i] @ B[i]).tobytes()
                assert products[i].tobytes() == (L @ V[i]).tobytes()


@st.composite
def stacked_systems(draw):
    """Systems of one size and mixed kinds, to be solved as the rows of a block."""
    n = draw(st.integers(2, 12))
    kinds = st.sampled_from(["spd", "indefinite", "singular"])
    kind_list = draw(st.lists(kinds, min_size=1, max_size=6))
    return [draw(symmetric_systems(kind, n)) for kind in kind_list]


def stop_reason(residuals, iterations, tol, maxiter):
    """Why a one-row pcg call ended: tolerance, cap, stall or breakdown."""
    if residuals[-1] <= tol:
        return "tolerance"
    if iterations == maxiter:
        return "cap"
    mark, mark_at = residuals[0], 0
    for i, res in enumerate(residuals):
        if res <= 0.5 * mark:
            mark, mark_at = res, i
    return "stall" if iterations - mark_at >= _STALL else "breakdown"


def test_pcg_rows_equal_their_single_solves():
    # each row of a block keeps its own recurrence and stopping tests, so
    # every row's iterate, iteration count and residual history are the
    # bits of its own one-row solve, whatever the other rows do; a stopped row
    # stays in the block, so every callback gets all k rows, and the block
    # takes one product per iteration of its slowest row (plus the first
    # residual's, and one more when the last rows break down unstepped)
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stacked_systems(), st.sampled_from([3, 8, MAXITER]))
    def check(systems, maxiter):
        As = [A for A, _ in systems]
        B = np.array([b for _, b in systems])
        inv_diags = np.array([inverse_diagonal(A) for A in As])
        tols = RTOL * np.linalg.norm(B, axis=1)
        shapes = {"apply": [], "precond": []}

        def apply(V):
            shapes["apply"].append(V.shape)
            return np.array([A @ v for A, v in zip(As, V)])

        def precond(R):
            shapes["precond"].append(R.shape)
            return inv_diags * R

        X, iterations, residuals = pcg(apply, precond, B, np.zeros_like(B), tols, maxiter)
        assert set(shapes["apply"]) | set(shapes["precond"]) <= {B.shape}
        assert 1 <= len(shapes["apply"]) <= 2 + max(iterations)
        for i, (A, b) in enumerate(systems):
            x1, it1, res1 = pcg_one(A, jacobi(A), b, tols[i], maxiter)
            assert X[i].tobytes() == x1.tobytes()
            assert iterations[i] == it1
            assert np.array(residuals[i]).tobytes() == np.array(res1).tobytes()
            seen.add(stop_reason(res1, it1, tols[i], maxiter))

    check()
    assert seen == {"tolerance", "cap", "stall", "breakdown"}


GATE = 1e-9


def solve_rows(systems, B, X0, definite, maxiter):
    """``solve`` on the rows of B, row i the system systems[i], Jacobi-preconditioned."""

    inv_diags = np.array([inverse_diagonal(A) for A in systems])
    return solve(
        lambda V: np.array([A @ v for A, v in zip(systems, V)]), lambda R: inv_diags * R,
        lambda i: sp.csr_matrix(systems[i]), B, X0, RTOL, GATE, maxiter, definite,
    )


def test_solve_rows_equal_their_single_solves():
    # every row of a block gets the bits, stats and error of its own k = 1
    # call, and either meets the gate or carries a LinearSolverError: rows
    # with b = 0, rows marked not definite (the LU alone), and definite-
    # marked rows whose CG converges, stalls or breaks down
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        stacked_systems(), st.data(), st.sampled_from([3, MAXITER]),
        st.randoms(use_true_random=False),
    )
    def check(stacked, data, maxiter, random):
        k = len(stacked)
        systems = [A for A, _ in stacked]
        zero = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        definite = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        B = np.array([0.0 * b if z else b for (_, b), z in zip(stacked, zero)])
        X0 = np.array([[random.gauss(0.0, 1.0) for _ in b] for b in B])
        if data.draw(st.booleans()):
            X0[:] = 0.0
        X, stats = solve_rows(systems, B, X0, definite, maxiter)
        assert X.shape == B.shape and len(stats) == k
        for i in range(k):
            x1, (stats1,) = solve_rows(
                systems[i : i + 1], B[i : i + 1], X0[i : i + 1], definite[i : i + 1], maxiter
            )
            assert X[i].tobytes() == x1[0].tobytes()
            row, error = dict(stats[i]), stats[i].get("error")
            row1, error1 = dict(stats1), stats1.get("error")
            assert str(row.pop("error", "")) == str(row1.pop("error", ""))
            assert row == row1
            assert set(row) == {"iterations", "residual", "fallback"}
            if error is None:
                assert row["residual"] <= GATE and np.isfinite(X[i]).all()
                # the true relative residual, |b - A x| by the product that solved the row
                A, b = systems[i], B[i]
                r = b - (sp.csr_matrix(A) if row["fallback"] else A) @ X[i]
                assert row["residual"] == np.linalg.norm(r) / (np.linalg.norm(b) or 1.0)
                assert row["fallback"] or definite[i]
                seen.add("fallback" if row["fallback"] else "zero" if zero[i] else "cg")
            else:
                assert isinstance(error, LinearSolverError) and row["fallback"]
                history, history1 = error.residual_history, error1.residual_history
                assert np.array(history).tobytes() == np.array(history1).tobytes()
                assert np.isnan(X[i]).all()
                seen.add("error")

    check()
    assert seen == {"zero", "cg", "fallback", "error"}


@pytest.mark.parametrize("definite", [True, False])
def test_solve_takes_a_start_that_overflows_its_row_scaling(definite):
    # max |b| < 1/2 scales the row by 2, so a start near the largest double
    # overflows: the row is solved by the LU, with no warning
    A, b = np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([0.25, 0.4])
    X, (stats,) = solve_rows([A], b[None], np.array([[0.0, 1.5e308]]), [definite], MAXITER)
    assert stats["fallback"] and "error" not in stats and stats["residual"] <= GATE
    assert np.abs(X[0] - np.linalg.solve(A, b)).max() <= 1e-15
