"""Semi-implicit Euler time integration of the assembled DG system.

Each step solves

    (I + dt*(A - alpha*I + M_nl(C^n))) C^{n+1} = C^n [+ dt F(t^{n+1})]

with the nonlinear reaction matrix rebuilt from the current state.  The
basis is orthonormal per element, so the mass matrix is the identity I.  The
optional forcing term F exists only for manufactured-solution verification
and defaults to zero; it is the space's L2 projection (``DGSpace.project``),
so each step calls the forcing once on all quadrature points.

The step matrix lives in the CSR pattern of A, which holds every element
block of M_nl.  It starts as the static part S = I + dt*(A - alpha*I), and
each step writes only the element blocks, S's blocks plus dt*M_nl's; no
sparse matrix is built and no entry outside the blocks is touched per step,
and S is not kept apart from it.

Conjugate gradients (``linsolve.pcg``) solve each step to relative
residual 1e-10, preconditioned by P = I + dt*A, on the right-hand side
that ``linsolve.solve`` scales by a power of two: every operation of the
solve, P's included, commutes with it, so no squared norm underflows or
overflows, even on states of size 2^-1000 or 2^1000.  A is symmetric positive
semi-definite with the constants as its kernel, so P is symmetric positive
definite with every eigenvalue >= 1, a sound CG preconditioner at any dt;
S itself is not definite once dt*alpha >= 1.  P does not depend on alpha:
it is factored once per assembled stiffness and dt and kept in the
system's ``step_factors``, which the systems ``DGSystem.with_alpha``
derives share, so one factorization serves every alpha of a sweep while
max(dK, alpha) is unchanged.  SuperLU factors P in symmetric mode
(minimum-degree ordering of A^T + A, diagonal pivots), which halves the
fill of the default column ordering, and in single precision, which
halves the factor's memory and cuts its time by about a third (3D n=5:
0.14 -> 0.09 s); CG's vectors, dots, true-residual gate and LU fallback
stay in float64 (Carson & Higham, SIAM J. Sci. Comput. 40(2), 2018).  The
constant mode u, the normalized ``basis_integrals`` (A u = 0, so P u = u),
is deflated out of the factor and applied in float64
(``deflated_preconditioner``): a float32 factor alone maps u to u only
to about 1e-7, and took a uniform state from one CG iteration per step to
2.6 on the 3D n=5 sweep; deflated, it takes one again.

CG starts from the polynomial extrapolant through the last five states,
C^n ... C^{n-4} (fewer right after a start: 2 C^n - C^{n-1} from two),
which the time loop holds in its window and hands each step as its
history.  The start sets the iteration count: at 2D n=24 it takes CG from
about 3 iterations per step down to about 1.3.  A solve that breaks down
or stagnates -- e.g. the step matrix loses definiteness for large
dt*alpha -- ends early and falls back to a refined sparse LU of the full
step matrix, under the policy that ``linsolve.solve`` applies to both
steppers (see ``linsolve``).
``solve_fk_mesh`` runs the steps in the time loop both solvers share,
``trajectory.advance``.
"""

import logging
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..linsolve import solve
from ..trajectory import OVERSHOOT_HIGH, OVERSHOOT_LOW, Trajectory, advance

logger = logging.getLogger(__name__)

# CG starts from the degree-_ORDER polynomial through the last _ORDER + 1
# states.  Each CG iteration cuts the residual by about 3e-3 at 2D n=24,
# so the start sets the count: the linear extrapolant lies 1e-4 to 5e-4
# (relative) from the next state, the 5-point one about 1e-8.
_ORDER = 4
# the weights (-1)^j binom(k + 1, j + 1) of C^{n-j}, j = 0..k, for k + 1 states
_EXTRAPOLATION = [
    [(-1) ** j * math.comb(k + 1, j + 1) for j in range(k + 1)] for k in range(_ORDER + 1)
]


def solve_linear(A: sp.csr_matrix, b: np.ndarray, x0, rtol, maxiter, precond):
    """Solve A x = b to relative residual <= rtol; returns (x, stats).

    The k = 1 call of ``linsolve.solve``: CG from x0 preconditioned by
    ``precond(r)``, then a refined sparse LU; raises its LinearSolverError.
    """
    X, (stats,) = solve(
        lambda V: A.dot(V[0])[None], lambda R: precond(R[0])[None],
        lambda i: A, b[None], x0[None], rtol, rtol, maxiter, [True],
    )
    if "error" in stats:
        raise stats["error"]
    return X[0], stats


def deflated_preconditioner(solve32, constants):
    """M^{-1} r = u (u.r) + Q F(Q r) with Q = I - u u^T, for a float32 solve F of P.

    ``constants`` holds the coefficients of the constant function, which P
    maps to themselves; u is their normalization.  Since P^{-1} u = u,
    P^{-1} = u u^T + Q P^{-1} Q exactly, so M^{-1} is P^{-1} with the u
    term kept in float64: it maps u to u exactly and is symmetric positive
    definite as far as F is.  F's input is scaled by the power of two just
    above max |Q r| before the float32 cast, and its output scaled back; a
    power of two rescales exactly, so the cast neither overflows nor
    underflows and M^{-1} (2^k r) = 2^k M^{-1} r bit for bit.  A
    non-finite r gives a non-finite result.  Returns the callback r -> z.
    """
    u = constants / np.linalg.norm(constants)

    def precond(r):
        y = r - (u @ r) * u
        _, e = np.frexp(np.abs(y).max())
        z = np.ldexp(solve32(np.ldexp(y, -e).astype(np.float32)).astype(float), e)
        return z + (u @ (r - z)) * u

    return precond


class MeshStepper:
    """Reusable per-run stepping context (fixed system and dt)."""

    def __init__(self, system, dt: float, rtol: float = 1e-10, maxiter: int | None = None):
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        self.system = system
        self.dt = dt
        self.rtol = rtol
        self.maxiter = maxiter if maxiter is not None else 10 * system.N
        A = system.stiffness
        factors = system.step_factors
        if dt not in factors:
            lu = spla.splu(
                (sp.identity(system.N, format="csr") + dt * A).astype(np.float32).tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            factors[dt] = deflated_preconditioner(lu.solve, system.space.basis_integrals.ravel())
        self.precond = factors[dt]

        # the step matrix takes A's CSR pattern, which holds every element's
        # full block (the volume blocks are assembled dense); the blocks are
        # located by their keys row * N + col among the pattern's sorted keys
        N, nb = system.N, system.space.n_local
        blocks = np.arange(N).reshape(-1, nb)
        rows = np.repeat(blocks, nb, axis=1).ravel()
        cols = np.tile(blocks, (1, nb)).ravel()
        keys = np.repeat(np.arange(N), np.diff(A.indptr)) * N + A.indices
        self._block_positions = np.searchsorted(keys, rows * N + cols)
        diagonal = self._block_positions[rows == cols]
        # S = I + dt*(A - alpha*I), rounded as the sparse sum would round it.
        # A step writes only the element blocks, so the step matrix keeps S
        # outside them, and S's blocks are kept beside it
        static = A.data.copy()
        static[diagonal] -= system.alpha
        static *= dt
        static[diagonal] += 1.0
        self._static_blocks = static[self._block_positions]
        self._lhs = sp.csr_matrix((static, A.indices, A.indptr), shape=(N, N))

    @property
    def static_part(self) -> sp.csr_matrix:
        """S = I + dt*(A - alpha*I), in A's pattern, built on each call."""
        lhs = self._lhs
        data = lhs.data.copy()
        data[self._block_positions] = self._static_blocks
        return sp.csr_matrix((data, lhs.indices, lhs.indptr), shape=lhs.shape)

    def step(self, history: np.ndarray, forcing=None, t_next: float = 0.0):
        """Advance one step from the last state of ``history``; returns (C_next, stats).

        ``history`` holds the latest states as rows, oldest first and
        ending with C_n; a 1-D state is the history of one.  CG starts
        from the polynomial extrapolant through its last k + 1 <= 5 rows:
        C_n itself (k = 0), 2 C_n - C_{n-1} (k = 1), up to
        5 C_n - 10 C_{n-1} + 10 C_{n-2} - 5 C_{n-3} + C_{n-4} (k = 4).
        """
        system = self.system
        history = np.asarray(history, dtype=float)
        if history.ndim not in (1, 2) or history.shape[-1] != system.N or not history.size:
            raise ValueError(f"history has shape {history.shape}, want (n, {system.N})")
        recent = history.reshape(-1, system.N)[-_ORDER - 1 :]
        C_n = recent[-1]
        lhs = self._lhs
        reaction = self.dt * system.reaction_blocks(C_n).ravel()
        lhs.data[self._block_positions] = self._static_blocks + reaction
        rhs = C_n
        if forcing is not None:
            rhs = rhs + self.dt * self._forcing_vector(forcing, t_next)
        coefficients = _EXTRAPOLATION[len(recent) - 1]
        x0 = coefficients[0] * C_n
        for c, state in zip(coefficients[1:], recent[-2::-1]):
            x0 += c * state
        return solve_linear(
            lhs, rhs, x0=x0, rtol=self.rtol, maxiter=self.maxiter, precond=self.precond
        )

    def _forcing_vector(self, forcing, t: float) -> np.ndarray:
        """L2 projection of forcing(points, t) onto the space."""
        return self.system.space.project(lambda p: forcing(p, t))


def solve_fk_mesh(
    system,
    C0: np.ndarray,
    dt: float,
    T: float,
    forcing=None,
    rtol: float = 1e-10,
    maxiter_factor: float = 10.0,
    observers=(),
) -> Trajectory:
    """Run the semi-implicit time loop from C0 up to final time T.

    ``trajectory.advance`` at one row hands ``MeshStepper.step`` its
    latest states, so each step starts CG from the extrapolant through its
    last five; the run raises the loop's failure.  The loop keeps only a
    window of the last five states and one block, and the trajectory holds
    the window's states at the end, so the memory does not grow with the
    step count.  Each of ``observers`` is called with every block of
    states, (1, b, N), as ``advance`` describes: one that needs every
    state, such as the state dump (trajectory.StateDumps), gets them block
    by block.  Logs one warning when any step fell back to the sparse LU,
    and one when an element mean of any state, initial one included, lies
    outside [OVERSHOOT_LOW, OVERSHOOT_HIGH]; the means are scanned block by
    block, and the states are kept as computed either way.
    """
    stepper = MeshStepper(system, dt, rtol=rtol, maxiter=int(maxiter_factor * system.N))

    def step(history, alphas, t):
        C_next, stats = stepper.step(history[0], forcing=forcing, t_next=t)
        return C_next[None], [stats]

    # element mean: the basis integrals times the coefficients, over the measure
    weights = system.space.basis_integrals / system.space.measures[:, None]
    lows, highs = [], []

    def scan(block):
        means = np.einsum("nei,ei->ne", block[0].reshape(-1, *weights.shape), weights)
        lows.append(means.min(axis=1))
        highs.append(means.max(axis=1))

    trajectories, failure = advance(
        step, C0, [system.alpha], dt, T, logger, _ORDER + 1, [scan, *observers]
    )
    if failure is not None:
        raise failure
    lows, highs = np.concatenate(lows), np.concatenate(highs)
    outside = np.count_nonzero((lows < OVERSHOOT_LOW) | (highs > OVERSHOOT_HIGH))
    if outside:
        logger.warning(
            "%d of %d states have element means outside [%g, %g]: "
            "from %.6g to %.6g (alpha=%g, dt=%g)",
            outside, len(lows), OVERSHOOT_LOW, OVERSHOOT_HIGH, lows.min(), highs.max(),
            system.alpha, dt,
        )
    return trajectories[0]
