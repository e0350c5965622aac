"""Discontinuous piecewise-polynomial space on a polytopal mesh.

Each element carries monomials scaled to its bounding box, orthonormalized
against the element measure (Cholesky of the quadrature Gram matrix), so
element mass blocks are identities and the global mass matrix is I.  The
only other volume product the reaction term needs is the triple product
T_e[i,j,k] = (phi_i phi_j, phi_k)_e, stacked as `triple` (E, nb, nb, nb) on
each element's own rule (exact to degree 2*degree, like the Gram matrix).
Degrees of freedom are blocked per element: element e owns the global
index range [e*n_local, (e+1)*n_local).
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular

from ..geometry.atlas import region_weight_matrix
from .quadrature import simplex_rule


def monomial_exponents(degree: int, d: int) -> np.ndarray:
    """All exponent tuples of total degree <= degree, graded lexicographic."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.product(range(total + 1), repeat=d):
            if sum(combo) == total:
                out.append(combo)
    return np.array(sorted(out, key=lambda c: (sum(c), c)), dtype=int)


class DGSpace:
    """Basis bookkeeping, quadrature caches, projections and integrals."""

    def __init__(self, mesh, degree: int, quad_exactness: int | None = None):
        if degree < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {degree}")
        min_exactness = 2 * degree
        if quad_exactness is None:
            quad_exactness = min_exactness
        if quad_exactness < min_exactness:
            raise ValueError(
                f"quadrature exactness {quad_exactness} insufficient for "
                f"degree {degree} (need >= {min_exactness})"
            )
        self.mesh = mesh
        self.degree = degree
        self.quad_exactness = quad_exactness
        self.d = mesh.d
        self.exponents = monomial_exponents(degree, self.d)
        self.n_local = len(self.exponents)
        assert self.n_local == math.comb(degree + self.d, self.d)

        self.centers = np.empty((mesh.n_elements, self.d))
        self.halfwidths = np.empty((mesh.n_elements, self.d))
        self.ortho = []  # per element: (n_local, n_local) monomial -> basis map
        self.quad_pts = []  # per element: (n_q, d)
        self.quad_wts = []  # per element: (n_q,)
        self.basis_vals = []  # per element: (n_q, n_local)
        self.basis_grads = []  # per element: (n_q, n_local, d)
        nb = self.n_local
        self.triple = np.empty((mesh.n_elements, nb, nb, nb))

        for e, el in enumerate(mesh.elements):
            self.centers[e] = 0.5 * (el.bbox_min + el.bbox_max)
            hw = 0.5 * (el.bbox_max - el.bbox_min)
            self.halfwidths[e] = np.where(hw > 0, hw, 1.0)
            pts_list, wts_list = [], []
            for simplex in el.sub_tessellation:
                p, w = simplex_rule(simplex, quad_exactness)
                pts_list.append(p)
                wts_list.append(w)
            pts = np.concatenate(pts_list)
            wts = np.concatenate(wts_list)
            mono = self._monomials(e, pts)
            gram = mono.T @ (wts[:, None] * mono)
            gram = 0.5 * (gram + gram.T)
            chol = np.linalg.cholesky(gram)
            coeff = solve_triangular(chol, np.eye(self.n_local), lower=True)
            self.ortho.append(coeff)
            self.quad_pts.append(pts)
            self.quad_wts.append(wts)
            phi = mono @ coeff.T
            self.basis_vals.append(phi)
            pairs = (phi[:, :, None] * phi[:, None, :]).reshape(len(wts), -1)
            self.triple[e] = (pairs.T @ (wts[:, None] * phi)).reshape(nb, nb, nb)
            grads = self._monomial_grads(e, pts)
            self.basis_grads.append(np.einsum("qkd,ik->qid", grads, coeff))

        self.N = mesh.n_elements * self.n_local
        # integral of each basis function over its element
        self.basis_integrals = np.array(
            [v.T @ w for v, w in zip(self.basis_vals, self.quad_wts)]
        )  # (E, n_local)
        self.labels = mesh.region_labels()  # (E,) region id per element
        self.measures = np.array([el.measure for el in mesh.elements])  # (E,)

    def element_dofs(self, e: int) -> slice:
        return slice(e * self.n_local, (e + 1) * self.n_local)

    def _scaled(self, e: int, pts: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(pts) - self.centers[e]) / self.halfwidths[e]

    def _monomials(self, e: int, pts: np.ndarray) -> np.ndarray:
        s = self._scaled(e, pts)
        return np.prod(s[:, None, :] ** self.exponents[None, :, :], axis=2)

    def _monomial_grads(self, e: int, pts: np.ndarray) -> np.ndarray:
        s = self._scaled(e, pts)
        n, k = s.shape[0], self.n_local
        out = np.zeros((n, k, self.d))
        for j in range(self.d):
            exp_j = self.exponents[:, j]
            lowered = self.exponents.copy()
            lowered[:, j] = np.maximum(exp_j - 1, 0)
            vals = np.prod(s[:, None, :] ** lowered[None, :, :], axis=2)
            out[:, :, j] = vals * exp_j[None, :] / self.halfwidths[e, j]
        return out

    def eval_basis(self, e: int, pts: np.ndarray) -> np.ndarray:
        """Basis values of element e's functions at points, shape (n, n_local)."""
        return self._monomials(e, pts) @ self.ortho[e].T

    def eval_basis_grad(self, e: int, pts: np.ndarray) -> np.ndarray:
        """Basis gradients at points, shape (n, n_local, d)."""
        return np.einsum("qkd,ik->qid", self._monomial_grads(e, pts), self.ortho[e])

    # -- projections -------------------------------------------------------

    def project(self, f) -> np.ndarray:
        """Elementwise L2 projection of callable f(points) -> values."""
        C = np.empty(self.N)
        for e in range(self.mesh.n_elements):
            vals = np.asarray(f(self.quad_pts[e]), dtype=float)
            C[self.element_dofs(e)] = self.basis_vals[e].T @ (self.quad_wts[e] * vals)
        return C

    def project_element_constants(self, values: np.ndarray) -> np.ndarray:
        """Projection of a piecewise-constant (per-element) field."""
        values = np.asarray(values, dtype=float)
        C = (values[:, None] * self.basis_integrals).ravel()
        return C

    def seed_vector(self, region_ids, value: float) -> np.ndarray:
        """Projection of `value` on the listed regions, zero elsewhere."""
        inside = np.isin(self.labels, list(region_ids))
        return self.project_element_constants(np.where(inside, value, 0.0))

    # -- integrals ---------------------------------------------------------

    def region_weights(self, region_ids) -> np.ndarray:
        """Weights w, shape (N,), with w @ C the mean of C over the regions.

        The mean is the integral over the regions divided by their measure.
        """
        return self.region_weight_matrix([region_ids]).toarray()[:, 0]

    def region_weight_matrix(self, groups) -> sp.csc_matrix:
        """Weights W, shape (N, G), with states @ W the mean over each of
        the disjoint groups of region ids."""
        return region_weight_matrix(
            self.labels, self.measures, self.basis_integrals, groups, "mesh"
        )

    def eval_state(self, e: int, C: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return self.eval_basis(e, pts) @ C[self.element_dofs(e)]

    def l2_error(self, C: np.ndarray, f, extra_exactness: int = 2) -> float:
        """L2 distance between the DG function and callable f, by elevated
        quadrature on the sub-tessellation."""
        total = 0.0
        exactness = self.quad_exactness + extra_exactness
        for e, el in enumerate(self.mesh.elements):
            for simplex in el.sub_tessellation:
                pts, wts = simplex_rule(simplex, exactness)
                diff = self.eval_state(e, C, pts) - np.asarray(f(pts), dtype=float)
                total += float(wts @ diff**2)
        return math.sqrt(total)
