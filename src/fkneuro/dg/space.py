"""Discontinuous piecewise-polynomial space on a polytopal mesh.

Each element carries monomials scaled to its bounding box, orthonormalized
against the element measure (Cholesky of the quadrature Gram matrix), so
element mass blocks are identities and the global mass matrix is I.  The
only other volume product the reaction term needs is the triple product
T_e[i,j,k] = (phi_i phi_j, phi_k)_e, stacked as `triple` (E, nb, nb, nb) on
each element's own rule (exact to degree 2*degree, like the Gram matrix).
Degrees of freedom are blocked per element: element e owns the global
index range [e*n_local, (e+1)*n_local).

Quadrature is stored stacked, in `groups` of elements whose
sub-tessellations have the same number of simplices (a structured mesh has
one group): (elements, points (E_g, q, d), weights (E_g, q), basis values
(E_g, q, nb)).  Every volume integral is one contraction per group, and
`points` lists all of them in group order for one call of a projected
function.  The contractions run over chunks of CHUNK elements.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp

from ..geometry.atlas import region_weight_matrix
from .quadrature import simplex_rule

# Elements (or faces) per batch of the stacked contractions.  On a 3D mesh
# of 750 tetrahedra at degree 2 a whole group's gradient temporary
# (E_g, q, nb, d) is 11.5 MB; freeing buffers that large raises glibc's
# dynamic mmap threshold, and the SuperLU factor that follows then lands in
# a fragmented heap: a sweep on that mesh peaked at 180 MB RSS with whole
# groups and at 141 MB with fixed chunks of 64.
CHUNK = 64


def chunks(n: int):
    """Slices of at most CHUNK consecutive items out of n."""
    return [slice(i, i + CHUNK) for i in range(0, n, CHUNK)]


def monomial_exponents(degree: int, d: int) -> np.ndarray:
    """All exponent tuples of total degree <= degree, graded lexicographic."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.product(range(total + 1), repeat=d):
            if sum(combo) == total:
                out.append(combo)
    return np.array(sorted(out, key=lambda c: (sum(c), c)), dtype=int)


class DGSpace:
    """Basis bookkeeping, stacked quadrature, projections and integrals."""

    def __init__(self, mesh, degree: int):
        if degree < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {degree}")
        self.mesh = mesh
        self.degree = degree
        self.quad_exactness = 2 * degree  # the Gram matrix is exact
        self.d = mesh.d
        self.exponents = monomial_exponents(degree, self.d)
        self.n_local = nb = len(self.exponents)
        assert self.n_local == math.comb(degree + self.d, self.d)

        E = mesh.n_elements
        self.centers = 0.5 * (mesh.bbox_min + mesh.bbox_max)
        hw = 0.5 * (mesh.bbox_max - mesh.bbox_min)
        self.halfwidths = np.where(hw > 0, hw, 1.0)
        self.ortho = np.empty((E, nb, nb))  # monomial -> basis map per element
        self.triple = np.empty((E, nb, nb, nb))
        self.basis_integrals = np.empty((E, nb))  # integral of each basis function
        self.groups = []
        for elements, pts, wts in self.element_quadrature(self.quad_exactness):
            phi = np.empty(wts.shape + (nb,))
            for c in chunks(len(elements)):
                els, w = elements[c], wts[c]
                mono = self._monomials(els, pts[c])
                gram = np.einsum("eqi,eq,eqj->eij", mono, w, mono)
                chol = np.linalg.cholesky(0.5 * (gram + gram.transpose(0, 2, 1)))
                self.ortho[els] = np.linalg.inv(chol)
                phi[c] = mono @ self.ortho[els].transpose(0, 2, 1)
                wphi = w[..., None] * phi[c]
                for k in range(nb):  # never (E_g, q, nb, nb) at once
                    wphi_k = wphi * phi[c, :, k, None]
                    self.triple[els, :, :, k] = wphi_k.transpose(0, 2, 1) @ phi[c]
                self.basis_integrals[els] = wphi.sum(axis=1)
            self.groups.append((elements, pts, wts, phi))
        self.points = np.concatenate([p.reshape(-1, self.d) for _, p, _, _ in self.groups])

        self.N = E * nb
        self.labels = mesh.regions  # (E,) region id per element
        self.measures = mesh.measures  # (E,)

    def element_quadrature(self, exactness: int):
        """Element rules of the given exactness on the mesh's stacked
        sub-tessellations, grouped by simplex count: [(elements, points
        (E_g, q, d), weights (E_g, q))]."""
        groups = []
        for elements, simplices, _ in self.mesh.simplex_groups:
            pts, wts = simplex_rule(simplices, exactness)
            groups.append(
                (elements, pts.reshape(len(elements), -1, self.d), wts.reshape(len(elements), -1))
            )
        return groups

    # -- basis evaluation: element index e (int or array), points (..., q, d)

    def _powers(self, e, pts: np.ndarray) -> np.ndarray:
        """Powers 0..degree of the bounding-box-scaled coordinates, shape
        (..., q, d, degree + 1); a monomial gathers one per coordinate."""
        s = (pts - self.centers[e][..., None, :]) / self.halfwidths[e][..., None, :]
        powers = np.ones(s.shape + (self.degree + 1,))
        for k in range(1, self.degree + 1):
            powers[..., k] = powers[..., k - 1] * s
        return powers

    def _monomials(self, e, pts: np.ndarray) -> np.ndarray:
        """Monomial values, shape (..., q, n_local)."""
        powers = self._powers(e, pts)
        return np.prod(powers[..., np.arange(self.d), self.exponents], axis=-1)

    def _monomial_grads(self, e, pts: np.ndarray) -> np.ndarray:
        """Monomial gradients, shape (..., q, n_local, d)."""
        powers = self._powers(e, pts)
        out = np.empty(powers.shape[:-2] + self.exponents.shape)
        for j in range(self.d):
            exp_j = self.exponents[:, j]
            lowered = self.exponents.copy()
            lowered[:, j] = np.maximum(exp_j - 1, 0)
            out[..., j] = np.prod(powers[..., np.arange(self.d), lowered], axis=-1) * exp_j
        return out / self.halfwidths[e][..., None, None, :]

    def eval_basis(self, e, pts: np.ndarray) -> np.ndarray:
        """Basis values of element e's functions at points, shape (..., q, n_local)."""
        return self._monomials(e, pts) @ np.swapaxes(self.ortho[e], -1, -2)

    def eval_basis_grad(self, e, pts: np.ndarray) -> np.ndarray:
        """Basis gradients at points, shape (..., q, n_local, d)."""
        return self.ortho[e][..., None, :, :] @ self._monomial_grads(e, pts)

    # -- projections -------------------------------------------------------

    def project(self, f) -> np.ndarray:
        """Elementwise L2 projection of callable f(points) -> values, called
        once on `points`."""
        vals = np.asarray(f(self.points), dtype=float)
        C = np.empty((self.mesh.n_elements, self.n_local))
        start = 0
        for elements, _, wts, phi in self.groups:
            group_vals = vals[start : start + wts.size].reshape(wts.shape)
            C[elements] = np.einsum("eqi,eq->ei", phi, wts * group_vals)
            start += wts.size
        return C.ravel()

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

    def region_weight_matrix(self, groups) -> sp.csc_matrix:
        """Weights W, shape (N, G), with states @ W the mean over each of
        the disjoint groups of region ids: the integral over the group's
        regions divided by their measure."""
        return region_weight_matrix(
            self.labels, self.measures, self.basis_integrals, groups, "mesh"
        )

    def l2_error(self, C: np.ndarray, f, extra_exactness: int = 2) -> float:
        """L2 distance between the DG function and callable f, by elevated
        quadrature on the sub-tessellation."""
        blocks = np.asarray(C, dtype=float).reshape(self.mesh.n_elements, self.n_local)
        total = 0.0
        for elements, pts, wts in self.element_quadrature(self.quad_exactness + extra_exactness):
            u = np.einsum("eqi,ei->eq", self.eval_basis(elements, pts), blocks[elements])
            diff = u - np.asarray(f(pts.reshape(-1, self.d)), dtype=float).reshape(wts.shape)
            total += float(np.sum(wts * diff**2))
        return math.sqrt(total)
