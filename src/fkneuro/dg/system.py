"""Assembly of the interior-penalty DG operator for the spreading model.

The basis is orthonormal per element, so the mass matrix is the identity
and is not assembled; the linear reaction is alpha * I.  The state-dependent
reaction block of element e is alpha * sum_k T_e[:, :, k] c_k, a contraction
of the space's triple products with the element's coefficients, taken for
all elements as one batched matrix-vector product.

The stiffness matrix combines elementwise diffusion volume terms with
symmetric interior-penalty face terms over internal faces only: the domain
boundary carries a zero-flux condition, so boundary faces contribute
nothing.  The penalty is one array over the internal faces,

    h = mesh.diameters[mesh.internal_faces.owners]          # (F, 2)
    eta = degree^2 / H(h) * eta0 * max(H(dK), alpha)         # (F,)

where H(h) = 2 h_left h_right / (h_left + h_right) is the harmonic average
of the two neighbors' diameters and dK the largest diffusion-tensor
eigenvalue, d_ext + d_axn on every element, so that H(dK) = dK.

Assembly is batched.  The volume blocks are one contraction per quadrature
group of the space, and the faces are one stacked face rule with both
sides' basis functions evaluated at once, giving one (2 nb, 2 nb) block per
face.  Element and face blocks go through a single COO -> CSR conversion,
which sums the face blocks into the element diagonal blocks.
"""

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .quadrature import face_rule
from .space import DGSpace, chunks


def face_penalties(mesh, model, degree: int, eta0: float, alpha: float) -> np.ndarray:
    """Penalty of every internal face, shape (F,)."""
    h = mesh.diameters[mesh.internal_faces.owners]
    h_avg = 2.0 * h[:, 0] * h[:, 1] / (h[:, 0] + h[:, 1])
    return degree**2 / h_avg * eta0 * max(model.max_eigenvalue(), alpha)


@dataclass
class DGSystem:
    """Assembled sparse operators and the state-dependent reaction blocks."""

    space: DGSpace
    model: object
    alpha: float
    eta0: float
    stiffness: sp.csr_matrix = field(init=False)
    penalties: np.ndarray = field(init=False)  # per internal face
    # dt -> the preconditioner of I + dt*A, a float32 factor with the
    # constant mode deflated (see dg.stepper); shared by the systems
    # with_alpha derives from this assembly, so one factorization serves
    # every alpha
    step_factors: dict = field(init=False, repr=False)
    _triple_rows: np.ndarray = field(init=False, repr=False)  # space.triple as (E, nb^2, nb)

    def __post_init__(self):
        self._assemble()

    def with_alpha(self, alpha: float) -> "DGSystem":
        """The system at conversion rate ``alpha``.

        alpha reaches the stiffness only through the face penalty's
        max(dK, alpha).  While that is unchanged the new system shares
        ``space``, ``stiffness``, ``penalties`` and ``step_factors`` with
        this one; otherwise it is assembled afresh on the same space, with
        factors of its own.  That reassembly does not call ``assemble``, so
        timings that wrap ``assemble`` do not see it.
        """
        dK = self.model.max_eigenvalue()
        if max(dK, alpha) != max(dK, self.alpha):
            return DGSystem(space=self.space, model=self.model, alpha=alpha, eta0=self.eta0)
        other = copy.copy(self)
        other.alpha = alpha
        return other

    @property
    def mesh(self):
        return self.space.mesh

    @property
    def N(self) -> int:
        return self.space.N

    def _assemble(self):
        space, mesh = self.space, self.mesh
        nb = space.n_local
        tensors = self.model.tensor(mesh.axons)
        dofs = np.arange(space.N).reshape(-1, nb)

        volume = np.empty((mesh.n_elements, nb, nb))
        for elements, pts, wts, _ in space.groups:
            for c in chunks(len(elements)):
                els = elements[c]
                grad = space.eval_basis_grad(els, pts[c])  # (e, q, nb, d)
                dgrad = grad @ tensors[els, None]  # D is symmetric
                wgrad = wts[c, :, None, None] * grad
                volume[els] = np.einsum("eqid,eqjd->eij", wgrad, dgrad, optimize=True)

        faces = mesh.internal_faces
        penalties = face_penalties(mesh, self.model, space.degree, self.eta0, self.alpha)
        sides, verts, normals = faces.owners, faces.vertices, faces.normals
        # outward normal of each side relative to the stored n: +1 left, -1 right
        signs = np.array([1.0, -1.0])[:, None, None]
        face_blocks = np.empty((len(faces), 2 * nb, 2 * nb))
        for c in chunks(len(faces)):
            pts, w = face_rule(verts[c], space.quad_exactness)  # (f, q, d), (f, q)
            pts, el = pts[:, None], sides[c]  # both sides at the same points
            conormal = np.einsum("fsde,fe->fsd", tensors[el], normals[c])
            # jumps and co-normal fluxes (D grad phi) . n of both sides'
            # functions; a face block's rows and columns run over (side, function)
            jump = signs * space.eval_basis(el, pts)
            flux = np.einsum("fsqid,fsd->fsqi", space.eval_basis_grad(el, pts), conormal)
            jump, flux = (np.concatenate([x[:, 0], x[:, 1]], axis=-1) for x in (jump, flux))
            wjump = (w[..., None] * jump).transpose(0, 2, 1)
            consistency = wjump @ flux
            face_blocks[c] = penalties[c, None, None] * (wjump @ jump) - 0.5 * (
                consistency + consistency.transpose(0, 2, 1)
            )
        # one COO -> CSR over the element blocks and the faces' two-sided blocks
        blocks = [(volume, dofs), (face_blocks, dofs[sides].reshape(-1, 2 * nb))]
        rows = np.concatenate([np.broadcast_to(i[:, :, None], b.shape).ravel() for b, i in blocks])
        cols = np.concatenate([np.broadcast_to(i[:, None, :], b.shape).ravel() for b, i in blocks])
        vals = np.concatenate([b.ravel() for b, _ in blocks])
        N = space.N
        self.stiffness = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
        self.penalties = penalties
        self.step_factors = {}
        self._triple_rows = space.triple.reshape(mesh.n_elements, nb * nb, nb)

    def reaction_blocks(self, C: np.ndarray) -> np.ndarray:
        """Diagonal blocks (E, n_local, n_local) of the nonlinear reaction
        matrix: entries alpha * (c_h phi_j, phi_i) on each element."""
        space = self.space
        C = np.asarray(C, dtype=float)
        if C.shape != (space.N,):
            raise ValueError(f"coefficient vector has shape {C.shape}, want ({space.N},)")
        E, nb = space.mesh.n_elements, space.n_local
        return self.alpha * np.matmul(self._triple_rows, C.reshape(E, nb, 1)).reshape(E, nb, nb)

    def nonlinear_reaction(self, C: np.ndarray) -> sp.csr_matrix:
        """State-dependent reaction matrix: entries alpha * (c_h phi_j, phi_i).

        Block diagonal and linear in the coefficient vector C.
        """
        n_elements = self.mesh.n_elements
        return sp.bsr_matrix(
            (self.reaction_blocks(C), np.arange(n_elements), np.arange(n_elements + 1)),
            shape=(self.N, self.N),
        ).tocsr()


def assemble(mesh, model, alpha: float, eta0: float, degree: int) -> DGSystem:
    """Build the DG space and the assembled system in one call."""
    space = DGSpace(mesh, degree)
    return DGSystem(space=space, model=model, alpha=alpha, eta0=eta0)
