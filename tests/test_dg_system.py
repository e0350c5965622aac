import numpy as np
import pytest
import scipy.sparse as sp

from fkneuro.dg import assemble, face_penalties
from fkneuro.geometry import DiffusionModel, PolytopalMesh, generate_structured_mesh


def perturbed_mesh(n=4, seed=3):
    """Structured triangles with jittered interior vertices and random axons."""
    rng = np.random.default_rng(seed)
    base = generate_structured_mesh(2, n, 1.0)
    verts = base.vertices.copy()
    h = 1.0 / n
    interior = np.all((verts > 1e-12) & (verts < 1.0 - 1e-12), axis=1)
    verts[interior] += rng.uniform(-0.2 * h, 0.2 * h, size=(interior.sum(), 2))
    axons = [a / np.linalg.norm(a) for a in rng.normal(size=(base.n_elements, 2))]
    mesh = PolytopalMesh(verts, base.cells, base.regions, axons)
    mesh.validate()
    return mesh


def element_gram_blocks(space):
    """The element mass (Gram) matrices (E, nb, nb), by the space's quadrature."""
    blocks = np.empty((space.mesh.n_elements, space.n_local, space.n_local))
    for elements, _, w, phi in space.groups:
        blocks[elements] = np.einsum("eqi,eq,eqj->eij", phi, w, phi)
    return blocks


def square_polygon_mesh():
    """The unit square as a single polygonal element (fan sub-tessellation)."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    centroid = verts.mean(axis=0)
    tris = np.array(
        [[centroid, verts[i], verts[(i + 1) % 4]] for i in range(4)]
    )
    mesh = PolytopalMesh(verts, [np.arange(4)], [1], [[1.0, 0.0]], subtess=[tris])
    mesh.validate()
    return mesh


def equilateral_pair_mesh():
    """Two unit-diameter triangles sharing one edge."""
    s3 = np.sqrt(3.0) / 2.0
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, s3], [0.5, -s3]])
    return PolytopalMesh(verts, [[0, 1, 2], [0, 3, 1]], [1, 1], [[1.0, 0.0]] * 2)


def triangle_trapezoid_mesh(trapezoid_first):
    """A triangle of diameter 2 on the edge (0,0)-(2,0) and a trapezoid of
    diameter 4, its long side from (-1,-1) to (3,-1), below the same edge."""
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [3.0, -1.0], [-1.0, -1.0]])
    triangle = ([0, 1, 2], None)
    # listed clockwise: the mesh reverses it
    trapezoid = ([0, 1, 3, 4], verts[[[0, 1, 3], [0, 3, 4]]])
    cells, subtess = zip(*((trapezoid, triangle) if trapezoid_first else (triangle, trapezoid)))
    mesh = PolytopalMesh(verts, cells, [1, 1], [[1.0, 0.0]] * 2, subtess=subtess)
    mesh.validate()
    return mesh


def test_harmonic_average_symmetry_case():
    # equal neighbor diameters: the harmonic average is that diameter
    mesh = equilateral_pair_mesh()
    model = DiffusionModel(d_ext=1.0, d_axn=0.0)
    for scale in (1.0, 3.7):
        scaled = PolytopalMesh(scale * mesh.vertices, mesh.cells, mesh.regions, mesh.axons)
        assert scaled.diameters == pytest.approx([scale, scale], rel=1e-15)
        eta = face_penalties(scaled, model, degree=1, eta0=1.0, alpha=0.0)
        assert eta == pytest.approx([1.0 / scale], rel=1e-15)


def test_harmonic_average_two_four():
    # H(2, 4) = 2 * 2 * 4 / (2 + 4) = 8/3, whichever element comes first
    model = DiffusionModel(d_ext=1.0, d_axn=0.0)
    for trapezoid_first in (False, True):
        mesh = triangle_trapezoid_mesh(trapezoid_first)
        assert sorted(mesh.diameters) == [2.0, 4.0]
        assert sorted(mesh.measures) == [1.0, 3.0]
        eta = face_penalties(mesh, model, degree=2, eta0=2.0, alpha=0.0)
        assert eta == pytest.approx([4 / (8.0 / 3.0) * 2.0], rel=1e-15)


def test_face_penalty_point_value():
    mesh = equilateral_pair_mesh()
    assert len(mesh.internal_faces) == 1
    assert mesh.diameters == pytest.approx([1.0, 1.0], abs=1e-15)
    model = DiffusionModel(d_ext=8.0, d_axn=80.0)
    eta = face_penalties(mesh, model, degree=2, eta0=10.0, alpha=0.61)
    assert eta.tolist() == [3520.0]  # exact in double precision: (4/1) * 10 * 88


def test_face_penalty_reaction_dominates():
    mesh = equilateral_pair_mesh()
    model = DiffusionModel(d_ext=1e-3, d_axn=0.0)
    eta = face_penalties(mesh, model, degree=1, eta0=2.0, alpha=5.0)
    assert eta == pytest.approx([2.0 * 5.0], rel=1e-15)


@pytest.mark.parametrize("seed,degree", [(3, 2), (11, 2), (3, 3), (3, 1)])
def test_symmetry_and_kernel_random_mesh(seed, degree):
    mesh = perturbed_mesh(4, seed)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=degree)
    A, M = system.stiffness, element_gram_blocks(system.space)
    scale_a = np.abs(A.data).max()
    asym = A - A.T
    assert (np.abs(asym.data).max() if asym.nnz else 0.0) <= 1e-12 * scale_a
    assert np.abs(M - M.transpose(0, 2, 1)).max() <= 1e-12
    ones = system.space.project(lambda p: np.ones(len(p)))
    assert np.abs(A @ ones).max() <= 1e-10 * scale_a


def test_single_element_stiffness_quadratic_forms():
    mesh = square_polygon_mesh()
    system = assemble(mesh, DiffusionModel(1.0, 0.0), alpha=0.61, eta0=10.0, degree=1)
    space = system.space
    # independent oracle: for linear u, u' A u = integral of |grad u|^2
    for f, expected in (
        (lambda p: p[:, 0], 1.0),
        (lambda p: p[:, 1], 1.0),
        (lambda p: p[:, 0] + 2.0 * p[:, 1], 5.0),
    ):
        u = space.project(f)
        assert u @ (system.stiffness @ u) == pytest.approx(expected, rel=1e-12)


MIXED_MESH = """\
FKMESH 1 2
VERTICES 6
0 0
1 0
2 0
0 1
1 1
2 1
ELEMENTS 3
4 0 1 4 3 1 1 0
3 1 2 5 1 1 0
3 1 5 4 1 1 0
SUBTESS 3
2 0 0 1 0 1 1 0 0 1 1 0 1
0
0
"""


def mixed_mesh(tmp_path):
    """A quad (two sub-triangles) next to two triangles."""
    from fkneuro.geometry import load_mesh

    path = tmp_path / "mixed.fkmesh"
    path.write_text(MIXED_MESH)
    return load_mesh(path)


def test_mixed_polygon_triangle_faces(tmp_path):
    # quad next to two triangles: faces pair up across element types
    mesh = mixed_mesh(tmp_path)
    assert mesh.n_elements == 3
    assert len(mesh.internal_faces) == 2
    assert len(mesh.boundary_faces) == 6
    assert mesh.measure == pytest.approx(2.0, rel=1e-14)

    system = assemble(mesh, DiffusionModel(1.0, 0.0), alpha=0.61, eta0=10.0, degree=1)
    A = system.stiffness
    asym = A - A.T
    assert (np.abs(asym.data).max() if asym.nnz else 0.0) <= 1e-12 * np.abs(A.data).max()
    ones = system.space.project(lambda p: np.ones(len(p)))
    assert np.abs(A @ ones).max() <= 1e-10 * np.abs(A.data).max()

    # the elements carry quadrature rules of different sizes
    assert len(system.space.groups) > 1
    diff = system.nonlinear_reaction(ones) - system.alpha * sp.identity(system.N)
    assert np.abs(diff.toarray()).max() <= 1e-10


@pytest.mark.parametrize("which", ["mixed", "perturbed", "3d"])
def test_linear_states_energy(which, tmp_path):
    # globally linear states u = g.x, v = h.x have no jumps, so the SIPG form
    # reduces to the exact volume energy sum_K |K| g^T D_K h on every face
    meshes = {
        "mixed": lambda: mixed_mesh(tmp_path),
        "perturbed": lambda: perturbed_mesh(4, 13),
        "3d": lambda: generate_structured_mesh(3, 2, 1.0),
    }
    mesh = meshes[which]()
    model = DiffusionModel(8.0, 80.0)
    system = assemble(mesh, model, alpha=0.61, eta0=10.0, degree=2)
    rng = np.random.default_rng(23)
    g, h = rng.normal(size=(2, mesh.d))
    u = system.space.project(lambda p: p @ g)
    v = system.space.project(lambda p: p @ h)
    want = sum(m * g @ model.tensor(a) @ h for m, a in zip(mesh.measures, mesh.axons))
    assert u @ (system.stiffness @ v) == pytest.approx(want, rel=1e-12)


def test_mass_quadratic_form_is_domain_measure():
    mesh = generate_structured_mesh(2, 3, 2.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    c = system.space.project(lambda p: np.ones(len(p))).reshape(mesh.n_elements, -1)
    quadratic = np.einsum("ei,eij,ej->", c, element_gram_blocks(system.space), c)
    assert quadratic == pytest.approx(mesh.measure, rel=1e-12)


def test_with_alpha_shares_operators_until_the_penalty_moves():
    mesh = perturbed_mesh(3, seed=5)
    model = DiffusionModel(0.5, 1.0)  # dK = 1.5
    system = assemble(mesh, model, alpha=0.6, eta0=10.0, degree=2)
    same = system.with_alpha(1.5)
    assert (same.alpha, system.alpha) == (1.5, 0.6)
    assert same.space is system.space
    assert same.stiffness is system.stiffness
    assert same.penalties is system.penalties
    moved = system.with_alpha(3.0)
    fresh = assemble(mesh, model, alpha=3.0, eta0=10.0, degree=2)
    assert moved.space is system.space
    assert np.array_equal(moved.penalties, fresh.penalties)
    assert not np.array_equal(moved.penalties, system.penalties)
    assert (moved.stiffness != fresh.stiffness).nnz == 0
    assert moved.alpha == 3.0


def test_nonlinear_reaction_zero_state():
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    m = system.nonlinear_reaction(np.zeros(system.N))
    assert m.nnz == 0 or np.abs(m.data).max() == 0.0


def test_nonlinear_reaction_constant_one_matches_linear():
    mesh = perturbed_mesh(3, seed=5)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    ones = system.space.project(lambda p: np.ones(len(p)))
    diff = system.nonlinear_reaction(ones) - system.alpha * sp.identity(system.N)
    assert np.abs(diff.toarray()).max() <= 1e-10


def test_nonlinear_reaction_linearity_and_half():
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    rng = np.random.default_rng(0)
    c1 = rng.normal(size=system.N)
    c2 = rng.normal(size=system.N)
    a, b = 0.37, -1.21
    lhs = system.nonlinear_reaction(a * c1 + b * c2).toarray()
    rhs = a * system.nonlinear_reaction(c1).toarray() + b * system.nonlinear_reaction(
        c2
    ).toarray()
    scale = max(np.abs(rhs).max(), 1e-30)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    ones = system.space.project(lambda p: np.ones(len(p)))
    half = system.nonlinear_reaction(0.5 * ones) - 0.5 * system.alpha * sp.identity(system.N)
    assert np.abs(half.toarray()).max() <= 1e-10


@pytest.mark.parametrize("which", ["mixed", "3d"])
def test_nonlinear_reaction_matches_quadrature_oracle(which, tmp_path):
    # per-element oracle on the element's own rule: phi^T diag(w * (phi c_e)) phi
    if which == "mixed":
        mesh = mixed_mesh(tmp_path)
    else:
        mesh = generate_structured_mesh(3, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    space = system.space
    rng = np.random.default_rng(17)
    for _ in range(3):
        C = rng.normal(size=system.N)
        got = system.nonlinear_reaction(C).toarray()
        want = np.zeros_like(got)
        nb = space.n_local
        for elements, _, wts, phis in space.groups:
            for e, w, phi in zip(elements, wts, phis):
                dofs = slice(e * nb, (e + 1) * nb)
                want[dofs, dofs] = 0.61 * phi.T @ ((w * (phi @ C[dofs]))[:, None] * phi)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_nonlinear_reaction_dimension_mismatch():
    mesh = generate_structured_mesh(2, 1, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    with pytest.raises(ValueError, match="shape"):
        system.nonlinear_reaction(np.zeros(system.N + 1))


def test_sparsity_couples_only_face_neighbors():
    mesh = generate_structured_mesh(2, 3, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    nb = system.space.n_local
    coupled = set()
    A = system.stiffness.tocoo()
    for i, j in zip(A.row // nb, A.col // nb):
        if i != j:
            coupled.add((min(i, j), max(i, j)))
    neighbors = {(min(a, b), max(a, b)) for a, b in mesh.internal_faces.owners.tolist()}
    assert coupled <= neighbors
