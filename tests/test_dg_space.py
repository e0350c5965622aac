import math

import numpy as np
import pytest

from conftest import region_mean_weights
from fkneuro.dg import DGSpace, monomial_exponents
from fkneuro.geometry import PolytopalMesh, generate_structured_mesh


def single_tet_mesh():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    return PolytopalMesh(verts, [np.arange(4)], [1], [[1.0, 0.0, 0.0]])


def test_dof_counts():
    mesh2 = generate_structured_mesh(2, 1, 1.0)
    assert DGSpace(mesh2, 2).N == 2 * math.comb(2 + 2, 2) == 12
    assert DGSpace(single_tet_mesh(), 1).N == 4
    mesh48 = generate_structured_mesh(3, 2, 1.0)
    assert DGSpace(mesh48, 2).N == 48 * math.comb(2 + 3, 3) == 480


def test_monomial_exponents_graded():
    exps = monomial_exponents(2, 2)
    assert exps.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]


def test_element_mass_blocks_identity(tmp_path):
    # the DG system takes the mass matrix to be I on the strength of this
    from test_dg_system import element_gram_blocks, mixed_mesh, perturbed_mesh

    meshes = [
        generate_structured_mesh(2, 2, 3.0),
        perturbed_mesh(4, seed=3),
        mixed_mesh(tmp_path),
        generate_structured_mesh(3, 2, 1.0),
    ]
    for mesh in meshes:
        for degree, bound in ((1, 1e-12), (2, 1e-12), (3, 1e-10)):
            space = DGSpace(mesh, degree)
            blocks = element_gram_blocks(space)
            assert np.abs(blocks - np.eye(space.n_local)).max() <= bound


def test_quadrature_insufficient_rejected():
    mesh = generate_structured_mesh(2, 1, 1.0)
    with pytest.raises(ValueError, match="degree"):
        DGSpace(mesh, 0)


def test_projection_reproduces_polynomials():
    mesh = generate_structured_mesh(2, 2, 2.0)
    space = DGSpace(mesh, 2)

    def f(p):
        return 1.0 + 0.5 * p[:, 0] - p[:, 1] + 0.25 * p[:, 0] * p[:, 1] + p[:, 1] ** 2

    C = space.project(f)
    assert space.l2_error(C, f) <= 1e-12


def test_projection_average_of_coordinate():
    mesh = generate_structured_mesh(2, 4, 1.0)
    space = DGSpace(mesh, 1)
    C = space.project(lambda p: p[:, 0])
    assert region_mean_weights(space, [1]) @ C == pytest.approx(0.5, abs=1e-13)


def test_gradient_evaluation_finite_difference():
    mesh = generate_structured_mesh(2, 1, 1.5)
    space = DGSpace(mesh, 3)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.2, 0.8, size=(4, 2))
    h = 1e-6
    grads = space.eval_basis_grad(0, pts)
    for dim in range(2):
        e = np.zeros(2)
        e[dim] = h
        fd = (space.eval_basis(0, pts + e) - space.eval_basis(0, pts - e)) / (2 * h)
        assert np.abs(fd - grads[:, :, dim]).max() <= 1e-6


def test_seed_vector_and_integration():
    mesh = generate_structured_mesh(2, 4, 10.0)
    # relabel elements by x-halves: ids 1 and 2
    mesh.regions[:] = [1 if mesh.vertices[ids].mean(axis=0)[0] < 5.0 else 2 for ids in mesh.cells]
    space = DGSpace(mesh, 2)
    C = space.seed_vector([2], 0.3)
    assert region_mean_weights(space, [2]) @ C == pytest.approx(0.3, abs=1e-12)
    assert region_mean_weights(space, [1]) @ C == pytest.approx(0.0, abs=1e-14)
    # integral over the mesh: each coefficient times its basis function's integral
    assert space.basis_integrals.ravel() @ C == pytest.approx(0.3 * 50.0, rel=1e-12)
