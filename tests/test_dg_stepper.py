import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import logistic, mesh_run, region_mean_weights, scalar_euler_semi_implicit
from fkneuro import trajectory as trajectory_module
from fkneuro.dg import assemble, solve_fk_mesh, solve_linear
from fkneuro.dg import stepper as stepper_module
from fkneuro.dg.stepper import MeshStepper
from fkneuro.errors import LinearSolverError
from fkneuro.geometry import DiffusionModel, generate_structured_mesh, slab_labeler
from test_dg_system import mixed_mesh, perturbed_mesh, square_polygon_mesh
from test_linsolve import jacobi


def test_identity_evolution_without_reaction_or_diffusion():
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(0.0, 0.0), alpha=0.0, eta0=10.0, degree=1)
    assert np.abs(system.stiffness.toarray()).max() == 0.0
    rng = np.random.default_rng(1)
    C0 = rng.normal(size=system.N)
    C1, _ = MeshStepper(system, 0.05).step(C0)
    assert np.abs(C1 - C0).max() <= 1e-12 * np.abs(C0).max()


def test_single_element_constant_mode_update():
    mesh = square_polygon_mesh()
    system = assemble(mesh, DiffusionModel(1.0, 0.0), alpha=0.61, eta0=10.0, degree=1)
    C0 = system.space.project_element_constants(np.array([0.1]))
    C1, _ = MeshStepper(system, 0.05).step(C0)
    # brute-force 1x1 reduction of the implicit update
    oracle = 0.1 / (1.0 - 0.05 * 0.61 * (1.0 - 0.1))
    assert region_mean_weights(system.space, [1]) @ C1 == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(0.10282, abs=5e-6)


@pytest.mark.parametrize("dt_alpha", [0.5, 0.99])
def test_uniform_step_is_the_scalar_update_up_to_the_dt_alpha_bound(dt_alpha):
    # c+ = c / (1 - dt*alpha*(1 - c)) on every element, also just under
    # the dt*alpha < 1 that the configuration enforces
    mesh = generate_structured_mesh(2, 4, 100.0, labeler=slab_labeler(5, 100.0))
    dt, c = 0.05, 0.1
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=dt_alpha / dt, eta0=10.0, degree=2)
    C0 = system.space.seed_vector(np.unique(mesh.regions), c)
    C1, _ = MeshStepper(system, dt).step(C0)
    ratio = 1.0 / (1.0 - dt_alpha * (1.0 - c))
    assert np.abs(C1 - ratio * C0).max() <= 1e-12 * np.abs(C1).max()
    mean = region_mean_weights(system.space, np.unique(mesh.regions)) @ C1
    assert mean == pytest.approx(c * ratio, abs=1e-12)


def test_uniform_state_tracks_scalar_recursion_exactly():
    # diffusion must contribute nothing on spatially uniform states
    mesh = generate_structured_mesh(2, 3, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    C0 = system.space.seed_vector([1], 0.1)
    traj, states = mesh_run(system, C0, dt=0.05, T=1.0)
    oracle = scalar_euler_semi_implicit(0.1, 0.61, 0.05, traj.n_steps)
    avgs = states @ region_mean_weights(system.space, [1])
    assert np.abs(avgs - oracle).max() <= 1e-10


def test_uniform_seed_short_logistic_run():
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    C0 = system.space.seed_vector([1], 0.1)
    traj, states = mesh_run(system, C0, dt=0.01, T=5.0)
    avgs = states @ region_mean_weights(system.space, [1])
    assert np.abs(avgs - logistic(traj.times, 0.1, 0.61)).max() <= 2.5e-3


def test_zero_initial_condition_stays_zero():
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    _, states = mesh_run(system, np.zeros(system.N), dt=0.05, T=1.0)
    assert np.abs(states).max() == 0.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), degree=st.sampled_from([1, 2]), dt=st.floats(1e-3, 0.2))
def test_mass_is_conserved_without_reaction(seed, degree, dt):
    # at alpha = 0 a step solves (I + dt A) C' = C.  b = basis_integrals
    # holds the coefficients of the constant 1, which spans A's kernel, and A
    # is symmetric, so b.A = 0: the integral b.C moves only by b.r for the
    # solve's residual r, |b.r| <= |b| * residual * |C|, plus round-off
    system = assemble(
        perturbed_mesh(4, seed % 97), DiffusionModel(8.0, 80.0), alpha=0.0, eta0=10.0,
        degree=degree,
    )
    b = system.space.basis_integrals.ravel()
    eps = np.finfo(float).eps
    # round-off: a stiffness entry carries the error of a few dozen rounded
    # operations (32 eps |A|), and each dot product b.C up to N eps |b|.|C|
    kernel = 32 * eps * dt * np.linalg.norm(abs(system.stiffness) @ abs(b))
    stepper = MeshStepper(system, dt)
    C = np.random.default_rng(seed).normal(size=system.N)
    for _ in range(3):
        C_next, stats = stepper.step(C)
        bound = (
            np.linalg.norm(b) * stats["residual"] * np.linalg.norm(C)
            + kernel * np.linalg.norm(C_next)
            + system.N * eps * (abs(b) @ abs(C) + abs(b) @ abs(C_next))
        )
        assert abs(b @ C_next - b @ C) <= bound
        C = C_next


def test_faster_conversion_reaches_half_sooner():
    mesh = generate_structured_mesh(2, 2, 1.0)
    halves = {}
    for alpha in (0.08, 8.54):
        system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=alpha, eta0=10.0, degree=1)
        C0 = system.space.seed_vector([1], 0.1)
        traj, states = mesh_run(system, C0, dt=0.05, T=40.0)
        avgs = states @ np.concatenate(
            [system.space.basis_integrals[e] for e in range(mesh.n_elements)]
        )
        from fkneuro.trajectory import first_crossing

        halves[alpha] = first_crossing(traj.times, avgs / mesh.measure, 0.5)
    assert halves[8.54] < halves[0.08]


def test_temporal_order_one():
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    C0 = system.space.seed_vector([1], 0.1)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        traj, states = mesh_run(system, C0, dt=dt, T=10.0)
        avgs = states @ region_mean_weights(system.space, [1])
        errors.append(np.abs(avgs - logistic(traj.times, 0.1, 0.61)).max())
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 0.85 <= order <= 1.15


def test_manufactured_convergence_smoke():
    alpha = 1.0

    def exact(pts, t):
        return (
            np.exp(-t)
            * (1.0 + np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1]))
            / 4.0
        )

    def forcing(pts, t):
        g = np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
        c = np.exp(-t) * (1.0 + g) / 4.0
        return -c + (np.pi**2 / 2.0) * np.exp(-t) * g - alpha * c * (1.0 - c)

    T = 0.05
    errors = []
    for n in (4, 8):
        mesh = generate_structured_mesh(2, n, 1.0)
        system = assemble(mesh, DiffusionModel(1.0, 0.0), alpha=alpha, eta0=10.0, degree=1)
        C0 = system.space.project(lambda p: exact(p, 0.0))
        traj = solve_fk_mesh(system, C0, dt=5e-4, T=T, forcing=forcing)
        errors.append(system.space.l2_error(traj.states[-1], lambda p: exact(p, T)))
    assert np.log2(errors[0] / errors[1]) >= 1.5


def manufactured_forcing(pts, t):
    # the forcing of criterion 3's manufactured solution (alpha = 1)
    g = np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    c = np.exp(-t) * (1.0 + g) / 4.0
    return -c + (np.pi**2 / 2.0) * np.exp(-t) * g - c * (1.0 - c)


def forcing_per_element(space, forcing, t):
    """Projection of the forcing element by element, one call each."""
    F = np.empty((space.mesh.n_elements, space.n_local))
    for elements, pts, wts, phis in space.groups:
        for e, p, w, phi in zip(elements, pts, wts, phis):
            F[e] = phi.T @ (w * forcing(p, t))
    return F.ravel()


@pytest.mark.parametrize(
    "degree,n",
    [(1, 4), (1, 8), (1, 16), (1, 32), (2, 2), (2, 4), (2, 8), (2, 16), (1, 0), (2, 0)],
)
def test_forcing_vector_matches_per_element_projection(degree, n, tmp_path):
    # criterion 3's meshes, and (n = 0) the mixed polygon mesh, whose
    # elements carry quadrature rules of different sizes
    mesh = generate_structured_mesh(2, n, 1.0) if n else mixed_mesh(tmp_path)
    system = assemble(mesh, DiffusionModel(1.0, 0.0), alpha=1.0, eta0=10.0, degree=degree)
    stepper = MeshStepper(system, 1e-3)
    calls = []

    def counted(pts, t):
        calls.append(len(pts))
        return manufactured_forcing(pts, t)

    for t in (0.0, 0.05):
        F = stepper._forcing_vector(counted, t)
        reference = forcing_per_element(system.space, manufactured_forcing, t)
        assert np.abs(F - reference).max() <= 1e-13 * np.abs(reference).max()
    assert calls == [len(system.space.points)] * 2
    if not n:
        assert len(system.space.groups) > 1


@pytest.mark.parametrize("which", ["mixed", "3D"])
def test_step_matrix_is_the_semi_implicit_operator(which, tmp_path, monkeypatch):
    if which == "mixed":
        mesh = mixed_mesh(tmp_path)
    else:
        mesh = generate_structured_mesh(3, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=2.0, eta0=10.0, degree=2)
    dt = 0.05
    stepper = MeshStepper(system, dt)
    eye = sp.identity(system.N, format="csr")
    static = eye + dt * (system.stiffness - system.alpha * eye)
    assert np.array_equal(stepper.static_part.toarray(), static.toarray())
    matrices = []
    original = stepper_module.solve_linear

    def spy(A, b, **kwargs):
        matrices.append(A.toarray())
        return original(A, b, **kwargs)

    monkeypatch.setattr(stepper_module, "solve_linear", spy)
    # a step writes only the element blocks of the matrix the steps share,
    # so the second step's matrix must hold nothing of the first state's
    states = np.random.default_rng(4).uniform(size=(2, system.N))
    for C in states:
        stepper.step(C)
    for matrix, C in zip(matrices, states):
        expected = (static + dt * system.nonlinear_reaction(C)).toarray()
        assert np.abs(matrix - expected).max() <= 1e-14 * np.abs(expected).max()
    assert np.array_equal(stepper.static_part.toarray(), static.toarray())


def test_cg_starts_from_the_extrapolant_of_its_own_states(monkeypatch):
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    stepper = MeshStepper(system, 0.05)
    starts = []
    original = stepper_module.solve_linear

    def spy(A, b, x0=None, **kwargs):
        starts.append(x0.copy())
        return original(A, b, x0=x0, **kwargs)

    monkeypatch.setattr(stepper_module, "solve_linear", spy)
    # a non-uniform state, so that the states of the history differ
    C = [system.space.project(lambda x: 0.1 + 0.05 * np.sin(3.0 * x[:, 0] + x[:, 1]))]
    for _ in range(6):
        C.append(stepper.step(np.stack(C))[0])
    stepper.step(C[-1])  # a 1-D state is a history of one
    # the polynomial extrapolants through the last 1..5 states
    assert np.array_equal(starts[0], C[0])
    assert np.array_equal(starts[1], 2.0 * C[1] - C[0])
    assert np.array_equal(starts[2], 3 * C[2] - 3 * C[1] + C[0])
    assert np.array_equal(starts[3], 4 * C[3] - 6 * C[2] + 4 * C[1] - C[0])
    assert np.array_equal(starts[4], 5 * C[4] - 10 * C[3] + 10 * C[2] - 5 * C[1] + C[0])
    # the sixth uses the last five states only
    assert np.array_equal(starts[5], 5 * C[5] - 10 * C[4] + 10 * C[3] - 5 * C[2] + C[1])
    assert np.array_equal(starts[6], C[6])


def test_extrapolated_start_keeps_cg_iterations_low():
    # tau-like front on a 2D slab mesh: after the first few steps the
    # five-point start leaves CG about two iterations per step (the
    # two-point extrapolant took 3.1)
    mesh = generate_structured_mesh(2, 8, 100.0, labeler=slab_labeler(5, 100.0))
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=2)
    traj = solve_fk_mesh(system, system.space.seed_vector([2], 0.1), dt=0.05, T=3.0)
    iterations = [stats["iterations"] for stats in traj.solver_stats]
    assert len(iterations) == 60
    assert np.mean(iterations[4:]) <= 2.5
    assert not any(stats["fallback"] for stats in traj.solver_stats)


def test_uniform_state_takes_one_cg_iteration_every_step():
    # a 3D slab seeded in every region stays uniform, so each step's
    # residual lies in the constant mode, which the preconditioner applies
    # in float64: one iteration per step (a float32 factor alone maps the
    # constants only to about 1e-7 and takes 4, 4, 3, 3, 2, ... iterations)
    mesh = generate_structured_mesh(3, 3, 100.0, labeler=slab_labeler(5, 100.0))
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=6.3, eta0=10.0, degree=2)
    C0 = system.space.seed_vector(np.unique(mesh.regions), 0.1)
    traj = solve_fk_mesh(system, C0, dt=0.05, T=0.5)
    assert [stats["iterations"] for stats in traj.solver_stats] == [1] * 10
    assert not any(stats["fallback"] for stats in traj.solver_stats)


@pytest.mark.parametrize("k", [-120, 130, -560, -1000, 1000])
def test_linear_step_commutes_with_powers_of_two(k):
    # at alpha = 0 the step solves (I + dt A) C' = C, and every float64
    # operation of CG commutes with a power of two; the float32 factor sees
    # its input scaled to [-1, 1], so neither 2^-120 (under float32's
    # smallest normal once multiplied by the residual) nor 2^130 (past its
    # largest value) reaches the cast; linsolve.solve scales the right-hand
    # side below 2 in the same way, so no squared norm of CG underflows at
    # 2^-560 or 2^-1000, or overflows at 2^1000
    mesh = generate_structured_mesh(3, 2, 100.0, labeler=slab_labeler(5, 100.0))
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.0, eta0=10.0, degree=2)
    stepper = MeshStepper(system, 0.05)
    C = system.space.project(lambda x: 0.5 + 0.3 * np.sin(x[:, 0] / 9.0 + x[:, 2] / 13.0))
    C1, stats = stepper.step(C)
    scaled, scaled_stats = stepper.step(np.ldexp(C, k))
    assert np.array_equal(scaled, np.ldexp(C1, k))
    assert scaled_stats["iterations"] == stats["iterations"]
    assert stats["fallback"] is False and scaled_stats["fallback"] is False


def test_preconditioner_maps_non_finite_to_non_finite():
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    precond = MeshStepper(system, 0.05).precond
    for bad in (np.nan, np.inf, -np.inf):
        r = np.ones(system.N)
        r[3] = bad
        with np.errstate(invalid="ignore"):  # as pcg calls it
            z = precond(r)
        assert not np.isfinite(z).all()


def test_cg_converges_when_dt_alpha_exceeds_one():
    # dt * alpha = 1.25: I + dt*(A - alpha*I) is indefinite, while the
    # preconditioner I + dt*A stays positive definite
    mesh = generate_structured_mesh(2, 4, 100.0, labeler=slab_labeler(5, 100.0))
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=25.0, eta0=10.0, degree=2)
    stepper = MeshStepper(system, 0.05)
    C = system.space.project(
        lambda x: 0.5 + 0.3 * np.sin(2.0 * math.pi * (x[:, 0] + 2.0 * x[:, 1]) / 100.0 + 0.3)
    )
    for _ in range(5):
        C, stats = stepper.step(C)
        assert stats["fallback"] is False
        assert stats["iterations"] <= 60


def test_nan_detection_reports_step(monkeypatch):
    mesh = generate_structured_mesh(2, 1, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    calls = {"n": 0}
    original = MeshStepper.step

    def poisoned(self, C_n, forcing=None, t_next=0.0):
        calls["n"] += 1
        if calls["n"] == 3:
            return np.full_like(C_n, np.nan), {"iterations": 0, "residual": 0.0}
        return original(self, C_n, forcing=forcing, t_next=t_next)

    monkeypatch.setattr(MeshStepper, "step", poisoned)
    with pytest.raises(FloatingPointError, match="step 3"):
        solve_fk_mesh(system, system.space.seed_vector([1], 0.1), dt=0.05, T=1.0)


def test_solve_linear_singular_raises_with_history():
    A = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(LinearSolverError) as err:
        solve_linear(
            A, np.array([1.0, 1.0, 1.0]), x0=np.zeros(3), rtol=1e-10, maxiter=30,
            precond=jacobi(A.toarray()),
        )
    assert len(err.value.residual_history) >= 1


def test_direct_fallback_refines_to_the_tolerance():
    # at dt = 1 the second step's CG does not meet the gate, and the plain
    # LU solve lands at 1.2e-10; one refinement step takes it under 1e-10
    system = assemble(
        perturbed_mesh(4, 0), DiffusionModel(8.0, 80.0), alpha=0.0, eta0=10.0, degree=2
    )
    stepper = MeshStepper(system, 1.0)
    C = [np.random.default_rng(0).normal(size=system.N)]
    for _ in range(2):
        C_next, stats = stepper.step(np.stack(C))  # the second starts from 2 C_1 - C_0
        C.append(C_next)
        assert stats["residual"] <= 1e-10
    assert stats["fallback"] is True


def test_solve_linear_indefinite_falls_back_correctly():
    A = sp.csr_matrix(np.diag([1.0, -2.0, 3.0]))
    b = np.array([1.0, 2.0, 3.0])
    x, stats = solve_linear(
        A, b, x0=np.zeros(3), rtol=1e-12, maxiter=30, precond=jacobi(A.toarray())
    )
    assert np.allclose(x, [1.0, -1.0, 1.0], atol=1e-12)
    assert stats["residual"] <= 1e-12


def test_solver_stats_recorded():
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    traj = solve_fk_mesh(system, system.space.seed_vector([1], 0.1), dt=0.05, T=0.5)
    assert len(traj.solver_stats) == traj.n_steps
    for entry in traj.solver_stats:
        assert entry.keys() == {"iterations", "residual", "fallback"}
        assert entry["residual"] <= 1e-10
        assert entry["fallback"] is False
        assert 1 <= entry["iterations"] <= 10


def test_direct_call_keeps_a_window_of_states(monkeypatch):
    # a direct call holds the five states a step reads and one block, as a
    # harness run does: blocks of 8 states here, over 40 steps
    mesh = generate_structured_mesh(2, 2, 1.0)
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.61, eta0=10.0, degree=1)
    monkeypatch.setattr(trajectory_module, "BLOCK_VALUES", 8 * system.N)
    traj, states = mesh_run(system, system.space.seed_vector([1], 0.1), dt=0.05, T=2.0)
    assert len(states) == 41 and len(traj.states) <= stepper_module._ORDER + 1 + 8
    assert traj.first_step == 41 - len(traj.states) > 0
