import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import graph_run, logistic, mesh_run, region_mean_weights
from fkneuro import graphfk
from fkneuro.config import SimulationConfig
from fkneuro.dg import DGSpace, assemble
from fkneuro.geometry import (
    STAGE_ORDER,
    BraakAtlas,
    Connectome,
    DiffusionModel,
    Edges,
    generate_connectome,
    generate_structured_mesh,
    slab_labeler,
)
from fkneuro.staging import (
    ACTIVE,
    LAG,
    SATURATION,
    STATIONARY,
    braak_activation_order,
    classify_phase,
    inflection_count,
    load_clinical_csv,
    map_clinical_rows,
    map_suvr_abeta,
    map_suvr_tau,
    reconstruct_macrostages,
    region_average_curves,
    spatial_average,
    stage_average_curves,
)
from fkneuro.trajectory import Trajectory


def make_traj(times, states):
    return Trajectory(times=np.asarray(times), states=np.asarray(states))


# -- spatial averages --------------------------------------------------------


def test_average_constant_one_everywhere():
    conn = generate_connectome(4, topology="chain")
    traj = make_traj([0.0, 1.0], np.ones((2, 4)))
    for region in ([1], [2, 3], [1, 2, 3, 4]):
        assert spatial_average(traj.states, region, conn) == pytest.approx(1.0, abs=1e-15)


def test_average_two_equal_volume_nodes():
    conn = Connectome(
        region_ids=np.array([1, 2]),
        coords=np.zeros((2, 3)),
        volumes=np.array([3.0, 3.0]),
        edges=Edges([[0, 1]], [5.0], [5.0]),
    )
    traj = make_traj([0.0], [[0.0, 1.0]])
    assert spatial_average(traj.states, [1, 2], conn)[0] == pytest.approx(0.5, abs=1e-15)


def test_average_volume_weighted():
    conn = Connectome(
        region_ids=np.array([1, 2]),
        coords=np.zeros((2, 3)),
        volumes=np.array([1.0, 3.0]),
        edges=Edges([[0, 1]], [5.0], [5.0]),
    )
    traj = make_traj([0.0], [[0.0, 1.0]])
    assert spatial_average(traj.states, [1, 2], conn)[0] == pytest.approx(0.75, abs=1e-15)


def test_average_dg_projection_of_coordinate():
    mesh = generate_structured_mesh(2, 3, 1.0)
    space = DGSpace(mesh, 2)
    C = space.project(lambda p: p[:, 0])
    traj = make_traj([0.0], C[None, :])
    assert spatial_average(traj.states, [1], space)[0] == pytest.approx(0.5, abs=1e-13)


@pytest.fixture(scope="module")
def weight_domains():
    """A 2D slab mesh (regions 1..5, degree 2) and a ring connectome (ids 1..5)."""
    mesh = generate_structured_mesh(2, 3, 30.0, labeler=slab_labeler(5, 30.0))
    ring = Connectome(
        region_ids=np.arange(1, 6),
        coords=np.zeros((5, 3)),
        volumes=np.array([1.0, 2.0, 3.0, 0.5, 4.0]),
        edges=Edges([(i, (i + 1) % 5) for i in range(5)], [5.0] * 5, [5.0] * 5),
    )
    return {"mesh": DGSpace(mesh, 2), "graph": ring}


def unit_labels(domain):
    """Region id of every unknown: per DG coefficient, or per graph node."""
    if isinstance(domain, DGSpace):
        return np.repeat(domain.labels, domain.n_local)
    return domain.region_ids


def region_measure(domain, ids):
    if isinstance(domain, DGSpace):
        return domain.measures[np.isin(domain.labels, ids)].sum()
    return domain.volumes[np.isin(domain.region_ids, ids)].sum()


def unit_integrals(domain):
    """Integral of each unknown's unit function: of a DG basis function, or
    the volume of a graph node."""
    if isinstance(domain, DGSpace):
        return domain.basis_integrals.ravel()
    return domain.volumes


def dense_mean_weights(domain, ids):
    """w with states @ w the mean over the regions, from the unit labels,
    measures and integrals alone."""
    inside = np.isin(unit_labels(domain), list(ids))
    return np.where(inside, unit_integrals(domain), 0.0) / region_measure(domain, list(ids))


def constant_one(domain):
    if isinstance(domain, DGSpace):
        return domain.project(lambda p: np.ones(len(p)))
    return np.ones(domain.n_nodes)


@pytest.mark.parametrize("kind", ["mesh", "graph"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    picks=st.lists(st.sampled_from([0, 1, 2]), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_region_weights_are_the_region_mean(weight_domains, kind, picks, seed):
    # picks[r] puts region r+1 in set A (1), set B (2) or neither (0)
    domain = weight_domains[kind]
    A = [r + 1 for r, p in enumerate(picks) if p == 1]
    B = [r + 1 for r, p in enumerate(picks) if p == 2]
    one = constant_one(domain)
    C = np.random.default_rng(seed).normal(size=one.shape)
    for ids in (A, B, A + B):
        if not ids:
            continue
        w = region_mean_weights(domain, ids)
        assert not w[~np.isin(unit_labels(domain), ids)].any()
        assert abs(w @ one - 1.0) <= 1e-13
    if A and B:
        mass = {
            key: region_measure(domain, ids) * (region_mean_weights(domain, ids) @ C)
            for key, ids in (("A", A), ("B", B), ("AB", A + B))
        }
        scale = np.abs(C).max() * region_measure(domain, A + B)
        assert abs(mass["A"] + mass["B"] - mass["AB"]) <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["mesh", "graph"])
def test_region_average_curves_are_the_region_means(weight_domains, kind):
    domain = weight_domains[kind]
    states = np.random.default_rng(5).normal(size=(3, len(unit_labels(domain))))
    ids = [4, 1, 5, 3, 2]
    curves = region_average_curves(make_traj([0.0, 1.0, 2.0], states).states, ids, domain)
    assert list(curves) == ids
    for rid in ids:
        mean = states @ dense_mean_weights(domain, [rid])
        assert np.abs(curves[rid] - mean).max() <= 1e-13 * np.abs(mean).max()


@pytest.mark.parametrize("kind", ["mesh", "graph"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    picks=st.lists(st.integers(0, len(STAGE_ORDER)), min_size=5, max_size=5),
    n_times=st.integers(1, 12),
    split=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_means_are_one_product_of_the_dense_means(
    weight_domains, kind, picks, n_times, split, seed
):
    # picks[r] puts region r+1 in the stage group STAGE_ORDER[picks[r] - 1],
    # or in none when 0; the stage, global and per-region curves all come
    # from the one product, and two calls on the rows either side of a split
    # give the bits of one call, as the blocks of a time loop do
    assume(any(picks))
    domain = weight_domains[kind]
    stages = {
        stage: frozenset(r + 1 for r, p in enumerate(picks) if p == g)
        for g, stage in enumerate(STAGE_ORDER, start=1)
        if g in picks
    }
    atlas = BraakAtlas(stages, frozenset(), frozenset(), frozenset())
    states = np.random.default_rng(seed).normal(size=(n_times, len(unit_labels(domain))))
    traj = make_traj(np.arange(n_times, dtype=float), states)

    def reduce(rows):
        curves = stage_average_curves(rows, atlas, domain)
        curves["all"] = spatial_average(rows, atlas.all_region_ids(), domain)
        curves.update(region_average_curves(rows, sorted(atlas.all_region_ids()), domain))
        return curves

    curves = reduce(traj.states)
    assert list(curves)[: len(stages)] == [s for s in STAGE_ORDER if s in stages]
    split = split % (n_times + 1)
    head, tail = reduce(traj.states[:split]), reduce(traj.states[split:])
    assert list(head) == list(tail) == list(curves)
    for key, curve in curves.items():
        joined = np.concatenate([head[key], tail[key]])
        assert joined.tobytes() == curve.tobytes()
    stages["all"] = atlas.all_region_ids()
    stages.update({rid: [rid] for rid in sorted(atlas.all_region_ids())})
    for key, ids in stages.items():
        dense = states @ dense_mean_weights(domain, ids)
        assert curves[key].shape == (n_times,)
        assert np.abs(curves[key] - dense).max() <= 1e-13 * np.abs(states).max()


@pytest.mark.parametrize("kind", ["mesh", "graph"])
def test_average_empty_region_rejected(weight_domains, kind):
    domain = weight_domains[kind]
    traj = make_traj([0.0], np.zeros((1, len(unit_labels(domain)))))
    for reduce in (spatial_average, region_average_curves):
        with pytest.raises(ValueError, match="empty"):
            reduce(traj.states, [], domain)
        with pytest.raises(ValueError, match="not present"):
            reduce(traj.states, [99], domain)
    with pytest.raises(ValueError, match=r"\[99\] not present"):
        region_average_curves(traj.states, [2, 99], domain)
    with pytest.raises(ValueError, match="overlap"):
        region_average_curves(traj.states, [2, 2], domain)


# -- SUVR maps ---------------------------------------------------------------


def test_abeta_map_goldens():
    p = SimulationConfig().suvr_abeta()
    assert map_suvr_abeta(1.3, p) == 0.0
    assert map_suvr_abeta(2.2, p) == 1.0
    assert map_suvr_abeta(1.75, p) == pytest.approx(0.5, abs=1e-15)
    assert map_suvr_abeta(1.55, p) == pytest.approx(0.25 / 0.9, abs=1e-15)
    assert map_suvr_abeta(1.55, p) == pytest.approx(0.2778, abs=1e-4)
    assert map_suvr_abeta(0.9, p) == 0.0
    assert map_suvr_abeta(5.0, p) == 1.0


def test_tau_map_goldens():
    p = SimulationConfig().suvr_tau()
    assert p.gamma == pytest.approx(0.25, abs=1e-15)
    for phase in (STATIONARY, LAG, ACTIVE):
        assert map_suvr_tau(0.75, phase, p) == pytest.approx(0.0, abs=1e-15)
    assert map_suvr_tau(1.475, ACTIVE, p) == pytest.approx(0.5, abs=1e-12)
    assert map_suvr_tau(1.475, LAG, p) == pytest.approx(0.125, abs=1e-12)
    assert map_suvr_tau(0.6, SATURATION, p) == 1.0


def test_maps_monotone_and_bounded():
    pa = SimulationConfig().suvr_abeta()
    pt = SimulationConfig().suvr_tau()
    s_grid = np.linspace(0.0, 3.0, 301)
    ab = [map_suvr_abeta(s, pa) for s in s_grid]
    assert all(b >= a for a, b in zip(ab, ab[1:]))
    assert ab[0] == 0.0 and ab[-1] == 1.0
    for phase in (LAG, ACTIVE):
        tau = [map_suvr_tau(s, phase, pt) for s in s_grid]
        assert all(b >= a for a, b in zip(tau, tau[1:]))
        assert min(tau) >= 0.0 and max(tau) <= 1.0


# -- phase classification ----------------------------------------------------


def tau_params(threshold=1.5):
    p = SimulationConfig().suvr_tau()
    p.abnormality_thresholds["ROI"] = threshold
    return p


def test_classifier_onset_one_before_crossing():
    # crosses at index 5 ("stage V"); mean one earlier within epsilon
    means = [0.8, 0.9, 1.0, 1.1, 1.45, 1.55, 1.9]
    row = classify_phase("ROI", means, tau_params())
    assert row.phases == [LAG, LAG, LAG, LAG, ACTIVE, ACTIVE, ACTIVE]


def test_classifier_back_shift_two_stages():
    # mean before the crossing falls short by more than epsilon: shift to index 3
    means = [0.8, 0.9, 1.0, 1.1, 1.3, 1.55, 1.9]
    row = classify_phase("ROI", means, tau_params())
    assert row.phases == [LAG, LAG, LAG, ACTIVE, ACTIVE, ACTIVE, ACTIVE]


def test_classifier_early_region_active_from_first_stage():
    means = [0.9, 1.2, 1.5, 1.8, 2.0, 2.1, 2.3]
    row = classify_phase("Braak II", means, SimulationConfig().suvr_tau(), early_region=True)
    assert row.phases[0] == ACTIVE
    assert row.phases[-1] == SATURATION  # crosses theta_high=2.2 at the end


def test_classifier_stationary_prefix_and_saturation():
    means = [0.6, 0.7, 1.0, 1.2, 1.45, 1.55, 2.3]
    row = classify_phase("ROI", means, tau_params())
    assert row.phases == [STATIONARY, STATIONARY, LAG, LAG, ACTIVE, ACTIVE, SATURATION]


def test_classifier_never_crossing_flagged():
    means = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
    row = classify_phase("ROI", means, tau_params())
    assert row.never_active
    assert set(row.phases) <= {STATIONARY, LAG}


def test_classifier_phase_monotonicity_random_sequences():
    rng = np.random.default_rng(21)
    order = {STATIONARY: 0, LAG: 1, ACTIVE: 2, SATURATION: 3}
    for _ in range(200):
        means = np.cumsum(rng.uniform(-0.05, 0.35, size=7)) + 0.6
        row = classify_phase("ROI", means, tau_params(threshold=1.4))
        ranks = [order[ph] for ph in row.phases]
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))


def test_classifier_requires_threshold():
    with pytest.raises(KeyError):
        classify_phase("unknown", [1.0, 2.0], SimulationConfig().suvr_tau())


# -- macrostages and activation order ---------------------------------------


def logistic_curves(alpha=0.70, dt=0.05, T=40.0, shifts=(0.0, 2.0, 4.0, 6.0, 8.0)):
    times = dt * np.arange(int(T / dt) + 1)
    stages = ("II", "III", "IV", "V", "VI")
    curves = {
        s: logistic(np.maximum(times - shift, 0.0), 0.1, alpha)
        for s, shift in zip(stages, shifts)
    }
    return times, curves


def test_macrostage_boundaries_from_logistic_inversion():
    # stage III carries the unshifted logistic: t1 must invert it exactly
    times, curves = logistic_curves(shifts=(0.0, 0.0, 1.0, 2.0, 3.0))
    tl = reconstruct_macrostages(times, curves, 0.5)
    expected = math.log(9.0) / 0.70
    assert tl.t1 == pytest.approx(expected, abs=2e-3)
    assert tl.t2 == pytest.approx(expected + 2.0, abs=2e-3)
    times, curves = logistic_curves()
    tl = reconstruct_macrostages(times, curves, 0.5)
    assert tl.t1 == pytest.approx(expected + 2.0, abs=2e-3)
    assert tl.t2 == pytest.approx(expected + 6.0, abs=2e-3)
    assert tl.macrostage_at(0.0) == "0-II"
    assert tl.macrostage_at(tl.t1 + 0.01) == "III-IV"
    assert tl.macrostage_at(tl.t2 + 0.01) == "V-VI"


def test_macrostage_threshold_shift_preserves_order():
    times, curves = logistic_curves()
    tl_05 = reconstruct_macrostages(times, curves, 0.5)
    tl_04 = reconstruct_macrostages(times, curves, 0.4)
    assert tl_04.t1 < tl_05.t1
    assert tl_04.t2 < tl_05.t2
    assert tl_04.t1 < tl_04.t2


def test_macrostage_degenerate_all_zero():
    times = np.linspace(0.0, 10.0, 101)
    curves = {s: np.zeros_like(times) for s in ("II", "III", "IV", "V", "VI")}
    tl = reconstruct_macrostages(times, curves, 0.5)
    assert tl.t1 == 10.0 and tl.t2 == 10.0
    assert set(tl.saturated) == {"III", "V"}


def test_macrostage_crossing_scale_invariance():
    times, curves = logistic_curves()
    rho = 0.37
    tl = reconstruct_macrostages(times, curves, 0.5)
    scaled = {s: rho * v for s, v in curves.items()}
    tl_scaled = reconstruct_macrostages(times, scaled, rho * 0.5)
    assert tl_scaled.t1 == pytest.approx(tl.t1, abs=1e-12)
    assert tl_scaled.t2 == pytest.approx(tl.t2, abs=1e-12)


def test_macrostage_grid_refinement_equivariance():
    coarse_dt = 0.2
    for refine in (2, 4):
        t_c, curves_c = logistic_curves(dt=coarse_dt, T=30.0)
        t_f, curves_f = logistic_curves(dt=coarse_dt / refine, T=30.0)
        tl_c = reconstruct_macrostages(t_c, curves_c, 0.5)
        tl_f = reconstruct_macrostages(t_f, curves_f, 0.5)
        assert abs(tl_c.t1 - tl_f.t1) <= coarse_dt
        assert abs(tl_c.t2 - tl_f.t2) <= coarse_dt


def test_activation_order_slab_mesh(slab_mesh, atlas5):
    system = assemble(slab_mesh, DiffusionModel(8.0, 80.0), alpha=0.70, eta0=10.0, degree=2)
    C0 = system.space.seed_vector(atlas5.stages["II"], 0.1)
    traj, states = mesh_run(system, C0, dt=0.05, T=12.0)
    report = braak_activation_order(
        traj.times, stage_average_curves(states, atlas5, system.space), 0.5
    )
    assert report.order == "anatomical"
    assert [s for s, _ in report.entries] == ["II", "III", "IV", "V", "VI"]


def test_activation_order_slab_mesh_3d(atlas5):
    from fkneuro.geometry import slab_labeler

    mesh = generate_structured_mesh(3, 3, 40.0, labeler=slab_labeler(5, 40.0))
    assert set(mesh.regions) == {1, 2, 3, 4, 5}
    system = assemble(mesh, DiffusionModel(8.0, 80.0), alpha=0.70, eta0=10.0, degree=1)
    C0 = system.space.seed_vector(atlas5.stages["II"], 0.1)
    traj, states = mesh_run(system, C0, dt=0.1, T=10.0)
    report = braak_activation_order(
        traj.times, stage_average_curves(states, atlas5, system.space), 0.5
    )
    assert report.order == "anatomical"


def crossing_curves(crossings):
    """Stage curves on times [0, 1] that cross 0.5 at the given times."""
    return {stage: np.array([0.0, 0.5 / t]) for stage, t in crossings.items()}


def test_activation_order_lists_tied_stages_anatomically():
    # reverse anatomical order, all within 1e-12 y: one tie group
    stages = ["II", "III", "IV", "V", "VI"]
    curves = crossing_curves({s: 0.5 - 2e-13 * i for i, s in enumerate(stages)})
    report = braak_activation_order(np.array([0.0, 1.0]), curves, 0.5)
    assert [s for s, _ in report.entries] == stages
    assert report.order == "degenerate"


def test_activation_order_separated_reverse_stays_by_time():
    stages = ["II", "III", "IV", "V", "VI"]
    curves = crossing_curves({s: 0.9 - 0.1 * i for i, s in enumerate(stages)})
    report = braak_activation_order(np.array([0.0, 1.0]), curves, 0.5)
    assert [s for s, _ in report.entries] == stages[::-1]
    assert report.order == "violated"


def test_activation_order_uniform_is_degenerate(atlas5, chain5):
    C0 = np.full(5, 0.1)
    traj, states = graph_run(chain5, C0, alpha=0.70, dt=0.05, T=10.0)
    report = braak_activation_order(
        traj.times, stage_average_curves(states, atlas5, chain5), 0.5
    )
    assert report.order == "degenerate"


def test_activation_order_shortcut_violation(atlas5):
    conn = generate_connectome(5, topology="chain", extra_edges=[(1, 5)])
    C0 = graphfk.seed_vector(conn, [1], 0.3)
    traj, states = graph_run(conn, C0, alpha=0.70, dt=0.05, T=20.0)
    report = braak_activation_order(
        traj.times, stage_average_curves(states, atlas5, conn), 0.5
    )
    assert report.order == "violated"


# -- curve shape -------------------------------------------------------------


def test_inflection_count_sigmoid_and_nonsigmoid():
    t = np.linspace(0.0, 40.0, 400)
    assert inflection_count(logistic(t, 0.1, 0.5)) == 1
    bumpy = logistic(t, 0.1, 0.5) + 0.2 * np.sin(t / 3.0)
    assert inflection_count(bumpy) > 1
    assert inflection_count(np.zeros(100)) == 0


# -- clinical CSV ------------------------------------------------------------

CLINICAL = """\
protein,braak_stage,region,mean_suvr,sd_suvr
abeta,0,neocortex,1.30,0.1
abeta,II,neocortex,1.55,0.1
abeta,VI,neocortex,2.20,0.1
tau,0,Braak III,0.80,0.1
tau,I,Braak III,0.90,0.1
tau,II,Braak III,1.00,0.1
tau,III,Braak III,1.10,0.1
tau,IV,Braak III,1.45,0.1
tau,V,Braak III,1.55,0.1
tau,VI,Braak III,1.90,0.1
"""


def test_clinical_mapping_pipeline(tmp_path):
    path = tmp_path / "clinical.csv"
    path.write_text(CLINICAL)
    rows = load_clinical_csv(path)
    assert len(rows) == 10
    tau_params = SimulationConfig().suvr_tau()
    tau_params.abnormality_thresholds["Braak III"] = 1.5
    mapped = map_clinical_rows(rows, SimulationConfig().suvr_abeta(), tau_params)
    ab = [m for m in mapped if m[0].protein == "abeta"]
    assert [m[2] for m in ab] == pytest.approx([0.0, 0.25 / 0.9, 1.0], abs=1e-12)
    tau = [m for m in mapped if m[0].protein == "tau"]
    phases = [m[1] for m in tau]
    assert phases == [LAG, LAG, LAG, LAG, ACTIVE, ACTIVE, ACTIVE]
    # lag rows are scaled by gamma
    assert tau[0][2] == pytest.approx(0.25 * (0.80 - 0.75) / 1.45, abs=1e-12)


@pytest.mark.parametrize(
    "row,message",
    [
        ("abeta,III,x,nan,0.1", "mean SUVR nan must be finite"),
        ("tau,IV,y,-inf,0.1", "mean SUVR -inf must be finite"),
        ("abeta,IV,y,1.2,inf", "SUVR sd inf must be finite and >= 0"),
        ("tau,II,x,1.2,nan", "SUVR sd nan must be finite and >= 0"),
        ("abeta,IV,y,1.2,-1", "SUVR sd -1 must be finite and >= 0"),
    ],
)
def test_clinical_loader_rejects_bad_suvr(tmp_path, row, message):
    # the bad row is the third line, after the header and a good row
    path = tmp_path / "clinical.csv"
    path.write_text(f"protein,braak_stage,region,mean_suvr,sd_suvr\nabeta,0,x,1.3,0\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
        load_clinical_csv(path)
