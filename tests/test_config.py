import math
import typing
from dataclasses import fields

import pytest

from fkneuro.cli import _config_from_args, build_parser
from fkneuro.config import (
    FIELD_TYPES,
    SimulationConfig,
    load_config,
    parse_config_text,
    serialize_config,
)
from fkneuro.errors import ConfigError


def test_defaults_match_published_setup():
    cfg = SimulationConfig()
    assert cfg.ell == 2
    assert cfg.eta0 == 10.0
    assert cfg.dt == 0.05
    assert cfg.T == 40.0
    assert cfg.d_ext == 8.0
    assert cfg.d_axn == 80.0
    assert cfg.alpha == 0.61
    assert cfg.seed_value == 0.1
    assert cfg.abeta_theta_low == 1.3
    assert cfg.abeta_theta_high == 2.2
    assert cfg.abeta_positivity_cutoff == 1.55
    assert cfg.tau_theta_low == 0.75
    assert cfg.tau_theta_high == 2.2
    assert cfg.tau_gamma == pytest.approx(0.25)
    cfg.validate()


def test_parse_overrides_and_comments():
    cfg = parse_config_text(
        "# experiment\nalpha = 0.7  # faster\ndomain = graph\n"
        "paper_literal_rhs = true\nell=1\n"
    )
    assert cfg.alpha == 0.7
    assert cfg.domain == "graph"
    assert cfg.paper_literal_rhs is True
    assert cfg.ell == 1


def test_serialize_parse_idempotent(tmp_path):
    cfg = SimulationConfig(alpha=1.0 / 3.0, domain="graph", seed_regions="tau")
    text1 = serialize_config(cfg)
    cfg2 = parse_config_text(text1)
    text2 = serialize_config(cfg2)
    assert text1 == text2
    path = tmp_path / "run.cfg"
    path.write_text(text1)
    assert serialize_config(load_config(path)) == text1


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("alhpa = 0.7\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("dump_states = maybe\n")
    with pytest.raises(ConfigError, match="number"):
        parse_config_text("alpha = fast\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text("ell = 2.5\n")


@pytest.mark.parametrize(
    "line,match",
    [
        ("dt = 0", "dt"),
        ("alpha = -1", "alpha"),
        ("seed_value = 0", "seed_value"),
        ("seed_value = 1.5", "seed_value"),
        ("c_crit = 1.0", "c_crit"),
        ("ell = 0", "ell"),
        ("T = 0.01", "T"),
        ("domain = lattice", "domain"),
        ("d_ext = 0", "d_ext"),
        ("d_axn = -1", "d_axn"),
        ("abeta_theta_low = 3.0", "theta"),
    ],
)
def test_validation_errors(line, match):
    cfg = parse_config_text(line + "\n")
    with pytest.raises(ConfigError, match=match):
        cfg.validate()


FLOAT_FIELDS = [name for name, (kind, _) in FIELD_TYPES.items() if kind is float]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_float_rejected(name, value):
    cfg = SimulationConfig()
    setattr(cfg, name, value)
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        cfg.validate()


@pytest.mark.parametrize("domain,bound", [("mesh", 1.0), ("graph", 2.0)])
def test_dt_alpha_bound_by_domain(domain, bound):
    # dt = 0.25 makes dt*alpha exact: alpha = 4*bound lies on the bound,
    # the float just below it is the largest alpha that passes
    on_bound = 4.0 * bound
    message = (
        rf"dt\*alpha must be < {bound:g} on a {domain} run, "
        rf"got dt=0\.25, alpha={on_bound:g} \(dt\*alpha={bound:g}\)"
    )
    with pytest.raises(ConfigError, match=message):
        SimulationConfig(domain=domain, dt=0.25, alpha=on_bound).validate()
    with pytest.raises(ConfigError, match=f"on a {domain} run"):
        SimulationConfig(domain=domain, dt=0.25, alpha=2.0 * on_bound).validate()
    SimulationConfig(domain=domain, dt=0.25, alpha=math.nextafter(on_bound, 0.0)).validate()
    # the published step with the largest published conversion rate
    SimulationConfig(domain=domain, dt=0.05, alpha=8.54).validate()


@pytest.mark.parametrize(
    "T,dt,ratio", [(0.5, 0.3, "1.6666666666666667"), (0.4, 0.3, "1.3333333333333335")]
)
def test_T_must_be_a_whole_number_of_steps(T, dt, ratio):
    # round(T/dt) steps would end the run at 0.6 or 0.3, not at T
    message = rf"got T={T}, dt={dt} \(T/dt={ratio}\)"
    with pytest.raises(ConfigError, match=message):
        SimulationConfig(T=T, dt=dt).validate()


@pytest.mark.parametrize(
    "T,dt",
    [
        (40.0, 0.05),  # the published horizon
        (10.0, 0.05),  # the benchmark horizons: mesh-run, mesh-sweep, graph-run, graph-sweep
        (0.5, 0.05),
        (2.0, 0.05),
        (0.35, 0.05),  # T/dt = 6.999999999999999
        (2.3, 0.1),  # T/dt = 22.999999999999996
    ],
)
def test_T_within_1e_9_of_whole_steps_passes(T, dt):
    SimulationConfig(T=T, dt=dt, alpha=0.61).validate()


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_scale_k_must_be_positive(value):
    with pytest.raises(ConfigError, match="scale_k must be > 0"):
        SimulationConfig(scale_k=value).validate()
    SimulationConfig(scale_k=None).validate()
    SimulationConfig(scale_k=0.5).validate()


def test_optional_fields_roundtrip():
    cfg = parse_config_text("mesh_path = \nscale_k = \n")
    assert cfg.mesh_path is None
    assert cfg.scale_k is None
    cfg2 = parse_config_text("scale_k = 2.0\nmesh_path = m.fkmesh\n")
    assert cfg2.scale_k == 2.0
    assert cfg2.mesh_path == "m.fkmesh"


def test_suvr_params_built_from_config():
    cfg = SimulationConfig(tau_gamma=0.4, tau_epsilon=0.2)
    tau = cfg.suvr_tau()
    assert tau.gamma == 0.4
    assert tau.epsilon == 0.2
    abeta = cfg.suvr_abeta()
    assert abeta.positivity_cutoff == 1.55


def _non_default_flag(f):
    """(argv, value) that sets field f to a value other than its default."""
    flag = "--" + f.name.replace("_", "-")
    if isinstance(f.default, bool):
        value = not f.default
        return [flag if value else "--no-" + flag[2:]], value
    if f.default is None:
        value = 2.5 if float in typing.get_args(f.type) else "some/path"
    elif isinstance(f.default, str):
        value = f.default + "-other"
    else:
        value = f.default + 3
    return [flag, str(value)], value


@pytest.mark.parametrize("f", fields(SimulationConfig), ids=lambda f: f.name)
def test_every_field_has_a_roundtripping_cli_flag(f):
    argv, value = _non_default_flag(f)
    args = build_parser().parse_args(["simulate", *argv])
    cfg = _config_from_args(args)
    assert value != f.default
    assert getattr(cfg, f.name) == value
    assert type(getattr(cfg, f.name)) is type(value)
    reparsed = parse_config_text(serialize_config(cfg))
    assert getattr(reparsed, f.name) == value
    assert serialize_config(reparsed) == serialize_config(cfg)
