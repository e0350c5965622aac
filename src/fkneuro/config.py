"""Flat key=value simulation configuration with baked-in defaults.

The format is diff-friendly experiment provenance: one `key = value` per
line, `#` comments, unknown keys rejected.  Serialization is canonical
(fixed key order, 17 significant digits), so parse -> serialize is
idempotent.
"""

import math
import typing
from dataclasses import dataclass, fields

from .errors import ConfigError
from .geometry.mesh import DiffusionModel
from .staging import SuvrMapParams
from .trajectory import fmt17, step_count

# dt*alpha must stay below the bound of its domain.  On a uniform state c
# the mesh step is c / (1 - dt*alpha*(1 - c)), which keeps every c in
# [0, 1] inside [0, 1] only while dt*alpha < 1; the graph's Crank-Nicolson
# diagonal 2 - dt*alpha*(1 - c) stays positive at c = 0 only while
# dt*alpha < 2.
DT_ALPHA_BOUNDS = {"mesh": 1.0, "graph": 2.0}


@dataclass
class SimulationConfig:
    domain: str = "mesh"  # mesh | graph
    mesh_path: str | None = None
    graph_path: str | None = None
    atlas_path: str | None = None
    atlas_table: str = "slabs"  # anatomical | slabs
    alpha: float = 0.61  # 1/year
    dt: float = 0.05  # years
    T: float = 40.0  # years
    ell: int = 2
    eta0: float = 10.0
    d_ext: float = 8.0  # mm^2/year
    d_axn: float = 80.0  # mm^2/year
    seed_regions: str = "abeta"  # abeta | tau | all | comma list of stages/ids
    seed_value: float = 0.1
    c_crit: float = 0.5
    solver_tol: float = 1e-10
    solver_maxit_factor: float = 10.0
    paper_literal_rhs: bool = False
    scale_k: float | None = None  # overrides the connectome file's k
    # min/max mean neocortical SUVR; positivity cutoff from the neocortical
    # average criterion
    abeta_theta_low: float = 1.3
    abeta_theta_high: float = 2.2
    abeta_positivity_cutoff: float = 1.55
    # min global mean / smallest regional max of the tau tracer
    tau_theta_low: float = 0.75
    tau_theta_high: float = 2.2
    tau_gamma: float = 0.25
    tau_epsilon: float = 0.1
    output_dir: str = "."
    workers: int = 1
    dump_states: bool = False

    def validate(self):
        for name, (kind, _) in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.scale_k is not None and not self.scale_k > 0:
            raise ConfigError(f"scale_k must be > 0, got {self.scale_k}")
        if self.domain not in ("mesh", "graph"):
            raise ConfigError(f"domain must be mesh or graph, got {self.domain!r}")
        if self.atlas_table not in ("anatomical", "slabs"):
            raise ConfigError(
                f"atlas_table must be anatomical or slabs, got {self.atlas_table!r}"
            )
        if not self.dt > 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if not self.T >= self.dt:
            raise ConfigError(f"T must be >= dt, got T={self.T}, dt={self.dt}")
        try:
            step_count(self.T, self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        self.check_step_size(self.alpha)
        if not 0.0 < self.seed_value <= 1.0:
            raise ConfigError(f"seed_value must be in (0,1], got {self.seed_value}")
        if self.ell < 1:
            raise ConfigError(f"ell must be >= 1, got {self.ell}")
        if not self.eta0 > 0:
            raise ConfigError(f"eta0 must be > 0, got {self.eta0}")
        if not 0.0 < self.c_crit < 1.0:
            raise ConfigError(f"c_crit must be in (0,1), got {self.c_crit}")
        if not self.solver_tol > 0:
            raise ConfigError(f"solver_tol must be > 0, got {self.solver_tol}")
        if self.solver_maxit_factor < 1:
            raise ConfigError(
                f"solver_maxit_factor must be >= 1, got {self.solver_maxit_factor}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        try:
            DiffusionModel(self.d_ext, self.d_axn).validate()
            self.suvr_abeta()
            self.suvr_tau()
        except ValueError as exc:
            raise ConfigError(str(exc))
        return self

    def check_step_size(self, alpha: float):
        """Reject a run at ``alpha`` whose dt*alpha reaches its domain's bound."""
        bound = DT_ALPHA_BOUNDS[self.domain]
        if not self.dt * alpha < bound:
            raise ConfigError(
                f"dt*alpha must be < {bound:g} on a {self.domain} run, got "
                f"dt={self.dt:g}, alpha={alpha:g} (dt*alpha={self.dt * alpha:g})"
            )

    def suvr_abeta(self) -> SuvrMapParams:
        return SuvrMapParams(
            theta_low=self.abeta_theta_low,
            theta_high=self.abeta_theta_high,
            positivity_cutoff=self.abeta_positivity_cutoff,
        )

    def suvr_tau(self) -> SuvrMapParams:
        return SuvrMapParams(
            theta_low=self.tau_theta_low,
            theta_high=self.tau_theta_high,
            gamma=self.tau_gamma,
            epsilon=self.tau_epsilon,
        )


def _field_type(annotation) -> tuple[type, bool]:
    """(value type, optional) of an annotation such as ``float | None``."""
    args = typing.get_args(annotation)
    return (args[0], True) if args else (annotation, False)


# field name -> (str | float | int | bool, whether None is allowed), in
# declaration order; the CLI derives its flags from the same table
FIELD_TYPES = {f.name: _field_type(f.type) for f in fields(SimulationConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    kind, optional = FIELD_TYPES[key]
    if optional and not raw:
        return None
    if kind is str:
        return raw
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {noun}, got {raw!r}")


def parse_config_text(text: str, base: SimulationConfig | None = None) -> SimulationConfig:
    cfg = base if base is not None else SimulationConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def load_config(path, base: SimulationConfig | None = None) -> SimulationConfig:
    with open(path) as f:
        return parse_config_text(f.read(), base=base)


def _format_value(key: str, value) -> str:
    if value is None:
        return ""
    kind = FIELD_TYPES[key][0]
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return fmt17(value)
    return str(value)


def serialize_config(cfg: SimulationConfig) -> str:
    lines = [f"{name} = {_format_value(name, getattr(cfg, name))}" for name in FIELD_TYPES]
    return "\n".join(lines) + "\n"
