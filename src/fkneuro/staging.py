"""Post-processing: spatial averages, SUVR normalization, staging analysis.

Clinical PET-SUVR values are mapped to the simulation's [0,1] scale with
piecewise-linear maps; simulated region curves are reduced to activation
times (first crossing of a critical threshold, linearly interpolated) from
which macrostage boundaries and the stage ordering are reconstructed.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry.atlas import STAGE_ORDER
from .trajectory import Trajectory, first_crossing

logger = logging.getLogger(__name__)

STATIONARY = "stationary"
LAG = "lag"
ACTIVE = "active"
SATURATION = "saturation"
PHASE_ORDER = (STATIONARY, LAG, ACTIVE, SATURATION)


@dataclass
class SuvrMapParams:
    """Thresholds and scalings of the SUVR -> [0,1] normalization maps."""

    theta_low: float
    theta_high: float
    gamma: float = 0.25
    epsilon: float = 0.1
    positivity_cutoff: float | None = None
    abnormality_thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.theta_low < self.theta_high:
            raise ValueError(
                f"theta_low {self.theta_low} must be < theta_high {self.theta_high}"
            )
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @classmethod
    def abeta_defaults(cls) -> "SuvrMapParams":
        # min/max mean neocortical SUVR; positivity cutoff from the
        # neocortical average criterion
        return cls(theta_low=1.3, theta_high=2.2, positivity_cutoff=1.55)

    @classmethod
    def tau_defaults(cls) -> "SuvrMapParams":
        # min global mean / smallest regional max of the tau tracer
        return cls(theta_low=0.75, theta_high=2.20, gamma=5.0 / 20.0, epsilon=0.1)


def map_suvr_abeta(s: float, p: SuvrMapParams) -> float:
    """Amyloid map: 0 below theta_low, 1 above theta_high, linear between."""
    if s <= p.theta_low:
        return 0.0
    if s >= p.theta_high:
        return 1.0
    return (s - p.theta_low) / (p.theta_high - p.theta_low)


def map_suvr_tau(s: float, phase: str, p: SuvrMapParams) -> float:
    """Tau map: branch chosen by the aggregation-kinetics phase."""
    if phase == STATIONARY:
        return 0.0
    if phase == SATURATION:
        return 1.0
    linear = (s - p.theta_low) / (p.theta_high - p.theta_low)
    linear = min(max(linear, 0.0), 1.0)
    if phase == LAG:
        return p.gamma * linear
    if phase == ACTIVE:
        return linear
    raise ValueError(f"unknown phase {phase!r}")


@dataclass
class PhaseRow:
    """Phase per Braak-stage index for one region's stage-mean sequence."""

    region: str
    phases: list
    never_active: bool = False

    def __post_init__(self):
        order = {ph: i for i, ph in enumerate(PHASE_ORDER)}
        ranks = [order[ph] for ph in self.phases]
        if any(b < a for a, b in zip(ranks, ranks[1:])):
            raise ValueError(f"region {self.region}: phases regress: {self.phases}")


def classify_phase(
    region: str,
    stage_means,
    p: SuvrMapParams,
    early_region: bool = False,
) -> PhaseRow:
    """Assign a kinetics phase to each stage mean of one region.

    The active phase starts one stage before the first crossing of the
    region's abnormality threshold, or two stages before it when the mean
    at the preceding stage falls short of the threshold by more than
    epsilon.  Early-affected regions (Braak II) are active from their first
    stage.  Regions that never cross are all lag/stationary and flagged.
    """
    means = [float(s) for s in stage_means]
    n = len(means)
    if n == 0:
        raise ValueError(f"region {region}: empty stage-mean sequence")
    if region not in p.abnormality_thresholds and not early_region:
        raise KeyError(f"region {region}: no abnormality threshold configured")
    threshold = p.abnormality_thresholds.get(region)

    never_active = False
    if early_region:
        onset = 0
    else:
        crossing = next((i for i, s in enumerate(means) if s >= threshold), None)
        if crossing is None:
            onset = None
            never_active = True
        elif crossing == 0:
            onset = 0
        else:
            onset = crossing - 1
            if means[crossing - 1] < threshold - p.epsilon:
                onset = max(crossing - 2, 0)

    saturation_start = next(
        (i for i, s in enumerate(means) if s >= p.theta_high), None
    )

    phases = []
    in_initial_quiet = True
    for i, s in enumerate(means):
        if onset is not None and i >= onset:
            if saturation_start is not None and i >= max(saturation_start, onset):
                phases.append(SATURATION)
            else:
                phases.append(ACTIVE)
        else:
            if in_initial_quiet and s <= p.theta_low:
                phases.append(STATIONARY)
            else:
                in_initial_quiet = False
                phases.append(LAG)
    if never_active:
        logger.warning(
            "region %s never crosses its abnormality threshold; all stages %s",
            region,
            "stationary/lag",
        )
    return PhaseRow(region=region, phases=phases, never_active=never_active)


# ---------------------------------------------------------------------------
# Simulated-trajectory reductions


def spatial_average(traj: Trajectory, region_ids, domain) -> np.ndarray:
    """Volume-weighted space average of the state restricted to a region set.

    ``domain`` is the run's DG space or connectome; it supplies the average
    as a linear functional, ``region_weights``.
    """
    return traj.states @ domain.region_weights(region_ids)


def region_average_curves(traj: Trajectory, region_ids, domain) -> dict:
    """Space-average time series of each listed region, keyed by region id.

    One product with the domain's ``region_weight_matrix`` reduces every
    region at once.
    """
    weights = domain.region_weight_matrix([[rid] for rid in region_ids])
    return dict(zip(region_ids, weights.T @ traj.states.T))


def stage_average_curves(traj: Trajectory, atlas, domain) -> dict:
    """Space-average time series per Braak stage present in the domain."""
    return {
        stage: spatial_average(traj, atlas.stages[stage], domain)
        for stage in atlas.stage_order
        if stage in atlas.stages
    }


@dataclass
class MacrostageTimeline:
    """Macrostage breakpoints: [0,t1) 0-II, [t1,t2) III-IV, [t2,T] V-VI."""

    t1: float
    t2: float
    c_crit: float
    horizon: float
    saturated: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.t1 <= self.horizon or not 0.0 <= self.t2 <= self.horizon:
            raise ValueError("macrostage boundaries outside the simulated interval")
        tie_tol = 1e-9 * max(self.horizon, 1.0)
        if self.t1 > self.t2 + tie_tol:
            raise ValueError(
                f"macrostage boundaries out of order: t1={self.t1}, t2={self.t2}"
            )
        if abs(self.t1 - self.t2) <= tie_tol and not self.saturated:
            logger.warning(
                "macrostage boundaries coincide (t1=t2=%g): degenerate "
                "simultaneous activation",
                self.t1,
            )

    def macrostage_at(self, t: float) -> str:
        if t < self.t1:
            return "0-II"
        if t < self.t2:
            return "III-IV"
        return "V-VI"


def reconstruct_macrostages(times, roi_curves: dict, c_crit: float) -> MacrostageTimeline:
    """Split the timeline into macrostages from ROI activation times.

    Boundaries are the activation times (first crossing of c_crit) of the
    leading ROI of each following macrostage group: Braak III opens III-IV
    and Braak V opens V-VI.  An ROI that never activates pins its boundary
    at the final time with a saturation warning.
    """
    if not 0.0 < c_crit < 1.0:
        raise ValueError(f"c_crit must be in (0,1), got {c_crit}")
    horizon = float(times[-1])
    saturated = []

    def boundary(stage):
        if stage not in roi_curves:
            raise KeyError(f"missing ROI curve for stage {stage}")
        t = first_crossing(times, roi_curves[stage], c_crit)
        if t is None:
            logger.warning(
                "stage %s never reaches c_crit=%g within [0, %g]; boundary set "
                "to the final time",
                stage,
                c_crit,
                horizon,
            )
            saturated.append(stage)
            return horizon
        return t

    t1 = boundary("III")
    t2 = boundary("V")
    return MacrostageTimeline(
        t1=t1, t2=t2, c_crit=c_crit, horizon=horizon, saturated=saturated
    )


ORDER_ANATOMICAL = "anatomical"
ORDER_DEGENERATE = "degenerate"
ORDER_VIOLATED = "violated"


@dataclass
class ActivationOrderReport:
    """Stage activation times sorted by time, plus an ordering verdict."""

    entries: list  # (stage, activation time or None), sorted by time
    order: str
    never_activated: list = field(default_factory=list)


def braak_activation_order(
    times, stage_curves: dict, c_crit: float, tie_tol: float = 1e-9
) -> ActivationOrderReport:
    """Activation times per Braak stage and whether they follow II<...<VI.

    Entries are sorted by time; stages whose times form a tie group (each
    within ``tie_tol`` of the one before) are listed in anatomical order.
    """
    acts = {}
    never = []
    for stage, vals in stage_curves.items():
        t = first_crossing(times, vals, c_crit)
        if t is None:
            never.append(stage)
        acts[stage] = t
    stages = [s for s in STAGE_ORDER if s in stage_curves]
    known = [(s, acts[s]) for s in stages if acts[s] is not None]
    # a new tie group starts where the sorted times step by more than
    # tie_tol; the stable sort keeps each group in anatomical order
    group, n, prev = {}, 0, None
    for s, t in sorted(known, key=lambda kv: kv[1]):
        if prev is not None and t - prev > tie_tol:
            n += 1
        group[s], prev = n, t
    entries = sorted(known, key=lambda kv: group[kv[0]]) + [(s, None) for s in never]

    if len(known) >= 2:
        known_times = [t for _, t in known]
        if max(known_times) - min(known_times) <= tie_tol:
            order = ORDER_DEGENERATE
        else:
            anatomical = all(
                t_next >= t_prev - tie_tol
                for (_, t_prev), (_, t_next) in zip(known, known[1:])
            ) and not never
            order = ORDER_ANATOMICAL if anatomical else ORDER_VIOLATED
        if never and order == ORDER_ANATOMICAL:
            order = ORDER_VIOLATED
    else:
        order = ORDER_DEGENERATE
    return ActivationOrderReport(entries=entries, order=order, never_activated=never)


# ---------------------------------------------------------------------------
# Clinical data

BRAAK_STAGE_SEQUENCE = ("0", "I", "II", "III", "IV", "V", "VI")


@dataclass
class ClinicalRow:
    protein: str  # "abeta" | "tau"
    braak_stage: str
    region: str
    mean_suvr: float
    sd_suvr: float


def load_clinical_csv(path) -> list:
    """Read `protein,braak_stage,region,mean_suvr,sd_suvr` rows."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if parts[0] == "protein":
                continue
            if len(parts) != 5:
                raise ValueError(
                    f"{path}:{lineno}: expected 5 fields "
                    f"(protein,braak_stage,region,mean_suvr,sd_suvr)"
                )
            protein = parts[0].lower()
            if protein not in ("abeta", "tau"):
                raise ValueError(f"{path}:{lineno}: unknown protein {parts[0]!r}")
            if parts[1] not in BRAAK_STAGE_SEQUENCE:
                raise ValueError(f"{path}:{lineno}: unknown Braak stage {parts[1]!r}")
            try:
                mean, sd = float(parts[3]), float(parts[4])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad SUVR value")
            rows.append(
                ClinicalRow(
                    protein=protein,
                    braak_stage=parts[1],
                    region=parts[2],
                    mean_suvr=mean,
                    sd_suvr=sd,
                )
            )
    return rows


def _is_early_region(region: str) -> bool:
    r = region.strip().upper()
    if r.startswith("BRAAK"):
        r = r[len("BRAAK") :].strip()
    return r == "II"


def map_clinical_rows(
    rows, abeta_params: SuvrMapParams, tau_params: SuvrMapParams
) -> list:
    """Normalize clinical SUVR rows; returns (row, phase, s_hat) triples.

    Tau rows are phase-classified per region from its stage-mean sequence
    (ordered by Braak stage); amyloid rows use the threshold map directly.
    """
    tau_groups: dict = {}
    for idx, row in enumerate(rows):
        if row.protein == "tau":
            tau_groups.setdefault(row.region, []).append((idx, row))

    phase_of_index = {}
    for region, members in tau_groups.items():
        members.sort(key=lambda m: BRAAK_STAGE_SEQUENCE.index(m[1].braak_stage))
        means = [m[1].mean_suvr for m in members]
        row_phase = classify_phase(
            region, means, tau_params, early_region=_is_early_region(region)
        )
        for (idx, _), phase in zip(members, row_phase.phases):
            phase_of_index[idx] = phase

    out = []
    for idx, row in enumerate(rows):
        if row.protein == "abeta":
            out.append((row, "-", map_suvr_abeta(row.mean_suvr, abeta_params)))
        else:
            phase = phase_of_index[idx]
            out.append((row, phase, map_suvr_tau(row.mean_suvr, phase, tau_params)))
    return out


def inflection_count(values, rel_tol: float = 1e-6) -> int:
    """Sign changes of second differences after 3-point smoothing.

    A sigmoidal curve yields exactly one.  Near-zero second differences
    (below rel_tol of the peak) are ignored so saturated plateaus do not
    register spurious changes.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 5:
        raise ValueError("need at least 5 samples to detect inflections")
    smooth = v.copy()
    smooth[1:-1] = (v[:-2] + v[1:-1] + v[2:]) / 3.0
    d2 = np.diff(smooth, n=2)
    scale = np.abs(d2).max()
    if scale == 0:
        return 0
    signs = np.sign(d2[np.abs(d2) > rel_tol * scale])
    return int(np.count_nonzero(np.diff(signs) != 0))
