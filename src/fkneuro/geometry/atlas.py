"""Braak-stage atlas: region grouping, seeds, and the naming tables.

Stage groups II..VI follow the standard anatomical staging of tau spread
(stage I, the transentorhinal cortex, is absent from the parcellations we
target and is not modeled).  A slab table supports synthetic ordered-band
meshes where staging structure is emulated by geometry.
"""

import itertools
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import AtlasError

STAGE_ORDER = ("II", "III", "IV", "V", "VI")

MACROSTAGE_OF_STAGE = {
    "II": "0-II",
    "III": "III-IV",
    "IV": "III-IV",
    "V": "V-VI",
    "VI": "V-VI",
}


def _norm(name: str) -> str:
    """Canonical key for an anatomical name: case/punctuation-insensitive,
    with generic 'cortex'/'gyrus' suffixes dropped."""
    s = re.sub(r"[^a-z0-9]+", " ", name.lower()).strip()
    for suffix in (" cortices", " cortex", " gyrus"):
        if s.endswith(suffix):
            s = s[: -len(suffix)]
    return s.replace(" ", "")


@dataclass(frozen=True)
class StageTable:
    """Stage -> anatomical-name grouping plus seed/averaging name rules."""

    stages: dict
    neocortex_exclude: tuple = ()
    seed_abeta_exclude: tuple = ()
    seed_tau: tuple = ()


ANATOMICAL_TABLE = StageTable(
    stages={
        "II": ("entorhinal cortex", "hippocampus"),
        "III": (
            "amygdala",
            "parahippocampal gyrus",
            "fusiform gyrus",
            "lingual gyrus",
        ),
        "IV": (
            "insula",
            "inferior temporal",
            "lateral temporal",
            "posterior cingulate",
            "inferior parietal",
        ),
        "V": (
            "orbitofrontal",
            "superior temporal",
            "inferior frontal",
            "cuneus",
            "anterior cingulate",
            "supramarginal gyrus",
            "lateral occipital",
            "precuneus",
            "superior frontal",
            "rostromedial frontal",
        ),
        "VI": (
            "paracentral",
            "postcentral",
            "precentral",
            "pericalcarine",
        ),
    },
    # allocortical / subcortical structures are not part of the neocortex
    neocortex_exclude=(
        "hippocampus",
        "amygdala",
        "entorhinal cortex",
        "parahippocampal gyrus",
    ),
    seed_abeta_exclude=("hippocampus", "amygdala"),
    # the rostral parahippocampal portion maps to the whole region at
    # atlas granularity
    seed_tau=("entorhinal cortex", "parahippocampal gyrus"),
)

SLAB_TABLE = StageTable(
    stages={stage: (stage,) for stage in STAGE_ORDER},
    seed_tau=("II",),
)

TABLES = {"anatomical": ANATOMICAL_TABLE, "slabs": SLAB_TABLE}


@dataclass
class BraakAtlas:
    """Resolved stage -> region-id grouping for one domain."""

    stages: dict  # stage name -> frozenset of region ids
    neocortex: frozenset
    seed_abeta: frozenset
    seed_tau: frozenset

    def __post_init__(self):
        names = [s for s in STAGE_ORDER if s in self.stages]
        for a, b in itertools.combinations(names, 2):
            overlap = self.stages[a] & self.stages[b]
            if overlap:
                raise AtlasError(f"stages {a} and {b} share regions {sorted(overlap)}")

    def all_region_ids(self) -> frozenset:
        return frozenset().union(*self.stages.values())

    def stage_of(self, region_id: int):
        for stage, ids in self.stages.items():
            if region_id in ids:
                return stage
        return None

    def validate_against(self, domain_region_ids):
        known = set(int(r) for r in domain_region_ids)
        missing = sorted(self.all_region_ids() - known)
        if missing:
            raise AtlasError(
                f"atlas references region ids absent from the domain: {missing}"
            )


def build_braak_atlas(labels: dict, table: StageTable = ANATOMICAL_TABLE) -> BraakAtlas:
    """Resolve a stage table against a name -> region-id labeling.

    Every name in the table must resolve; unresolved names raise an
    AtlasError listing them, as does a stage group resolving to the empty
    set (which would otherwise silently skip a stage), and two label names
    that are the same after normalization (which would leave one of them
    unreachable).
    """
    lookup = {}  # normalized name -> (name, region id)
    for name, rid in labels.items():
        first, first_id = lookup.setdefault(_norm(name), (name, int(rid)))
        if first != name:
            raise AtlasError(
                f"region names {first!r} (id {first_id}) and {name!r} (id {rid}) are the same name"
            )

    unresolved = []

    def resolve(names) -> frozenset:
        ids = set()
        for name in names:
            key = _norm(name)
            if key in lookup:
                ids.add(lookup[key][1])
            else:
                unresolved.append(name)
        return frozenset(ids)

    stages = {stage: resolve(names) for stage, names in table.stages.items()}
    if unresolved:
        raise AtlasError(f"unresolved region names: {sorted(set(unresolved))}")
    for stage, ids in stages.items():
        if not ids:
            raise AtlasError(f"stage {stage} resolved to an empty region set")

    all_ids = frozenset().union(*stages.values())
    neocortex = all_ids - resolve(table.neocortex_exclude)
    seed_abeta = all_ids - resolve(table.seed_abeta_exclude)
    seed_tau = resolve(table.seed_tau)
    return BraakAtlas(
        stages=stages,
        neocortex=neocortex,
        seed_abeta=seed_abeta,
        seed_tau=seed_tau,
    )


def slab_atlas(n_slabs: int = 5) -> BraakAtlas:
    """Atlas for a slab-labeled synthetic domain with ids 1..n_slabs."""
    if n_slabs != len(STAGE_ORDER):
        raise AtlasError(
            f"slab atlas needs {len(STAGE_ORDER)} slabs (stages II..VI), "
            f"got {n_slabs}"
        )
    labels = {stage: i + 1 for i, stage in enumerate(STAGE_ORDER)}
    return build_braak_atlas(labels, table=SLAB_TABLE)


def csv_fields(path, header: str):
    """(line number, stripped fields) of each data line of a small CSV table,
    skipping blank lines, '#' comments and a header whose first field is
    ``header``."""
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            parts = [p.strip() for p in line.split(",")]
            if line and line[0] != "#" and parts[0] != header:
                yield lineno, parts


def load_region_labels(path) -> dict:
    """Read a 'region_name,region_id' CSV into a naming table; a name may
    appear once."""
    labels = {}
    for lineno, parts in csv_fields(path, "region_name"):
        if len(parts) != 2:
            raise AtlasError(f"line {lineno}: expected 'region_name,region_id'")
        if parts[0] in labels:
            raise AtlasError(f"line {lineno}: region name {parts[0]!r} listed twice")
        try:
            labels[parts[0]] = int(parts[1])
        except ValueError:
            raise AtlasError(f"line {lineno}: bad region id {parts[1]!r}")
    if not labels:
        raise AtlasError("no labels found")
    return labels


def region_weight_matrix(labels, measures, unit_weights, groups, where: str):
    """Averaging weights W, shape (N, G), over disjoint groups of regions.

    A domain's units (mesh elements or graph nodes) each carry a region
    label, a measure and the integrals of their k unknowns, ``unit_weights``
    (U, k); unknown j of unit u is entry u*k + j of a state.  Column g of W
    holds unit_weights / (measure of group g) on the units whose label is in
    ``groups[g]``, so ``states @ W`` is the mean over every group at once.
    The labels are mapped to columns in one sorted search.
    """
    groups = [sorted({int(r) for r in group}) for group in groups]
    ids = np.array([r for group in groups for r in group], dtype=int)
    if not len(ids):
        raise ValueError("empty region set")
    if len(np.unique(ids)) < len(ids):
        raise ValueError("region groups overlap")
    column_of = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    order = np.argsort(ids)
    pos = np.searchsorted(ids[order], labels).clip(max=len(ids) - 1)
    cols = np.where(ids[order][pos] == labels, column_of[order[pos]], -1)
    units = np.flatnonzero(cols >= 0)
    units = units[np.argsort(cols[units], kind="stable")]  # column by column
    cols = cols[units]
    totals = np.bincount(cols, weights=measures[units], minlength=len(groups))
    if (totals == 0).any():
        missing = sorted(r for g in np.flatnonzero(totals == 0) for r in groups[g])
        raise ValueError(f"regions {missing} not present in {where}")
    k = unit_weights.shape[1]
    values = unit_weights[units] / totals[cols][:, None]
    rows = units[:, None] * k + np.arange(k)
    starts = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=len(groups)))))
    return sp.csc_matrix(
        (values.ravel(), rows.ravel(), k * starts), shape=(len(labels) * k, len(groups))
    )
