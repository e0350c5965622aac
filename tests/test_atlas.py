import pytest

from fkneuro.errors import AtlasError
from fkneuro.geometry import (
    ANATOMICAL_TABLE,
    BraakAtlas,
    build_braak_atlas,
    load_region_labels,
    slab_atlas,
)

DK_STYLE_NAMES = [
    "entorhinal",
    "hippocampus",
    "amygdala",
    "parahippocampal",
    "fusiform",
    "lingual",
    "insula",
    "inferiortemporal",
    "lateraltemporal",
    "posteriorcingulate",
    "inferiorparietal",
    "orbitofrontal",
    "superiortemporal",
    "inferiorfrontal",
    "cuneus",
    "anteriorcingulate",
    "supramarginal",
    "lateraloccipital",
    "precuneus",
    "superiorfrontal",
    "rostromedialfrontal",
    "paracentral",
    "postcentral",
    "precentral",
    "pericalcarine",
]


def dk_labels():
    return {name: i + 1 for i, name in enumerate(DK_STYLE_NAMES)}


def test_slab_atlas_one_region_per_stage():
    atlas = slab_atlas()
    assert [len(atlas.stages[s]) for s in ("II", "III", "IV", "V", "VI")] == [1] * 5
    assert atlas.stages["II"] == frozenset({1})
    assert atlas.seed_tau == frozenset({1})
    assert atlas.seed_abeta == frozenset(range(1, 6))


def test_missing_name_reported():
    labels = dk_labels()
    del labels["hippocampus"]
    with pytest.raises(AtlasError, match="hippocampus"):
        build_braak_atlas(labels, table=ANATOMICAL_TABLE)


def test_dk_style_stage_sizes():
    atlas = build_braak_atlas(dk_labels(), table=ANATOMICAL_TABLE)
    assert len(atlas.stages["II"]) == 2
    assert len(atlas.stages["III"]) == 4
    assert len(atlas.stages["IV"]) == 5
    assert len(atlas.stages["V"]) == 10
    assert len(atlas.stages["VI"]) == 4


def test_stage_sets_disjoint():
    atlas = build_braak_atlas(dk_labels(), table=ANATOMICAL_TABLE)
    stages = list(atlas.stages.values())
    for i in range(len(stages)):
        for j in range(i + 1, len(stages)):
            assert not (stages[i] & stages[j])


def test_neocortex_and_seeds():
    atlas = build_braak_atlas(dk_labels(), table=ANATOMICAL_TABLE)
    labels = dk_labels()
    # allocortical structures excluded from the neocortex average
    for name in ("hippocampus", "amygdala", "entorhinal", "parahippocampal"):
        assert labels[name] not in atlas.neocortex
    assert labels["precuneus"] in atlas.neocortex
    # tau seeding: entorhinal plus parahippocampal
    assert atlas.seed_tau == frozenset({labels["entorhinal"], labels["parahippocampal"]})
    # amyloid seeding: cortex-wide, excluding subcortical structures
    assert labels["hippocampus"] not in atlas.seed_abeta
    assert labels["amygdala"] not in atlas.seed_abeta
    assert labels["entorhinal"] in atlas.seed_abeta


def test_overlapping_stage_sets_rejected():
    with pytest.raises(AtlasError, match="share"):
        BraakAtlas(
            stages={"II": frozenset({1}), "III": frozenset({1})},
            neocortex=frozenset(),
            seed_abeta=frozenset(),
            seed_tau=frozenset(),
        )


def test_empty_stage_rejected():
    labels = {"entorhinal": 1, "hippocampus": 2}
    table_names = {k: v for k, v in ANATOMICAL_TABLE.stages.items()}
    from fkneuro.geometry import StageTable

    table = StageTable(stages={"II": table_names["II"], "III": ()})
    with pytest.raises(AtlasError, match="empty"):
        build_braak_atlas(labels, table=table)


def test_validate_against_domain():
    atlas = slab_atlas()
    atlas.validate_against([1, 2, 3, 4, 5, 99])
    with pytest.raises(AtlasError, match="absent"):
        atlas.validate_against([1, 2, 3])


def test_label_file_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("region_name,region_id\nentorhinal,7\nhippocampus,9\n")
    labels = load_region_labels(path)
    assert labels == {"entorhinal": 7, "hippocampus": 9}
    bad = tmp_path / "bad.csv"
    bad.write_text("entorhinal,notanumber\n")
    with pytest.raises(AtlasError, match="bad region id"):
        load_region_labels(bad)


def test_label_file_rejects_a_repeated_name(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("region_name,region_id\nentorhinal,7\n# note\nhippocampus,9\nentorhinal,8\n")
    with pytest.raises(AtlasError, match=r"^line 5: region name 'entorhinal' listed twice$"):
        load_region_labels(path)


def test_names_equal_after_normalization_rejected():
    labels = dk_labels()
    labels["Entorhinal Cortex"] = 99
    message = rf"'entorhinal' \(id {labels['entorhinal']}\) and 'Entorhinal Cortex' \(id 99\)"
    with pytest.raises(AtlasError, match=message):
        build_braak_atlas(labels, table=ANATOMICAL_TABLE)
