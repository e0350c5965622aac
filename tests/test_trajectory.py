import numpy as np
import pytest

from fkneuro.trajectory import (
    Trajectory,
    first_crossing,
    fmt17,
    read_series_csv,
    read_state_dump,
    write_series_csv,
    write_state_dump,
)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="uniform"):
        Trajectory(times=[0.0, 0.1, 0.3], states=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="step count"):
        Trajectory(times=[0.0, 0.1], states=np.zeros((3, 2)))


def test_series_csv_roundtrip(tmp_path):
    times = np.array([0.0, 0.5, 1.0])
    cols = {"avg_II": np.array([0.1, 0.4, 0.9]), "avg_global": np.array([0.0, 0.2, 0.5])}
    path = tmp_path / "series.csv"
    write_series_csv(path, times, cols)
    t, back = read_series_csv(path)
    assert np.array_equal(t, times)
    for name in cols:
        assert np.array_equal(back[name], cols[name])


def test_series_csv_17_digit_roundtrip(tmp_path):
    value = 1.0 / 3.0 + 1e-16
    path = tmp_path / "series.csv"
    write_series_csv(path, np.array([0.0]), {"c": np.array([value])})
    _, back = read_series_csv(path)
    assert back["c"][0] == value  # 17 significant digits reproduce doubles


def test_series_csv_flags_overshoot_without_clipping(tmp_path):
    times = np.array([0.0, 1.0])
    cols = {"c": np.array([0.5, 1.2])}
    path = tmp_path / "series.csv"
    write_series_csv(path, times, cols)
    text = path.read_text()
    assert "# warning: value out of range" in text
    _, back = read_series_csv(path)
    assert back["c"][1] == 1.2  # reported, never clipped
    # in-range values produce no warning rows
    path2 = tmp_path / "clean.csv"
    write_series_csv(path2, times, {"c": np.array([0.0, 1.0])})
    assert "# warning" not in path2.read_text()


def test_series_csv_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        write_series_csv(
            tmp_path / "bad.csv", np.array([0.0]), {"c": np.array([np.nan])}
        )


def test_state_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    states = rng.normal(size=(5, 7))
    traj = Trajectory(times=0.1 * np.arange(5), states=states)
    path = tmp_path / "states.bin"
    write_state_dump(path, traj)
    with open(path, "rb") as f:
        assert f.readline().startswith(b"FKSTATE 1 7 4")
    back = read_state_dump(path)
    assert np.array_equal(back, states)


def test_first_crossing_interpolates_linearly():
    times = np.array([0.0, 1.0, 2.0])
    vals = np.array([0.0, 0.4, 0.8])
    assert first_crossing(times, vals, 0.6) == pytest.approx(1.5, abs=1e-14)
    assert first_crossing(times, vals, 0.0) == 0.0
    assert first_crossing(times, vals, 0.9) is None
    # first sample already above the level
    assert first_crossing(times, np.array([0.7, 0.8, 0.9]), 0.5) == 0.0


def test_fmt17_reproduces_double():
    for x in (1 / 3, 0.1, 2.02745 / 1.97255, 1e-300):
        assert float(fmt17(x)) == x
