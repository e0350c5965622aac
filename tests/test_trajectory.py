import io
from decimal import Decimal
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import graph_run
from fkneuro import graphfk, trajectory
from fkneuro.geometry import generate_connectome
from fkneuro.trajectory import (
    StateDumps,
    Trajectory,
    advance,
    first_crossing,
    fmt17,
    read_series_csv,
    read_state_dump,
    write_rows17,
    write_series_csv,
    write_state_dump,
)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="uniform"):
        Trajectory(times=[0.0, 0.1, 0.3], states=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="step count"):
        Trajectory(times=[0.0, 0.1], states=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="step count"):
        Trajectory(times=[0.0, 0.1], states=np.zeros((0, 2)))
    # fewer states than times must say which step the first one is
    with pytest.raises(ValueError, match="step count"):
        Trajectory(times=[0.0, 0.1, 0.2], states=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="step count"):
        Trajectory(times=[0.0, 0.1, 0.2], states=np.zeros((2, 2)), first_step=2)
    last = Trajectory(times=[0.0, 0.1, 0.2], states=np.zeros((2, 2)), first_step=1)
    assert last.n_steps == 2


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
    # several columns: one row per value, column by column, in time order
    times = np.array([0.0, 0.5, 1.0])
    cols = {
        "b": np.array([1.06, 0.5, -0.25]),
        "a": np.array([0.0, 1.0, 0.2]),
        "c": np.array([-0.06, 2.0, 1.5]),
    }
    path3 = tmp_path / "many.csv"
    write_series_csv(path3, times, cols)
    lines = path3.read_text().splitlines()
    assert lines[:6] == [
        "t,b,a,c",
        "# warning: value out of range [-0.05, 1.05] at t=0 column=b: 1.0600000000000001",
        "# warning: value out of range [-0.05, 1.05] at t=1 column=b: -0.25",
        "# warning: value out of range [-0.05, 1.05] at t=0 column=c: -0.059999999999999998",
        "# warning: value out of range [-0.05, 1.05] at t=0.5 column=c: 2",
        "# warning: value out of range [-0.05, 1.05] at t=1 column=c: 1.5",
    ]
    assert lines[6:] == [
        "0,1.0600000000000001,0,-0.059999999999999998",
        "0.5,0.5,1,2",
        "1,-0.25,0.20000000000000001,1.5",
    ]


def test_series_csv_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        write_series_csv(
            tmp_path / "bad.csv", np.array([0.0]), {"c": np.array([np.nan])}
        )
    # the first non-finite column is named, and nothing is written
    columns = {
        "a": np.array([0.1, 0.2]), "b": np.array([0.0, np.inf]), "c": np.array([np.nan, 0.0])
    }
    with pytest.raises(ValueError, match="column b contains"):
        write_series_csv(tmp_path / "bad2.csv", np.array([0.0, 1.0]), columns)
    assert not (tmp_path / "bad2.csv").exists()


def test_state_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    states = rng.normal(size=(5, 7))
    path = tmp_path / "states.bin"
    # a loop's blocks of one row: the dump is their states, in order
    with StateDumps(1, 7, 4, tmp_path) as dumps:
        dumps(states[None, :2])
        dumps(states[None, 2:])
        write_state_dump(path, dumps, 0)
    with open(path, "rb") as f:
        assert f.readline().startswith(b"FKSTATE 1 7 4")
    back = read_state_dump(path)
    assert np.array_equal(back, states)
    # a dump handed fewer states than its header names (a row that left
    # the loop) is not put at a path, and leaves no file behind
    with StateDumps(2, 7, 4, tmp_path) as dumps:
        dumps(np.stack([states[:2], states[:2]]))
        dumps(states[None, 2:])
        with pytest.raises(ValueError, match="needs all 5 states, it holds 2"):
            write_state_dump(tmp_path / "window.bin", dumps, 1)
        write_state_dump(tmp_path / "row0.bin", dumps, 0)
    assert sorted(os.listdir(tmp_path)) == ["row0.bin", "states.bin"]
    assert path.read_bytes() == (tmp_path / "row0.bin").read_bytes()


def test_state_dump_is_header_and_payload_bytes(tmp_path):
    # the dump writes the states' buffer as it is; a transposed (Fortran
    # ordered) array is written in row-major order all the same
    rng = np.random.default_rng(1)
    for states in (rng.normal(size=(4, 6)), rng.normal(size=(6, 4)).T):
        path = tmp_path / "states.bin"
        with StateDumps(1, 6, 3, tmp_path) as dumps:
            dumps(states[None])
            write_state_dump(path, dumps, 0)
        expected = b"FKSTATE 1 6 3\n" + np.ascontiguousarray(states, dtype="<f8").tobytes()
        assert path.read_bytes() == expected
        assert np.array_equal(read_state_dump(path), states)


def test_first_crossing_interpolates_linearly():
    times = np.array([0.0, 1.0, 2.0])
    vals = np.array([0.0, 0.4, 0.8])
    assert first_crossing(times, vals, 0.6) == pytest.approx(1.5, abs=1e-14)
    assert first_crossing(times, vals, 0.0) == 0.0
    assert first_crossing(times, vals, 0.9) is None
    # first sample already above the level
    assert first_crossing(times, np.array([0.7, 0.8, 0.9]), 0.5) == 0.0


def test_first_crossing_rejects_series_of_other_lengths():
    # a window of states against the run's times would cross at a wrong time
    times = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="3 times but 2 values"):
        first_crossing(times, np.array([0.0, 0.8]), 0.5)
    with pytest.raises(ValueError, match="3 times but 4 values"):
        first_crossing(times, np.array([0.0, 0.8, 0.9, 1.0]), 0.9)


def test_fmt17_reproduces_double():
    for x in (1 / 3, 0.1, 2.02745 / 1.97255, 1e-300):
        assert float(fmt17(x)) == x


def rows17(table) -> bytes:
    out = io.BytesIO()
    write_rows17(out, table)
    return out.getvalue()


def percent_rows(table) -> bytes:
    """write_rows17's text, one '%.17g' % value at a time."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


def node_rows17(table, labels, cols):
    """The text write_rows17 gives table, and the node lines it gives with it."""
    out, nodes = io.BytesIO(), io.BytesIO()
    write_rows17(out, table, (nodes, labels, cols))
    return out.getvalue(), nodes.getvalue()


def percent_labelled(times, states, labels) -> bytes:
    return "".join(
        "%.17g,%s,%.17g\n" % (t, label, v)
        for t, row in zip(times.tolist(), states.tolist())
        for label, v in zip(labels, row)
    ).encode()


def float_families():
    """Values whose text is easy to get wrong, and random bit patterns."""
    rng = np.random.default_rng(20)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    halves = [k / 2 for k in range(-2000, 2000)] + [2.0**-k for k in range(1075)]
    ints = [2.0**k + d for k in range(61) for d in (-1.0, 0.0, 1.0)]
    families = [
        rng.integers(0, 2**64, 30000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-260, 0, 5000),  # concentrations
        rng.uniform(0, 1, 5000),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.array(ints + halves), rng.integers(0, 2**60, 3000).astype(float),
        0.05 * np.arange(20000),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17, 1e-5, 1e-4]),
    ]
    values = np.concatenate(families)
    return np.concatenate([values, -values])


def test_rows17_is_percent_17g_on_float_families():
    values = float_families()
    values = values[: len(values) // 7 * 7].reshape(-1, 7)  # every separator position
    assert rows17(values) == percent_rows(values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    table=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        elements=st.floats(width=64, allow_nan=True, allow_infinity=True),
    ),
    chunk=st.integers(1, 12),
)
def test_rows17_is_percent_17g_in_any_chunking(table, chunk):
    # small chunks put chunk ends anywhere, also after values that go
    # through Python (zero, subnormal, inf, nan)
    default = trajectory.CHUNK
    trajectory.CHUNK = chunk
    try:
        assert rows17(table) == percent_rows(table)
    finally:
        trajectory.CHUNK = default


def node_table(times, states, labels, extra):
    """The columns of a graph run's region table: t, the states in sorted
    label order, and the column extra if it is not None; and the column of
    each label."""
    order = np.argsort(labels, kind="stable")
    table = np.column_stack([times, states[:, order]] + ([] if extra is None else [extra]))
    return table, (1 + np.argsort(order)).tolist()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    states=arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 4)),
        elements=st.floats(width=64, allow_nan=True, allow_infinity=True),
    ),
    dt=st.sampled_from([0.05, 0.1, 0.25, 1.0 / 3.0, 1e-3]),
    labels=st.lists(st.integers(0, 10**12), min_size=4, max_size=4, unique=True),
    last=st.booleans(),
    chunk=st.integers(1, 12),
)
def test_node_lines_are_percent_17g_in_any_chunking(states, dt, labels, last, chunk):
    # the node lines reuse the words of the table's columns, in label
    # order; with last, a node's column is the table's last, whose
    # separator is already a newline
    times = dt * np.arange(len(states))
    labels = labels[: states.shape[1]]
    table, cols = node_table(times, states, labels, None if last else states[:, 0])
    default = trajectory.CHUNK
    trajectory.CHUNK = chunk
    try:
        text, node_text = node_rows17(table, labels, cols)
        assert text == percent_rows(table)
        assert node_text == percent_labelled(times, states, labels)
    finally:
        trajectory.CHUNK = default


def is_tie(x: float) -> bool:
    digits = Decimal(x).normalize().as_tuple().digits  # exact decimal digits of x
    return len(digits) == 18 and digits[-1] == 5


def test_ties_go_through_python(monkeypatch):
    # j / 2**k with exactly 18 significant digits, the last a 5: its
    # 17-digit rounding is a tie, which Python breaks
    candidates = [j * 2.0**-k for k in range(20, 60) for j in range(1, 400, 2)]
    ties = [x for x in candidates if is_tie(x)]
    assert len(ties) > 100
    calls = []
    digits = trajectory._python_digits
    monkeypatch.setattr(trajectory, "_python_digits", lambda v: calls.append(v) or digits(v))
    table = np.array(ties).reshape(-1, 1)
    assert rows17(table) == percent_rows(table)
    assert calls == ties


TIES = [x for x in (j * 2.0**-k for k in range(20, 40) for j in range(1, 400, 2)) if is_tie(x)]

# values whose text or row is easy to get wrong: signed zeros, subnormals,
# |x| outside [1e-280, 1e280], rounding ties and their neighbours, and
# values just outside [-0.05, 1.05], which get warning rows
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-290, -3e-281,
    3e281, -1e300, 1.7976931348623157e308, -0.05, np.nextafter(-0.05, -1), 1.05,
    np.nextafter(1.05, 2), -0.06, 1.06, 2.0,
    *TIES[:10], *np.nextafter(TIES[:10], 0), *np.nextafter(TIES[:10], 1),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    states=arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 4)),
        elements=st.one_of(
            st.floats(width=64, allow_nan=False, allow_infinity=False),
            st.floats(-0.1, 1.1),
            st.sampled_from(EDGE_VALUES),
        ),
    ),
    dt=st.sampled_from([0.05, 0.1, 0.25, 1.0 / 3.0, 1e-3]),
    labels=st.lists(st.integers(0, 10**12), min_size=4, max_size=4, unique=True),
    last=st.booleans(),
    chunk=st.integers(1, 12),
)
def test_series_csv_writes_node_lines_from_its_own_text(states, dt, labels, last, chunk):
    times = dt * np.arange(len(states))
    labels = labels[: states.shape[1]]
    table, cols = node_table(times, states, labels, None if last else states[:, 0])
    names = [f"region_{label}" for label in labels]
    columns = {names[i]: states[:, i] for i in np.argsort(labels, kind="stable")}
    if not last:
        columns["global"] = states[:, 0]
    default = trajectory.CHUNK
    trajectory.CHUNK = chunk
    try:
        with tempfile.TemporaryDirectory() as tmp:
            series, nodes, alone = (Path(tmp, name) for name in ("s.csv", "n.csv", "a.csv"))
            write_series_csv(series, times, columns, (nodes, labels, names))
            write_series_csv(alone, times, columns)
            text = series.read_bytes()
            assert text == alone.read_bytes()
            assert text.endswith(percent_rows(table))
            assert nodes.read_bytes() == b"t,node_id,c\n" + percent_labelled(times, states, labels)
    finally:
        trajectory.CHUNK = default
    flagged = np.count_nonzero((table[:, 1:] < -0.05) | (table[:, 1:] > 1.05))
    assert text.count(b"# warning: value out of range") == flagged


def test_concentration_table_takes_no_python_path(monkeypatch):
    # 801 x 85: t, the 83 node curves of a ring+shortcut graph run from one
    # seeded node, and their mean; nodes far from the seed stay below 1e-4,
    # in exponential notation, for years
    conn = generate_connectome(83, "ring", extra_edges=[(1, 42), (10, 60), (20, 75)])
    C0 = np.zeros(83)
    C0[0] = 0.1
    traj, states = graph_run(conn, C0, alpha=0.61, dt=0.05, T=40.0)
    table = np.column_stack([traj.times, states, states.mean(axis=1)])
    assert table.shape == (801, 85)
    calls = []
    digits = trajectory._python_digits
    monkeypatch.setattr(trajectory, "_python_digits", lambda v: calls.append(v) or digits(v))
    text, node_text = node_rows17(table, conn.region_ids.tolist(), list(range(1, 84)))
    assert calls == []
    assert text == percent_rows(table)
    assert node_text == percent_labelled(traj.times, states, conn.region_ids.tolist())
    assert np.count_nonzero((table > 0) & (table < 1e-4)) > 1000


def test_formatter_tables_are_built_on_first_use():
    code = (
        "import numpy as np, io, fkneuro\n"
        "from fkneuro import trajectory as t\n"
        "print(t._tables.cache_info().currsize)\n"
        "t.write_rows17(io.BytesIO(), np.ones((1, 1)))\n"
        "print(t._tables.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(trajectory.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.split() == ["0", "1"], out.stderr


@st.composite
def loop_plans(draw):
    """k rows, a step count, the (row, step) cells where a row's step fails
    ("error" in its stats, a "nan" state, or both) and those that fall back."""
    k = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 6))
    cells = st.tuples(st.integers(0, k - 1), st.integers(1, n_steps))
    faults = draw(st.dictionaries(cells, st.sampled_from(["error", "nan", "both"]), max_size=4))
    fallbacks = draw(st.sets(cells, max_size=k * n_steps))
    alphas = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    return k, n_steps, faults, fallbacks, alphas


class ListLog:
    def __init__(self):
        self.records = []

    def warning(self, msg, *args):
        self.records.append(msg % args)


def keep_every_state(step, C0, alphas, dt, n_steps):
    """The reference of ``advance``: a plain loop that keeps every state and
    hands each step all of its live rows' states.  Returns the states of
    each row before the first that failed, (n_steps + 1, N), their stats
    and that row's exception or None."""
    alphas = np.asarray(alphas, dtype=float)
    rows, stats = [[c] for c in C0], [[] for _ in C0]
    live, failure = len(rows), None
    for n in range(1, n_steps + 1):
        t = n * dt
        out, step_stats = step(np.array(rows[:live]), alphas[:live], t)
        for i in range(live):
            error = step_stats[i].get("error")
            if error is None and not np.isfinite(out[i]).all():
                error = FloatingPointError(f"non-finite state after step {n} (t={t:g})")
            if error is not None:
                failure, live = error, i
                break
            stats[i].append(step_stats[i])
        if not live:
            break
        for i in range(live):
            rows[i].append(out[i])
    return [np.array(row) for row in rows[:live]], stats[:live], failure


@settings(max_examples=200, deadline=None, derandomize=True)
@given(plan=loop_plans(), window=st.integers(1, 5), block=st.integers(1, 4))
def test_advance_keeps_the_rows_before_the_first_failure(plan, window, block):
    k, n_steps, faults, fallbacks, alphas = plan
    dt, N = 0.25, 3
    C0 = np.arange(k * N, dtype=float).reshape(k, N)
    returned, produced = [], [[] for _ in range(k)]  # step outputs, stats per row

    def step(history, live_alphas, t):
        n = len(returned) + 1
        assert t == n * dt
        # the latest states of the live rows: the window's tail of C0, then
        # each earlier output
        live = len(live_alphas)
        assert history.shape == (live, min(n, window), N)
        for i in range(live):
            earlier = [C0[i]] + [out[i] for out in returned]
            assert history[i].tobytes() == np.array(earlier[-window:]).tobytes()
        out = history[:, -1] + live_alphas[:, None]
        stats = []
        for i in range(live):
            kind = faults.get((i, n), "")
            st_ = {"fallback": (i, n) in fallbacks}
            if kind in ("error", "both"):
                st_["error"] = RuntimeError(f"row {i} step {n}")
            if kind in ("nan", "both"):
                out[i, i % N] = np.nan
            produced[i].append(st_)
            stats.append(st_)
        returned.append(out)
        return out, stats

    log, blocks = ListLog(), []
    with patch.object(trajectory, "BLOCK_VALUES", block * k * N):
        trajectories, failure = advance(
            step, C0, alphas, dt, n_steps * dt, log, window, [lambda b: blocks.append(b.copy())]
        )

    # the reference, a loop that keeps every state: at each step the first
    # live row with a fault fails, and the rows before it step on
    rows = [[C0[i]] for i in range(k)]
    live, failed_at = k, None
    for n in range(1, n_steps + 1):
        for i in range(live):
            if (i, n) in faults:
                live, failed_at = i, (i, n)
                break
        for i in range(live):
            rows[i].append(rows[i][-1] + alphas[i])
    assert len(trajectories) == live
    if failed_at is None:
        assert failure is None
    elif faults[failed_at] == "nan":
        assert type(failure) is FloatingPointError
        n = failed_at[1]
        assert str(failure) == f"non-finite state after step {n} (t={n * dt:g})"
    else:
        assert failure is produced[failed_at[0]][failed_at[1] - 1]["error"]
    expected_log = []
    for i, traj in enumerate(trajectories):
        assert traj.times.tolist() == (dt * np.arange(n_steps + 1)).tolist()
        row = np.array(rows[i])
        assert traj.states.tobytes() == row[traj.first_step :].tobytes()
        assert np.concatenate([b[i] for b in blocks]).tobytes() == row.tobytes()
        assert len(traj.solver_stats) == n_steps
        assert all(a is b for a, b in zip(traj.solver_stats, produced[i]))
        count = sum((i, n) in fallbacks for n in range(1, n_steps + 1))
        if count:
            expected_log.append(
                f"{count} of {n_steps} steps fell back to the sparse LU "
                f"(alpha={alphas[i]:g}, dt={dt:g})"
            )
    assert log.records == expected_log


@settings(max_examples=200, deadline=None, derandomize=True)
@given(plan=loop_plans(), window=st.integers(1, 5), block=st.integers(1, 4))
def test_advance_window_hands_steps_and_observers_the_kept_states(plan, window, block):
    # a step that reads only the last `window` states gives the same rows
    # in advance as in a loop that keeps every state; advance holds only a
    # window and a block, its history is the reference's last rows, and
    # the blocks handed to the observers hold each returned row's states
    # once, in order
    k, n_steps, faults, fallbacks, alphas = plan
    dt, N = 0.25, 3
    C0 = np.arange(k * N, dtype=float).reshape(k, N) / 7
    histories = {"every": [], "window": []}

    def stepper(loop):
        def step(history, live_alphas, t):
            n = round(t / dt)
            histories[loop].append(history.copy())
            out = history[:, -window:].sum(axis=1) / 3 + live_alphas[:, None]
            stats = []
            for i in range(len(live_alphas)):
                kind = faults.get((i, n), "")
                stats.append({"fallback": (i, n) in fallbacks})
                if kind in ("error", "both"):
                    stats[-1]["error"] = RuntimeError(f"row {i} step {n}")
                if kind in ("nan", "both"):
                    out[i, i % N] = np.nan
            return out, stats

        return step

    blocks = []
    every, every_stats, every_failure = keep_every_state(stepper("every"), C0, alphas, dt, n_steps)
    with patch.object(trajectory, "BLOCK_VALUES", block * k * N), StateDumps(k, N, n_steps) as dumps:
        observers = [lambda b: blocks.append(b.copy()), dumps]
        windowed, failure = advance(
            stepper("window"), C0, alphas, dt, n_steps * dt, ListLog(), window, observers
        )
        for i in range(k):  # every state of a returned row, fewer of a failed one
            assert (dumps.written[i] == n_steps + 1) == (i < len(every))
            dumps.files[i].seek(0)
            payload = dumps.files[i].read().split(b"\n", 1)[1]
            if i < len(every):
                assert payload == every[i].tobytes()
    assert len(windowed) == len(every)
    assert str(failure) == str(every_failure) and type(failure) is type(every_failure)
    assert len(histories["window"]) == len(histories["every"])
    for whole, part in zip(histories["every"], histories["window"]):
        assert part.shape[1] == min(whole.shape[1], window)
        assert part.tobytes() == whole[:, -window:].tobytes()
    assert all(1 <= b.shape[1] <= block for b in blocks)
    for i, (states, part) in enumerate(zip(every, windowed)):
        assert part.first_step > 0 or n_steps + 1 <= window + block
        assert len(part.states) <= window + block
        assert part.first_step == n_steps + 1 - len(part.states)
        assert part.states.tobytes() == states[-len(part.states) :].tobytes()
        assert part.times.tolist() == (dt * np.arange(n_steps + 1)).tolist()
        assert part.solver_stats == every_stats[i]
        observed = np.concatenate([b[i] for b in blocks])
        assert observed.tobytes() == states.tobytes()


def test_advance_rejects_a_final_time_between_steps(chain5):
    # 0.5 / 0.3 steps: a loop of round(T/dt) = 2 steps would end at 0.6
    with pytest.raises(ValueError, match=r"whole number of steps dt, got T=0\.5, dt=0\.3"):
        graphfk.solve_fk_graph(chain5, np.full(5, 0.1), 0.61, dt=0.3, T=0.5)
    with pytest.raises(ValueError, match=r"T=0\.4, dt=0\.3"):
        graphfk.solve_fk_graph(chain5, np.full(5, 0.1), 0.61, dt=0.3, T=0.4)
    assert graphfk.solve_fk_graph(chain5, np.full(5, 0.1), 0.61, dt=0.05, T=0.35).n_steps == 7
