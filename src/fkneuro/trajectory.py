"""Time-series state container and its CSV / binary output formats.

Concentration values are reported as computed: anything outside
[-0.05, 1.05] is flagged with a warning row in the CSV, never clipped.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

OVERSHOOT_LOW = -0.05
OVERSHOOT_HIGH = 1.05


def fmt17(x: float) -> str:
    """Canonical float text: 17 significant digits, reproducible."""
    return f"{float(x):.17g}"


@dataclass
class Trajectory:
    """Uniform-in-time states: DG coefficients (mesh) or nodal values (graph)."""

    times: np.ndarray  # (n_steps + 1,)
    states: np.ndarray  # (n_steps + 1, N)
    solver_stats: list = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states and times disagree on step count")
        if len(self.times) > 1:
            dts = np.diff(self.times)
            if not np.allclose(dts, dts[0], rtol=1e-12, atol=1e-12):
                raise ValueError("time grid is not uniform")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def write_series_csv(path, times, columns: dict):
    """Write `t,<col>,...` series with overshoot warning rows.

    ``columns`` maps column name -> 1D array aligned with ``times``.
    """
    names = list(columns)
    table = [np.asarray(times, dtype=float)]
    warnings = []
    for name in names:
        vals = np.asarray(columns[name], dtype=float)
        if not np.isfinite(vals).all():
            raise ValueError(f"column {name} contains non-finite values")
        bad = np.nonzero((vals < OVERSHOOT_LOW) | (vals > OVERSHOOT_HIGH))[0]
        for idx in bad:
            warnings.append(
                f"# warning: value out of range [-0.05, 1.05] at "
                f"t={fmt17(times[idx])} column={name}: {fmt17(vals[idx])}"
            )
        table.append(vals)
    # one %-template per row gives the text of fmt17 on every value
    row_text = ",".join(["%.17g"] * len(table)) + "\n"
    with open(path, "w") as f:
        f.write("\n".join(["t," + ",".join(names)] + warnings) + "\n")
        for row in np.column_stack(table):
            f.write(row_text % tuple(row.tolist()))
    if warnings:
        logger.warning("%s: %d out-of-range values flagged", path, len(warnings))


def read_series_csv(path):
    """Read back a `t,...` series CSV; returns (times, {name: values})."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    data_lines = [ln for ln in lines if not ln.startswith("#")]
    header = data_lines[0].split(",")
    if header[0] != "t":
        raise ValueError(f"{path}: not a series CSV (header {header[:3]}...)")
    rows = [[float(tok) for tok in ln.split(",")] for ln in data_lines[1:]]
    arr = np.array(rows)
    times = arr[:, 0]
    return times, {name: arr[:, i + 1] for i, name in enumerate(header[1:])}


STATE_MAGIC = "FKSTATE 1"


def write_state_dump(path, traj: Trajectory):
    """Binary full-state dump: ASCII header line, then row-major doubles.

    The header carries N and the step count; rows are the n_steps+1 states
    including the initial one.
    """
    n_states, N = traj.states.shape
    with open(path, "wb") as f:
        f.write(f"{STATE_MAGIC} {N} {n_states - 1}\n".encode("ascii"))
        f.write(np.ascontiguousarray(traj.states, dtype="<f8").tobytes())


def read_state_dump(path):
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").strip()
        parts = header.split()
        if " ".join(parts[:2]) != STATE_MAGIC or len(parts) != 4:
            raise ValueError(f"{path}: bad state-dump header {header!r}")
        N, n_steps = int(parts[2]), int(parts[3])
        payload = f.read()
    expected = (n_steps + 1) * N * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    states = np.frombuffer(payload, dtype="<f8").reshape(n_steps + 1, N)
    return states


def first_crossing(times, values, level) -> float | None:
    """First time the series reaches `level`, linearly interpolated.

    Returns None when the series never reaches the level.
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    at_or_above = values >= level
    if not at_or_above.any():
        return None
    k = int(np.argmax(at_or_above))
    if k == 0:
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    v0, v1 = values[k - 1], values[k]
    if v1 == v0:
        return float(t1)
    return float(t0 + (level - v0) * (t1 - t0) / (v1 - v0))
