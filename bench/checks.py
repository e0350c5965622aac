"""Correctness check of one workload sample's outputs.

Reads the files a worker wrote to its sample directory (the harness
outputs under ``out/``, or ``probe.json`` for a probe sample) and returns a
list of problems (empty when the sample is correct).  Two kinds of check:

* seed-independent invariants: every output readable and finite; on
  ``mesh-run`` the five stages activate in anatomical order; on every sweep
  the half-crossing times decrease strictly with alpha;
* for the seeds stored in ``reference.json``: stage curves, activation
  times, the sweep summary and the probe step agree with values recorded
  from the seed code, within CURVE_ATOL / TIME_ATOL / PROBE_RTOL.

The tolerances admit the few-1e-6 state changes an exact-quadrature or
solver rewrite may bring, and reject an answer that is wrong by more.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fkneuro.trajectory import read_series_csv, read_state_dump  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"

STAGES = ("II", "III", "IV", "V", "VI")
CURVE_COLUMNS = tuple(f"avg_{s}" for s in STAGES) + ("avg_global",)
N_CURVE_POINTS = 11  # time samples of each curve kept in the reference
CURVE_ATOL = 1e-4  # concentration, in [0, 1]
TIME_ATOL = 1e-3  # years
PROBE_RTOL = 1e-4  # relative, on each norm of the probe step
NONFINITE = {"nan", "-nan", "inf", "-inf", "+inf"}


def _data_lines(path):
    with open(path) as f:
        return [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]


def _opt(text):
    return float(text) if text else None


def read_curves(path):
    """trajectory.csv -> {column: values} for the stage and global columns."""
    _, columns = read_series_csv(path)
    return {name: vals for name, vals in columns.items() if name in CURVE_COLUMNS}


def read_activation(path):
    """activation_order.csv -> ({stage: time or None}, order verdict)."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    order = next(
        (ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("# order:")), ""
    )
    times = {}
    for ln in lines[1:]:
        if not ln.startswith("#"):
            stage, value = ln.split(",")
            times[stage] = _opt(value)
    return times, order


def read_summary(path):
    """sweep_summary.csv -> [[alpha, t_half, t_saturation], ...]."""
    rows = []
    for ln in _data_lines(path)[1:]:
        alpha, t_half, t_sat = ln.split(",")
        rows.append([float(alpha), _opt(t_half), _opt(t_sat)])
    return rows


def summarize_run(run_dir):
    curves = read_curves(run_dir / "trajectory.csv")
    n = len(next(iter(curves.values())))
    index = sorted({int(round(x)) for x in np.linspace(0, n - 1, N_CURVE_POINTS)})
    activation, order = read_activation(run_dir / "activation_order.csv")
    return {
        "n_times": n,
        "curve_index": index,
        "curves": {name: vals[index].tolist() for name, vals in curves.items()},
        "activation": activation,
        "order": order,
    }


def summarize(wl, sample_dir):
    """The compared quantities of one sample, as stored in reference.json."""
    outdir = Path(sample_dir) / "out"
    if wl.call == "run":
        return {"runs": {"run": summarize_run(outdir)}}
    return {
        "runs": {f"alpha_{a:g}": summarize_run(outdir / f"alpha_{a:g}") for a in wl.alphas},
        "summary": read_summary(outdir / "sweep_summary.csv"),
    }


def file_problems(outdir):
    """Output files that hold a NaN or infinity, or a state dump that does not read back."""
    problems = []
    for path in sorted(Path(outdir).rglob("*")):
        if path.suffix == ".csv":
            tokens = set(path.read_text().replace("\n", ",").lower().split(","))
            if tokens & NONFINITE:
                problems.append(f"non-finite values in {path.name}")
        elif path.suffix == ".bin":
            try:
                states = read_state_dump(path)
            except ValueError as exc:
                problems.append(f"unreadable state dump: {exc}")
                continue
            if not np.isfinite(states).all():
                problems.append(f"non-finite values in {path.name}")
    return problems


def invariants(wl, got):
    problems = []
    for label, run in got["runs"].items():
        missing = [c for c in CURVE_COLUMNS if c not in run["curves"]]
        if missing:
            problems.append(f"{label}: trajectory lacks columns {missing}")
    if wl.name == "mesh-run":
        run = got["runs"]["run"]
        times = [run["activation"].get(s) for s in STAGES]
        if run["order"] != "anatomical":
            problems.append(f"activation order is {run['order']!r}, not anatomical")
        if None in times or any(b <= a for a, b in zip(times, times[1:])):
            problems.append(f"stages do not activate in anatomical order: {times}")
    if wl.call == "sweep":
        rows = got["summary"]
        alphas = [r[0] for r in rows]
        if alphas != [float(a) for a in wl.alphas]:
            problems.append(f"sweep summary alphas {alphas} != {list(wl.alphas)}")
        by_alpha = sorted((r[0], r[1]) for r in rows)
        halves = [t for _, t in by_alpha]
        if None in halves or any(b >= a for a, b in zip(halves, halves[1:])):
            problems.append(f"t_half does not decrease strictly with alpha: {by_alpha}")
    return problems


def _time_problem(what, ref, got):
    if (ref is None) != (got is None):
        return f"{what}: {got} where the reference has {ref}"
    if ref is not None and abs(got - ref) > TIME_ATOL:
        return f"{what}: {got!r} differs from reference {ref!r} by more than {TIME_ATOL}"
    return None


def compare(ref, got):
    problems = []
    for label, ref_run in ref["runs"].items():
        run = got["runs"].get(label)
        if run is None:
            problems.append(f"{label}: run missing")
            continue
        if run["curve_index"] != ref_run["curve_index"]:
            problems.append(f"{label}: {run['n_times']} time points, reference {ref_run['n_times']}")
            continue
        for name, ref_vals in ref_run["curves"].items():
            vals = run["curves"].get(name)
            if vals is None:
                continue  # reported by invariants()
            err = float(np.max(np.abs(np.subtract(vals, ref_vals))))
            if not err <= CURVE_ATOL:
                problems.append(f"{label}: {name} differs from reference by {err:.3g}")
        for stage, ref_t in ref_run["activation"].items():
            p = _time_problem(f"{label}: activation of {stage}", ref_t, run["activation"].get(stage))
            if p:
                problems.append(p)
    if "summary" in ref:
        if [r[0] for r in got["summary"]] != [r[0] for r in ref["summary"]]:
            problems.append("sweep summary alphas differ from reference")
        else:
            for (alpha, *ref_ts), (_, *ts) in zip(ref["summary"], got["summary"]):
                for what, r, g in zip(("t_half", "t_saturation"), ref_ts, ts):
                    p = _time_problem(f"summary alpha={alpha:g} {what}", r, g)
                    if p:
                        problems.append(p)
    return problems


def load_reference():
    """Reference entries by workload and seed; raises if reference.json is missing."""
    with open(REFERENCE_PATH) as f:
        return json.load(f)["entries"]


def check(wl, seed, sample_dir, reference):
    """All problems found in one sample's outputs; [] means correct.

    ``reference`` is load_reference()'s result; {} checks the invariants only.
    """
    problems = file_problems(Path(sample_dir) / "out")
    try:
        got = summarize(wl, sample_dir)
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        return problems + [f"outputs unreadable: {exc!r}"]
    problems += invariants(wl, got)
    ref = reference.get(wl.name, {}).get(str(seed))
    if ref is not None:
        problems += compare(ref, got)
    return problems


def read_probe(sample_dir):
    with open(Path(sample_dir) / "probe.json") as f:
        return json.load(f)


def check_probe(wl, seed, sample_dir, reference):
    """Problems in a probe sample's step (see worker.probe); [] means correct."""
    try:
        got = read_probe(sample_dir)
    except (OSError, ValueError) as exc:
        return [f"probe unreadable: {exc!r}"]
    if not all(math.isfinite(v) for v in got.values()):
        return [f"probe step is not finite: {got}"]
    problems = []
    ref = reference.get(wl.name, {}).get(str(seed))
    for name, ref_v in (ref["probe"] if ref is not None else {}).items():
        v = got.get(name)
        if v is None or not abs(v - ref_v) <= PROBE_RTOL * abs(ref_v):
            problems.append(f"probe {name}: {v!r} differs from reference {ref_v!r}")
    return problems
