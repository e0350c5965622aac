"""Tests of the benchmark's correctness check (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_checks.py

One real graph-sweep sample is produced with the benchmark's own worker;
the check must pass it as written, still pass it after a change far below
the tolerances, and count it as failed after a wrong answer is planted in
any of the compared outputs or the probe step, or a state dump is cut short.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WL = WORKLOADS["graph-sweep"]
SEED = 0


def run_worker(outdir, mode):
    subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", WL.name, "--seed", str(SEED),
            "--outdir", str(outdir), "--t-spawn", repr(time.monotonic()), "--mode", mode,
        ],
        check=True,
        timeout=170,
    )
    return outdir


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    return run_worker(tmp_path_factory.mktemp("sample"), "full")


@pytest.fixture(scope="module")
def probe_sample(tmp_path_factory):
    return run_worker(tmp_path_factory.mktemp("probe"), "probe")


@pytest.fixture
def sample_dir(sample, tmp_path):
    copy = tmp_path / "sample"
    shutil.copytree(sample, copy)
    return copy


@pytest.fixture(scope="module")
def reference():
    ref = checks.load_reference()
    assert str(SEED) in ref.get(WL.name, {}), "reference.json lacks the default seed"
    return ref


def edit_trajectory(path, column, row, delta):
    """Add ``delta`` to one data value of a trajectory CSV."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = [i for i, ln in enumerate(lines) if i > 0 and not ln.startswith("#")]
    fields = lines[data[row]].split(",")
    col = header.index(column)
    fields[col] = repr(float(fields[col]) + delta)
    lines[data[row]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_written_outputs_pass(sample_dir, reference):
    assert checks.check(WL, SEED, sample_dir, reference) == []


def test_change_below_tolerance_passes(sample_dir, reference):
    edit_trajectory(sample_dir / "out" / "alpha_0.61" / "trajectory.csv", "avg_III", 400, 3e-6)
    assert checks.check(WL, SEED, sample_dir, reference) == []


def test_perturbed_curve_fails(sample_dir, reference):
    edit_trajectory(sample_dir / "out" / "alpha_0.61" / "trajectory.csv", "avg_III", 400, 1e-3)
    problems = checks.check(WL, SEED, sample_dir, reference)
    assert any("avg_III" in p for p in problems)


def test_perturbed_summary_fails(sample_dir, reference):
    path = sample_dir / "out" / "sweep_summary.csv"
    lines = path.read_text().splitlines()
    alpha, t_half, t_sat = lines[3].split(",")
    lines[3] = ",".join([alpha, repr(float(t_half) * 1.01), t_sat])
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check(WL, SEED, sample_dir, reference)
    assert any("t_half" in p for p in problems)


def test_non_monotone_sweep_fails_for_any_seed(sample_dir):
    path = sample_dir / "out" / "sweep_summary.csv"
    lines = path.read_text().splitlines()
    first, second = lines[1].split(","), lines[2].split(",")
    first[1], second[1] = second[1], first[1]
    lines[1], lines[2] = ",".join(first), ",".join(second)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check(WL, SEED, sample_dir, {})  # invariants only
    assert any("decrease strictly" in p for p in problems)


def test_non_finite_output_fails(sample_dir):
    path = sample_dir / "out" / "alpha_8.54" / "nodes.csv"
    lines = path.read_text().splitlines()
    t, node, _ = lines[5].split(",")
    lines[5] = f"{t},{node},nan"
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check(WL, SEED, sample_dir, {})
    assert problems == ["non-finite values in nodes.csv"]


def test_probe_passes_and_perturbed_probe_fails(probe_sample, tmp_path, reference):
    assert checks.check_probe(WL, SEED, probe_sample, reference) == []
    probe = checks.read_probe(probe_sample)
    probe["energy"] *= 1.001
    (tmp_path / "probe.json").write_text(json.dumps(probe))
    problems = checks.check_probe(WL, SEED, tmp_path, reference)
    assert any("probe energy" in p for p in problems)


def test_truncated_state_dump_fails(sample_dir):
    path = sample_dir / "out" / "alpha_0.08" / "states.bin"
    path.write_bytes(path.read_bytes()[:-8])
    problems = checks.check(WL, SEED, sample_dir, {})
    assert any("unreadable state dump" in p for p in problems)


def test_missing_output_fails(sample_dir, reference):
    (sample_dir / "out" / "alpha_2.18" / "activation_order.csv").unlink()
    assert checks.check(WL, SEED, sample_dir, reference)
