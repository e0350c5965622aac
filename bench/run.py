#!/usr/bin/env python3
"""fkneuro benchmark: time the harness on one workload, check its outputs.

    python3 bench/run.py --workload mesh-run --seed 0 --seconds 26 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

Every sample runs in a fresh worker process (bench/worker.py) with BLAS,
OpenMP and sweep parallelism pinned to one thread.  With ``--trace 0`` the
run repeats untraced samples for about ``--seconds`` seconds, then takes
SETUP_SAMPLES set-up-only samples, and reports the medians of the
end-to-end metrics.  ``setup_s`` comes from the set-up-only samples alone,
taken back to back, so that every run times set-up the same way.  Times
are scaled to a reference host speed sampled while they run (bench/speed.py).
With ``--trace 1`` it alternates untraced and traced samples and reports
the per-layer metrics of the traced ones.  On the workloads that seed every
region, either run also takes one untimed probe sample (see worker.probe).
Every sample's outputs go through bench/checks.py; a sample that raises or
fails the check counts as failed.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  A record with the environment and every sample goes to
bench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, needs_probe  # noqa: E402

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "FKNEURO_THREADS": "1",
}
END_TO_END = {"wall_s": "s", "dof_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
MAX_SAMPLES = 50
HARD_LIMIT_S = 165.0  # every run ends well inside the 180 s allowed


def environment():
    env = {
        "git_commit": None,
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "sweep_workers": 1,
    }
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        env["git_commit"] = out.stdout.strip() or None
    return env


def spawn(wl, seed, sample_dir, deadline, reference, mode="full", trace_file=None):
    """Run one worker process to completion; returns its result record."""
    if sample_dir.exists():
        shutil.rmtree(sample_dir)
    sample_dir.mkdir(parents=True)
    t_spawn = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", wl.name, "--seed", str(seed),
        "--outdir", str(sample_dir), "--t-spawn", repr(t_spawn), "--mode", mode,
    ]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    log_path = sample_dir / "worker.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
            env=dict(os.environ, **THREAD_ENV),
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    try:
        with open(sample_dir / "result.json") as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {"error": f"worker exited with {proc.returncode} and no result; log: {log_path}"}
    if mode == "full" and "error" not in result:
        result["problems"] = checks.check(wl, seed, sample_dir, reference)
        shutil.rmtree(sample_dir / "out")  # sweep outputs run to tens of MB
    elif mode == "probe" and "error" not in result:
        result["problems"] = checks.check_probe(wl, seed, sample_dir, reference)
    result["trace"] = trace_file is not None
    result["mode"] = mode
    return result


def failed(sample):
    return "error" in sample or bool(sample.get("problems"))


def measure(wl, seed, seconds, trace):
    """All samples of one benchmark run; returns (samples, metrics or None)."""
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    base = OUT / f"{wl.name}-seed{seed}-trace{trace}"
    if base.exists():
        shutil.rmtree(base)
    samples = []
    reference = checks.load_reference()

    def sample(mode="full", traced=False):
        i = len(samples)
        trace_file = base / f"trace-{i}.json" if traced else None
        samples.append(
            spawn(wl, seed, base / f"sample-{i}", hard_deadline, reference, mode, trace_file)
        )

    # repeat until the next sample (or pair) would end after the deadline
    while len(samples) < MAX_SAMPLES:
        t0 = time.monotonic()
        if trace:
            sample()
        sample(traced=bool(trace))
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            break
    if needs_probe(wl):
        sample(mode="probe")
    if not trace:
        for _ in range(SETUP_SAMPLES):
            if time.monotonic() > hard_deadline - 10:
                break
            sample(mode="setup")

    good = [s for s in samples if not failed(s) and s["mode"] == "full"]
    plain = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    setups = [s["setup_s"] for s in samples if not failed(s) and s["mode"] == "setup"]
    if not plain or (trace and not traced) or (not trace and not setups):
        return samples, None
    if trace:
        metrics = {
            name: statistics.median(s["layers"][name] for s in traced)
            for name in LAYER_METRICS if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(
            s["wall_s"] for s in traced
        ) - statistics.median(s["wall_raw_s"] for s in plain)
        units = LAYER_METRICS
    else:
        metrics = {
            name: statistics.median(s[name] for s in plain)
            for name in END_TO_END if name != "setup_s"
        }
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    return samples, {name: {"value": metrics[name], "unit": units[name]} for name in units}


def describe(wl, seed, samples, metrics):
    """Human-readable lines; the JSON result follows them."""
    n_bad = sum(failed(s) for s in samples)
    lines = [f"workload {wl.name} seed {seed}: {len(samples)} samples"]
    for s in samples:
        if failed(s):
            lines.append("  FAILED: " + (s.get("error") or "; ".join(s["problems"])).strip())
    for name, m in (metrics or {}).items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, mode in (("wall_raw_s", "full"), ("setup_raw_s", "setup")):
        values = [s[name] for s in samples if not failed(s) and not s["trace"] and s["mode"] == mode]
        if values:
            lines.append(f"  {name} = {statistics.median(values):.6g} s (measured, not scaled)")
    lines.append(f"  fail_ratio = {n_bad / len(samples):.6g} 1 ({n_bad}/{len(samples)})")
    return lines


def run_one(wl, seed, seconds, trace, env):
    samples, metrics = measure(wl, seed, seconds, trace)
    n_bad = sum(failed(s) for s in samples)
    result = {
        "correct": n_bad == 0,
        "attempted": len(samples),
        "failed": n_bad,
        "metrics": metrics,
    }
    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env, "result": result, "samples": samples,
    }
    if samples and "python" in samples[0]:
        for key in ("python", "numpy", "scipy", "fkneuro"):
            record["environment"][key] = samples[0][key]
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{wl.name}-seed{seed}-trace{trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    return result, describe(wl, seed, samples, metrics)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_one(WORKLOADS[name], args.seed, args.seconds, args.trace, env)
        print("\n".join(lines), flush=True)
        if result["metrics"] is None:
            print(f"error: no sample of {name} succeeded", file=sys.stderr)
            return 1
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
