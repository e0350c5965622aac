#!/usr/bin/env python3
"""Record reference outputs for bench/checks.py from the current code.

    python3 bench/make_reference.py

Runs one worker sample per workload and seed in REFERENCE_SEEDS (and a
probe sample where the workload has one), checks the seed-independent
invariants, and writes the compared quantities to bench/reference.json,
replacing it.  Run it only on code whose answers are trusted: the gated
runs compare every later commit against these values.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import checks
from run import HERE, OUT, THREAD_ENV
from workloads import WORKLOADS, needs_probe

REFERENCE_SEEDS = range(12)


def run_worker(name, seed, mode):
    sample_dir = OUT / "reference" / f"{name}-{seed}-{mode}"
    if sample_dir.exists():
        shutil.rmtree(sample_dir)
    sample_dir.mkdir(parents=True)
    subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
            "--outdir", str(sample_dir), "--t-spawn", repr(time.monotonic()), "--mode", mode,
        ],
        check=True,
        env={**os.environ, **THREAD_ENV},
    )
    return sample_dir


def main():
    entries = {}
    for name, wl in sorted(WORKLOADS.items()):
        for seed in REFERENCE_SEEDS:
            sample_dir = run_worker(name, seed, "full")
            problems = checks.check(wl, seed, sample_dir, {})
            entry = checks.summarize(wl, sample_dir)
            if needs_probe(wl):
                probe_dir = run_worker(name, seed, "probe")
                problems += checks.check_probe(wl, seed, probe_dir, {})
                entry["probe"] = checks.read_probe(probe_dir)
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            entries.setdefault(name, {})[str(seed)] = entry
            shutil.rmtree(OUT / "reference")
            print(f"{name} seed {seed}: recorded", flush=True)
    with open(checks.REFERENCE_PATH, "w") as f:
        json.dump(
            {
                "curve_atol": checks.CURVE_ATOL,
                "time_atol": checks.TIME_ATOL,
                "probe_rtol": checks.PROBE_RTOL,
                "entries": entries,
            },
            f,
            separators=(",", ":"),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
