"""One workload sample in a fresh process: build the seeded domain, then call the harness.

    python3 bench/worker.py --workload NAME --seed N --outdir DIR --t-spawn T
        [--mode full|setup|probe] [--trace-file PATH]

The parent passes the CLOCK_MONOTONIC time at which it spawned this process,
so ``setup_s`` covers interpreter start, ``import fkneuro`` and building
and writing the domain file.  After set-up, ``--mode full`` calls the
harness (outputs to DIR/out), ``setup`` stops, and ``probe`` takes one
solver step from a non-uniform state (see probe(); output DIR/probe.json).
Set-up and an untraced harness call are timed with a speed.Sampler, which
also gives their times scaled to the reference host speed.
The sample's numbers go to DIR/result.json.
"""

import argparse
import json
import math
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speed import Sampler

# Sample the host's speed from here on, through the imports and the domain
# building that set-up time covers; not in a traced sample, whose set-up
# spans the probes would land in, nor when another script imports this one.
SETUP = Sampler().start() if __name__ == "__main__" and "--trace-file" not in sys.argv else None

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fkneuro  # noqa: E402
from fkneuro.config import SimulationConfig  # noqa: E402
from fkneuro.dg.stepper import MeshStepper  # noqa: E402

from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, n_runs  # noqa: E402

EXTENT = 100.0  # mm, side of the slab domain
N_SLABS = 5


def long_range_edges(rng, n_nodes, count):
    """``count`` distinct region pairs that are neither ring neighbours nor repeats."""
    pairs = set()
    while len(pairs) < count:
        i, j = sorted(int(x) for x in rng.integers(1, n_nodes + 1, size=2))
        if j - i > 1 and not (i == 1 and j == n_nodes):
            pairs.add((i, j))
    return sorted(pairs)


def build_domain(wl, rng, outdir, tracer):
    """Generate and write the workload's domain; returns (path, unknowns per run).

    The slab mesh is fixed (fibres along the first axis); the seed draws
    the connectome's long-range edges.
    """
    geo = fkneuro.geometry
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if wl.domain == "mesh":
        path = outdir / "domain.fkmesh"
        with span("mesh.generate"):
            mesh = geo.generate_structured_mesh(
                wl.dim,
                wl.size,
                EXTENT,
                labeler=geo.slab_labeler(N_SLABS, EXTENT),
            )
        with span("mesh.write"):
            geo.write_mesh(mesh, path)
        ell = SimulationConfig().ell
        return path, mesh.n_elements * math.comb(ell + wl.dim, wl.dim)
    path = outdir / "domain.csv"
    with span("graph.generate"):
        conn = geo.generate_connectome(
            wl.size, "ring", extra_edges=long_range_edges(rng, wl.size, 3 * wl.size)
        )
    with span("graph.write"):
        geo.write_connectome(conn, path)
    return path, conn.n_nodes


def peak_rss_mb():
    """Peak resident memory of this process since it started, in MB.

    Not ``resource.getrusage``: Linux carries ``ru_maxrss`` across exec, so
    it would report the parent's resident set at fork time whenever that is
    the larger.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def probe(wl, domain_path, rng):
    """One solver step on the workload's domain from a seeded non-uniform state.

    The sweeps seed every region, so their states stay uniform and diffusion
    never acts on them.  This step puts the domain's Laplacian (graph) or
    its face, stiffness and static-LU path (mesh) into the check.  Returns
    a few norms of the step.
    """
    geo = fkneuro.geometry
    cfg = SimulationConfig()
    alpha = max(wl.alphas)
    if wl.domain == "mesh":
        model = geo.DiffusionModel(d_ext=cfg.d_ext, d_axn=cfg.d_axn)
        system = fkneuro.dg.assemble(geo.load_mesh(domain_path), model, alpha, cfg.eta0, cfg.ell)
        # a smooth wave (volume terms) plus a jump across every face (penalty terms)
        k = rng.integers(1, 4, size=wl.dim)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        c0 = system.space.project(
            lambda x: 0.5 + 0.3 * np.sin(2.0 * math.pi * (x @ k) / EXTENT + phase)
        ) + system.space.project_element_constants(
            rng.uniform(-0.1, 0.1, size=system.mesh.n_elements)
        )
        stepper = MeshStepper(
            system, cfg.dt, rtol=cfg.solver_tol, maxiter=int(cfg.solver_maxit_factor * system.N)
        )
        c1, _ = stepper.step(c0)
        diffusion = system.stiffness
    else:
        conn = geo.load_connectome(domain_path, scale_k=cfg.scale_k)
        c0 = rng.uniform(0.0, 1.0, size=conn.n_nodes)
        c1, _ = fkneuro.graphfk.step_cn_extrapolated(conn, c0, c0, alpha, cfg.dt)
        diffusion = conn.laplacian
    return {
        "energy": float(c0 @ (diffusion @ c0)),
        "norm": float(np.linalg.norm(c1)),
        "change": float(np.linalg.norm(c1 - c0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--mode", choices=("full", "setup", "probe"), default="full")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    outdir = Path(args.outdir)
    tracer = Tracer() if args.trace_file else None
    rng = np.random.default_rng(args.seed)
    result = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fkneuro": fkneuro.__version__,
    }
    try:
        domain_path, dofs = build_domain(wl, rng, outdir, tracer)
        if SETUP is None:
            result["setup_raw_s"] = result["setup_s"] = time.monotonic() - args.t_spawn
        else:
            result["setup_raw_s"], result["setup_s"] = SETUP.stop(since=args.t_spawn)
        if args.mode == "probe":
            with open(outdir / "probe.json", "w") as f:
                json.dump(probe(wl, domain_path, rng), f)
        elif args.mode == "full":
            cfg = SimulationConfig(
                domain=wl.domain,
                seed_regions=wl.seed_regions,
                T=wl.T,
                workers=1,
                dump_states=wl.dump_states,
                output_dir=str(outdir / "out"),
            )
            setattr(cfg, f"{wl.domain}_path", str(domain_path))
            # a traced call runs without the sampler, whose probes would
            # land inside the spans; its times are left unscaled
            if tracer is not None:
                install(tracer, fkneuro)
            sampler = Sampler().start() if tracer is None else None
            t0 = time.monotonic()
            if wl.call == "run":
                fkneuro.run(cfg)
            else:
                fkneuro.sweep(cfg, wl.alphas)
            wall_raw = wall = time.monotonic() - t0
            if sampler is not None:
                wall_raw, wall = sampler.stop()
            steps = int(round(cfg.T / cfg.dt)) * n_runs(wl)
            result.update(
                wall_raw_s=wall_raw,
                wall_s=wall,
                dof_steps_per_s=dofs * steps / wall,
                peak_rss_mb=peak_rss_mb(),
                dofs=dofs,
                steps=steps,
            )
            if tracer is not None:
                result["layers"] = layer_metrics(tracer)
                with open(args.trace_file, "w") as f:
                    json.dump({"spans": tracer.dump(), "values": tracer.values}, f)
    except Exception:
        result["error"] = traceback.format_exc()
    with open(outdir / "result.json", "w") as f:
        json.dump(result, f)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
