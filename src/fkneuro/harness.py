"""Experiment orchestration: single runs, alpha sweeps, mesh-vs-graph comparison.

Every entry point takes a validated SimulationConfig, loads or builds the
domain, runs the matching solver and writes CSV artifacts.  Outputs are
deterministic: fixed column orders, canonical float text, no time-seeded
randomness.
"""

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import SimulationConfig, parse_config_text, serialize_config
from .dg.stepper import solve_fk_mesh
from .dg.system import assemble
from .errors import ConfigError, FkneuroError, RegionVocabularyError
from .geometry.atlas import (
    MACROSTAGE_OF_STAGE,
    TABLES,
    build_braak_atlas,
    load_region_labels,
    slab_atlas,
)
from .geometry.connectome import load_connectome
from .geometry.mesh import DiffusionModel, load_mesh
from . import graphfk
from .staging import (
    braak_activation_order,
    reconstruct_macrostages,
    region_average_curves,
    spatial_average,
    stage_average_curves,
)
from .trajectory import Trajectory, first_crossing, fmt17, write_series_csv, write_state_dump

logger = logging.getLogger(__name__)

# conversion-rate sweep values used in the published sensitivity analyses
ABETA_ALPHAS = (0.08, 0.27, 0.61, 1.24, 2.18, 3.87, 6.30, 8.54)
TAU_ALPHAS = (0.20, 0.37, 0.52, 0.70, 0.98, 1.33, 1.89, 2.57)

SATURATION_LEVEL = 0.95  # normalized mean marking saturation onset


def max_workers_allowed(requested: int, n_jobs: int) -> int:
    cap = os.environ.get("FKNEURO_THREADS")
    limit = requested
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise ConfigError(f"FKNEURO_THREADS must be an integer, got {cap!r}")
    return max(1, min(requested, limit, n_jobs))


def build_atlas(cfg: SimulationConfig):
    if cfg.atlas_path:
        labels = load_region_labels(cfg.atlas_path)
        return build_braak_atlas(labels, table=TABLES[cfg.atlas_table])
    if cfg.atlas_table == "slabs":
        return slab_atlas()
    raise ConfigError("atlas_table=anatomical requires atlas_path")


def resolve_seed_regions(cfg: SimulationConfig, atlas, domain_ids) -> set:
    """Seed tokens -> region-id set: abeta/tau/all, stage names, or raw ids."""
    ids = set()
    for token in (t.strip() for t in cfg.seed_regions.split(",")):
        if not token:
            continue
        if token == "abeta":
            ids |= atlas.seed_abeta
        elif token == "tau":
            ids |= atlas.seed_tau
        elif token == "all":
            ids |= set(int(r) for r in domain_ids)
        elif token in atlas.stages:
            ids |= atlas.stages[token]
        else:
            try:
                ids.add(int(token))
            except ValueError:
                raise ConfigError(f"unknown seed region token {token!r}")
    present = ids & set(int(r) for r in domain_ids)
    if not present:
        raise ConfigError(
            f"seed spec {cfg.seed_regions!r} selects no region present in the domain"
        )
    return present


@dataclass
class RunResult:
    trajectory: Trajectory
    atlas: object
    domain: object  # DGSpace (mesh) or Connectome (graph)
    stage_curves: dict
    global_average: np.ndarray
    region_curves: dict
    paths: dict = field(default_factory=dict)


def _simulate(cfg: SimulationConfig) -> RunResult:
    cfg.validate()
    atlas = build_atlas(cfg)
    if cfg.domain == "mesh":
        if not cfg.mesh_path:
            raise ConfigError("domain=mesh requires mesh_path")
        mesh = load_mesh(cfg.mesh_path)
        atlas.validate_against(mesh.region_labels())
        model = DiffusionModel(d_ext=cfg.d_ext, d_axn=cfg.d_axn)
        model.validate()
        system = assemble(mesh, model, cfg.alpha, cfg.eta0, cfg.ell)
        seeds = resolve_seed_regions(cfg, atlas, mesh.region_labels())
        C0 = system.space.seed_vector(seeds, cfg.seed_value)
        traj = solve_fk_mesh(
            system,
            C0,
            cfg.dt,
            cfg.T,
            rtol=cfg.solver_tol,
            maxiter_factor=cfg.solver_maxit_factor,
        )
        domain = system.space
        all_ids = mesh.region_ids()
    else:
        if not cfg.graph_path:
            raise ConfigError("domain=graph requires graph_path")
        conn = load_connectome(cfg.graph_path, scale_k=cfg.scale_k)
        atlas.validate_against(conn.region_ids)
        seeds = resolve_seed_regions(cfg, atlas, conn.region_ids)
        C0 = graphfk.seed_vector(conn, seeds, cfg.seed_value)
        traj = graphfk.solve_fk_graph(
            conn, C0, cfg.alpha, cfg.dt, cfg.T, literal_rhs=cfg.paper_literal_rhs
        )
        domain = conn
        all_ids = sorted(int(r) for r in conn.region_ids)

    stage_curves = stage_average_curves(traj, atlas, domain)
    global_avg = spatial_average(traj, all_ids, domain)
    region_curves = region_average_curves(traj, all_ids, domain)
    return RunResult(
        trajectory=traj,
        atlas=atlas,
        domain=domain,
        stage_curves=stage_curves,
        global_average=global_avg,
        region_curves=region_curves,
    )


def write_staging_report(path, times, stage_curves: dict, c_crit: float):
    """Staging CSV: stage, activation time, macrostage; boundaries as comments.

    A macrostage inversion (later group activating first) is a legitimate
    simulation outcome; it is flagged in the report instead of failing the
    run.
    """
    lines = ["stage,activation_time_years,macrostage"]
    timeline = None
    try:
        timeline = reconstruct_macrostages(times, stage_curves, c_crit)
        lines.append(
            f"# macrostage boundaries: t1={fmt17(timeline.t1)} t2={fmt17(timeline.t2)} "
            f"c_crit={fmt17(c_crit)}"
        )
    except ValueError as exc:
        logger.warning("staging: %s", exc)
        lines.append(f"# warning: {exc}")
    for stage in stage_curves:
        t_act = first_crossing(times, stage_curves[stage], c_crit)
        value = fmt17(t_act) if t_act is not None else ""
        if t_act is None:
            lines.append(f"# warning: stage {stage} never reaches c_crit")
        lines.append(f"{stage},{value},{MACROSTAGE_OF_STAGE[stage]}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return timeline


def run(cfg: SimulationConfig, output_dir=None) -> RunResult:
    """Single simulation: trajectory, region-average and staging artifacts."""
    result = _simulate(cfg)
    outdir = Path(output_dir if output_dir is not None else cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    times = result.trajectory.times

    traj_cols = {f"avg_{s}": result.stage_curves[s] for s in result.stage_curves}
    traj_cols["avg_global"] = result.global_average
    traj_path = outdir / "trajectory.csv"
    write_series_csv(traj_path, times, traj_cols)

    region_cols = {
        f"region_{rid}": vals for rid, vals in result.region_curves.items()
    }
    region_cols["global"] = result.global_average
    region_path = outdir / "region_averages.csv"
    write_series_csv(region_path, times, region_cols)

    staging_path = outdir / "staging.csv"
    write_staging_report(staging_path, times, result.stage_curves, cfg.c_crit)

    order = braak_activation_order(times, result.stage_curves, cfg.c_crit)
    order_path = outdir / "activation_order.csv"
    with open(order_path, "w") as f:
        f.write("stage,activation_time_years\n")
        f.write(f"# order: {order.order}\n")
        for stage, t_act in order.entries:
            f.write(f"{stage},{fmt17(t_act) if t_act is not None else ''}\n")

    paths = {
        "trajectory": traj_path,
        "region_averages": region_path,
        "staging": staging_path,
        "activation_order": order_path,
    }
    if cfg.dump_states:
        state_path = outdir / "states.bin"
        write_state_dump(state_path, result.trajectory)
        paths["states"] = state_path
        if cfg.domain == "graph":
            node_path = outdir / "nodes.csv"
            _write_node_csv(node_path, result.trajectory, result.domain)
            paths["nodes"] = node_path
    result.paths = {k: str(v) for k, v in paths.items()}
    return result


def _write_node_csv(path, traj, conn):
    """Long-format node-level output: t,node_id,c, one write per time step."""
    id_fields = [f",{int(rid)}," for rid in conn.region_ids]
    with open(path, "w") as f:
        f.write("t,node_id,c\n")
        for t, row in zip(traj.times, traj.states):
            t_text = fmt17(t)
            f.write("".join(f"{t_text}{i}{fmt17(c)}\n" for i, c in zip(id_fields, row)))


def _sweep_one(cfg_text: str, alpha: float, outdir: str):
    cfg = parse_config_text(cfg_text)
    cfg.alpha = alpha
    cfg.output_dir = outdir
    result = run(cfg)
    times = result.trajectory.times
    t_half = first_crossing(times, result.global_average, 0.5)
    t_sat = first_crossing(times, result.global_average, SATURATION_LEVEL)
    return alpha, t_half, t_sat


def sweep(cfg: SimulationConfig, alphas, output_dir=None) -> Path:
    """One run per alpha; summary CSV with half-crossing and saturation times.

    Individual run failures abort the sweep after writing the rows already
    completed.  The half-crossing times must decrease strictly with alpha.
    """
    cfg.validate()
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ConfigError("empty alpha list")
    if any(a <= 0 for a in alphas):
        raise ConfigError("alpha values must be positive")
    outdir = Path(output_dir if output_dir is not None else cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_text = serialize_config(cfg)
    jobs = [(a, str(outdir / f"alpha_{a:g}")) for a in alphas]

    rows = []
    failure = None
    n_workers = max_workers_allowed(cfg.workers, len(alphas))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_sweep_one, cfg_text, a, d) for a, d in jobs]
            for fut in futures:
                try:
                    rows.append(fut.result())
                except Exception as exc:  # preserve partial results
                    failure = exc
                    break
    else:
        for a, d in jobs:
            try:
                rows.append(_sweep_one(cfg_text, a, d))
            except Exception as exc:
                failure = exc
                break

    summary = outdir / "sweep_summary.csv"
    with open(summary, "w") as f:
        f.write("alpha,t_half,t_saturation\n")
        for alpha, t_half, t_sat in rows:
            f.write(
                f"{fmt17(alpha)},"
                f"{fmt17(t_half) if t_half is not None else ''},"
                f"{fmt17(t_sat) if t_sat is not None else ''}\n"
            )
    if failure is not None:
        raise FkneuroError(
            f"sweep aborted after {len(rows)}/{len(alphas)} runs: {failure}"
        ) from failure

    halves = [t for _, t, _ in rows]
    if any(t is None for t in halves):
        missing = [a for (a, t, _) in rows if t is None]
        raise FkneuroError(
            f"global average never reaches 0.5 for alpha in {missing}; "
            f"increase T"
        )
    by_alpha = sorted(zip(alphas, halves))
    if any(b[1] >= a[1] for a, b in zip(by_alpha, by_alpha[1:])):
        raise FkneuroError(
            "t_half is not strictly decreasing in alpha: "
            + ", ".join(f"{a:g}->{fmt17(t)}" for a, t in by_alpha)
        )
    return summary


def compare(cfg_mesh: SimulationConfig, cfg_graph: SimulationConfig, output_dir) -> Path:
    """Mesh-vs-graph comparison over a shared region-id vocabulary.

    Runs both configurations, aligns per-region average curves on the mesh
    time grid, and reports the max absolute deviation plus activation-time
    differences (positive lead = graph activates earlier).
    """
    cfg_mesh.validate()
    cfg_graph.validate()
    if cfg_mesh.domain != "mesh" or cfg_graph.domain != "graph":
        raise ConfigError("compare expects a mesh config and a graph config")
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    res_mesh = run(cfg_mesh, output_dir=outdir / "mesh")
    res_graph = run(cfg_graph, output_dir=outdir / "graph")

    ids_mesh = set(res_mesh.region_curves)
    ids_graph = set(res_graph.region_curves)
    if ids_mesh != ids_graph:
        raise RegionVocabularyError(
            missing_in_mesh=ids_graph - ids_mesh,
            missing_in_graph=ids_mesh - ids_graph,
        )

    t_mesh = res_mesh.trajectory.times
    t_graph = res_graph.trajectory.times
    horizon = min(t_mesh[-1], t_graph[-1])
    grid = t_mesh[t_mesh <= horizon + 1e-12]
    c_crit = cfg_mesh.c_crit

    path = outdir / "comparison.csv"
    with open(path, "w") as f:
        f.write(
            "region_id,stage,max_abs_deviation,"
            "activation_time_mesh,activation_time_graph,activation_lead\n"
        )
        for rid in sorted(ids_mesh):
            mesh_vals = res_mesh.region_curves[rid][: len(grid)]
            graph_vals = np.interp(grid, t_graph, res_graph.region_curves[rid])
            dev = float(np.abs(mesh_vals - graph_vals).max())
            t_m = first_crossing(grid, mesh_vals, c_crit)
            t_g = first_crossing(grid, graph_vals, c_crit)
            lead = (t_m - t_g) if (t_m is not None and t_g is not None) else None
            stage = res_mesh.atlas.stage_of(rid) or ""
            f.write(
                f"{rid},{stage},{fmt17(dev)},"
                f"{fmt17(t_m) if t_m is not None else ''},"
                f"{fmt17(t_g) if t_g is not None else ''},"
                f"{fmt17(lead) if lead is not None else ''}\n"
            )
    return path
