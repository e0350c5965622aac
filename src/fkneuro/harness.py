"""Experiment orchestration: single runs, alpha sweeps, mesh-vs-graph comparison.

Every entry point is one pipeline: ``_load`` validates a SimulationConfig,
loads its atlas and domain, checks one against the other and resolves the
seeds; then ``_runs`` solves, reduces and writes each (alpha, output
directory) job on that domain.  ``compare`` loads both domains before
either runs.  Outputs are deterministic: fixed column orders, canonical
float text, no time-seeded randomness.
"""

import logging
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
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
from .trajectory import (
    StateDumps,
    Trajectory,
    first_crossing,
    fmt17,
    step_count,
    write_series_csv,
    write_state_dump,
)

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


@dataclass
class _LoadedDomain:
    """What every run of one configuration shares, whatever its alpha."""

    atlas: object
    solver_domain: object  # DGSystem (mesh; see DGSystem.with_alpha) or Connectome
    domain: object  # what the states live on: DGSpace (every with_alpha shares it) or Connectome
    C0: np.ndarray
    region_ids: list


def _load(cfg: SimulationConfig) -> _LoadedDomain:
    """Atlas, domain and initial state of cfg; a mesh is assembled at cfg.alpha."""
    cfg.validate()
    atlas = build_atlas(cfg)
    if cfg.domain == "mesh":
        if not cfg.mesh_path:
            raise ConfigError("domain=mesh requires mesh_path")
        mesh = load_mesh(cfg.mesh_path)
        atlas.validate_against(mesh.regions)
        model = DiffusionModel(d_ext=cfg.d_ext, d_axn=cfg.d_axn)  # cfg.validate checked it
        system = assemble(mesh, model, cfg.alpha, cfg.eta0, cfg.ell)
        seeds = resolve_seed_regions(cfg, atlas, mesh.regions)
        C0 = system.space.seed_vector(seeds, cfg.seed_value)
        return _LoadedDomain(atlas, system, system.space, C0, np.unique(mesh.regions).tolist())
    if not cfg.graph_path:
        raise ConfigError("domain=graph requires graph_path")
    conn = load_connectome(cfg.graph_path, scale_k=cfg.scale_k)
    atlas.validate_against(conn.region_ids)
    seeds = resolve_seed_regions(cfg, atlas, conn.region_ids)
    C0 = graphfk.seed_vector(conn, seeds, cfg.seed_value)
    return _LoadedDomain(atlas, conn, conn, C0, sorted(int(r) for r in conn.region_ids))


class _Curves:
    """The curves a run reports, per row of a time loop: its Braak-stage
    curves, global average and region curves, each reduced through its
    ``staging`` function.

    As an observer of the loop, it reduces each block of states as it
    comes, the live rows of a block together, into one (curves, rows,
    n_states) table, so the loop need not keep the states.  A curve has
    the bits of one product over all its states (see
    staging._group_means).
    """

    def __init__(self, loaded: _LoadedDomain, n_states: int):
        self.loaded = loaded
        self.n_states = n_states
        self.stages = []
        self.table = None  # made at the first block: no later block has more rows
        self.filled = 0  # states reduced so far
        self.weights = {}

    def region_weight_matrix(self, groups):
        """The domain's weights of groups, built once for all the blocks of
        the loop: the reductions take this object as their domain."""
        key = tuple(map(tuple, groups))  # an equal key is the same grouping
        if key not in self.weights:
            self.weights[key] = self.loaded.domain.region_weight_matrix(groups)
        return self.weights[key]

    def __call__(self, block):
        live, b, N = block.shape
        states = block.reshape(live * b, N)
        atlas, ids = self.loaded.atlas, self.loaded.region_ids
        stages = stage_average_curves(states, atlas, self)
        average = spatial_average(states, ids, self)
        regions = region_average_curves(states, ids, self)
        if self.table is None:
            self.stages = list(stages)
            self.table = np.empty((len(stages) + 1 + len(regions), live, self.n_states))
        curves = [*stages.values(), average, *regions.values()]
        np.stack(  # straight into the table, with no copy of the block's curves
            [curve.reshape(live, b) for curve in curves],
            out=self.table[:, :live, self.filled : self.filled + b],
        )
        self.filled += b

    def of(self, row: int):
        """(stage curves, global average, region curves) of the loop's row."""
        table = self.table[:, row]
        S = len(self.stages)
        return (
            dict(zip(self.stages, table[:S])),
            table[S],
            dict(zip(self.loaded.region_ids, table[S + 1 :])),
        )


def _existing_dir(path: Path) -> Path:
    """path, or its nearest ancestor that is a directory."""
    return next(p for p in (path, *path.parents) if p.is_dir())


def _runs(cfg: SimulationConfig, loaded: _LoadedDomain, jobs):
    """The RunResult of each (alpha, output directory Path) of jobs in turn,
    on a domain `_load` has loaded for cfg.

    A mesh solves each alpha only when its result is asked for; a graph
    solves all its alphas in lockstep first (see
    graphfk.solve_fk_graph_alphas).  Either time loop keeps only a window
    of states, and hands each block of states to a _Curves observer and,
    where cfg.dump_states asks for the states, to a StateDumps observer
    that streams each row's states.bin.  After the results of the alphas
    before the first that fails, the generator raises that alpha's error,
    as runs one after another would; the dumps of the rows that do not
    finish are discarded, with nothing left on disk or open.
    """
    n_steps = step_count(cfg.T, cfg.dt)

    def open_dumps(rows: int, outdir: Path) -> StateDumps:
        # a dump as large as the run's states is written on the file system
        # its output goes to, not to a temporary directory that may be in
        # memory; the jobs of one loop share a parent directory
        rows = rows if cfg.dump_states else 0
        return StateDumps(rows, len(loaded.C0), n_steps, _existing_dir(outdir))

    if cfg.domain == "mesh":
        for alpha, outdir in jobs:  # no name here holds a trajectory past its yield
            curves = _Curves(loaded, n_steps + 1)
            with open_dumps(1, outdir) as dumps:
                yield _run_loaded(
                    replace(cfg, alpha=alpha), loaded, solve_fk_mesh(
                        loaded.solver_domain.with_alpha(alpha), loaded.C0, cfg.dt, cfg.T,
                        rtol=cfg.solver_tol, maxiter_factor=cfg.solver_maxit_factor,
                        observers=[curves, dumps],
                    ), curves, dumps, 0, outdir,
                )
        return
    curves = _Curves(loaded, n_steps + 1)
    with open_dumps(len(jobs), jobs[0][1]) as dumps:
        trajectories, failure = graphfk.solve_fk_graph_alphas(
            loaded.solver_domain, loaded.C0, [alpha for alpha, _ in jobs], cfg.dt, cfg.T,
            literal_rhs=cfg.paper_literal_rhs, observers=[curves, dumps],
        )
        for row, ((alpha, outdir), trajectory) in enumerate(zip(jobs, trajectories)):
            yield _run_loaded(
                replace(cfg, alpha=alpha), loaded, trajectory, curves, dumps, row, outdir
            )
    if failure is not None:
        raise failure


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


def run(cfg: SimulationConfig) -> RunResult:
    """Single simulation: trajectory, region-average and staging artifacts,
    and with cfg.dump_states the states (and a graph's nodes.csv), written
    to cfg.output_dir.  The result's trajectory holds the time loop's last
    window of states; the dump, streamed from the loop, holds all of them."""
    return next(_runs(cfg, _load(cfg), [(cfg.alpha, Path(cfg.output_dir))]))


def _run_loaded(
    cfg: SimulationConfig,
    loaded: _LoadedDomain,
    trajectory: Trajectory,
    curves: _Curves,
    dumps: StateDumps,
    row: int,
    outdir: Path,
) -> RunResult:
    """`run` of cfg on a domain already loaded for it, from its trajectory,
    row ``row`` of the time loop that ``curves`` reduced and ``dumps``
    wrote, into outdir.

    The trajectory holds the loop's last window of states, not all of them.
    A run that dumps its states puts its finished dump at states.bin; a
    graph run that does also writes nodes.csv, in the pass that writes
    region_averages.csv, from the text of its region columns (see
    write_series_csv).
    """
    domain = loaded.domain
    result = RunResult(trajectory, loaded.atlas, domain, *curves.of(row))
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
    paths = {"trajectory": traj_path, "region_averages": region_path}
    nodes = None
    if cfg.dump_states and cfg.domain == "graph":
        # a graph region is one node, so its region curve is the node's
        # state (a -0.0 state sums to +0.0): nodes.csv lists the text of
        # the region columns in the graph's node order
        paths["nodes"] = outdir / "nodes.csv"
        ids = domain.region_ids
        nodes = (paths["nodes"], ids, (f"region_{rid}" for rid in ids))
    write_series_csv(region_path, times, region_cols, nodes)

    staging_path = outdir / "staging.csv"
    write_staging_report(staging_path, times, result.stage_curves, cfg.c_crit)

    order = braak_activation_order(times, result.stage_curves, cfg.c_crit)
    order_path = outdir / "activation_order.csv"
    with open(order_path, "w") as f:
        f.write("stage,activation_time_years\n")
        f.write(f"# order: {order.order}\n")
        for stage, t_act in order.entries:
            f.write(f"{stage},{fmt17(t_act) if t_act is not None else ''}\n")

    paths["staging"] = staging_path
    paths["activation_order"] = order_path
    if cfg.dump_states:
        state_path = outdir / "states.bin"
        write_state_dump(state_path, dumps, row)
        paths["states"] = state_path
    result.paths = {k: str(v) for k, v in paths.items()}
    return result


def _crossings(result: RunResult):
    """Half-crossing and saturation times of a run's global average."""
    times = result.trajectory.times
    return (
        first_crossing(times, result.global_average, 0.5),
        first_crossing(times, result.global_average, SATURATION_LEVEL),
    )


class _WorkerTraceback(Exception):
    """Traceback text of an exception raised in a sweep worker process."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _sweep_batch(cfg_text: str, jobs):
    """Runs at each (alpha, outdir) of jobs, in order, on one load of the domain.

    The results come from ``_runs`` (a graph batch solves its alphas in
    lockstep, a mesh batch one alpha at a time), and each is reduced and
    written before the next is taken.  Returns the summary rows of the runs
    that finished, the exception that stopped the batch and its formatted
    traceback, or None and None.
    """
    rows = []
    try:
        cfg = replace(parse_config_text(cfg_text), alpha=jobs[0][0])
        results = _runs(cfg, _load(cfg), jobs)
        for alpha, _ in jobs:  # no name holds a result while the next is solved
            rows.append((alpha, *_crossings(next(results))))
    except Exception as exc:  # the rows before it are still written
        return rows, exc, traceback.format_exc()
    return rows, None, None


def sweep(cfg: SimulationConfig, alphas) -> Path:
    """One run per alpha; summary CSV with half-crossing and saturation times,
    all written under cfg.output_dir.

    The alphas are split into contiguous batches, one per worker, and each
    batch loads and assembles its domain once.  A batch takes its
    results from the generator a single run takes its one from
    (``_runs``): a graph batch advances its alphas in lockstep, as
    the rows of one time loop (see graphfk.solve_fk_graph_alphas), and a
    mesh batch solves one alpha at a time; each per-alpha output is
    byte-identical to that of a single run.  Individual run failures abort
    the sweep after writing the rows completed before the first failing
    alpha, with that alpha's error, as a sweep running its alphas one after
    another would.  The half-crossing times must decrease strictly with
    alpha.  Each alpha writes to ``alpha_{alpha:g}``, so two alphas that
    agree to 6 significant digits are rejected before any run, as is an
    alpha with dt*alpha at or above its domain's bound (see
    SimulationConfig.check_step_size).
    """
    cfg.validate()
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ConfigError("empty alpha list")
    if any(a <= 0 for a in alphas):
        raise ConfigError("alpha values must be positive")
    for a in alphas:
        cfg.check_step_size(a)
    dirs = {}  # output directory name -> alpha; %g keeps 6 significant digits
    for a in alphas:
        name = f"alpha_{a:g}"
        if name in dirs:
            raise ConfigError(
                f"alphas {dirs[name]!r} and {a!r} would share the output directory {name}"
            )
        dirs[name] = a
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_text = serialize_config(cfg)
    jobs = [(a, outdir / name) for name, a in dirs.items()]

    n_workers = max_workers_allowed(cfg.workers, len(alphas))
    if n_workers > 1:
        bounds = [len(jobs) * i // n_workers for i in range(n_workers + 1)]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_sweep_batch, cfg_text, jobs[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])
            ]
            outcomes = []
            for fut in futures:
                try:
                    outcomes.append(fut.result())
                except Exception as exc:  # the pool itself failed
                    outcomes.append(([], exc, None))
    else:
        outcomes = [_sweep_batch(cfg_text, jobs)]
    rows, failure = [], None
    for batch_rows, failure, trace in outcomes:
        rows += batch_rows
        if failure is not None:
            if failure.__traceback__ is None:  # pickled back from a worker
                failure.__cause__ = _WorkerTraceback(trace)
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

    Loads and checks both domains (the graph first: the mesh load also
    assembles) and then their region vocabularies before either side runs
    and writes under ``mesh`` or ``graph`` of output_dir.  Aligns per-region
    average curves on the mesh time grid, and reports the max absolute
    deviation plus activation-time differences (positive lead = graph
    activates earlier).
    """
    if cfg_mesh.domain != "mesh" or cfg_graph.domain != "graph":
        raise ConfigError("compare expects a mesh config and a graph config")
    loaded_graph = _load(cfg_graph)
    loaded_mesh = _load(cfg_mesh)
    ids_mesh, ids_graph = set(loaded_mesh.region_ids), set(loaded_graph.region_ids)
    if ids_mesh != ids_graph:
        raise RegionVocabularyError(
            missing_in_mesh=ids_graph - ids_mesh,
            missing_in_graph=ids_mesh - ids_graph,
        )
    outdir = Path(output_dir)
    (res_mesh,) = _runs(cfg_mesh, loaded_mesh, [(cfg_mesh.alpha, outdir / "mesh")])
    (res_graph,) = _runs(cfg_graph, loaded_graph, [(cfg_graph.alpha, outdir / "graph")])

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
