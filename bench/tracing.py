"""Span recording around calls into fkneuro's layers, from outside the library.

Each wrapper replaces a public function at the module (or class) attribute
where its caller looks it up, records a span (name, start, end, parent)
in memory and optionally a few values taken from the arguments or the
result.  Self time is a span's duration minus the duration of its direct
children; the run is single-threaded, so children nest strictly.
"""

import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.values = defaultdict(list)  # name -> recorded numbers
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a timed wrapper; ``after(args, result)``
        may record values once the call returns."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def record(self, name, value):
        self.values[name].append(float(value))

    # -- reductions over the recorded spans ---------------------------------

    def _durations(self):
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                child[parent] += dur[i]
        return dur, child

    def totals(self):
        """name -> (calls, total seconds, self seconds, list of durations)."""
        dur, child = self._durations()
        out = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            calls, total, self_s, each = out.get(name, (0, 0.0, 0.0, []))
            each.append(dur[i])
            out[name] = (calls + 1, total + dur[i], self_s + dur[i] - child[i], each)
        return out

    def outermost_total(self, names):
        """Seconds spent in spans named in ``names`` not nested in another such span."""
        dur, _ = self._durations()
        total = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name in names and (parent is None or self.spans[parent][0] not in names):
                total += dur[i]
        return total

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


REDUCTIONS = ("staging.spatial_average", "staging.stage_average_curves")


def install(tracer, fkneuro):
    """Wrap the calls into each layer that fkneuro.run / fkneuro.sweep make."""
    harness = fkneuro.harness
    dg_system = fkneuro.dg.system
    dg_stepper = fkneuro.dg.stepper
    graphfk = fkneuro.graphfk
    staging = fkneuro.staging

    def file_bytes(key):
        return lambda args, result: tracer.record(key, os.path.getsize(args[0]))

    def mesh_loaded(args, mesh):
        tracer.record("mesh.elements", mesh.n_elements)
        tracer.record("mesh.internal_faces", len(mesh.internal_faces))

    def graph_loaded(args, conn):
        tracer.record("graph.nodes", conn.n_nodes)
        tracer.record("graph.edges", len(conn.edges))

    def stepped(args, result):
        stats = result[1]
        tracer.record("dg.cg_iters", stats["iterations"])
        tracer.record("dg.fallbacks", 1.0 if stats["fallback"] else 0.0)

    def states(args, traj):
        tracer.record("mem.states_bytes", traj.states.nbytes)

    # harness entry points: package attribute for the outer call, harness
    # module attribute for the per-alpha runs a sweep makes
    for owner in (fkneuro, harness):
        tracer.wrap(owner, "run", "harness.run")
        tracer.wrap(owner, "sweep", "harness.sweep")
    tracer.wrap(harness, "load_mesh", "mesh.load", after=mesh_loaded)
    tracer.wrap(harness, "load_connectome", "graph.load", after=graph_loaded)
    tracer.wrap(harness, "assemble", "dg.assemble")
    tracer.wrap(
        dg_system, "DGSpace", "dg.space",
        after=lambda args, space: tracer.record("dg.dofs", space.N),
    )
    tracer.wrap(dg_system.DGSystem, "nonlinear_reaction", "dg.nonlinear")
    tracer.wrap(harness, "solve_fk_mesh", "dg.loop", after=states)
    tracer.wrap(
        dg_stepper.MeshStepper, "__init__", "dg.factor",
        after=lambda args, _: tracer.record("dg.static_nnz", args[0].static_part.nnz),
    )
    tracer.wrap(dg_stepper.MeshStepper, "step", "dg.step", after=stepped)
    tracer.wrap(dg_stepper, "solve_linear", "dg.solve")
    tracer.wrap(graphfk, "solve_fk_graph", "graph.loop", after=states)
    tracer.wrap(graphfk, "step_cn_extrapolated", "graph.step")
    for owner in (harness, staging):
        tracer.wrap(owner, "spatial_average", "staging.spatial_average")
        tracer.wrap(owner, "stage_average_curves", "staging.stage_average_curves")
    tracer.wrap(harness, "braak_activation_order", "staging.activation")
    tracer.wrap(harness, "reconstruct_macrostages", "staging.activation")
    tracer.wrap(
        harness, "write_series_csv", "io.series_csv", after=file_bytes("io.series_csv_bytes")
    )
    tracer.wrap(
        harness, "write_state_dump", "io.state_dump", after=file_bytes("io.state_dump_bytes")
    )


# per-layer metric name -> unit; every traced run reports all of them, and
# a layer the workload does not reach reads 0
LAYER_METRICS = {
    "mesh.generate_s": "s",
    "mesh.write_s": "s",
    "mesh.load_s": "s",
    "mesh.elements": "count",
    "mesh.internal_faces": "count",
    "graph.generate_s": "s",
    "graph.write_s": "s",
    "graph.load_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "dg.space_s": "s",
    "dg.dofs": "count",
    "dg.assemble_s": "s",
    "dg.nonlinear_s": "s",
    "dg.nonlinear_calls": "count",
    "dg.static_nnz": "count",
    "dg.factor_s": "s",
    "dg.step_s": "s",
    "dg.step_self_s": "s",
    "dg.solve_s": "s",
    "dg.steps": "count",
    "dg.cg_iters_mean": "count",
    "dg.cg_iters_max": "count",
    "dg.fallbacks": "count",
    "graph.step_s": "s",
    "graph.step_p50_ms": "ms",
    "graph.steps": "count",
    "graph.loop_self_s": "s",
    "staging.reduce_s": "s",
    "staging.reduce_calls": "count",
    "staging.activation_s": "s",
    "io.series_csv_s": "s",
    "io.series_csv_bytes": "B",
    "io.state_dump_s": "s",
    "io.state_dump_bytes": "B",
    "mem.states_bytes": "B",
    "harness.run_self_s": "s",
    "harness.sweep_self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer):
    """Per-layer numbers of one traced workload call (all but trace.overhead_s)."""
    totals = tracer.totals()
    v = tracer.values

    def total(name):
        return totals.get(name, (0, 0.0, 0.0, []))[1]

    def self_time(name):
        return totals.get(name, (0, 0.0, 0.0, []))[2]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0, []))[0]

    def vmax(name):
        return max(v[name]) if v[name] else 0.0

    def vsum(name):
        return sum(v[name])

    graph_steps = totals.get("graph.step", (0, 0.0, 0.0, []))[3]
    return {
        "mesh.generate_s": total("mesh.generate"),
        "mesh.write_s": total("mesh.write"),
        "mesh.load_s": total("mesh.load"),
        "mesh.elements": vmax("mesh.elements"),
        "mesh.internal_faces": vmax("mesh.internal_faces"),
        "graph.generate_s": total("graph.generate"),
        "graph.write_s": total("graph.write"),
        "graph.load_s": total("graph.load"),
        "graph.nodes": vmax("graph.nodes"),
        "graph.edges": vmax("graph.edges"),
        "dg.space_s": total("dg.space"),
        "dg.dofs": vmax("dg.dofs"),
        "dg.assemble_s": self_time("dg.assemble"),
        "dg.nonlinear_s": total("dg.nonlinear"),
        "dg.nonlinear_calls": calls("dg.nonlinear"),
        "dg.static_nnz": vmax("dg.static_nnz"),
        "dg.factor_s": total("dg.factor"),
        "dg.step_s": total("dg.step"),
        "dg.step_self_s": self_time("dg.step"),
        "dg.solve_s": total("dg.solve"),
        "dg.steps": calls("dg.step"),
        "dg.cg_iters_mean": statistics.fmean(v["dg.cg_iters"]) if v["dg.cg_iters"] else 0.0,
        "dg.cg_iters_max": vmax("dg.cg_iters"),
        "dg.fallbacks": vsum("dg.fallbacks"),
        "graph.step_s": total("graph.step"),
        "graph.step_p50_ms": 1e3 * statistics.median(graph_steps) if graph_steps else 0.0,
        "graph.steps": calls("graph.step"),
        "graph.loop_self_s": self_time("graph.loop"),
        "staging.reduce_s": tracer.outermost_total(REDUCTIONS),
        "staging.reduce_calls": calls("staging.spatial_average"),
        "staging.activation_s": self_time("staging.activation"),
        "io.series_csv_s": total("io.series_csv"),
        "io.series_csv_bytes": vsum("io.series_csv_bytes"),
        "io.state_dump_s": total("io.state_dump"),
        "io.state_dump_bytes": vsum("io.state_dump_bytes"),
        "mem.states_bytes": vmax("mem.states_bytes"),
        "harness.run_self_s": self_time("harness.run"),
        "harness.sweep_self_s": self_time("harness.sweep"),
    }
