"""The four benchmark workloads: sizes, horizons and the harness call each makes.

This module is plain data, shared by the parent process, the worker
process and the check.
"""

from dataclasses import dataclass

# Published abeta conversion-rate list, pinned here so the benchmark does
# not move when the library's constant does.
ABETA_ALPHAS = (0.08, 0.27, 0.61, 1.24, 2.18, 3.87, 6.30, 8.54)


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str  # "mesh" | "graph"
    call: str  # "run" | "sweep"
    seed_regions: str
    T: float
    size: int  # cells per axis (mesh) or node count (graph)
    dim: int = 2  # mesh dimension
    alphas: tuple = ()  # sweep only
    dump_states: bool = False
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mesh-run",
            domain="mesh",
            call="run",
            seed_regions="tau",
            T=10.0,
            size=24,
            dim=2,
            why=(
                "fkneuro.run, 2D slab mesh n=24 (1152 triangles, N=6912), tau seed, "
                "T=10: the front travels through all five stages; the DG per-step path dominates"
            ),
        ),
        Workload(
            name="mesh-sweep",
            domain="mesh",
            call="sweep",
            seed_regions="all",
            T=0.5,
            size=5,
            dim=3,
            alphas=(6.3, 8.54),
            why=(
                "fkneuro.sweep, 3D tet slab mesh n=5 (750 tets, N=7500), alpha 6.3/8.54, "
                "T=0.5: per-alpha load, space, assembly and static LU dominate"
            ),
        ),
        Workload(
            name="graph-run",
            domain="graph",
            call="run",
            seed_regions="tau",
            T=2.0,
            size=1015,
            dump_states=True,
            why=(
                "fkneuro.run, ring+3M random edges graph M=1015, tau seed, T=2, states dumped: "
                "the sparse splu solve of every graph step dominates"
            ),
        ),
        Workload(
            name="graph-sweep",
            domain="graph",
            call="sweep",
            seed_regions="all",
            T=40.0,
            size=83,
            alphas=ABETA_ALPHAS,
            dump_states=True,
            why=(
                "fkneuro.sweep, ring+3M random edges graph M=83, 8 abeta alphas, T=40, "
                "states dumped: node CSV, series CSV and reductions dominate; dense solve path"
            ),
        ),
    )
}


def n_runs(wl: Workload) -> int:
    return len(wl.alphas) if wl.call == "sweep" else 1


def needs_probe(wl: Workload) -> bool:
    """Whether the check needs an extra step from a non-uniform state.

    Seeding every region gives a uniform state, which diffusion leaves
    unchanged; the harness outputs of such a workload test only the
    reaction term.
    """
    return wl.seed_regions == "all"
