"""Weighted connectome graphs and their Laplacian.

Nodes are brain regions (with coordinates and volumes), edges are axonal
tract bundles.  Edge weights are k * n_ij / l_ij where n_ij is the tract
count and l_ij the mean tract length; the graph Laplacian L = K - A is the
discrete diffusion operator.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import GraphConnectivityError, GraphFormatError
from .atlas import region_weight_matrix

logger = logging.getLogger(__name__)


@dataclass
class Connectome:
    """Immutable weighted graph over brain regions.

    ``region_ids`` are the external node names (atlas region ids); all
    matrix quantities are indexed by node position in that list.
    """

    region_ids: np.ndarray
    coords: np.ndarray  # (M, 3) mm
    volumes: np.ndarray  # (M,) mm^3
    edges: list[tuple[int, int, float, float]]  # (i_idx, j_idx, n_ij, l_ij)
    scale_k: float = 1.0
    weights: np.ndarray = field(init=False)
    degree: np.ndarray = field(init=False)  # (M,) weighted degree, diagonal of L
    laplacian: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        self.region_ids = np.asarray(self.region_ids, dtype=int)
        self.coords = np.asarray(self.coords, dtype=float)
        self.volumes = np.asarray(self.volumes, dtype=float)
        M = len(self.region_ids)
        if len(set(self.region_ids.tolist())) != M:
            raise GraphFormatError("duplicate region ids among nodes")
        if (self.volumes <= 0).any():
            bad = self.region_ids[self.volumes <= 0].tolist()
            raise GraphFormatError(f"non-positive node volumes for regions {bad}")
        seen = set()
        w = []
        for i, j, n_ij, l_ij in self.edges:
            if i == j:
                raise GraphFormatError(
                    f"self-edge on region {self.region_ids[i]}"
                )
            if not 0 <= i < M or not 0 <= j < M:
                raise GraphFormatError(f"edge ({i}, {j}) references unknown node")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphFormatError(
                    f"duplicate edge between regions "
                    f"{self.region_ids[i]} and {self.region_ids[j]}"
                )
            seen.add(key)
            if l_ij <= 0:
                raise GraphFormatError(
                    f"edge ({self.region_ids[i]}, {self.region_ids[j]}): "
                    f"mean tract length {l_ij} must be > 0"
                )
            if n_ij <= 0:
                raise GraphFormatError(
                    f"edge ({self.region_ids[i]}, {self.region_ids[j]}): "
                    f"tract count {n_ij} must be > 0"
                )
            w.append(self.scale_k * n_ij / l_ij)
        self.weights = np.array(w, dtype=float)
        self.degree, self.laplacian = self._assemble_laplacian()

    def _assemble_laplacian(self) -> tuple[np.ndarray, sp.csr_matrix]:
        M = self.n_nodes
        rows, cols, vals = [], [], []
        degree = np.zeros(M)
        for (i, j, _, _), w in zip(self.edges, self.weights):
            rows += [i, j]
            cols += [j, i]
            vals += [-w, -w]
            degree[i] += w
            degree[j] += w
        rows += list(range(M))
        cols += list(range(M))
        vals += degree.tolist()
        return degree, sp.csr_matrix((vals, (rows, cols)), shape=(M, M))

    @property
    def n_nodes(self) -> int:
        return len(self.region_ids)

    def region_weights(self, region_ids) -> np.ndarray:
        """Weights w, shape (M,), with w @ C the volume-weighted mean of the
        nodal state C over the regions."""
        return self.region_weight_matrix([region_ids]).toarray()[:, 0]

    def region_weight_matrix(self, groups) -> sp.csc_matrix:
        """Weights W, shape (M, G), with states @ W the mean over each of
        the disjoint groups of region ids."""
        return region_weight_matrix(
            self.region_ids, self.volumes, self.volumes[:, None], groups, "graph"
        )

    def components(self) -> list[set[int]]:
        """Connected components as sets of region ids."""
        adj: dict[int, list[int]] = {i: [] for i in range(self.n_nodes)}
        for i, j, _, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        unseen = set(range(self.n_nodes))
        comps = []
        while unseen:
            stack = [min(unseen)]
            unseen.discard(stack[0])
            comp = set()
            while stack:
                u = stack.pop()
                comp.add(int(self.region_ids[u]))
                for v in adj[u]:
                    if v in unseen:
                        unseen.discard(v)
                        stack.append(v)
            comps.append(comp)
        return comps

    def validate(self, require_connected: bool = True):
        if require_connected:
            comps = self.components()
            if len(comps) > 1:
                raise GraphConnectivityError(comps)
        L = self.laplacian
        row_sums = np.abs(np.asarray(L.sum(axis=1)).ravel())
        scale = max(np.abs(L.data).max(), 1e-30) if L.nnz else 1.0
        if (row_sums > 1e-12 * scale).any():
            raise GraphFormatError("Laplacian row sums are not zero")


# ---------------------------------------------------------------------------
# CSV file format

_MAGIC = "# FKGRAPH 1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_connectome(conn: Connectome, path):
    lines = [f"{_MAGIC}, k={_fmt(conn.scale_k)}"]
    lines.append("node,region_id,x,y,z,volume")
    for rid, xyz, vol in zip(conn.region_ids, conn.coords, conn.volumes):
        lines.append(
            f"node,{int(rid)},{_fmt(xyz[0])},{_fmt(xyz[1])},{_fmt(xyz[2])},{_fmt(vol)}"
        )
    lines.append("edge,i,j,n_ij,l_ij")
    for i, j, n_ij, l_ij in conn.edges:
        lines.append(
            f"edge,{int(conn.region_ids[i])},{int(conn.region_ids[j])},"
            f"{_fmt(n_ij)},{_fmt(l_ij)}"
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_connectome(path, scale_k: float | None = None) -> Connectome:
    """Load the CSV edge-list format; weights are k * n_ij / l_ij.

    The calibration factor k comes from the file header unless overridden
    by ``scale_k``.
    """
    with open(path) as f:
        raw = f.readlines()
    if not raw or not raw[0].startswith("# FKGRAPH"):
        raise GraphFormatError("missing '# FKGRAPH' header")
    header = raw[0].strip()
    if not header.startswith(_MAGIC):
        raise GraphFormatError(f"unsupported connectome version: {header!r}")
    k_file = 1.0
    if "k=" in header:
        try:
            k_file = float(header.split("k=", 1)[1].split(",")[0])
        except ValueError:
            raise GraphFormatError(f"bad k value in header: {header!r}")
    k = scale_k if scale_k is not None else k_file

    node_rows = []
    edge_rows = []
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        kind = parts[0]
        if kind == "node":
            if parts[1] == "region_id":
                continue  # column header row
            if len(parts) not in (5, 6):
                raise GraphFormatError(f"line {lineno}: malformed node row")
            try:
                rid = int(parts[1])
                xyz = [float(p) for p in parts[2:5]]
                vol = float(parts[5]) if len(parts) == 6 and parts[5] else 1.0
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad node field")
            node_rows.append((rid, xyz, vol))
        elif kind == "edge":
            if parts[1] == "i":
                continue
            if len(parts) != 5:
                raise GraphFormatError(f"line {lineno}: malformed edge row")
            try:
                i, j = int(parts[1]), int(parts[2])
                n_ij, l_ij = float(parts[3]), float(parts[4])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad edge field")
            edge_rows.append((i, j, n_ij, l_ij))
        else:
            raise GraphFormatError(
                f"line {lineno}: unknown row kind {kind!r} (want node/edge)"
            )

    if not node_rows:
        raise GraphFormatError("no node rows found")
    region_ids = [r for r, _, _ in node_rows]
    index = {rid: i for i, rid in enumerate(region_ids)}
    if len(index) != len(region_ids):
        raise GraphFormatError("duplicate region ids among nodes")
    edges = []
    for i, j, n_ij, l_ij in edge_rows:
        if i not in index or j not in index:
            missing = [r for r in (i, j) if r not in index]
            raise GraphFormatError(f"edge ({i}, {j}) references unknown regions {missing}")
        edges.append((index[i], index[j], n_ij, l_ij))

    conn = Connectome(
        region_ids=np.array(region_ids),
        coords=np.array([xyz for _, xyz, _ in node_rows]),
        volumes=np.array([v for _, _, v in node_rows]),
        edges=edges,
        scale_k=k,
    )
    conn.validate(require_connected=True)
    return conn


# ---------------------------------------------------------------------------
# Synthetic generators


def generate_connectome(
    n_nodes: int,
    topology: str = "chain",
    tract_count: float = 10.0,
    tract_length: float = 10.0,
    volume: float = 1000.0,
    scale_k: float = 1.0,
    extra_edges: list[tuple[int, int]] | None = None,
) -> Connectome:
    """Synthetic connectome with region ids 1..n_nodes.

    Topologies: 'chain' (path graph, preserves sequential invasion),
    'ring', 'complete'.  ``extra_edges`` adds shortcuts as (region_i,
    region_j) pairs.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    ids = np.arange(1, n_nodes + 1)
    coords = np.zeros((n_nodes, 3))
    coords[:, 0] = np.arange(n_nodes, dtype=float) * tract_length
    volumes = np.full(n_nodes, float(volume))
    pairs: list[tuple[int, int]] = []
    if topology == "chain":
        pairs = [(i, i + 1) for i in range(n_nodes - 1)]
    elif topology == "ring":
        pairs = [(i, (i + 1) % n_nodes) for i in range(n_nodes)] if n_nodes > 2 else [
            (i, i + 1) for i in range(n_nodes - 1)
        ]
    elif topology == "complete":
        pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    else:
        raise ValueError(f"unknown topology {topology!r}")
    if extra_edges:
        index = {int(r): i for i, r in enumerate(ids)}
        for ri, rj in extra_edges:
            pairs.append((index[int(ri)], index[int(rj)]))
    edges = [(i, j, float(tract_count), float(tract_length)) for i, j in pairs]
    conn = Connectome(
        region_ids=ids, coords=coords, volumes=volumes, edges=edges, scale_k=scale_k
    )
    conn.validate(require_connected=n_nodes > 1)
    return conn
