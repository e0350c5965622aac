"""Weighted connectome graphs and their Laplacian.

Nodes are brain regions (with coordinates and volumes), edges are axonal
tract bundles.  Edge weights are k * n_ij / l_ij where n_ij is the tract
count and l_ij the mean tract length; the graph Laplacian L = K - A is the
discrete diffusion operator.

A connectome holds its edges as columns (`Edges`); its checks, weights,
degrees and Laplacian are each one array pass over them.  Its CSV file is
parsed in array passes too: patterns over the whole text sort the lines
into node and edge rows, and one ``np.loadtxt`` call per kind converts
their numeric columns, so no field is converted in Python row by row.  Only
a file that these passes reject is scanned again, line by line, to name its
first bad line.
"""

import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import GraphConnectivityError, GraphFormatError
from .atlas import region_weight_matrix


@dataclass
class Edges:
    """Edges as columns: ``nodes`` (E, 2) node indices, tract ``counts``
    n_ij (E,) and mean tract ``lengths`` l_ij (E,)."""

    nodes: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=int).reshape(-1, 2)
        self.counts = np.asarray(self.counts, dtype=float)
        self.lengths = np.asarray(self.lengths, dtype=float)
        if not len(self.nodes) == len(self.counts) == len(self.lengths):
            raise GraphFormatError("edge columns differ in length")

    def __len__(self) -> int:
        return len(self.nodes)


def _positive(x):
    """Mask of the entries that are finite and > 0."""
    return np.isfinite(x) & (x > 0)


@dataclass
class Connectome:
    """Immutable weighted graph over brain regions.

    ``region_ids`` are the external node names (atlas region ids); all
    matrix quantities are indexed by node position in that list.
    """

    region_ids: np.ndarray
    coords: np.ndarray  # (M, 3) mm
    volumes: np.ndarray  # (M,) mm^3
    edges: Edges
    scale_k: float = 1.0
    weights: np.ndarray = field(init=False)
    degree: np.ndarray = field(init=False)  # (M,) weighted degree, diagonal of L
    laplacian: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        self.region_ids = np.asarray(self.region_ids, dtype=int)
        self.coords = np.asarray(self.coords, dtype=float)
        self.volumes = np.asarray(self.volumes, dtype=float)
        M = len(self.region_ids)
        if len(np.unique(self.region_ids)) != M:
            raise GraphFormatError("duplicate region ids among nodes")
        finite = np.isfinite(self.coords).all(axis=1)
        if not finite.all():
            bad = self.region_ids[~finite].tolist()
            raise GraphFormatError(f"node coordinates must be finite for regions {bad}")
        if not _positive(self.volumes).all():
            bad = self.region_ids[~_positive(self.volumes)].tolist()
            raise GraphFormatError(f"node volumes must be finite and > 0 for regions {bad}")
        if not _positive(self.scale_k):
            raise GraphFormatError(f"k must be finite and > 0, got {self.scale_k}")
        self._check_edges()
        self.weights = self.scale_k * self.edges.counts / self.edges.lengths
        # ends i, j of every edge in turn, each with the edge's weight (an int
        # count when E = 0); L's triplets: (i, j, -w), (j, i, -w), then the diagonal
        ends, end_weights = self.edges.nodes.ravel(), np.repeat(self.weights, 2)
        self.degree = np.bincount(ends, end_weights, M).astype(float, copy=False)
        diag = np.arange(M)
        rows = np.concatenate([ends, diag])
        cols = np.concatenate([self.edges.nodes[:, ::-1].ravel(), diag])
        vals = np.concatenate([-end_weights, self.degree])
        self.laplacian = sp.csr_matrix((vals, (rows, cols)), shape=(M, M))

    def _check_edges(self):
        """Raise GraphFormatError for the first bad edge, checked for, in
        this order: a self-edge, an unknown node, an earlier edge between
        the same nodes, a length and a count not finite and > 0."""
        nodes = self.edges.nodes
        known = ((nodes >= 0) & (nodes < self.n_nodes)).all(axis=1)
        self_edge = known & (nodes[:, 0] == nodes[:, 1])
        keys = np.sort(nodes, axis=1)  # an undirected edge's key
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        repeat = first[inverse.ravel()] != np.arange(len(nodes))
        bad_length = ~_positive(self.edges.lengths)
        bad_count = ~_positive(self.edges.counts)
        bad = np.flatnonzero(~known | self_edge | repeat | bad_length | bad_count)
        if not bad.size:
            return
        e = bad[0]
        i, j = nodes[e].tolist()
        if self_edge[e]:
            raise GraphFormatError(f"self-edge on region {self.region_ids[i]}")
        if not known[e]:
            raise GraphFormatError(f"edge ({i}, {j}) references unknown node")
        ri, rj = self.region_ids[[i, j]].tolist()
        if repeat[e]:
            raise GraphFormatError(f"duplicate edge between regions {ri} and {rj}")
        if bad_length[e]:
            what = f"mean tract length {self.edges.lengths[e]}"
        else:
            what = f"tract count {self.edges.counts[e]}"
        raise GraphFormatError(f"edge ({ri}, {rj}): {what} must be finite and > 0")

    @property
    def n_nodes(self) -> int:
        return len(self.region_ids)

    def region_weight_matrix(self, groups) -> sp.csc_matrix:
        """Weights W, shape (M, G), with states @ W the volume-weighted mean
        over each of the disjoint groups of region ids."""
        volumes = self.volumes
        return region_weight_matrix(self.region_ids, volumes, volumes[:, None], groups, "graph")

    def components(self) -> list[set[int]]:
        """Connected components as sets of region ids, in the order of their
        lowest node.  (csgraph is imported here: mesh runs never need it.)"""
        from scipy.sparse.csgraph import connected_components

        _, labels = connected_components(self.laplacian, directed=False)
        lowest = np.sort(np.unique(labels, return_index=True)[1])
        return [set(self.region_ids[labels == labels[n]].tolist()) for n in lowest]

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


def _rows(template: str, *columns) -> str:
    """The rows of the columns, each formatted by ``template``, joined."""
    flat = [None] * (len(columns) * len(columns[0]))
    for c, column in enumerate(columns):
        flat[c :: len(columns)] = column.tolist()
    return (template * len(columns[0])) % tuple(flat)


def write_connectome(conn: Connectome, path):
    ends = conn.region_ids[conn.edges.nodes]
    with open(path, "w") as f:
        f.write("%s, k=%.17g\nnode,region_id,x,y,z,volume\n" % (_MAGIC, conn.scale_k))
        nodes = (conn.region_ids, *conn.coords.T, conn.volumes)
        f.write(_rows("node,%d,%.17g,%.17g,%.17g,%.17g\n", *nodes))
        f.write("edge,i,j,n_ij,l_ij\n")
        f.write(_rows("edge,%d,%d,%.17g,%.17g\n", *ends.T, conn.edges.counts, conn.edges.lengths))


# The lines after the header, each matched from the newline before it.  A
# line is a node row, an edge row, or skipped: blank, a comment, or a column
# header row (second field `region_id` or `i`).  _WS is what str.strip
# removes within a line.  What follows each _WS or field in a pattern is a
# character it cannot hold, so no match comes from taking less of either.
_WS = r"[^\S\n]*"
_NODE_ROW = re.compile(rf"\n{_WS}node{_WS},(?!{_WS}region_id{_WS}(?:,|\n|\Z))([^\n]*)")
_EDGE_ROW = re.compile(rf"\n{_WS}edge{_WS},(?!{_WS}i{_WS}(?:,|\n|\Z))([^\n]*)")
_OTHER_ROW = re.compile(rf"\n{_WS}(?=[^\s#])(?!node{_WS},|edge{_WS},)")
_NODE_COLUMNS = np.dtype([("id", int), ("xyz", float, 3), ("volume", float)])
_EDGE_COLUMNS = np.dtype([("ends", int, 2), ("tracts", float, 2)])
_COLUMNS = {"node": _NODE_COLUMNS, "edge": _EDGE_COLUMNS}


def _width(columns):
    """The number of fields in a row of the columns, after its kind."""
    return sum(int(np.prod(columns[name].shape)) for name in columns.names)


# a node row that leaves out its last field, the volume, or leaves it blank
# is given the volume 1
_NO_VOLUME = re.compile(
    rf"(\n{_WS}node{_WS},[^,\n]*(?:,[^,\n]*){{{_width(_NODE_COLUMNS) - 2}}})(?:,{_WS})?(?=\n|\Z)"
)


def _table(rows, columns):
    """The rows' comma-separated fields converted in one array pass; a
    ValueError if a row has a bad field or not one field per column.

    The structured dtype makes loadtxt check each row's field count, which
    ``usecols`` would not; ``comments=None`` keeps ``2.5 # c`` a bad field.
    Older NumPy reads an int field such as ``2.5`` or ``1e3`` as a
    float cast to int, with only a DeprecationWarning; as an error, that
    warning is loadtxt's ValueError.
    """
    if not rows:  # loadtxt warns on no input
        return np.empty(0, columns)
    if "" in rows:  # loadtxt skips an empty row
        raise ValueError("empty row")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(rows, dtype=columns, delimiter=",", comments=None, ndmin=1)


def _tables(body):
    """(node table, edge table) of the lines after the header, ``body``
    starting at the header's newline; a ValueError if any line is bad."""
    if _OTHER_ROW.search(body):
        raise ValueError("unknown row kind")
    nodes = _table(_NODE_ROW.findall(_NO_VOLUME.sub(r"\1,1", body)), _NODE_COLUMNS)
    return nodes, _table(_EDGE_ROW.findall(body), _EDGE_COLUMNS)


def _raise_first_bad_line(body):
    """Raise GraphFormatError naming the first line that `_tables` rejects:
    a row with one field per column has a bad field, any other is malformed."""
    for lineno, line in enumerate(body.split("\n")[1:], start=2):
        try:
            _tables("\n" + line)
        except ValueError:
            kind, *fields = _NO_VOLUME.sub(r"\1,1", "\n" + line)[1:].split(",")
            kind = kind.strip()
            if kind not in _COLUMNS:
                what = f"unknown row kind {kind!r} (want node/edge)"
            elif len(fields) == _width(_COLUMNS[kind]):
                what = f"bad {kind} field"
            else:
                what = f"malformed {kind} row"
            raise GraphFormatError(f"line {lineno}: {what}") from None


def load_connectome(path, scale_k: float | None = None) -> Connectome:
    """Load the CSV edge-list format; weights are k * n_ij / l_ij.

    The first line is the header, comma-separated fields: ``# FKGRAPH 1``,
    then at most one ``k=<float>`` (a float field, as below), the
    calibration factor k unless ``scale_k`` overrides it, among fields
    that are ignored.  Each later line is one of, in any order:

    - ``node,region_id,x,y,z[,volume]``: an int id and float fields; a
      missing or blank volume is 1.0;
    - ``edge,i,j,n_ij,l_ij``: the int region ids of its ends and float
      fields;
    - blank, a ``#`` comment, or a column header row: a node row whose
      second field is ``region_id``, an edge row whose second is ``i``.

    Whitespace around a field is ignored, and CRLF line ends are read as
    LF.  A field is a number as ``np.loadtxt`` reads it: no ``_`` digit
    separators, an int within int64, and nothing after the number, not
    even a ``#`` comment.

    A bad line raises GraphFormatError naming the first one in file order:
    a malformed row (wrong field count), a bad field, or an unknown row
    kind.
    """
    with open(path) as f:
        text = f.read()
    header, newline, body = text.partition("\n")
    if not header.startswith("# FKGRAPH"):
        raise GraphFormatError("missing '# FKGRAPH' header")
    header = header.strip()
    version, *fields = header.split(",")
    if version.strip() != _MAGIC:
        raise GraphFormatError(f"unsupported connectome version: {header!r}")
    ks = [value for name, _, value in (f.partition("=") for f in fields) if name.strip() == "k"]
    if len(ks) > 1:
        raise GraphFormatError(f"k given more than once in header: {header!r}")
    try:  # the number grammar of the fields
        k_file = float(_table(ks, np.dtype(float))[0]) if ks else 1.0
    except ValueError:
        raise GraphFormatError(f"bad k value in header: {header!r}")
    k = scale_k if scale_k is not None else k_file

    body = newline + body
    try:
        nodes, edges = _tables(body)
    except ValueError:
        _raise_first_bad_line(body)
        raise  # not reached: a pass fails only on a line that fails alone
    if not len(nodes):
        raise GraphFormatError("no node rows found")
    region_ids = nodes["id"]
    # region id -> node index, by one sorted search
    ids, index = np.unique(region_ids, return_index=True)
    if len(ids) < len(region_ids):
        raise GraphFormatError("duplicate region ids among nodes")
    ends = edges["ends"]
    pos = np.searchsorted(ids, ends).clip(max=len(ids) - 1)
    found = ids[pos] == ends
    if not found.all():
        e = np.flatnonzero(~found.all(axis=1))[0]
        (i, j), missing = ends[e].tolist(), ends[e][~found[e]].tolist()
        raise GraphFormatError(f"edge ({i}, {j}) references unknown regions {missing}")
    counts, lengths = edges["tracts"].T
    conn = Connectome(
        region_ids, nodes["xyz"], nodes["volume"], Edges(index[pos], counts, lengths), k
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
    nodes = np.arange(n_nodes)
    coords = np.zeros((n_nodes, 3))
    coords[:, 0] = nodes * tract_length
    if topology == "chain" or (topology == "ring" and n_nodes <= 2):
        pairs = np.stack([nodes[:-1], nodes[1:]], axis=1)
    elif topology == "ring":
        pairs = np.stack([nodes, np.roll(nodes, -1)], axis=1)
    elif topology == "complete":
        pairs = np.stack(np.triu_indices(n_nodes, 1), axis=1)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    if extra_edges:
        extra = np.asarray(extra_edges, dtype=int).reshape(-1, 2)
        unknown = extra[(extra < 1) | (extra > n_nodes)]
        if unknown.size:
            raise ValueError(f"shortcut references unknown region {unknown[0]}")
        pairs = np.concatenate([pairs, extra - 1])  # region id r is node r - 1
    counts = np.full(len(pairs), float(tract_count))
    lengths = np.full(len(pairs), float(tract_length))
    volumes = np.full(n_nodes, float(volume))
    conn = Connectome(nodes + 1, coords, volumes, Edges(pairs, counts, lengths), scale_k)
    conn.validate(require_connected=n_nodes > 1)
    return conn
