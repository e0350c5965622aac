import numpy as np
import pytest

from fkneuro.errors import GraphConnectivityError, GraphFormatError
from fkneuro.cli import main
from fkneuro.geometry import (
    Connectome,
    Edges,
    generate_connectome,
    load_connectome,
    write_connectome,
)


def test_weight_formula(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "# FKGRAPH 1, k=1\n"
        "node,1,0,0,0,1\n"
        "node,2,1,0,0,1\n"
        "edge,1,2,12,4\n"
    )
    conn = load_connectome(path)
    assert conn.weights[0] == pytest.approx(3.0, rel=1e-15)


def test_scale_k_from_header_and_override(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "# FKGRAPH 1, k=2.5\nnode,1,0,0,0,1\nnode,2,1,0,0,1\nedge,1,2,10,5\n"
    )
    conn = load_connectome(path)
    assert conn.weights[0] == pytest.approx(5.0)
    conn2 = load_connectome(path, scale_k=1.0)
    assert conn2.weights[0] == pytest.approx(2.0)


def test_triangle_laplacian(triangle_graph):
    L = triangle_graph.laplacian.toarray()
    expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    assert np.abs(L - expected).max() <= 1e-15
    assert np.abs(L.sum(axis=1)).max() <= 1e-15


def test_disconnected_graph_names_components(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "# FKGRAPH 1, k=1\n"
        "node,1,0,0,0,1\nnode,2,0,0,0,1\nnode,3,0,0,0,1\nnode,4,0,0,0,1\n"
        "edge,1,2,10,10\nedge,3,4,10,10\n"
    )
    with pytest.raises(GraphConnectivityError) as err:
        load_connectome(path)
    assert "2 components" in str(err.value)
    assert "{1, 2}" in str(err.value) and "{3, 4}" in str(err.value)


def test_laplacian_algebra_random_graph():
    rng = np.random.default_rng(42)
    n = 12
    edges = []
    for i in range(1, n):  # random spanning tree plus extras
        j = int(rng.integers(0, i))
        edges.append((i, j, float(rng.integers(1, 40)), float(rng.uniform(1, 30))))
    for _ in range(10):
        i, j = rng.integers(0, n, 2)
        if i != j and not any({a, b} == {int(i), int(j)} for a, b, _, _ in edges):
            edges.append((int(i), int(j), 5.0, 2.0))
    conn = Connectome(
        region_ids=np.arange(1, n + 1),
        coords=rng.normal(size=(n, 3)),
        volumes=rng.uniform(0.5, 2.0, n),
        edges=Edges([e[:2] for e in edges], [e[2] for e in edges], [e[3] for e in edges]),
        scale_k=0.7,
    )
    conn.validate()
    L = conn.laplacian
    scale = np.abs(L.data).max()
    assert np.abs(np.asarray(L.sum(axis=1)).ravel()).max() <= 1e-12 * scale
    asym = L - L.T
    asym_max = np.abs(asym.data).max() if asym.nnz else 0.0
    assert asym_max <= 1e-13 * scale
    for _ in range(100):
        x = rng.normal(size=n)
        assert x @ (L @ x) >= -1e-12 * scale * (x @ x)


def two_nodes(edges, volumes=(1.0, 1.0), scale_k=1.0):
    """A connectome over regions 7 and 9 with the given `Edges`."""
    return Connectome(
        region_ids=np.array([7, 9]),
        coords=np.zeros((2, 3)),
        volumes=np.array(volumes),
        edges=edges,
        scale_k=scale_k,
    )


@pytest.mark.parametrize(
    "nodes,count,length,message",
    [
        ((1, 1), 1.0, 1.0, "self-edge on region 9"),
        ((0, 2), 1.0, 1.0, r"edge \(0, 2\) references unknown node"),
        ((-1, 0), 1.0, 1.0, r"edge \(-1, 0\) references unknown node"),
        ((0, 1), 1.0, 0.0, r"edge \(7, 9\): mean tract length 0.0 must be finite and > 0"),
        ((0, 1), 1.0, np.nan, "mean tract length nan must be finite"),
        ((0, 1), 1.0, np.inf, "mean tract length inf must be finite"),
        ((1, 0), -2.0, 1.0, r"edge \(9, 7\): tract count -2.0 must be finite and > 0"),
        ((0, 1), np.inf, 1.0, "tract count inf must be finite"),
    ],
)
def test_edge_check_messages(nodes, count, length, message):
    with pytest.raises(GraphFormatError, match=message):
        two_nodes(Edges([nodes], [count], [length]))


def test_self_edge_rejected():
    with pytest.raises(GraphFormatError, match="self-edge"):
        two_nodes(Edges([(0, 0)], [1.0], [1.0]))


def test_duplicate_edge_rejected():
    # the later copy is named, in its own node order
    with pytest.raises(GraphFormatError, match="duplicate edge between regions 9 and 7"):
        two_nodes(Edges([(0, 1), (1, 0)], [1.0, 2.0], [1.0, 1.0]))


def test_first_bad_edge_is_reported():
    # each edge carries one fault; the earlier edge's fault wins whatever
    # the order of the checks
    count_then_self = Edges([(0, 1), (1, 1)], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(GraphFormatError, match="tract count"):
        two_nodes(count_then_self)
    self_then_count = Edges([(0, 0), (0, 1)], [1.0, 0.0], [1.0, 1.0])
    with pytest.raises(GraphFormatError, match="self-edge on region 7"):
        two_nodes(self_then_count)
    # one edge with two faults reports the first check
    with pytest.raises(GraphFormatError, match="length"):
        two_nodes(Edges([(0, 1)], [0.0], [0.0]))


@pytest.mark.parametrize("volume", [0.0, -1.0, np.nan, np.inf])
def test_bad_volume_names_the_region(volume):
    with pytest.raises(GraphFormatError, match=r"volumes must be finite and > 0 for regions \[9\]"):
        two_nodes(Edges([(0, 1)], [1.0], [1.0]), volumes=(1.0, volume))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_names_the_region(value):
    coords = np.zeros((2, 3))
    coords[1, 2] = value
    with pytest.raises(GraphFormatError, match=r"coordinates must be finite for regions \[9\]$"):
        Connectome(np.array([7, 9]), coords, np.ones(2), Edges([(0, 1)], [1.0], [1.0]))


@pytest.mark.parametrize("k", [0.0, -2.0, np.nan, np.inf])
def test_bad_k_rejected(k):
    with pytest.raises(GraphFormatError, match="k must be finite and > 0"):
        two_nodes(Edges([(0, 1)], [1.0], [1.0]), scale_k=k)


def test_edge_columns_must_agree():
    with pytest.raises(GraphFormatError, match="edge columns differ"):
        Edges([(0, 1)], [1.0, 2.0], [1.0])


@pytest.mark.parametrize(
    "node2,edge,message",
    [
        ("node,2,1,0,0,1", "edge,1,2,10,nan", r"edge \(1, 2\): mean tract length nan"),
        ("node,2,1,0,0,1", "edge,1,2,inf,10", r"edge \(1, 2\): tract count inf"),
        ("node,2,1,0,0,1", "edge,1,2,10,inf", r"edge \(1, 2\): mean tract length inf"),
        ("node,2,1,0,0,nan", "edge,1,2,10,10", r"for regions \[2\]"),
        ("node,2,nan,0,0,1", "edge,1,2,10,10", r"coordinates .* for regions \[2\]"),
        ("node,2,1,inf,0,1", "edge,1,2,10,10", r"coordinates .* for regions \[2\]"),
    ],
)
def test_loader_rejects_non_finite_inputs(tmp_path, node2, edge, message):
    path = tmp_path / "g.csv"
    path.write_text(f"# FKGRAPH 1, k=1\nnode,1,0,0,0,1\n{node2}\n{edge}\n")
    with pytest.raises(GraphFormatError, match=message):
        load_connectome(path)


def test_loader_rejects_negative_k(tmp_path):
    # k < 0 would make L anti-diffusive
    path = tmp_path / "g.csv"
    path.write_text("# FKGRAPH 1, k=-2\nnode,1,0,0,0,1\nnode,2,1,0,0,1\nedge,1,2,10,5\n")
    with pytest.raises(GraphFormatError, match="k must be finite and > 0, got -2.0"):
        load_connectome(path)


def test_loader_names_unknown_regions(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "# FKGRAPH 1, k=1\nnode,5,0,0,0,1\nnode,3,1,0,0,1\n"
        "edge,5,3,10,5\nedge,4,5,10,5\nedge,6,6,10,5\n"
    )
    with pytest.raises(GraphFormatError, match=r"edge \(4, 5\) references unknown regions \[4\]"):
        load_connectome(path)


def test_loader_maps_unsorted_region_ids(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "# FKGRAPH 1, k=1\nnode,30,0,0,0,1\nnode,10,1,0,0,1\nnode,20,2,0,0,1\n"
        "edge,10,30,10,5\nedge,20,10,10,5\n"
    )
    conn = load_connectome(path)
    assert conn.edges.nodes.tolist() == [[1, 0], [2, 1]]
    assert conn.degree.tolist() == [2.0, 4.0, 2.0]


def test_components_in_order_of_lowest_node():
    conn = Connectome(
        region_ids=np.array([40, 30, 20, 10, 50]),
        coords=np.zeros((5, 3)),
        volumes=np.ones(5),
        edges=Edges([(1, 4), (0, 3)], [1.0, 1.0], [1.0, 1.0]),
    )
    assert conn.components() == [{40, 10}, {30, 50}, {20}]


def test_gen_graph_rejects_negative_k(tmp_path, capsys):
    path = tmp_path / "g.csv"
    rc = main(["gen-graph", "--nodes", "3", "--scale-k", "-1", "--output", str(path)])
    assert rc == 1
    assert "k must be finite and > 0" in capsys.readouterr().err
    assert not path.exists()


def test_gen_graph_rejects_unknown_shortcut_region(tmp_path, capsys):
    path = tmp_path / "g.csv"
    rc = main(
        ["gen-graph", "--nodes", "5", "--shortcut", "1,99", "--output", str(path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "ValueError" in err and "unknown region 99" in err
    assert not path.exists()


def test_bad_length_rejected(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "# FKGRAPH 1, k=1\nnode,1,0,0,0,1\nnode,2,1,0,0,1\nedge,1,2,10,0\n"
    )
    with pytest.raises(GraphFormatError, match="length"):
        load_connectome(path)


def test_volume_defaults_to_one(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "# FKGRAPH 1, k=1\nnode,1,0,0,0\nnode,2,1,0,0\nedge,1,2,10,10\n"
    )
    conn = load_connectome(path)
    assert conn.volumes.tolist() == [1.0, 1.0]


def test_roundtrip_bitwise(tmp_path, chain5):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_connectome(chain5, p1)
    write_connectome(load_connectome(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_topologies():
    ring = generate_connectome(6, topology="ring")
    assert len(ring.edges) == 6
    complete = generate_connectome(5, topology="complete")
    assert len(complete.edges) == 10
    with_shortcut = generate_connectome(5, extra_edges=[(1, 5)])
    assert len(with_shortcut.edges) == 5
