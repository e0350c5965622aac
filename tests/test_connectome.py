import re

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
    # a 5-field node row, or a blank 6th field, is a volume of 1.0
    path = tmp_path / "g.csv"
    path.write_text(
        "# FKGRAPH 1, k=1\nnode,1,0,0,0\nnode,2,1,0,0,\nnode,3,2,0,0,  \nnode,4,3,0,0,5\n"
        "edge,1,2,10,10\nedge,2,3,10,10\nedge,3,4,10,10\n"
    )
    conn = load_connectome(path)
    assert conn.volumes.tolist() == [1.0, 1.0, 1.0, 5.0]


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


# ---------------------------------------------------------------------------
# The file syntax the loader accepts, and the line each fault names

HEADER = "# FKGRAPH 1, k=1\n"
TWO_NODES = "node,1,0,0,0,1\nnode,2,1,0,0,1\n"


def load_text(tmp_path, text, newline=None):
    path = tmp_path / "g.csv"
    with open(path, "w", newline=newline) as f:
        f.write(text)
    return load_connectome(path)


@pytest.mark.parametrize(
    "line,message",
    [
        ("node,3,0,0", "malformed node row"),
        ("node,3,0,0,0,1,7", "malformed node row"),
        ("node,", "malformed node row"),
        ("node,3,0,0,x,1", "bad node field"),
        ("node,3.0,0,0,0,1", "bad node field"),
        ("node,3,0,0,0,2.5 # c", "bad node field"),
        ("node,3,0,0,", "bad node field"),
        ("node,i,0,0,0,1", "bad node field"),
        ("edge,1,2,10", "malformed edge row"),
        ("edge,1,2,10,5,6", "malformed edge row"),
        ("edge,1,2,10,", "bad edge field"),
        ("edge,1,2,10,2.5 # c", "bad edge field"),
        ("edge,1,2.5,10,5", "bad edge field"),
        ("edge,region_id,2,10,5", "bad edge field"),
        ("vertex,3,0,0,0,1", "unknown row kind 'vertex'"),
        ("nodes,3,0,0,0,1", "unknown row kind 'nodes'"),
        ("node # c", "unknown row kind 'node # c'"),
        (",1,2", "unknown row kind ''"),
    ],
)
def test_loader_names_the_bad_line(tmp_path, line, message):
    # the bad line is line 5: after the header, a comment and two nodes
    text = HEADER + "# two nodes\n" + TWO_NODES + line + "\nedge,1,2,10,5\n"
    with pytest.raises(GraphFormatError, match=f"^line 5: {re.escape(message)}"):
        load_text(tmp_path, text)


@pytest.mark.parametrize("kind", ["node", "edge"])
def test_bare_row_kind_is_malformed(tmp_path, kind):
    # a kind with no fields is a malformed row, not an IndexError
    with pytest.raises(GraphFormatError, match=f"^line 4: malformed {kind} row$"):
        load_text(tmp_path, HEADER + TWO_NODES + kind + "\n")


@pytest.mark.parametrize(
    "first,second,message",
    [
        ("node,3,0,0,x,1", "edge,1,2,10,x", "line 3: bad node field"),
        ("edge,1,2,10,x", "node,3,0,0,x,1", "line 3: bad edge field"),
        ("edge,1,2,10", "node,3,0,0", "line 3: malformed edge row"),
        ("node,3,0,0", "edge,1,2,x,5", "line 3: malformed node row"),
        ("what,1", "node,3,0,0,x,1", "line 3: unknown row kind 'what'"),
        ("edge,1,2,10,x", "what,1", "line 3: bad edge field"),
    ],
)
def test_first_bad_line_in_file_order_wins(tmp_path, first, second, message):
    text = HEADER + "\n" + first + "\n" + TWO_NODES + second + "\nedge,1,2,10,5\n"
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}"):
        load_text(tmp_path, text)


def test_comments_blank_lines_and_repeated_headers_anywhere(tmp_path):
    text = (
        HEADER
        + "\n# a comment\n   \n"
        + "node,region_id,x,y,z,volume\n"
        + "edge,i,j,n_ij,l_ij\n"
        + "node,1,0,0,0,2\n"
        + "  # an indented comment, with, commas\n"
        + "\n"
        + "node, region_id ,anything\n"
        + "node,region_id\n"
        + "edge,2,1,12,4\n"
        + "edge , i\n"
        + "node,2,1,0,0,3\n"
        + "#\n\n"
    )
    conn = load_text(tmp_path, text)
    assert conn.region_ids.tolist() == [1, 2]
    assert conn.volumes.tolist() == [2.0, 3.0]
    assert conn.edges.nodes.tolist() == [[1, 0]]
    assert conn.weights.tolist() == [3.0]


def test_edge_rows_before_node_rows(tmp_path):
    text = HEADER + "edge,20,10,12,4\nedge,30,20,6,3\nnode,10,0,0,0,1\nnode,20,1,0,0,1\nnode,30,2,0,0,1\n"
    conn = load_text(tmp_path, text)
    assert conn.region_ids.tolist() == [10, 20, 30]
    assert conn.edges.nodes.tolist() == [[1, 0], [2, 1]]
    assert conn.weights.tolist() == [3.0, 2.0]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_space_padded_fields_and_line_ends(tmp_path, newline):
    text = (
        HEADER
        + "  node ,\t7 , -1.5 ,2e1,  +0.25 , 8 \n"
        + "\tnode,  +9, 3 ,0,0,1\n"
        + " edge\t, 9 ,  7, 12 ,4.0  \n"
    )
    conn = load_text(tmp_path, text, newline=newline)
    assert conn.region_ids.tolist() == [7, 9]
    assert conn.coords.tolist() == [[-1.5, 20.0, 0.25], [3.0, 0.0, 0.0]]
    assert conn.volumes.tolist() == [8.0, 1.0]
    assert conn.edges.nodes.tolist() == [[1, 0]]
    assert conn.edges.counts.tolist() == [12.0]
    assert conn.edges.lengths.tolist() == [4.0]


def test_crlf_bad_line_is_named(tmp_path):
    text = HEADER + TWO_NODES + "edge,1,2,10,x\n"
    with pytest.raises(GraphFormatError, match="^line 4: bad edge field"):
        load_text(tmp_path, text, newline="\r\n")


# Outside pytest a DeprecationWarning from library code is ignored; older
# NumPy then reads an int field through a float and casts it
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize(
    "line,message",
    [
        ("edge,1,2.5,10,5", "bad edge field"),
        ("edge,1e0,2,10,5", "bad edge field"),
        ("node,3.0,0,0,0,1", "bad node field"),
        ("node,1e3,0,0,0,1", "bad node field"),
        ("node,99999999999999999999,0,0,0,1", "bad node field"),
    ],
)
def test_int_field_is_not_read_through_a_float(tmp_path, line, message):
    with pytest.raises(GraphFormatError, match=f"^line 4: {message}$"):
        load_text(tmp_path, HEADER + TWO_NODES + line + "\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "missing '# FKGRAPH' header"),
        ("node,1,0,0,0,1\n", "missing '# FKGRAPH' header"),
        (" # FKGRAPH 1\nnode,1,0,0,0,1\n", "missing '# FKGRAPH' header"),
        ("# FKGRAPH 2, k=1\nnode,1,0,0,0,1\n", "unsupported connectome version: '# FKGRAPH 2, k=1'"),
        ("# FKGRAPH 12, xk=3\nnode,1,0,0,0,1\n", "unsupported connectome version: '# FKGRAPH 12, xk=3'"),
        ("# FKGRAPH 1x\nnode,1,0,0,0,1\n", "unsupported connectome version: '# FKGRAPH 1x'"),
        ("# FKGRAPH 1 k=2\nnode,1,0,0,0,1\n", "unsupported connectome version: '# FKGRAPH 1 k=2'"),
        ("# FKGRAPH 1, k=abc\nnode,1,0,0,0,1\n", "bad k value in header: '# FKGRAPH 1, k=abc'"),
        ("# FKGRAPH 1, k\nnode,1,0,0,0,1\n", "bad k value in header: '# FKGRAPH 1, k'"),
        (
            "# FKGRAPH 1, k=2, k=5\nnode,1,0,0,0,1\n",
            "k given more than once in header: '# FKGRAPH 1, k=2, k=5'",
        ),
        ("# FKGRAPH 1, k=1\n", "no node rows found"),
        ("# FKGRAPH 1, k=1\n# nothing\nnode,region_id,x,y,z\n\n", "no node rows found"),
    ],
)
def test_header_and_empty_file_errors(tmp_path, text, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        load_text(tmp_path, text)


@pytest.mark.parametrize(
    "header,k",
    [
        ("# FKGRAPH 1 , note, k =3\r", 3.0),
        ("# FKGRAPH 1, xk=3, k2=4", 1.0),
        ("# FKGRAPH 1", 1.0),
    ],
)
def test_header_k_comes_from_a_field_named_k(tmp_path, header, k):
    # whitespace around the version, the name and the value is ignored, and
    # so is every other field
    assert load_text(tmp_path, header + "\nnode,4,0,0,0,1").scale_k == k


@pytest.mark.parametrize("value", ["1_0", "\uff11", "2 # c", ""])
def test_header_k_is_read_as_a_float_field(tmp_path, value):
    # float() takes `1_0` as 10.0 and a full-width digit as 1.0; the header
    # k takes the number grammar of a row field, which takes neither
    header = f"# FKGRAPH 1, k={value}"
    message = f"bad k value in header: {header!r}"
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        load_text(tmp_path, header + "\nnode,1,0,0,0,1\n")


def test_header_k_and_one_node_without_edges(tmp_path):
    conn = load_text(tmp_path, "# FKGRAPH 1, k= 2.5 , note\nnode,4,0,0,0,1")
    assert conn.scale_k == 2.5
    assert conn.region_ids.tolist() == [4]
    assert len(conn.edges) == 0
    assert conn.edges.nodes.shape == (0, 2)
