"""Every hypothesis test in tests/ runs the same examples on every run: each
``settings(...)`` call passes ``derandomize=True``, so a failure found once
is found again and a passing suite stays passing.  The scan reads the test
files' syntax trees.  A failing hypothesis test fails alone: the session's
warning filters let the rest of the suite run.  The file ends with one
such derandomized property: a connectome written and loaded again is the
same, bit for bit.
"""

import ast
import subprocess
import sys
import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fkneuro.geometry import Connectome, Edges, load_connectome, write_connectome

TESTS = Path(__file__).resolve().parent


def random_settings(source: str):
    """Lines of the settings(...) calls that do not pass derandomize=True."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "settings":
            continue
        derandomized = any(
            kw.arg == "derandomize"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
        if not derandomized:
            found.append(node.lineno)
    return sorted(found)


def test_scan_finds_settings_without_derandomize():
    source = (
        "import hypothesis\n"
        "from hypothesis import settings\n"
        "@settings(max_examples=5, derandomize=True)\n"
        "def a(): pass\n"
        "@settings(max_examples=5)\n"
        "def b(): pass\n"
        "@hypothesis.settings(derandomize=False)\n"
        "def c(): pass\n"
        "s = settings(deadline=None)\n"
        "t = settings.default\n"
    )
    assert random_settings(source) == [5, 7, 9]


def test_every_hypothesis_settings_is_derandomized():
    found = [
        f"{path.name}:{line}"
        for path in sorted(TESTS.glob("*.py"))
        for line in random_settings(path.read_text())
    ]
    assert not found, "settings(...) without derandomize=True:\n" + "\n".join(found)


FAILING_AND_PASSING = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # reporting the failing example imports modules that warn on import;
    # under the suite's warning filters that must not end the session
    (tmp_path / "test_two.py").write_text(FAILING_AND_PASSING)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_two.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output


# ---------------------------------------------------------------------------
# A derandomized property: the connectome file round-trips bit for bit

FINITE = st.floats(-1e300, 1e300, allow_nan=False)
POSITIVE = st.floats(5e-324, 1e300)


@st.composite
def connectomes(draw):
    """A connected connectome of 1-40 nodes with unsorted int64 region ids,
    any finite coordinates (subnormals included), positive volumes and
    counts, and lengths and k bounded so that no weight or degree
    overflows."""
    n = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    order = draw(st.permutations(range(n)))
    # a random spanning tree, then random extra edges, each pair once
    pairs = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    keys, nodes = set(), []
    for i, j in pairs:
        if i != j and frozenset((i, j)) not in keys:
            keys.add(frozenset((i, j)))
            nodes.append((i, j))
    e = len(nodes)
    return Connectome(
        region_ids=np.array(ids),
        coords=np.array(draw(st.lists(FINITE, min_size=3 * n, max_size=3 * n))).reshape(n, 3),
        volumes=np.array(draw(st.lists(POSITIVE, min_size=n, max_size=n))),
        edges=Edges(
            np.array(nodes, dtype=int).reshape(-1, 2),
            draw(st.lists(POSITIVE, min_size=e, max_size=e)),
            draw(st.lists(st.floats(1e-3, 1e300), min_size=e, max_size=e)),
        ),
        scale_k=draw(st.floats(1e-300, 1e3)),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(conn=connectomes())
def test_connectome_file_round_trips_bit_for_bit(conn):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        write_connectome(conn, path)
        loaded = load_connectome(path)
    assert loaded.scale_k == conn.scale_k
    for name in ("region_ids", "coords", "volumes", "edges.nodes", "edges.counts", "edges.lengths"):
        a, b = attrgetter(name)(conn), attrgetter(name)(loaded)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
