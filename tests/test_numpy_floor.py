"""pyproject.toml allows numpy>=1.24, so the package may not use names that
NumPy added in 2.x.  The scan reads the source's syntax trees: a method such
as ``x.astype`` or ``math.pow`` is not a NumPy module attribute and passes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fkneuro"

# module attributes new in NumPy 2.0-2.2 (array-API names and new functions)
NUMPY2 = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
    "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
    "concat", "cumulative_prod", "cumulative_sum", "isdtype", "matrix_transpose",
    "matvec", "permute_dims", "pow", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat",
}
NUMPY2_LINALG = {
    "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer",
    "svdvals", "tensordot", "trace", "vecdot", "vector_norm",
}
FORBIDDEN = {f"numpy.{n}" for n in NUMPY2} | {f"numpy.linalg.{n}" for n in NUMPY2_LINALG}


def _dotted(node):
    """'a.b.c' for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def numpy2_uses(source: str):
    """[(line, qualified name)] of the NumPy-2-only names the source uses."""
    tree = ast.parse(source)
    modules = {}  # local name -> the numpy module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                if qualified == "numpy.linalg":
                    modules[alias.asname or alias.name] = qualified
                elif qualified in FORBIDDEN:
                    found.append((node.lineno, qualified))
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        if name is None:
            continue
        head, _, rest = name.partition(".")
        if head in modules and f"{modules[head]}.{rest}" in FORBIDDEN:
            found.append((node.lineno, f"{modules[head]}.{rest}"))
    return sorted(found)


def test_scan_finds_numpy2_names_only():
    source = (
        "import math\n"
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg, vecdot\n"
        "x = np.vecdot(a, b)\n"
        "y = np.linalg.vector_norm(a) + la.matrix_norm(m) + linalg.vecdot(a, b)\n"
        "z = a.astype(float) + math.pow(2, 3) + np.linalg.norm(a) + np.concatenate([a])\n"
    )
    assert numpy2_uses(source) == [
        (4, "numpy.vecdot"),
        (5, "numpy.vecdot"),
        (6, "numpy.linalg.matrix_norm"),
        (6, "numpy.linalg.vecdot"),
        (6, "numpy.linalg.vector_norm"),
    ]


def test_package_uses_no_numpy2_names():
    found = [
        f"{path.relative_to(SRC.parent.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in numpy2_uses(path.read_text())
    ]
    assert not found, "NumPy >= 2 only, but pyproject allows numpy>=1.24:\n" + "\n".join(found)
