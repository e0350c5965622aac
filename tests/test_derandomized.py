"""Every hypothesis test in tests/ runs the same examples on every run: each
``settings(...)`` call passes ``derandomize=True``, so a failure found once
is found again and a passing suite stays passing.  The scan reads the test
files' syntax trees.  A failing hypothesis test fails alone: the session's
warning filters let the rest of the suite run.
"""

import ast
import subprocess
import sys
from pathlib import Path

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
