"""pyproject.toml allows Python >=3.10, so the package may use no syntax and no
regular-expression construct that Python added later.  The syntax check
parses every source file with the 3.10 grammar; the pattern check walks the
parse tree of every compiled pattern a module holds, since ``re`` takes
possessive repeats (``*+``) and atomic groups (``(?>...)``) only from 3.11.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

try:
    import re._parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

import fkneuro

SRC = Path(fkneuro.__file__).resolve().parent
FLOOR = (3, 10)
NEWER_OPCODES = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def newer_opcodes(pattern: re.Pattern):
    """The names of the 3.11-only opcodes in a compiled pattern's parse tree."""
    found = set()
    stack = [sre_parse.parse(pattern.pattern, pattern.flags)]
    while stack:
        node = stack.pop()
        if isinstance(node, (sre_parse.SubPattern, list, tuple)):
            for item in node:
                if isinstance(item, tuple) and len(item) == 2 and str(item[0]) in NEWER_OPCODES:
                    found.add(str(item[0]))
                stack.append(item)
    return found


def test_scan_finds_newer_opcodes_only():
    assert newer_opcodes(re.compile(r"a*+b")) == {"POSSESSIVE_REPEAT"}
    assert newer_opcodes(re.compile(r"(x|(?>a|b)c)")) == {"ATOMIC_GROUP"}
    assert newer_opcodes(re.compile(r"(?=[^\s#])(?:a{2,}?|[^\S\n]*)(?!b)")) == set()


def test_package_parses_with_the_floor_grammar():
    failed = []
    for path in sorted(SRC.rglob("*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(SRC.parent)}:{exc.lineno}: {exc.msg}")
    assert not failed, f"not Python {FLOOR[0]}.{FLOOR[1]} syntax:\n" + "\n".join(failed)


def test_package_patterns_have_no_newer_constructs():
    found = []
    for info in pkgutil.walk_packages(fkneuro.__path__, "fkneuro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern) and newer_opcodes(value):
                found.append(f"{info.name}.{name}: {sorted(newer_opcodes(value))}")
    assert not found, "constructs re takes only from Python 3.11:\n" + "\n".join(found)
