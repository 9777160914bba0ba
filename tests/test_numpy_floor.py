"""The package names no numpy attribute newer than its declared floor, numpy 1.24.

Tests run on whatever numpy is installed, usually a 2.x, where a name that
numpy added after 1.24 works and would pass unnoticed.  This reads every
module's syntax tree instead and fails on any such name reached through
``numpy`` (``np.vecdot``, ``np.linalg.vecdot``, ``from numpy import vecdot``).
"""

import ast
from pathlib import Path

import pytest

import pathfinder

FLOOR = "1.24"

# Names numpy added after 1.24, as reached from the numpy namespace.
NEWER_NAMES = frozenset({
    # 1.25
    "dtypes", "exceptions",
    # 2.0: array-API aliases and functions, and other additions
    "acos", "acosh", "asin", "asinh", "atan", "atanh", "atan2", "astype", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "bool", "concat", "isdtype",
    "long", "matrix_transpose", "permute_dims", "pow", "trapezoid", "ulong", "unique_all",
    "unique_counts", "unique_inverse", "unique_values", "vecdot",
    "linalg.cross", "linalg.diagonal", "linalg.matrix_norm", "linalg.matrix_transpose",
    "linalg.outer", "linalg.svdvals", "linalg.trace", "linalg.vecdot", "linalg.vector_norm",
    # 2.1 and later
    "cumulative_prod", "cumulative_sum", "matvec", "unstack", "vecmat",
})

MODULES = sorted(Path(pathfinder.__file__).parent.glob("*.py"))


def _dotted(node):
    """``a.b.c`` of an attribute chain rooted at a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def newer_numpy_names(source: str) -> list:
    """Each numpy name in ``source`` that is newer than FLOOR, as ``line: name``."""
    tree = ast.parse(source)
    found = []

    def check(path, lineno):
        name = path.removeprefix("numpy").lstrip(".")
        if name in NEWER_NAMES:
            found.append(f"{lineno}: numpy.{name}")

    aliases = {}  # local name -> the numpy path it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                check(aliases[alias.asname or alias.name], node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            dotted = node.id
        else:
            continue
        if dotted is None or dotted.split(".")[0] not in aliases:
            continue
        head, _, rest = dotted.partition(".")
        check(".".join(filter(None, [aliases[head], rest])), node.lineno)
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_numpy_name_newer_than_the_floor(path):
    assert newer_numpy_names(path.read_text(encoding="utf-8")) == [], (
        f"pyproject.toml declares numpy>={FLOOR}")


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np\nnp.vecdot(a, b)\n", ["2: numpy.vecdot"]),
    ("import numpy as np\nx = np.linalg.vector_norm(a)\n", ["2: numpy.linalg.vector_norm"]),
    ("import numpy\nnumpy.concat([a])\n", ["2: numpy.concat"]),
    ("from numpy import cumulative_sum\ncumulative_sum(a)\n",
     ["1: numpy.cumulative_sum", "2: numpy.cumulative_sum"]),
    ("from numpy import linalg as la\nla.matrix_transpose(a)\n",
     ["2: numpy.linalg.matrix_transpose"]),
    ("import numpy as np\nnp.linalg.norm(a) + np.concatenate([a]).astype(float)\n", []),
    ("import other as np\nnp.vecdot(a, b)\n", []),
])
def test_checker_finds_newer_names(source, expected):
    assert newer_numpy_names(source) == expected
