"""The one store an operator or a pair keeps (`sector.kept`): build once
per key, eviction per kind, values it may refuse, read-only arrays, and
no module but `sector.py` touching the store."""

import ast
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from sectorsum import MatrixOperator, sector
from sectorsum.sector import kept

SRC = pathlib.Path(sector.__file__).parent
STORE = "_kept"


def _builder(builds, value=None):
    def build():
        builds.append(1)
        return np.zeros(2) if value is None else value
    return build


def test_a_value_is_built_once_per_key():
    owner, builds = SimpleNamespace(), []
    first = kept(owner, ("x",), _builder(builds))
    assert kept(owner, ("x",), _builder(builds)) is first and len(builds) == 1
    kept(owner, ("y",), _builder(builds))
    assert len(builds) == 2


def test_a_none_value_is_kept():
    owner, builds = SimpleNamespace(), []
    for _ in range(2):
        assert kept(owner, ("basis",), lambda: builds.append(1)) is None
    assert builds == [1]


def test_recent_evicts_the_least_recently_used_key_of_its_kind_only():
    owner, builds = SimpleNamespace(), []
    kept(owner, ("other",), _builder(builds))
    for t in (1, 2, 3, 3, 2, 1):
        kept(owner, ("family", t), lambda t=t: builds.append(t) or np.zeros(1), recent=2)
    # 1 is the least recently used when 3 comes in, and is built again
    assert builds == [1, 1, 2, 3, 1]
    kept(owner, ("other",), _builder(builds))
    assert len(builds) == 5
    assert list(vars(owner)[STORE]) == [("other",), ("family", 2), ("family", 1)]


def test_a_hit_without_a_limit_does_not_reorder():
    owner = SimpleNamespace()
    for key in (("a",), ("b",), ("c", 1)):
        kept(owner, key, lambda: np.zeros(1))
    kept(owner, ("a",), lambda: np.zeros(1))
    assert list(vars(owner)[STORE]) == [("a",), ("b",), ("c", 1)]
    kept(owner, ("c", 1), lambda: np.zeros(1), recent=1)
    assert list(vars(owner)[STORE]) == [("a",), ("b",), ("c", 1)]


def test_a_rejected_value_is_returned_writeable_and_not_kept():
    owner, builds = SimpleNamespace(), []
    value = kept(owner, ("x",), _builder(builds), keep=lambda v: False)
    assert value.flags.writeable
    kept(owner, ("x",), _builder(builds), keep=lambda v: False)
    assert len(builds) == 2


def test_nothing_is_kept_when_the_build_raises():
    owner, builds = SimpleNamespace(), []

    def failing():
        builds.append(1)
        raise ArithmeticError("no value")

    for expected in (1, 2):
        with pytest.raises(ArithmeticError):
            kept(owner, ("x",), failing)
        assert len(builds) == expected


def test_kept_arrays_are_read_only():
    owner = SimpleNamespace()
    array = kept(owner, ("array",), lambda: np.zeros(2))
    pair = kept(owner, ("tuple",), lambda: (np.zeros(2), np.eye(2), 1.5))
    holder = kept(owner, ("object",), lambda: SimpleNamespace(a=np.zeros(2), b=3))
    assert not array.flags.writeable
    assert not pair[0].flags.writeable and not pair[1].flags.writeable
    assert not holder.a.flags.writeable


@pytest.mark.parametrize("matrix", [np.diag([1.0, 2.0]), 2.0 * np.eye(3) + np.eye(3, k=1)],
                         ids=["normal", "jordan"])
def test_bases_are_read_only(matrix):
    A = MatrixOperator(matrix)
    bases = [A.schur_form()] + ([A.normal_basis()] if A.normal_basis() else [])
    for basis in bases:
        assert not any(part.flags.writeable for part in basis)


def _names_of_the_store(tree):
    """(enclosing function, line) of every node that names the store:
    an attribute, a variable, an argument or a string constant."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where is None else f"{where}.{node.name}"
        named = (getattr(node, "attr", None), getattr(node, "id", None),
                 getattr(node, "arg", None), getattr(node, "name", None),
                 getattr(node, "value", None) if isinstance(node, ast.Constant) else None)
        if STORE in named:
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_the_helper_in_sector_names_the_store():
    outside = {}
    for path in sorted(SRC.glob("*.py")):
        names = _names_of_the_store(ast.parse(path.read_text(), str(path)))
        if path.name == "sector.py":
            assert names and all(where == "kept" for where, _ in names), names
        elif names:
            outside[path.name] = names
    assert outside == {}
