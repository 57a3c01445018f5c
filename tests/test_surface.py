"""The package root exports exactly what users call, no module in the
package imports a name it never uses, and the result records are plain
named tuples that import nothing heavy."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import isrecon
from isrecon.chordal import EliminationOrdering
from isrecon.cotree import LEAF, Cotree, CotreeNode
from isrecon.engine import Decision, NodeValues, RisTable
from isrecon.oracle import SolutionGraph
from isrecon.witness import SuSequence, TarSequence

PUBLIC = {
    "Graph", "is_cograph", "decide", "tj_decide", "Decision",
    "build_witness", "TarSequence", "validate_tar_sequence",
    "oracle_reach", "oracle_diameter", "gen_cograph", "gen_chordal", "gen_composed",
    "ReconError", "InputError", "UnreachableError", "UnsupportedGraphClassError",
    "InternalError", "OracleCapacityError",
}
MODULES = sorted(Path(isrecon.__file__).parent.glob("*.py"))


def test_all_is_exactly_the_public_surface():
    assert len(isrecon.__all__) == len(PUBLIC) == 19
    assert set(isrecon.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(isrecon, name) is not None


def test_the_root_binds_no_other_public_name():
    extra = [name for name, value in vars(isrecon).items()
             if not name.startswith("_") and name not in PUBLIC
             and not (isinstance(value, types.ModuleType)
                      and value.__name__ == f"isrecon.{name}")]
    assert extra == []
    assert isinstance(isrecon.__version__, str)


def unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports but never reads, except those in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_unused_import_check_sees_an_unused_name(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from __future__ import annotations\n"
                 "import os, sys as system\nfrom .graph import Graph, bits\n"
                 "__all__ = ['Graph']\n\ndef f():\n    return system.argv\n")
    assert unused_imports(f) == ["bits", "os"]


def test_importing_the_cli_skips_dataclasses_and_inspect():
    src = str(Path(isrecon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, isrecon.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# (record, positional fields, the same as keywords, defaulted fields)
RECORDS = [
    (RisTable, (2, [3, 2, 1]), {"base": 2, "values": [3, 2, 1]}, {}),
    (NodeValues, ([1, 0], 4), {"freedom": [1, 0], "blocked": 4}, {}),
    (Decision, (True,), {"reachable": True}, {"failure_witness": None}),
    (TarSequence, (frozenset({0}), [("add", 1)], 1),
     {"start": frozenset({0}), "steps": [("add", 1)], "k": 1},
     {"alpha_accessible": 0}),
    (SuSequence, (frozenset(), [((), (1,))]),
     {"start": frozenset(), "steps": [((), (1,))]}, {}),
    (EliminationOrdering, ((1, 0), True), {"order": (1, 0), "is_perfect": True}, {}),
    (SolutionGraph, ("tar", 0, [0], {0: []}, {0: 0}),
     {"model": "tar", "k": 0, "states": [0], "neighbors": {0: []},
      "component": {0: 0}}, {}),
]


@pytest.mark.parametrize("cls, args, kwargs, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_build_by_position_and_keyword_and_stay_fixed(cls, args, kwargs,
                                                              defaults):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword == cls(*args, **defaults)
    assert cls._fields == tuple(kwargs) + tuple(defaults)
    for name, value in defaults.items():
        assert getattr(by_position, name) == value
    with pytest.raises(AttributeError):
        setattr(by_position, cls._fields[0], args[0])


def test_a_sequence_counts_its_moves_not_its_fields():
    seq = TarSequence(frozenset({0}), [("remove", 0), ("add", 1), ("add", 2)], 0)
    assert seq.length == len(seq.steps) == 3
    assert len(seq) == 4
    assert seq.sets == [{0}, set(), {1}, {1, 2}]


def test_cotrees_keep_slots_only():
    t = Cotree(isrecon.Graph(1, [0]))
    t.nodes.append(CotreeNode(LEAF, 1))
    t.root = 0
    for obj in (t, t.nodes[0]):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.undeclared = 1
    assert (t.nodes[0].left, t.nodes[0].right, t.nodes[0].leaf_graph) == (-1, -1, None)
    assert t._alpha is None and t.all_leaves_trivial()
