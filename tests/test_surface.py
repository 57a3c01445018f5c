"""The package root exports exactly what users call, no module in the
package imports a name it never uses, the result records are plain named
tuples that import nothing heavy, and vertex sets cross one boundary: the
root packs each set once, and every function below it takes range-checked
bitmasks."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import isrecon
from isrecon import (Graph, InputError, build_witness, decide, gen_composed,
                     tj_decide)
from isrecon.chordal import (EliminationOrdering, is_dominating, leaf_reachable,
                             leaf_ris_table)
from isrecon.cotree import LEAF, Cotree, CotreeNode, build_maximal_cotree
from isrecon.engine import Decision, NodeValues, RisTable, compute_ris_tables
from isrecon.graph import is_independent
from isrecon.oracle import SolutionGraph
from isrecon.witness import (SuSequence, TarSequence, bridge_max_sets,
                             build_su_sequence, sequence_to_max)

from helpers import two_k2

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


TWO_K2 = two_k2()  # A = {0, 2} reaches B = {1, 3} at k = 1 in four moves
COMPOSED = gen_composed([6, 7, 6], 0.5, 5)  # three prime chordal leaves


@pytest.mark.parametrize("run", [
    lambda: decide(TWO_K2, [0, 2], [1, 3], 1),
    lambda: tj_decide(TWO_K2, [0, 2], [1, 3]),
    lambda: build_witness(TWO_K2, [0, 2], [1, 3], 1),
    lambda: decide(COMPOSED, [0], [6], 1),
], ids=["decide", "tj_decide", "build_witness", "decide-prime-leaves"])
def test_a_root_call_packs_and_checks_each_set_once(monkeypatch, run):
    calls = []
    real = Graph.check_vertex_set

    def counting(g, s):
        calls.append(s)
        return real(g, s)

    monkeypatch.setattr(Graph, "check_vertex_set", counting)
    run()
    assert len(calls) == 2


# (name, the call given a graph, its cotree and a vertex mask)
MASK_CALLS = [
    ("Graph.induced", lambda g, t, m: g.induced(m)),
    ("is_independent", lambda g, t, m: is_independent(g, m)),
    ("is_dominating", lambda g, t, m: is_dominating(g, m)),
    ("leaf_ris_table", lambda g, t, m: leaf_ris_table(g, m)),
    ("leaf_reachable", lambda g, t, m: leaf_reachable(g, m, 0, 0)),
    ("compute_ris_tables", lambda g, t, m: compute_ris_tables(t, m)),
    ("build_su_sequence", lambda g, t, m: build_su_sequence(t, t.root, m)),
    ("sequence_to_max", lambda g, t, m: sequence_to_max(t, m, 0)),
    ("bridge_max_sets", lambda g, t, m: bridge_max_sets(t, m, 0, 0)),
]


@pytest.mark.parametrize("call", [c for _, c in MASK_CALLS],
                         ids=[name for name, _ in MASK_CALLS])
@pytest.mark.parametrize("mask", [1 << 4, -1], ids=["bit-n", "negative"])
def test_a_mask_outside_the_graph_is_out_of_range(call, mask):
    g = two_k2()
    with pytest.raises(InputError, match="out of range"):
        call(g, build_maximal_cotree(g), mask)
