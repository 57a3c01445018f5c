"""The package root exports exactly what users call, and no module in the
package imports a name it never uses."""

import ast
import types
from pathlib import Path

import pytest

import isrecon

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
