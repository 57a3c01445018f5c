import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isrecon import engine
from isrecon.cli import main, parse_instance, parse_set
from isrecon.errors import InputError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    """Run the command in a fresh interpreter, as a user would."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "isrecon.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.g"
    p.write_text("# a 4-cycle\n4 4\n0 1\n1 2\n2 3\n0 3\n")
    return str(p)


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.g"
    p.write_text("4 3\n0 1\n0 2\n0 3\n")
    return str(p)


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.g"
    p.write_text("4 3\n0 1\n1 2\n2 3\n")
    return str(p)


def test_parse_instance(c4_file):
    inst = parse_instance(c4_file, "0,2", "1,3", 1)
    assert inst.graph.n == 4
    assert inst.set_a == frozenset({0, 2})
    assert inst.set_b == frozenset({1, 3})
    assert inst.k == 1


def test_parse_set_variants(tmp_path):
    assert parse_set("0,2,5", 6, "A") == frozenset({0, 2, 5})
    assert parse_set("", 6, "A") == frozenset()
    assert parse_set("-", 6, "A") == frozenset()
    f = tmp_path / "s.txt"
    f.write_text("1\n# comment\n3\n")
    assert parse_set(f"@{f}", 6, "A") == frozenset({1, 3})
    with pytest.raises(InputError):
        parse_set("0,0", 6, "A")  # duplicate
    with pytest.raises(InputError):
        parse_set("7", 6, "A")
    with pytest.raises(InputError):
        parse_set("x", 6, "A")


def test_graph_parse_errors(tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("2 1\n1 1\n")
    with pytest.raises(InputError, match="self-loop"):
        parse_instance(str(bad), "", "", 0)
    bad.write_text("2 1\n0 5\n")
    with pytest.raises(InputError, match="out of range"):
        parse_instance(str(bad), "", "", 0)
    bad.write_text("2 2\n0 1\n")
    with pytest.raises(InputError):
        parse_instance(str(bad), "", "", 0)


def test_duplicate_edge_warns_and_dedupes(tmp_path, capsys):
    f = tmp_path / "dup.g"
    f.write_text("3 2\n0 1\n0 1\n")
    inst = parse_instance(str(f), "2", "2", 0)
    assert inst.graph.edge_count() == 1
    assert "duplicate edge" in capsys.readouterr().err


def test_non_independent_set_rejected(c4_file):
    with pytest.raises(InputError, match="independent"):
        parse_instance(c4_file, "0,1", "2", 0)


def test_decide_exit_codes(c4_file, capsys):
    assert main(["decide", c4_file, "0,2", "1,3", "-k", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("UNREACHABLE")
    assert "freedom-mismatch" in out
    assert main(["decide", c4_file, "0,2", "1,3", "-k", "0"]) == 0
    assert capsys.readouterr().out.startswith("REACHABLE")


def test_decide_tj_model(c4_file, capsys):
    assert main(["decide", c4_file, "0,2", "1,3", "--model", "tj"]) == 1
    capsys.readouterr()


def test_decide_json(c4_file, capsys):
    assert main(["decide", c4_file, "0,2", "1,3", "-k", "0",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"reachable": True, "k": 0, "n": 4, "model": "tar"}


def test_witness_text_and_diff(c4_file, capsys):
    assert main(["witness", c4_file, "0,2", "1,3", "-k", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "{0,2}"
    assert lines[-1] == "{1,3}"
    assert main(["witness", c4_file, "0,2", "1,3", "-k", "0",
                 "--format", "diff"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "{0,2}"
    assert set(lines[1:]) == {"-0", "-2", "+1", "+3"}


def test_witness_json_schema(c4_file, capsys):
    assert main(["witness", c4_file, "0,2", "1,3", "-k", "0",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reachable"] is True
    assert payload["length"] == len(payload["steps"]) == 4
    assert all(step["op"] in ("add", "remove") for step in payload["steps"])
    assert payload["stats"] == {"n": 4, "k": 0, "alpha_accessible": 2}


def test_witness_unreachable(c4_file, capsys):
    assert main(["witness", c4_file, "0,2", "1,3", "-k", "1"]) == 1
    assert capsys.readouterr().out.strip() == "UNREACHABLE"


def test_witness_unsupported_graph(p4_file, capsys):
    assert main(["witness", p4_file, "0,2", "1,3", "-k", "1"]) == 3
    assert "error" in capsys.readouterr().err


def test_tables_output(c4_file, capsys):
    assert main(["tables", c4_file, "0,2", "-k", "1"]) == 0
    out = capsys.readouterr().out
    assert "join" in out
    assert "freedom=" in out and "blocked=" in out and "tuples=" in out


def test_oracle_command(c4_file, capsys):
    assert main(["oracle", c4_file, "0,2", "1,3", "-k", "1"]) == 1
    assert main(["oracle", c4_file, "0,2", "1,3", "-k", "0"]) == 0
    out = capsys.readouterr().out
    assert "length=4" in out


def test_oracle_command_tj_model(tmp_path, capsys):
    f = tmp_path / "2k2.g"
    f.write_text("4 2\n0 1\n2 3\n")
    assert main(["oracle", str(f), "0,2", "1,3", "--model", "tj"]) == 0
    assert capsys.readouterr().out.strip() == "REACHABLE length=2"
    assert main(["oracle", str(f), "0,2", "1,3", "--model", "tj", "-k", "7"]) == 0


def test_fuzz_command(capsys):
    assert main(["fuzz", "--count", "25", "--size", "8", "--seed", "7"]) == 0
    assert capsys.readouterr().out.strip() == "25/25 OK"


def test_input_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.g")
    assert main(["decide", missing, "0", "1", "-k", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_witness_json_same_endpoints_reports_alpha(star_file, capsys):
    # at k = 1 the token on leaf 1 blocks the center 0, so S = {1, 2, 3}
    assert main(["witness", star_file, "1", "1", "-k", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sets"] == [[1]] and payload["length"] == 0
    assert payload["stats"] == {"n": 4, "k": 1, "alpha_accessible": 3}
    assert main(["witness", star_file, "1", "2", "-k", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"] == {"n": 4, "k": 1, "alpha_accessible": 3}


def test_token_bound_above_set_size_exits_2(c4_file):
    proc = run_cli("tables", c4_file, "0,2", "-k", "5")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "error" in proc.stderr


def test_non_ascii_digit_in_set_exits_2(c4_file):
    proc = run_cli("decide", c4_file, "0,\u00b2", "1", "-k", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "bad vertex id" in proc.stderr


def test_non_ascii_digit_in_graph_file_exits_2(tmp_path):
    for text in ("4 1\n0 \u00b2\n", "\u00b2 0\n"):
        f = tmp_path / "sup.g"
        f.write_text(text, encoding="utf-8")
        proc = run_cli("decide", str(f), "0", "1", "-k", "1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "expected" in proc.stderr
    f.write_bytes(b"4 1\n0 \xff\n")
    proc = run_cli("decide", str(f), "0", "1", "-k", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "cannot read" in proc.stderr


def test_fuzz_bad_size_or_count_exits_2():
    for flag in ("--size", "--count"):
        proc = run_cli("fuzz", flag, "-1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and flag in proc.stderr


def test_unexpected_exception_exits_4(c4_file, capsys, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(engine, "decide", broken)
    assert main(["decide", c4_file, "0,2", "1,3", "-k", "1"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: boom\n"
