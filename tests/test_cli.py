import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrecon import Graph, cli, engine
from isrecon.cli import main, parse_instance, parse_set
from isrecon.errors import InputError
from isrecon.graph import is_independent

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
    g, a, b, k = parse_instance(c4_file, "0,2", "1,3", 1)
    assert g.n == 4
    assert a == frozenset({0, 2})
    assert b == frozenset({1, 3})
    assert k == 1


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
    g, *_ = parse_instance(str(f), "2", "2", 0)
    assert g.edge_count() == 1
    assert "duplicate edge" in capsys.readouterr().err


def test_non_independent_set_rejected(c4_file, capsys):
    # the command's library call checks the sets, naming the first dependent one
    for cmd, *sets in (["decide", "0,1", "2"], ["decide", "2", "0,1"],
                       ["witness", "0,1", "2"], ["tables", "0,1"],
                       ["oracle", "0,1", "2"]):
        assert main([cmd, c4_file, *sets]) == 2, cmd
        name = "A" if "," in sets[0] else "B"
        assert capsys.readouterr().err == f"error: set {name} is not independent\n"
    # wrong in two ways at once: the TJ size check, made while parsing, speaks first
    assert main(["decide", c4_file, "0,1", "2", "--model", "tj"]) == 2
    assert capsys.readouterr().err == "error: the TJ model requires |A| = |B|\n"


def test_a_command_checks_each_set_for_independence_once(c4_file, capsys,
                                                         monkeypatch):
    real = is_independent
    calls = []

    def counting(g, m):
        calls.append(m)
        return real(g, m)

    for name, module in list(sys.modules.items()):
        if name.startswith("isrecon") and getattr(module, "is_independent", None) is real:
            monkeypatch.setattr(module, "is_independent", counting)
    assert main(["decide", c4_file, "0,2", "1,3", "-k", "1"]) == 1
    capsys.readouterr()
    assert calls == [0b0101, 0b1010]


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
    assert payload == {"reachable": True, "k": 0, "n": 4, "model": "tar",
                       "failure": None}


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


# A star 0-{1, 2}, an edge 3-4 and the isolated vertices 5 and 6: unions
# nested two deep at the root and one deep under the star's join.
GOLDEN_GRAPH = "7 3\n0 1\n0 2\n3 4\n"
GOLDEN_DUMP = """\
union #0 |V|=7 V=[0, 1, 2, 3, 4, 5, 6]
  union #5 |V|=5 V=[0, 1, 2, 3, 4]
    join #1 |V|=3 V=[0, 1, 2]
      leaf(trivial) #9 |V|=1 V=[0]
      union #10 |V|=2 V=[1, 2]
        leaf(trivial) #11 |V|=1 V=[1]
        leaf(trivial) #12 |V|=1 V=[2]
    join #2 |V|=2 V=[3, 4]
      leaf(trivial) #7 |V|=1 V=[3]
      leaf(trivial) #8 |V|=1 V=[4]
  union #6 |V|=2 V=[5, 6]
    leaf(trivial) #3 |V|=1 V=[5]
    leaf(trivial) #4 |V|=1 V=[6]
"""
GOLDEN_NODES = {
    # the star's center holds a token, so its join's table is not flat
    ("0,3,5", "3"): """\
node 0: base=3 values=[5, 5, 5, 5] freedom=3 blocked=False tuples=[(0, 0), (0, 0), (0, 0), (1, 0)]
node 5: base=2 values=[3, 3, 2] freedom=1 blocked=False tuples=[(0, 0), (0, 0), (1, 1)]
node 1: base=1 values=[2, 1] freedom=0 blocked=False
node 9: base=1 values=[1, 1] freedom=0 blocked=False
node 10: base=0 values=[2] freedom=0 blocked=False tuples=[(0, 0)]
node 11: base=0 values=[1] freedom=0 blocked=False
node 12: base=0 values=[1] freedom=0 blocked=False
node 2: base=1 values=[1, 1] freedom=0 blocked=False
node 7: base=1 values=[1, 1] freedom=0 blocked=False
node 8: base=0 values=[1] freedom=0 blocked=False
node 6: base=1 values=[2, 2] freedom=0 blocked=False tuples=[(0, 0), (0, 0)]
node 3: base=1 values=[1, 1] freedom=0 blocked=False
node 4: base=0 values=[1] freedom=0 blocked=False
""",
    # every table is flat; the star's leaves hold a token each and block its center
    ("1,2,3,5", "4"): """\
node 0: base=4 values=[5, 5, 5, 5, 5] freedom=4 blocked=False tuples=[(0, 0), (0, 0), (0, 0), (1, 0), (2, 1)]
node 5: base=3 values=[3, 3, 3, 3] freedom=2 blocked=False tuples=[(0, 0), (0, 0), (1, 0), (2, 1)]
node 1: base=2 values=[2, 2, 2] freedom=1 blocked=False
node 9: base=0 values=[1] freedom=0 blocked=True
node 10: base=2 values=[2, 2, 2] freedom=1 blocked=False tuples=[(0, 0), (0, 0), (1, 1)]
node 11: base=1 values=[1, 1] freedom=0 blocked=False
node 12: base=1 values=[1, 1] freedom=0 blocked=False
node 2: base=1 values=[1, 1] freedom=0 blocked=False
node 7: base=1 values=[1, 1] freedom=0 blocked=False
node 8: base=0 values=[1] freedom=0 blocked=False
node 6: base=1 values=[2, 2] freedom=1 blocked=False tuples=[(0, 0), (0, 0)]
node 3: base=1 values=[1, 1] freedom=0 blocked=False
node 4: base=0 values=[1] freedom=0 blocked=False
""",
}


@pytest.mark.parametrize("a, k", list(GOLDEN_NODES))
def test_tables_output_is_pinned(tmp_path, capsys, a, k):
    p = tmp_path / "golden.g"
    p.write_text(GOLDEN_GRAPH)
    assert main(["tables", str(p), a, "-k", k]) == 0
    assert capsys.readouterr() == (GOLDEN_DUMP + GOLDEN_NODES[a, k], "")


def test_every_command_answers_on_the_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.g"
    p.write_text("0 0\n")
    assert main(["tables", str(p), "-", "-k", "0"]) == 0
    assert capsys.readouterr() == ("", "")
    # a bound above the empty set's size is refused as on a one-vertex graph
    assert main(["tables", str(p), "-", "-k", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: token bound k=1 is outside 0..0, the size of the set\n")
    for cmd in ("decide", "witness", "oracle"):
        assert main([cmd, str(p), "-", "-", "-k", "0"]) == 0, cmd
    assert capsys.readouterr().err == ""


def test_oracle_command(c4_file, capsys):
    assert main(["oracle", c4_file, "0,2", "1,3", "-k", "1"]) == 1
    assert main(["oracle", c4_file, "0,2", "1,3", "-k", "0"]) == 0
    out = capsys.readouterr().out
    assert "length=4" in out


def test_oracle_token_bound_above_a_set_is_unreachable(c4_file, capsys):
    # k > |A|: decide answers from the set sizes, and oracle agrees
    assert main(["decide", c4_file, "0", "1,3", "-k", "2"]) == 1
    assert main(["oracle", c4_file, "0", "1,3", "-k", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "UNREACHABLE" and err == ""


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


@pytest.mark.parametrize("argv", [
    ["decide", "0,2", "0,2"], ["witness", "0,2", "0,2"], ["tables", "0,2"],
    ["oracle", "0,2", "0,2"],
], ids=lambda argv: argv[0])
def test_negative_token_bound_exits_2(c4_file, capsys, argv):
    cmd, *sets = argv
    assert main([cmd, c4_file, *sets, "-k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "token bound k=-1" in captured.err


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


@pytest.mark.parametrize("n", ["1000000000000000", "100000000000000000000"])
def test_huge_vertex_count_in_header_exits_2(tmp_path, capsys, n):
    # the rows cannot be allocated (MemoryError) or sized (OverflowError);
    # without the comment the file is plain and the packed pass tries first
    f = tmp_path / "huge.g"
    for text, line in ((f"# more vertices than memory\n{n} 0\n", 2), (f"{n} 0\n", 1)):
        f.write_text(text)
        assert main(["decide", str(f), "-", "-", "-k", "0"]) == 2
        assert f"huge.g:{line}: n={n} is too large" in capsys.readouterr().err


def test_huge_edge_count_in_header_exits_2(tmp_path, capsys):
    # the packed pass must not build a form pattern m lines long
    f = tmp_path / "many.g"
    f.write_text("3 100000000000000000000\n")
    assert main(["decide", str(f), "-", "-", "-k", "0"]) == 2
    err = capsys.readouterr().err
    assert "declares 100000000000000000000 edges but 0 lines follow" in err


def test_fuzz_bad_size_or_count_exits_2():
    for flag in ("--size", "--count"):
        proc = run_cli("fuzz", flag, "-1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and flag in proc.stderr


def test_fuzz_size_above_the_oracle_cap_exits_2(capsys):
    # every case goes through the oracle, so no draw may exceed its cap
    assert main(["fuzz", "--count", "3", "--size", "21", "--seed", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--size in 1..20" in err


def test_non_chordal_prime_leaf_exits_3(tmp_path):
    # C5 joined with K1: the C5 leaf is prime and not chordal
    f = tmp_path / "c5k1.g"
    f.write_text("10 10\n0 1\n1 2\n2 3\n3 4\n0 4\n"
                 "0 5\n1 5\n2 5\n3 5\n4 5\n")
    proc = run_cli("decide", str(f), "0,2", "1,3", "-k", "1")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and "not chordal" in proc.stderr


def test_unexpected_exception_exits_4(c4_file, capsys, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(engine, "decide", broken)
    assert main(["decide", c4_file, "0,2", "1,3", "-k", "1"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: boom\n"


def test_decide_json_names_the_failure(tmp_path, capsys):
    f = tmp_path / "p3.g"
    f.write_text("3 2\n0 1\n1 2\n")  # the path 0 - 1 - 2
    assert main(["decide", str(f), "0,2", "1", "-k", "1"]) == 1
    assert capsys.readouterr().out == "UNREACHABLE\nnode 1: freedom-mismatch\n"
    assert main(["decide", str(f), "0,2", "1", "-k", "1", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failure"] == {"node": 1, "reason": "freedom-mismatch"}


# Tokens for graph files and set specs: ids in and out of range, negative
# and non-ASCII numbers, junk, comments and blanks.
IDS = st.sampled_from("0123456")
JUNK = st.sampled_from(["9", "12", "-1", "²", "x", "1.5", "#", "", " "])
TOKENS = st.one_of(IDS, JUNK)
JUNK_LINES = st.lists(TOKENS, max_size=3).map(" ".join)


@st.composite
def graph_files(draw) -> bytes:
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [f"{u} {v}" for u, v in edges]
    plain = draw(st.booleans())
    if plain and draw(st.booleans()):
        # an extra line of ids may repeat an edge, be a self-loop or leave the range
        edges.insert(draw(st.integers(0, len(edges))), f"{draw(IDS)} {draw(IDS)}")
    lines = [f"{n} {len(edges)}"] + edges
    if plain:  # with or without the final newline
        return ("\n".join(lines) + draw(st.sampled_from(["", "\n"]))).encode()
    at = draw(st.integers(min_value=0, max_value=len(lines)))
    lines[at:at + draw(st.integers(0, 1))] = [draw(JUNK_LINES)]
    return "\n".join(lines).encode() + draw(st.binary(max_size=4))


@st.composite
def cli_runs(draw, graph_path: str, set_path: str):
    command = draw(st.sampled_from(["decide", "witness", "tables", "oracle"]))
    specs = st.one_of(st.just("-"), st.just(f"@{set_path}"),
                      st.lists(IDS, max_size=4).map(",".join),
                      st.lists(TOKENS, max_size=4).map(",".join))
    argv = [command, "-k", str(draw(st.integers(min_value=-2, max_value=8)))]
    if command in ("decide", "oracle"):
        argv += ["--model", draw(st.sampled_from(["tar", "tj"]))]
    formats = {"decide": ["text", "json"], "witness": ["text", "diff", "json"]}
    if command in formats:
        argv += ["--format", draw(st.sampled_from(formats[command]))]
    argv += ["--", graph_path, draw(specs)]
    if command != "tables":
        argv.append(draw(specs))
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path_factory, data):
    """Random and malformed graph files, set specs and k, run in-process:
    every run ends in exit 0-3, never in exit 4 or an escaped exception."""
    root = tmp_path_factory.getbasetemp()
    graph_path, set_path = root / "fuzz.g", root / "fuzz.set"
    graph_path.write_bytes(data.draw(graph_files()))
    set_path.write_bytes(data.draw(st.one_of(
        st.lists(TOKENS, max_size=4).map("\n".join).map(str.encode),
        st.binary(max_size=8))))
    argv = data.draw(cli_runs(str(graph_path), str(set_path)))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())


def _load(fn, *args):
    """A graph or an InputError's text, and what went to stderr."""
    with redirect_stderr(io.StringIO()) as err:
        try:
            out = fn(*args)
        except InputError as e:
            out = str(e)
    return out, err.getvalue()


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_packed_reader_matches_the_validating_loop(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "same.g"
    raw = data.draw(graph_files())
    path.write_bytes(raw)
    assert _load(cli.load_graph, str(path)) == \
        _load(cli._validated_graph, raw, str(path))


@st.composite
def plain_files(draw) -> tuple[bytes, Graph]:
    n = draw(st.integers(min_value=1, max_value=40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: frozenset(e), max_size=60))
    text = "".join(f"{line}\n" for line in
                   [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges])
    return text.encode(), Graph.from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_plain_files_skip_the_validating_loop(tmp_path_factory, data):
    def fail(*args):
        raise AssertionError("plain file sent to the validating loop")

    path = tmp_path_factory.getbasetemp() / "plain.g"
    raw, g = data.draw(plain_files())
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_validated_graph", fail)
        assert cli.load_graph(str(path)) == g


def test_graph_file_is_read_once(tmp_path, monkeypatch):
    # a file the packed pass rejects is parsed from the same bytes, so a
    # pipe such as <(cmd) reads the same with or without a comment
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    f = tmp_path / "commented.g"
    f.write_text("# a path\n3 2\n0 1\n1 2\n")
    assert cli.load_graph(str(f)) == Graph.from_edges(3, [(0, 1), (1, 2)])
    assert opened == [str(f)]
