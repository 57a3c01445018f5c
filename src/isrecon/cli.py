"""Command-line interface.

Subcommands: decide, witness, tables, oracle, fuzz.  Exit codes:
0 reachable / success, 1 unreachable, 2 input error, 3 unsupported graph
class, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import engine, oracle as oraclemod, witness as witnessmod
from .cotree import UNION, cotree_of
from .errors import InputError, UnreachableError, UnsupportedGraphClassError
from .graph import Graph, mask_of, vertex_set

EXIT_REACHABLE = 0
EXIT_UNREACHABLE = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _read_bytes(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {what} file {path}: {e}") from e


def _lines(data: bytes, path: str, what: str) -> list[tuple[int, str]]:
    """The numbered non-blank lines of a file's bytes, with `#` comments cut."""
    # decoded as open(path) would decode the file, so that errors read the same
    try:
        rows = [(no, line.split("#", 1)[0].strip()) for no, line
                in enumerate(io.TextIOWrapper(io.BytesIO(data)), start=1)]
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {what} file {path}: {e}") from e
    return [(no, line) for no, line in rows if line]


def _is_int(token: str) -> bool:
    # str.isdigit alone also accepts digits such as '²' that int() rejects
    return token.isascii() and token.removeprefix("-").isdigit()


def load_graph(path: str) -> Graph:
    """Read the `n m` + edge-list format, warning on duplicate edges.

    A file in plain form (an `n m` header, then `u v` lines of ASCII digits
    with one space inside and a newline after every line) is read in one
    packed pass.  Any other file, and a plain one the packed pass rejects,
    goes to the validating loop, which gives the same graph or the
    line-numbered error and warnings.
    """
    data = _read_bytes(path, "graph")
    g = _packed_graph(data)
    return g if g is not None else _validated_graph(data, path)


def _packed_graph(data: bytes) -> Graph | None:
    """The graph of a plain file, or None if any check fails.

    The form checks and the id range run in C, before any row is
    allocated; the degree sum is 2m unless an edge repeats or is a loop.
    """
    toks = data.split()
    if len(toks) < 2 or not (toks[0].isdigit() and toks[1].isdigit()):
        return None
    m = int(toks[1])
    if (len(toks) != 2 * m + 2
            or data.translate(None, b"0123456789") != b" \n" * (m + 1)):
        return None
    n, _, *ids = map(int, toks)
    if max(ids, default=-1) >= n:
        return None
    try:
        adj = [0] * n
        it = iter(ids)
        for u, v in zip(it, it):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    except (MemoryError, OverflowError):
        return None
    if sum(map(int.bit_count, adj)) != 2 * m:
        return None
    return Graph(n, adj)


def _validated_graph(data: bytes, path: str) -> Graph:
    """Parse a graph file line by line, naming the line of each error."""
    rows = _lines(data, path, "graph")
    if not rows:
        raise InputError(f"{path}: empty graph file")
    no, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or not all(map(_is_int, parts)):
        raise InputError(f"{path}:{no}: expected header 'n m'")
    n, m = int(parts[0]), int(parts[1])
    if n < 0 or m < 0:
        raise InputError(f"{path}:{no}: n and m must be nonnegative")
    if len(rows) - 1 != m:
        raise InputError(
            f"{path}: header declares {m} edges but {len(rows) - 1} lines follow")
    try:
        adj = [0] * n
    except (MemoryError, OverflowError):
        raise InputError(f"{path}:{no}: n={n} is too large") from None
    for no, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2 or not all(map(_is_int, parts)):
            raise InputError(f"{path}:{no}: expected an edge 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise InputError(f"{path}:{no}: self-loop {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{path}:{no}: vertex id out of range for n={n}")
        if adj[u] & (1 << v):
            print(f"warning: {path}:{no}: duplicate edge {u} {v} ignored",
                  file=sys.stderr)
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def parse_set(spec: str, n: int, what: str) -> frozenset:
    """Comma-separated ids, `@file` with one id per line, or empty ('' / '-')."""
    tokens: list[tuple[str, str]] = []  # (location, token)
    if spec.startswith("@"):
        path = spec[1:]
        tokens = [(f"{path}:{no}", tok)
                  for no, tok in _lines(_read_bytes(path, "set"), path, "set")]
    elif spec not in ("", "-"):
        tokens = [(what, tok.strip()) for tok in spec.split(",")]
    out = set()
    for loc, tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise InputError(f"{loc}: bad vertex id {tok!r}")
        v = int(tok)
        if v >= n:
            raise InputError(f"{loc}: vertex id {v} out of range for n={n}")
        if v in out:
            raise InputError(f"{loc}: duplicate vertex id {v}")
        out.add(v)
    return frozenset(out)


def parse_instance(graph_file: str, a_spec: str, b_spec: str, k: int,
                   model: str = oraclemod.TAR
                   ) -> tuple[Graph, frozenset, frozenset, int]:
    """The graph, sets A and B, and the TAR token bound (|A| - 1 under TJ).

    Independence is left to each command, which checks it once.
    """
    if k < 0:
        raise InputError(f"token bound k={k} is below 0")
    g = load_graph(graph_file)
    a = parse_set(a_spec, g.n, "set A")
    b = parse_set(b_spec, g.n, "set B")
    if model == oraclemod.TJ:
        if len(a) != len(b):
            raise InputError("the TJ model requires |A| = |B|")
        k = len(a) - 1 if a else 0
    return g, a, b, k


def _setline(s: frozenset) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def cmd_decide(args) -> int:
    g, a, b, k = parse_instance(args.graph, args.a, args.b, args.k, args.model)
    # under TJ, k is |A| - 1, the TAR bound with the same answer
    verdict = engine.decide(g, a, b, k)
    ok, diag = verdict.reachable, verdict.failure_witness
    if args.format == "json":
        failure = None if diag is None else {"node": diag[0], "reason": diag[1]}
        print(json.dumps({"reachable": ok, "k": k, "n": g.n,
                          "model": args.model, "failure": failure}))
    else:
        print("REACHABLE" if ok else "UNREACHABLE")
        if diag is not None:
            node, reason = diag
            where = f"node {node}" if node is not None else "instance"
            print(f"{where}: {reason}")
    return EXIT_REACHABLE if ok else EXIT_UNREACHABLE


def cmd_witness(args) -> int:
    g, a, b, k = parse_instance(args.graph, args.a, args.b, args.k)
    seq = witnessmod.build_witness(g, a, b, k)
    if args.format == "json":
        print(json.dumps({
            "reachable": True,
            "length": seq.length,
            "sets": [sorted(s) for s in seq.sets],
            "steps": [{"op": op, "v": v} for op, v in seq.steps],
            "stats": {"n": g.n, "k": k,
                      "alpha_accessible": seq.alpha_accessible},
        }))
    elif args.format == "diff":
        print(_setline(seq.start))
        for op, v in seq.steps:
            print(f"+{v}" if op == "add" else f"-{v}")
    else:
        for s in seq.sets:
            print(_setline(s))
    return EXIT_REACHABLE


def cmd_tables(args) -> int:
    g, a, _, k = parse_instance(args.graph, args.a, "-", args.k)
    amask = mask_of(a)
    engine._check_independent(g, amask, 0)
    engine.check_token_bound(k, len(a))
    if g.n == 0:  # no cotree, so no nodes to print
        return EXIT_REACHABLE
    t = cotree_of(g)
    ris = engine.compute_ris_tables(t, amask)
    vals = engine.compute_freedom(t, k, ris)
    print(t.dump())
    for u in t.preorder():
        node, tab = t.nodes[u], ris[u]
        blocked = not node.vmask & ~vals.blocked
        line = (f"node {u}: base={tab.base} values={tab.values} "
                f"freedom={vals.freedom[u]} blocked={blocked}")
        if node.kind == UNION:
            splits = [engine.union_split(ris[node.left], ris[node.right], ell)
                      for ell in range(tab.base + 1)]
            line += f" tuples={splits}"
        print(line)
    return EXIT_REACHABLE


def cmd_oracle(args) -> int:
    g, a, b, k = parse_instance(args.graph, args.a, args.b, args.k, args.model)
    fast = engine.decide(g, a, b, k).reachable
    # the oracle's TJ model counts all |A| tokens, not the TAR bound |A| - 1
    if args.model == oraclemod.TJ:
        k = len(a)
    if k > min(len(a), len(b)):     # a set below k: unreachable, as decide says
        ok, length = False, None
    else:
        ok, length = oraclemod.oracle_reach(g, a, b, k, args.model)
    if fast != ok:
        print(f"MISMATCH: engine={fast} oracle={ok}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"{'REACHABLE' if ok else 'UNREACHABLE'}"
          + (f" length={length}" if ok else ""))
    return EXIT_REACHABLE if ok else EXIT_UNREACHABLE


def cmd_fuzz(args) -> int:
    import random
    if not 1 <= args.size <= oraclemod.ORACLE_CAP or args.count < 0:
        raise InputError(f"fuzz needs --size in 1..{oraclemod.ORACLE_CAP}, the "
                         "oracle's cap, and --count at least 0")
    rng = random.Random(args.seed)
    total = args.count
    for case in range(total):
        n, seed = rng.randint(1, args.size), rng.randrange(1 << 30)
        # every other case composes two chordal parts, so prime leaves occur
        composed = case % 2 == 1 and n > 1
        if composed:
            first = rng.randint(1, n - 1)
            g = oraclemod.gen_composed([first, n - first], rng.random(), seed)
        else:
            g, _ = oraclemod.gen_cograph(n, seed)
        sets = oraclemod.get_oracle(g).sets
        a = vertex_set(sets[rng.randrange(len(sets))])
        b = vertex_set(sets[rng.randrange(len(sets))])
        k = rng.randint(0, min(len(a), len(b)))
        fast = engine.decide(g, a, b, k).reachable
        slow, _ = oraclemod.oracle_reach(g, a, b, k)
        if fast != slow:
            print(f"FAIL at case {case}: n={g.n} edges={list(g.edges())} "
                  f"A={sorted(a)} B={sorted(b)} k={k} "
                  f"engine={fast} oracle={slow}", file=sys.stderr)
            return EXIT_INTERNAL
        if fast and not composed:
            witnessmod.build_witness(g, a, b, k)  # validates its own result
    print(f"{total}/{total} OK")
    return EXIT_REACHABLE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isrecon",
        description="Independent-set reconfiguration on cographs and "
                    "union/join compositions of chordal graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    def instance_args(sp, needs_b=True):
        sp.add_argument("graph", help="graph file: 'n m' header plus edge lines")
        sp.add_argument("a", help="set A: comma-separated ids or @file")
        if needs_b:
            sp.add_argument("b", help="set B: comma-separated ids or @file")
        sp.add_argument("-k", type=int, default=0,
                        help="token lower bound (TAR model), at least 0")

    sp = sub.add_parser("decide", help="decide reachability")
    instance_args(sp)
    sp.add_argument("--model", choices=[oraclemod.TAR, oraclemod.TJ],
                    default=oraclemod.TAR)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(func=cmd_decide)

    sp = sub.add_parser("witness", help="emit an explicit TAR-sequence")
    instance_args(sp)
    sp.add_argument("--format", choices=["text", "diff", "json"], default="text")
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("tables", help="dump cotree and per-node DP tables")
    instance_args(sp, needs_b=False)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("oracle", help="brute-force check (small graphs only)")
    instance_args(sp)
    sp.add_argument("--model", choices=[oraclemod.TAR, oraclemod.TJ],
                    default=oraclemod.TAR)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("fuzz", help="compare engine against the oracle")
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--size", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_fuzz)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnreachableError:
        print("UNREACHABLE")
        return EXIT_UNREACHABLE
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedGraphClassError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Exception as e:  # a bug, which must not exit 1 ("unreachable")
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
