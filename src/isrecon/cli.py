"""Command-line interface.

Subcommands: decide, witness, tables, oracle, fuzz.  Exit codes:
0 reachable / success, 1 unreachable, 2 input error, 3 unsupported graph
class, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import engine, oracle as oraclemod, witness as witnessmod
from .cotree import build_maximal_cotree
from .errors import InputError, UnreachableError, UnsupportedGraphClassError
from .graph import Graph, VertexSet, is_independent, vertex_set

EXIT_REACHABLE = 0
EXIT_UNREACHABLE = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


@dataclass
class Instance:
    graph: Graph
    set_a: VertexSet
    set_b: VertexSet
    k: int
    model: str


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _is_int(token: str) -> bool:
    # str.isdigit alone also accepts digits such as '²' that int() rejects
    return token.isascii() and token.removeprefix("-").isdigit()


def load_graph(path: str) -> Graph:
    """Read the `n m` + edge-list format, warning on duplicate edges."""
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read graph file {path}: {e}") from e
    rows = [(no, _strip(line)) for no, line in enumerate(raw, start=1)]
    rows = [(no, line) for no, line in rows if line]
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
    adj = [0] * n
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


def parse_set(spec: str, n: int, what: str) -> VertexSet:
    """Comma-separated ids, `@file` with one id per line, or empty ('' / '-')."""
    tokens: list[tuple[str, str]] = []  # (location, token)
    if spec.startswith("@"):
        path = spec[1:]
        try:
            with open(path) as fh:
                for no, line in enumerate(fh, start=1):
                    tok = _strip(line)
                    if tok:
                        tokens.append((f"{path}:{no}", tok))
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read set file {path}: {e}") from e
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
                   model: str = oraclemod.TAR) -> Instance:
    g = load_graph(graph_file)
    a = parse_set(a_spec, g.n, "set A")
    b = parse_set(b_spec, g.n, "set B")
    for name, s in (("A", a), ("B", b)):
        if not is_independent(g, s):
            raise InputError(f"set {name} is not independent")
    if model == oraclemod.TJ:
        if len(a) != len(b):
            raise InputError("the TJ model requires |A| = |B|")
        k = len(a) - 1 if a else 0
    return Instance(g, a, b, k, model)


def _setline(s: VertexSet) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def cmd_decide(args) -> int:
    inst = parse_instance(args.graph, args.a, args.b, args.k, args.model)
    # under TJ, inst.k is |A| - 1, the TAR bound with the same answer
    verdict = engine.decide(inst.graph, inst.set_a, inst.set_b, inst.k)
    ok, diag = verdict.reachable, verdict.failure_witness
    if args.format == "json":
        print(json.dumps({"reachable": ok, "k": inst.k, "n": inst.graph.n,
                          "model": inst.model}))
    else:
        print("REACHABLE" if ok else "UNREACHABLE")
        if diag is not None:
            node, reason = diag
            where = f"node {node}" if node is not None else "instance"
            print(f"{where}: {reason}")
    return EXIT_REACHABLE if ok else EXIT_UNREACHABLE


def cmd_witness(args) -> int:
    inst = parse_instance(args.graph, args.a, args.b, args.k, oraclemod.TAR)
    seq = witnessmod.build_witness(inst.graph, inst.set_a, inst.set_b, inst.k)
    if args.format == "json":
        print(json.dumps({
            "reachable": True,
            "length": seq.length,
            "sets": [sorted(s) for s in seq.sets],
            "steps": [{"op": op, "v": v} for op, v in seq.steps()],
            "stats": {"n": inst.graph.n, "k": inst.k,
                      "alpha_accessible": seq.alpha_accessible},
        }))
    elif args.format == "diff":
        print(_setline(seq.sets[0]))
        for op, v in seq.steps():
            print(f"+{v}" if op == "add" else f"-{v}")
    else:
        for s in seq.sets:
            print(_setline(s))
    return EXIT_REACHABLE


def cmd_tables(args) -> int:
    inst = parse_instance(args.graph, args.a, args.a, args.k, oraclemod.TAR)
    t = build_maximal_cotree(inst.graph)
    ris = engine.compute_ris_tables(t, inst.set_a)
    vals = engine.compute_freedom(t, inst.set_a, inst.k, ris)
    print(t.dump())
    for u in t.preorder():
        tab = ris[u]
        line = (f"node {u}: base={tab.base} values={tab.values} "
                f"freedom={vals.freedom[u]} blocked={vals.blocked[u]}")
        if tab.tuples is not None:
            line += f" tuples={tab.tuples}"
        print(line)
    return EXIT_REACHABLE


def cmd_oracle(args) -> int:
    inst = parse_instance(args.graph, args.a, args.b, args.k, args.model)
    fast = engine.decide(inst.graph, inst.set_a, inst.set_b, inst.k).reachable
    # the oracle's TJ model counts all |A| tokens, not the TAR bound |A| - 1
    k = len(inst.set_a) if inst.model == oraclemod.TJ else inst.k
    ok, length = oraclemod.oracle_reach(inst.graph, inst.set_a, inst.set_b, k,
                                        inst.model)
    if fast != ok:
        print(f"MISMATCH: engine={fast} oracle={ok}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"{'REACHABLE' if ok else 'UNREACHABLE'}"
          + (f" length={length}" if ok else ""))
    return EXIT_REACHABLE if ok else EXIT_UNREACHABLE


def cmd_fuzz(args) -> int:
    import random
    if args.size < 1 or args.count < 0:
        raise InputError("fuzz needs --size at least 1 and --count at least 0")
    rng = random.Random(args.seed)
    total = args.count
    for case in range(total):
        g, _ = oraclemod.gen_cograph(rng.randint(1, args.size),
                                     rng.randrange(1 << 30))
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
        if fast:
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
                        help="token lower bound (TAR model)")

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
