"""Per-layer spans and counters around ``isrecon``, installed from outside.

Each layer's public functions are replaced, at every place an ``isrecon``
module binds them, by a wrapper that records a span (query, parent, layer,
start, end) and takes counts from the call's arguments and return value.
A layer's self time is its spans' time minus the time of their child
spans.  Spans are kept in flat lists of integers, so tracing adds no
containers for the cyclic collector to scan while a query runs.
"""

from __future__ import annotations

import gc
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# Span layer -> the (module, attribute) pairs it wraps.
LAYERS = {
    "graph.induced": [("isrecon.graph", "Graph.induced")],
    "cotree.build": [("isrecon.cotree", "build_maximal_cotree")],
    "chordal.chordality": [("isrecon.chordal", "chordality")],
    "chordal.leaf": [("isrecon.chordal", "leaf_ris_table"),
                     ("isrecon.chordal", "leaf_reachable")],
    "engine.tables": [("isrecon.engine", "compute_ris_tables")],
    "engine.freedom": [("isrecon.engine", "compute_freedom")],
    "engine.decide": [("isrecon.engine", "decide")],
    "witness.build": [("isrecon.witness", "build_witness"),
                      ("isrecon.witness", "accessible_subgraph")],
    "witness.climb": [("isrecon.witness", "sequence_to_max"),
                      ("isrecon.witness", "build_su_sequence")],
    "witness.bridge": [("isrecon.witness", "bridge_max_sets")],
    "witness.validate": [("isrecon.witness", "validate_tar_sequence")],
    "cli.load_graph": [("isrecon.cli", "load_graph")],
    "cli.parse_set": [("isrecon.cli", "parse_set")],
    "cli.command": [("isrecon.cli", "cmd_witness")],
}
# Spans that belong to no layer: the benchmark's own call, and the count
# hooks, whose time is thereby kept out of their parent's self time.
QUERY, HOOK = "query", "trace.hook"
SPAN_NAMES = [QUERY, HOOK, *LAYERS]

# Span layer -> the count of its calls.
CALLS = {
    "graph.induced": "graph.induced_calls", "cotree.build": "cotree.builds",
    "chordal.chordality": "chordal.chordality_calls",
    "engine.tables": "engine.table_passes", "engine.decide": "engine.decides",
    "witness.validate": "witness.validations",
}
COUNTS = (
    "graph.induced_calls", "cotree.builds", "cotree.nodes", "cotree.depth",
    "chordal.chordality_calls", "chordal.prime_leaves", "chordal.max_leaf_n",
    "engine.table_entries", "engine.table_passes", "engine.decides",
    "witness.validations", "witness.steps", "cli.output_bytes",
    "runtime.gc_collections",
)


def cotree_depth(t) -> int:
    """Edges on the longest root-to-leaf path of an ``isrecon`` Cotree."""
    deepest = 0
    stack = [(t.root, 0)]
    while stack:
        u, d = stack.pop()
        node = t.nodes[u]
        if node.is_leaf:
            deepest = max(deepest, d)
        else:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return deepest


class Trace:
    def __init__(self):
        self.span_query: list[int] = []
        self.span_layer: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self._open = [-1]
        self.queries = 0
        self.counts = dict.fromkeys(COUNTS, 0)   # summed over queries
        self.gc_ns = 0
        self._gc_start = 0
        self._trees: list = []                   # this query's cotrees
        self._leaves: dict = {}                  # this query's prime leaves

    def open(self, layer: int) -> int:
        sid = len(self.span_layer)
        self.span_query.append(self.queries)
        self.span_layer.append(layer)
        self.span_parent.append(self._open[-1])
        self.span_end.append(0)
        self._open.append(sid)
        self.span_start.append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter_ns()
        self._open.pop()

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def end_query(self) -> None:
        """Fold the per-query structure counts into the totals."""
        self.counts["cotree.depth"] += max(map(cotree_depth, self._trees), default=0)
        self.counts["chordal.prime_leaves"] += len(self._leaves)
        self.counts["chordal.max_leaf_n"] += max(self._leaves.values(), default=0)
        self._trees.clear()
        self._leaves.clear()
        self.queries += 1

    def _on_gc(self, phase: str, info: dict) -> None:
        if len(self._open) == 1:
            return              # between queries: the benchmark's own collection
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    # -- counts taken from a call: (trace, return value, positional args) --

    def _count_cotree(self, t, args):
        self.counts["cotree.nodes"] += len(t.nodes)
        self._trees.append(t)

    def _count_leaf(self, r, args):
        g = args[0]
        self._leaves[g.origin] = g.n

    def _count_tables(self, tables, args):
        self.counts["engine.table_entries"] += sum(len(t.values) for t in tables.values())

    def _count_witness(self, seq, args):
        if hasattr(seq, "length"):               # build_witness, not accessible_subgraph
            self.counts["witness.steps"] += seq.length

    HOOKS = {
        "cotree.build": _count_cotree,
        "chordal.leaf": _count_leaf,
        "engine.tables": _count_tables,
        "witness.build": _count_witness,
    }

    def _wrap(self, layer: str, fn):
        index = SPAN_NAMES.index(layer)
        calls = CALLS.get(layer)
        hook = self.HOOKS.get(layer)
        hook_index = SPAN_NAMES.index(HOOK)

        def traced(*args, **kwargs):
            sid = self.open(index)
            try:
                r = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if calls is not None:
                self.counts[calls] += 1
            if hook is not None:
                hid = self.open(hook_index)
                hook(self, r, args)
                self.close(hid)
            return r

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function wherever an isrecon module binds it."""
        for module_name in {m for targets in LAYERS.values() for m, _ in targets}:
            importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "isrecon" or name.startswith("isrecon.")]
        undo = []
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:                            # a method
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = getattr(owner, attr)
                    places = [(owner, attr)]
                else:
                    original = getattr(owner, attr)
                    places = [(m, key) for m in modules
                              for key, value in vars(m).items() if value is original]
                wrapper = self._wrap(layer, original)
                for place, key in places:
                    setattr(place, key, wrapper)
                    undo.append((place, key, original))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for place, key, original in reversed(undo):
                setattr(place, key, original)

    @contextmanager
    def query(self):
        sid = self.open(SPAN_NAMES.index(QUERY))
        try:
            yield
        finally:
            self.close(sid)
            self.end_query()

    def self_ns(self) -> dict:
        """Total self time per span name, in nanoseconds."""
        n = len(self.span_layer)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = dict.fromkeys(SPAN_NAMES, 0)
        for i in range(n):
            out[SPAN_NAMES[self.span_layer[i]]] += \
                self.span_end[i] - self.span_start[i] - child[i]
        return out

    def metrics(self) -> dict:
        """Per-query means of every layer's self time (ms) and every count."""
        q = max(self.queries, 1)
        own = self.self_ns()
        out = {f"{layer}_ms": own[layer] / q / 1e6 for layer in LAYERS}
        out.update({name: total / q for name, total in self.counts.items()})
        out["runtime.gc_ms"] = self.gc_ns / q / 1e6
        return out

    def spans(self) -> dict:
        return {"names": SPAN_NAMES, "query": self.span_query,
                "layer": self.span_layer, "parent": self.span_parent,
                "start_ns": self.span_start, "end_ns": self.span_end}
