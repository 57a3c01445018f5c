"""The ROADMAP's reference point: `decide` on a random cograph with n = 8000.

    python3 perfbench/roadmap_baseline.py

Uses the instance of the acceptance suite's scaling criterion
(`gen_cograph(8000, 9000)`, two random maximal independent sets, k = half
the smaller) and prints the untraced median of five calls and the traced
per-layer self times.  Not a workload: it calls the package's own generator
because the ROADMAP figure was taken on it.
"""

import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import isrecon                                   # noqa: E402
from isrecon.oracle import gen_cograph           # noqa: E402

import workloads as wl                           # noqa: E402
from tracing import Trace                        # noqa: E402


def main() -> None:
    g, _ = gen_cograph(8000, 9000)
    rng = random.Random(99)
    a = frozenset(wl.bits(wl.greedy_maximal(list(g.adj), rng)))
    b = frozenset(wl.bits(wl.greedy_maximal(list(g.adj), rng)))
    k = min(len(a), len(b)) // 2
    plain = []
    for _ in range(5):
        t0 = time.perf_counter()
        isrecon.decide(g, a, b, k)
        plain.append(time.perf_counter() - t0)
    trace = Trace()
    with trace.installed():
        for _ in range(5):
            with trace.query():
                isrecon.decide(g, a, b, k)
    print(f"decide: median {statistics.median(plain):.3f} s over 5 calls")
    for name, value in trace.metrics().items():
        if value and name.endswith("_ms"):
            print(f"  {name[:-3]:18s} {value / 1e3:.3f} s")


if __name__ == "__main__":
    main()
