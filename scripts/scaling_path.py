"""Timing sweep of the decomposition solver on two-candidate paths.

Path instances keep width 1 while the orientation count doubles per
agent, so brute force dies quickly and the table-based solver should
not. Prints one line per length: agents, table entries, score-set
size, solver milliseconds, and brute-force milliseconds while the
latter stays affordable.

Usage:
    python3 scripts/scaling_path.py --max-length 24 --bf-cutoff 18
"""

import argparse
import sys
import time

from socialpolls.dpsolver import achievable_scores_dp
from socialpolls.graphkit import heuristic_td, make_nice
from socialpolls.model import AgentPrefs, Instance
from socialpolls.oracle import achievable_scores_bf


def path_instance(n):
    agents = tuple(
        AgentPrefs("a" if x % 2 == 0 else "b", frozenset(["a", "b"]))
        for x in range(n)
    )
    edges = frozenset((x, x + 1) for x in range(n - 1))
    return Instance(("a", "b"), agents, edges, "a", name="path-%d" % n)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-length", type=int, default=4)
    ap.add_argument("--max-length", type=int, default=24)
    ap.add_argument("--step", type=int, default=2)
    ap.add_argument("--bf-cutoff", type=int, default=16,
                    help="run brute force only up to this many agents")
    args = ap.parse_args(argv)

    print("agents entries sets dp-ms bf-ms")
    for n in range(args.min_length, args.max_length + 1, args.step):
        inst = path_instance(n)
        ntd = make_nice(heuristic_td(inst.graph))
        stats = {}
        start = time.monotonic()
        via_dp = achievable_scores_dp(inst, ntd, stats=stats)
        dp_ms = 1000.0 * (time.monotonic() - start)
        if n <= args.bf_cutoff:
            start = time.monotonic()
            via_bf = achievable_scores_bf(inst)
            bf_ms = "%.0f" % (1000.0 * (time.monotonic() - start))
            if via_dp != via_bf:
                print("MISMATCH at %d agents" % n)
                return 1
        else:
            bf_ms = "-"
        print(
            "%6d %7d %4d %5.0f %5s"
            % (n, stats.get("entries", 0), len(via_dp), dp_ms, bf_ms)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
