"""Seeded sweep comparing the decomposition solver against brute force.

Every instance compares the possible-winner decision of every
candidate and the full achievable-score sets. Weighted instances also
compare every ordered-pair margin, and every necessary-winner decision
and offending candidate with the first rival whose brute-force margin
is positive. Each trial then pads its instance with one friendless
agent that backs a seeded candidate at weight total + 1 and runs the
weighted and possible-winner checks on it too: there the DP's
outside-agent bound empties the backed candidate's necessary sweep
(YES) and every other candidate's possible sweep (NO). Every DP answer
is checked on two nice trees of the poll, from the min-fill and from
the exact minimum-width decomposition, since a correct answer does not
depend on the decomposition. Prints one line per mismatch and a
summary; exits 1 when any mismatch was found.

Usage:
    python3 scripts/crosscheck_random.py --trials 200 --seed 7 --weighted
"""

import argparse
import random
import sys
import time

from socialpolls.dpsolver import (
    achievable_scores_dp,
    margins_dp,
    necessary_winner_dp,
    possible_winner_dp,
)
from socialpolls.graphkit import exact_td_small, heuristic_td, make_nice
from socialpolls.model import AgentPrefs, Instance
from socialpolls.oracle import (
    achievable_scores_bf,
    margins_bf,
    necessary_winner_bf,
    possible_winner_bf,
)
from socialpolls.reductions import gen_random

# exact_td_small's limit is 14 vertices, and the padded poll adds one
MAX_AGENTS = 13


def nice_trees(inst):
    """(name, nice tree) pairs of the decompositions the DP is checked on."""
    g = inst.graph
    return [("min-fill", make_nice(heuristic_td(g))),
            ("exact", make_nice(exact_td_small(g)))]


def check_scores(inst, trees):
    bf = achievable_scores_bf(inst)
    return ["%s: achievable sets differ" % name
            for name, ntd in trees if achievable_scores_dp(inst, ntd) != bf]


def check_weighted(inst, trees):
    mism = []
    for c in inst.candidates:
        bf = margins_bf(inst, c)
        # the offender is the first rival, in candidate order, that can beat c
        first = next((d for d, margin in bf.items() if margin > 0), None)
        expected = (first is None, first)
        if necessary_winner_bf(inst, c)[0] != expected[0]:
            mism.append("necessary(%s): bf decision disagrees with bf margins" % c)
        for name, ntd in trees:
            # one sweep gives the margins of every rival d against c
            for d, dp in margins_dp(inst, ntd, c).items():
                if dp != bf[d]:
                    mism.append("%s: margin(%s,%s): dp=%d bf=%d" % (name, d, c, dp, bf[d]))
            dp = necessary_winner_dp(inst, ntd, c)
            if dp != expected:
                mism.append("%s: necessary(%s): dp=%s bf=%s" % (name, c, dp, expected))
    return mism


def check_possible(inst, trees):
    mism = []
    for c in inst.candidates:
        bf = possible_winner_bf(inst, c)[0]
        for name, ntd in trees:
            dp = possible_winner_dp(inst, ntd, c)
            if dp != bf:
                mism.append("%s: possible(%s): dp=%s bf=%s" % (name, c, dp, bf))
    return mism


def with_backer(inst, c):
    """`inst` with one more agent, friendless and backing `c`, that
    outweighs all the others together."""
    other = next(d for d in inst.candidates if d != c)
    backer = AgentPrefs(c, [c, other], inst.total_weight() + 1)
    return Instance(inst.candidates, inst.agents + (backer,), inst.edges, inst.distinguished)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-agents", type=int, default=8)
    ap.add_argument("--candidates", type=int, default=3)
    ap.add_argument("--edge-prob", type=float, default=0.3)
    ap.add_argument("--max-edges", type=int, default=14)
    ap.add_argument("--weighted", action="store_true")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)
    if args.max_agents > MAX_AGENTS:
        ap.error("--max-agents is at most %d: every trial also runs an exact "
                 "decomposition of the padded poll" % MAX_AGENTS)

    rng = random.Random(args.seed)
    # a second stream, so that the instances drawn match those of runs
    # without the padded check
    backed_rng = random.Random("backer:%d" % args.seed)
    bad = 0
    start = time.monotonic()
    for trial in range(args.trials):
        n = rng.randint(2, args.max_agents)
        while True:
            inst = gen_random(
                rng.randrange(10**6),
                n,
                args.candidates,
                edge_prob=args.edge_prob,
                max_weight=9 if args.weighted else 1,
            )
            if len(inst.graph.edges) <= args.max_edges:
                break
        trees = nice_trees(inst)
        mism = check_scores(inst, trees)
        if args.weighted:
            mism += check_weighted(inst, trees)
        mism += check_possible(inst, trees)
        backed = backed_rng.choice(inst.candidates)
        padded = with_backer(inst, backed)
        pad_trees = nice_trees(padded)
        mism += ["padded for %s: %s" % (backed, line)
                 for line in check_weighted(padded, pad_trees) + check_possible(padded, pad_trees)]
        if mism:
            bad += 1
            for line in mism:
                print("trial %d n=%d: %s" % (trial, n, line))
        elif args.verbose:
            print("trial %d n=%d ok" % (trial, n))
    elapsed = time.monotonic() - start
    print(
        "%d trials, %d mismatching instances, %.1fs" % (args.trials, bad, elapsed)
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
