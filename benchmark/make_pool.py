"""Regenerate `pool.json`: the instances each benchmark slot draws from,
with their solver work and their answers.

A slot keeps the first MEMBERS generated instances whose solver work
(DP table entries, or orientations for brute force) lies in the slot's
narrow band, so every seed the benchmark is given costs about the same
while still solving different polls.

Answers come from brute force where it finishes within BF_LIMIT
orientations, and otherwise from the DP of the commit this was run at,
recorded as "dp@<commit>".

Usage, from the repository root:
    PYTHONPATH=src python3 benchmark/make_pool.py --commit <short-hash>
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from socialpolls.dpsolver import achievable_scores_dp, necessary_winner_dp
from socialpolls.graphkit import connected_components, graph_of, heuristic_td, make_nice
from socialpolls.model import ResourceLimitError
from socialpolls.oracle import achievable_scores_bf, necessary_winner_bf

import workloads as wl

MEMBERS = 5
BF_LIMIT = 1 << 16


def _ntd(inst):
    return make_nice(heuristic_td(graph_of(inst)))


class _Budget(list):
    """A DP trace list that stops the sweep once `limit` entries are
    stored in all, so instances far above a band cost little to reject."""

    def __init__(self, limit):
        super().__init__()
        self.left = limit

    def append(self, row):
        self.left -= row[2]
        if self.left < 0:
            raise ResourceLimitError("work budget exceeded")


# Work of one slot's query set: each returns the work count and stops
# early (ResourceLimitError) once it exceeds `limit`.

def count_work(inst, limit):
    stats = {}
    achievable_scores_dp(inst, _ntd(inst), limit, _Budget(limit), stats)
    return stats["entries"]


def brute_work(inst, limit):
    stats = {}
    achievable_scores_bf(inst, limit, stats=stats)
    return stats["orientations"]


def margin_work(inst, limit):
    """The slot's padded queries, on even-indexed candidates. Their
    sweeps always run to the end, so their cost is the one to hold
    steady; the unpadded queries may stop after the first rival."""
    entries = 0
    budget = _Budget(limit)
    for c in inst.candidates[::2]:
        target = wl.padded(inst, c)
        stats = {}
        ok, _ = necessary_winner_dp(target, _ntd(target), c, limit, budget, stats)
        if not ok:
            raise AssertionError("padded query answered NO")
        entries += stats["entries"]
    return entries


def large_work(inst, limit):
    stats = {}
    necessary_winner_dp(inst, _ntd(inst), inst.distinguished, limit, stats=stats)
    return stats["entries"]


# Answers, as workloads.check reads them.

def _from_scores(inst, sets):
    vecs = [sf.values for sf in sets]
    return {
        "scores": {"count": len(vecs), "digest": wl.score_digest(vecs)},
        "possible": {c: any(v[k] == max(v) for v in vecs)
                     for k, c in enumerate(inst.candidates)},
        "necessary": {c: all(v[k] == max(v) for v in vecs)
                      for k, c in enumerate(inst.candidates)},
    }


def count_answers(inst, commit):
    return _from_scores(inst, achievable_scores_dp(inst, _ntd(inst))), "dp@" + commit


def brute_answers(inst, commit):
    return _from_scores(inst, achievable_scores_bf(inst)), "bf"


def margin_answers(inst, commit):
    ntd = _ntd(inst)
    necessary = {}
    source = "bf"
    for c in inst.candidates[1::2]:
        ok, _ = necessary_winner_dp(inst, ntd, c)
        try:
            ok_bf, _ = necessary_winner_bf(inst, c, BF_LIMIT)
        except ResourceLimitError:
            source = "dp@" + commit
        else:
            if ok_bf != ok:
                raise AssertionError("DP and brute force disagree")
        necessary[c] = ok
    return {"necessary": necessary}, source


def large_answers(inst, commit):
    c = inst.distinguished
    ok, _ = necessary_winner_dp(inst, _ntd(inst), c)
    return {"necessary": {c: ok}}, "dp@" + commit


def _random(n_range, m, edge_prob, forest=False, max_weight=1):
    def draw(rng):
        return {"kind": "random", "seed": rng.randrange(10 ** 6),
                "n": rng.randint(*n_range), "m": m, "edge_prob": edge_prob,
                "forest": forest, "max_weight": max_weight}
    return draw


def _fixed(gen):
    return lambda rng: dict(gen)


def _width_2_or_3(inst):
    return heuristic_td(graph_of(inst)).width in (2, 3)


def _two_components(inst):
    return sum(1 for comp in connected_components(graph_of(inst)) if len(comp) > 1) >= 2


COUNT = (count_work, count_answers)
BRUTE = (brute_work, brute_answers)
# the guard bounds the product of per-component orientation counts, while
# the work is their sum, so a multi-component band needs a looser guard
MULTI = (lambda inst, limit: brute_work(inst, limit ** 2), brute_answers)
MARGIN = (margin_work, margin_answers)
LARGE = (large_work, large_answers)
ANY = (0, 10 ** 7)

# workload -> slots of (name, draw(rng), accept(inst) or None, solver pair,
#                       work band)
SLOTS = {
    "thin-count": [
        # small enough that its two queries are the middle of the pass's cost
        # order, so query_p50_s times this fixed instance on every seed
        ("path", _fixed({"kind": "path", "n": 30}), None, COUNT, ANY),
        ("forest-a", _random((30, 34), 3, 0.9, forest=True), None, COUNT, (12000, 13500)),
        ("forest-b", _random((32, 37), 3, 0.9, forest=True), None, COUNT, (19000, 21000)),
    ],
    "weighted-margin": [
        # three slots alike but for their names, which seed their draws
        *(("wm-3" + tag, _random((12, 14), 3, 0.2, max_weight=9), _width_2_or_3, MARGIN,
           (19000, 20500)) for tag in "abc"),
        ("wm-4", _random((12, 14), 4, 0.2, max_weight=9), _width_2_or_3, MARGIN,
         (28000, 31000)),
    ],
    "bf-small": [
        ("bf-a", _random((9, 11), 3, 0.3), None, BRUTE, (1800, 2200)),
        ("multi", _random((13, 13), 3, 0.17), _two_components, MULTI, (900, 1800)),
        ("bf-c", _random((10, 10), 3, 0.3), None, BRUTE, (3600, 3900)),
        ("bf-b", _random((9, 11), 3, 0.3), None, BRUTE, (6000, 7000)),
        ("path-16", _fixed({"kind": "path", "n": 16}), None, BRUTE, ANY),
    ],
    "large-thin": [
        ("forest-2000", _random((2000, 2000), 2, 0.9, forest=True, max_weight=9),
         None, LARGE, (120000, 130000)),
        ("wpath-2200", lambda rng: {"kind": "wpath", "seed": rng.randrange(10 ** 6),
                                    "n": 2200}, None, LARGE, ANY),
    ],
}


def fill_slot(name, draw, accept, solver, band, commit, rng):
    work_fn, answers_fn = solver
    lo, hi = band
    members, seen = [], set()
    for _ in range(400):
        if len(members) == MEMBERS:
            break
        gen = draw(rng)
        key = json.dumps(gen, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        inst = wl.build(gen)
        if accept is not None and not accept(inst):
            continue
        try:
            work = work_fn(inst, hi)
        except ResourceLimitError:
            continue
        if not lo <= work <= hi:
            continue
        answers, source = answers_fn(inst, commit)
        members.append({"gen": gen, "work": work, "answers": answers, "source": source})
        print(name, gen, work, source, file=sys.stderr, flush=True)
    if not members:
        raise SystemExit("slot %s: no member in band" % name)
    return members


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True, help="short hash of the solver commit")
    args = ap.parse_args(argv)
    pool = {}
    for workload, slots in SLOTS.items():
        pool[workload] = []
        for name, draw, accept, solver, band in slots:
            rng = random.Random("%s:%s" % (workload, name))
            members = fill_slot(name, draw, accept, solver, band, args.commit, rng)
            pool[workload].append({"slot": name, "members": members})
    wl.POOL_FILE.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
