"""Brute-force reference solvers.

Outcomes depend only on the acyclic orientation a voting order induces,
and agents are influenced only through their own component. The oracle
therefore enumerates acyclic orientations per connected component,
collects the achievable score vectors of each, and combines components
by pointwise sums. A guard bounds the product of per-component
orientation counts; exceeding it raises ResourceLimitError instead of
running forever.

A score vector stays one packed int from the replay to the answer:
candidate j owns the bits from `width * j` up, wide enough for the
poll's total weight, so adding keys adds vectors. Components combine by
adding keys, those with a single outcome (isolated agents among them)
first: each shifts every key alike, so keys keep their representatives.
The table is unpacked into tuples once, at the end; the decisions
unpack only the keys they test.

Orientations are replayed incrementally. The enumerator directs the
sorted edges one level at a time, depth first, so consecutive
orientations share all but a suffix of levels. An agent is closed once
its last edge is directed: its in-neighbours are then known, and it
votes as soon as they all have, its vote cascading along its out-arcs
to closed agents that were waiting for it. The set of agents that have
voted and the running packed score are saved before each level. For
each orientation the replay restores the state saved before the first
level whose arc changed and re-runs only the levels from there on;
votes fixed before that level depend on earlier arcs alone and stay.
Every vote goes through `model._vote`, the package's single copy of the
voting rule.

The enumeration order is fixed, so the first orientation producing each
score vector is the same as under a from-scratch replay.

`scores` and `margins_bf` enumerate every orientation. The decisions
stop at their first certificate: every component but the one with the
most edges is tabulated and combined, and the big one's orientations
are streamed against that table, so one voting order on which c co-wins
(`possible`) or loses (`necessary`) ends the search. Witness and
counterexample orders are built in one place: the smallest topological
order (`model._toposort`) of the first qualifying pair's orientation,
re-simulated by `simulate_order` before being reported. The search is
exhaustive only when no certificate exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter, ne

from .graphkit import connected_components, enumerate_acyclic_orientations, induced_subgraph
from .model import (
    PollInputError,
    ResourceLimitError,
    ScoreFunction,
    _toposort,
    _vote,
    simulate_order,
)

DEFAULT_MAX_ORIENTATIONS = 1 << 22


@dataclass(frozen=True)
class Witness:
    """A complete voting order together with the scores it produces."""

    order: tuple
    scores: ScoreFunction


def _sides(x, arcs, edge_ids):
    """(in-neighbours, out-neighbours, in-neighbour bitmask) of agent `x`
    in `arcs`, given the indexes of its edges."""
    into = [arcs[j][0] for j in edge_ids if arcs[j][1] == x]
    out = [arcs[j][1] for j in edge_ids if arcs[j][0] == x]
    return into, out, sum(1 << y for y in into)


def _replay(inst, sub, ids, width, product, limit):
    """Replay every orientation of one component, in enumerator order.

    `sub` is the component relabeled 0..k-1 and `ids[i]` the agent that
    i stands for. Yields (packed score key, orientation) per orientation:
    the key has zero fields outside the component, and the orientation is
    the enumerator's tuple, in `sub`'s labels. `product` is the product
    of the earlier components' counts; raises ResourceLimitError before
    the orientation that takes the product with this count past `limit`.
    """
    n = sub.n
    m = len(sub.edges)
    ballots = [inst.ballots[v] for v in ids]
    tops = [row[0] for row in ballots]
    prefs = [row[1] for row in ballots]
    gain = [[w << (width * c) for c in range(len(inst.candidates))]
            for _, _, w in ballots]
    bit = [1 << x for x in range(n)]
    last = [-1] * n             # level at which each agent closes
    edge_ids = [[] for _ in range(n)]
    for i, (u, v) in enumerate(sorted(sub.edges)):
        last[u] = last[v] = i
        edge_ids[u].append(i)
        edge_ids[v].append(i)
    # per level: the agents closing there, each with a getter of its arcs
    # and a cache from those arcs to its sides
    closing = [[] for _ in range(m)]
    vote = [0] * n
    voted = score = 0
    for x in range(n):
        if last[x] >= 0:
            closing[last[x]].append((x, itemgetter(*edge_ids[x]), {}))
        else:
            vote[x] = c = _vote(tops[x], prefs[x], [])
            voted |= bit[x]
            score += gain[x][c]
    preds = [()] * n
    succs = [()] * n
    predmask = [0] * n
    voted_at = [voted] * (m + 1)    # voters and scores before each level
    score_at = [score] * (m + 1)

    count = 0
    budget = limit // product
    prev = (None,) * m
    for arcs in enumerate_acyclic_orientations(sub):
        count += 1
        if count > budget:
            where = "component containing agent %d" % ids[0] if ids else "the empty poll"
            raise ResourceLimitError("orientation guard exceeded: product %d over %d at %s"
                                     % (product * count, limit, where))
        k = next(itertools.compress(itertools.count(), map(ne, arcs, prev)), m)
        prev = arcs
        voted = voted_at[k]
        score = score_at[k]
        for i in range(k, m):
            voted_at[i] = voted
            score_at[i] = score
            here = closing[i]
            for x, view, seen in here:
                key = view(arcs)
                got = seen.get(key)
                if got is None:
                    got = seen[key] = _sides(x, arcs, edge_ids[x])
                preds[x], succs[x], predmask[x] = got
            for x, _, _ in here:
                if voted & bit[x] or predmask[x] & ~voted:
                    continue
                ready = [x]
                while ready:
                    y = ready.pop()
                    vote[y] = c = _vote(tops[y], prefs[y], [vote[z] for z in preds[y]])
                    voted |= bit[y]
                    score += gain[y][c]
                    # y voted before its out-neighbours, so none has voted yet
                    for z in succs[y]:
                        if last[z] <= i and not predmask[z] & ~voted:
                            ready.append(z)
        yield score, arcs


def _relabel(arcs, ids):
    return tuple((ids[u], ids[v]) for u, v in arcs)


def _packed_table(inst, comps, width, limit):
    """(table, product, total) over the components `comps`: the table
    maps every achievable packed score key to a representative
    orientation in original agent ids, and product and total are the
    product and the sum of the components' orientation counts. The guard
    bounds the product."""
    parts = []
    product = 1
    total = 0
    for comp in comps:
        sub, ids = induced_subgraph(inst.graph, comp)
        outcomes = {}
        count = 0
        for count, (key, arcs) in enumerate(_replay(inst, sub, ids, width, product, limit), 1):
            if key not in outcomes:
                outcomes[key] = _relabel(arcs, ids)
        parts.append(outcomes)
        product *= count
        total += count
    # a one-outcome part only shifts every key, so merging those first
    # keeps each key's representative
    table = {0: ()}
    for outcomes in sorted(parts, key=lambda part: len(part) > 1):
        merged = {}
        for base, rep in table.items():
            for part, arcs in outcomes.items():
                key = base + part
                if key not in merged:
                    merged[key] = rep + arcs
        table = merged
    return table, product, total


def _unpacker(inst, width):
    """Function from a packed key to its score tuple."""
    field = (1 << width) - 1
    shifts = [width * j for j in range(len(inst.candidates))]
    return lambda key: tuple(key >> s & field for s in shifts)


def _count(stats, orientations):
    if stats is not None:
        stats["orientations"] = stats.get("orientations", 0) + orientations


def _outcome_table(inst, max_orientations, stats):
    """Map every achievable score tuple to a representative orientation
    of the whole graph. The guard bounds the product of per-component
    orientation counts."""
    width = inst.total_weight().bit_length()
    table, _, total = _packed_table(
        inst, connected_components(inst.graph), width, max_orientations)
    _count(stats, total)
    unpack = _unpacker(inst, width)
    return {unpack(key): rep for key, rep in table.items()}


def achievable_scores_bf(inst, max_orientations=DEFAULT_MAX_ORIENTATIONS, stats=None):
    """All score functions some voting order can produce."""
    table = _outcome_table(inst, max_orientations, stats)
    return frozenset(ScoreFunction(inst.candidates, t) for t in table)


def _certificate(inst, c, wins, max_orientations, stats):
    """Witness for the first orientation, in enumeration order, on which
    `c` co-wins (`wins` true) or loses (`wins` false), or None if there
    is none.

    Every component but the one with the most edges (the first such) is
    tabulated and combined into `rest`. The big one's orientations are
    then streamed, and each new outcome is tested against `rest` in its
    insertion order; the first qualifying pair stops the enumeration.
    The order is the smallest topological order of that pair's arcs,
    re-simulated. An empty poll streams the one orientation of the
    empty component."""
    if c not in inst.candidate_index:
        raise PollInputError("unknown candidate %r" % (c,))
    g = inst.graph
    width = inst.total_weight().bit_length()
    unpack = _unpacker(inst, width)
    ci = inst.candidate_index[c]
    comps = connected_components(g)
    big = max(comps, key=lambda comp: sum(len(g.adjacency[x]) for x in comp), default=())
    rest, product, total = _packed_table(
        inst, [comp for comp in comps if comp is not big], width, max_orientations)
    sub, ids = induced_subgraph(g, big)
    seen = set()
    hit = None
    count = 0
    for part, arcs in _replay(inst, sub, ids, width, product, max_orientations):
        count += 1
        if part in seen:
            continue
        seen.add(part)
        for base, rep in rest.items():
            scores = unpack(base + part)
            if (scores[ci] == max(scores)) == wins:
                hit = scores, rep + _relabel(arcs, ids)
                break
        if hit is not None:
            break
    _count(stats, total + count)
    if hit is None:
        return None
    scores, arcs = hit
    order = _toposort(inst.n_agents, arcs)
    sim = simulate_order(inst, order).scores
    assert sim.values == scores, (order, sim.values, scores)
    return Witness(order=order, scores=sim)


def possible_winner_bf(inst, c, max_orientations=DEFAULT_MAX_ORIENTATIONS, stats=None):
    """Can candidate `c` co-win some voting order?

    Returns (decision, witness). The enumeration stops at the first
    orientation on which `c` co-wins (see `_certificate`), and
    `stats["orientations"]` counts the orientations enumerated up to
    it. The witness order is re-simulated, so its scores are
    guaranteed, not merely claimed.
    """
    wit = _certificate(inst, c, True, max_orientations, stats)
    return wit is not None, wit


def necessary_winner_bf(inst, c, max_orientations=DEFAULT_MAX_ORIENTATIONS, stats=None):
    """Does candidate `c` co-win every voting order?

    Returns (decision, counterexample): a re-simulated witness order on
    which `c` loses when the answer is no. The enumeration stops at the
    first orientation on which `c` loses (see `_certificate`), so it is
    exhaustive only when the answer is yes.
    """
    cex = _certificate(inst, c, False, max_orientations, stats)
    return cex is None, cex


def margins_bf(inst, c, max_orientations=DEFAULT_MAX_ORIENTATIONS, stats=None):
    """{d: largest achievable weighted score(d) - score(c)} for every
    other candidate d, in candidate order, from one outcome table."""
    if c not in inst.candidate_index:
        raise PollInputError("unknown candidate %r" % (c,))
    table = _outcome_table(inst, max_orientations, stats)
    ci = inst.candidate_index[c]
    return {d: max(key[di] - key[ci] for key in table)
            for di, d in enumerate(inst.candidates) if di != ci}
