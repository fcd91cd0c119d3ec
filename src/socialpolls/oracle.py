"""Brute-force reference solvers.

Outcomes depend only on the acyclic orientation a voting order induces,
and agents are influenced only through their own component. The oracle
therefore enumerates acyclic orientations per connected component,
collects the achievable score vectors of each, and combines components
by pointwise sums. A guard bounds the product of per-component
orientation counts; exceeding it raises ResourceLimitError instead of
running forever.

Each enumerated orientation is replayed by `model._simulate_arcs`, which
runs the package's single copy of the voting rule (`model._cast_votes`).
Witness orders are rebuilt from one representative orientation per
achievable score vector: the smallest topological order of the combined
orientation, re-simulated by `simulate_order` before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphkit import connected_components, enumerate_acyclic_orientations, graph_of, induced_subgraph
from .model import (
    Instance,
    PollInputError,
    ResourceLimitError,
    ScoreFunction,
    _simulate_arcs,
    _toposort,
    simulate_order,
    winners,
)

DEFAULT_MAX_ORIENTATIONS = 1 << 22


@dataclass(frozen=True)
class Witness:
    """A complete voting order together with the scores it produces."""

    order: tuple
    scores: ScoreFunction


def _component_outcomes(inst, g, comp, budget, stats):
    """Achievable partial score vectors of one component.

    Returns a dict mapping each full-length score tuple (zeros outside
    the component) to one orientation, in original agent ids, that
    produces it. Raises ResourceLimitError after `budget` orientations.
    """
    sub, ids = induced_subgraph(g, comp)
    agents = tuple(inst.agents[v] for v in ids)
    mini = Instance(
        candidates=inst.candidates,
        agents=agents,
        edges=sub.edges,
        distinguished=inst.distinguished,
        name="component",
    )
    back = dict(enumerate(ids))
    outcomes = {}
    count = 0
    for arcs in enumerate_acyclic_orientations(sub):
        count += 1
        if count > budget:
            raise ResourceLimitError(
                "orientation guard exceeded at component containing agent %d"
                % ids[0]
            )
        key = tuple(_simulate_arcs(mini, arcs)[1])
        if key not in outcomes:
            outcomes[key] = tuple((back[u], back[v]) for u, v in arcs)
    if stats is not None:
        stats["orientations"] = stats.get("orientations", 0) + count
    return outcomes, count


def _outcome_table(inst, max_orientations, stats):
    """Map every achievable score tuple to a representative orientation
    of the whole graph. The guard bounds the product of per-component
    orientation counts."""
    g = graph_of(inst)
    comps = connected_components(g)
    zero = (0,) * len(inst.candidates)
    table = {zero: ()}
    product = 1
    for comp in comps:
        budget = max_orientations // product
        if budget < 1:
            raise ResourceLimitError("orientation guard exceeded")
        outcomes, count = _component_outcomes(inst, g, comp, budget, stats)
        product *= count
        if product > max_orientations:
            raise ResourceLimitError("orientation guard exceeded")
        merged = {}
        for base, rep in table.items():
            for part, arcs in outcomes.items():
                key = tuple(x + y for x, y in zip(base, part))
                if key not in merged:
                    merged[key] = rep + arcs
        table = merged
    return table


def _order_of(inst, arcs):
    """Smallest topological order of an orientation, isolated agents
    included."""
    n = inst.n_agents
    arcs_out = [[] for _ in range(n)]
    indegree = [0] * n
    for u, v in arcs:
        arcs_out[u].append(v)
        indegree[v] += 1
    order = _toposort(n, arcs_out, indegree)
    return tuple(order)


def achievable_scores_bf(inst, max_orientations=DEFAULT_MAX_ORIENTATIONS, stats=None):
    """All score functions some voting order can produce."""
    table = _outcome_table(inst, max_orientations, stats)
    return frozenset(ScoreFunction(inst.candidates, t) for t in table)


def possible_winner_bf(inst, c, max_orientations=DEFAULT_MAX_ORIENTATIONS, stats=None):
    """Can candidate `c` co-win some voting order?

    Returns (decision, witness). The witness order is re-simulated, so
    its scores are guaranteed, not merely claimed.
    """
    if c not in inst.candidate_index:
        raise PollInputError("unknown candidate %r" % (c,))
    table = _outcome_table(inst, max_orientations, stats)
    ci = inst.candidate_index[c]
    for key in sorted(table):
        if key[ci] == max(key):
            order = _order_of(inst, table[key])
            sim = simulate_order(inst, order)
            return True, Witness(order=order, scores=sim.scores)
    return False, None


def necessary_winner_bf(inst, c, max_orientations=DEFAULT_MAX_ORIENTATIONS, stats=None):
    """Does candidate `c` co-win every voting order?

    Returns (decision, counterexample): a witness order on which `c`
    loses when the answer is no.
    """
    if c not in inst.candidate_index:
        raise PollInputError("unknown candidate %r" % (c,))
    table = _outcome_table(inst, max_orientations, stats)
    ci = inst.candidate_index[c]
    for key in sorted(table):
        if key[ci] != max(key):
            order = _order_of(inst, table[key])
            sim = simulate_order(inst, order)
            return False, Witness(order=order, scores=sim.scores)
    return True, None


def max_margin_bf(inst, d, c, max_orientations=DEFAULT_MAX_ORIENTATIONS, stats=None):
    """Largest achievable score(d) - score(c) over all voting orders."""
    for label in (d, c):
        if label not in inst.candidate_index:
            raise PollInputError("unknown candidate %r" % (label,))
    table = _outcome_table(inst, max_orientations, stats)
    di = inst.candidate_index[d]
    ci = inst.candidate_index[c]
    return max(key[di] - key[ci] for key in table)
