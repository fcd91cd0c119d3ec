"""Shared helpers and small independent oracles.

The oracles here deliberately use different algorithms than the
package: the voting rule by `Counter` over labels, subset sums as a
bitset, satisfiability by truth table, hitting sets by subset
enumeration, DAG counting by filtering all digraphs. Tests compare the
package against these, never against itself.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import strategies as st

from socialpolls.graphkit import graph_of, heuristic_td, make_nice
from socialpolls.model import AgentPrefs, Instance


def pytest_configure(config):
    # the DP's table-key checker runs only inside an assert
    if not __debug__:
        raise pytest.UsageError(
            "the tests need assertions on: python -O strips the DP sweep's "
            "table-key check, so run them without -O"
        )


@st.composite
def small_instances(draw, max_agents=6):
    """Polls of 1..max_agents agents over 1-3 candidates, with one
    preferred-set size per poll, weights 1-3 and any friendship edges."""
    candidates = ("a", "b", "c")[: draw(st.integers(1, 3))]
    size = draw(st.integers(1, len(candidates)))
    n = draw(st.integers(1, max_agents))
    agents = []
    for _ in range(n):
        prefs = draw(st.permutations(candidates))[:size]
        agents.append(AgentPrefs(draw(st.sampled_from(prefs)), prefs,
                                 draw(st.integers(1, 3))))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    return Instance(candidates, tuple(agents), edges, candidates[0])


def naive_vote(agent, prior_labels):
    """The voting rule as stated: copy a preferred candidate that holds a
    strict majority of the friends who voted before, else vote top."""
    tally = Counter(prior_labels)
    total = sum(tally.values())
    for c in agent.preferred:
        if 2 * tally[c] > total:
            return c
    return agent.top


def naive_scores(inst, order):
    """Score tuple, in candidate order, of the agents voting in `order`."""
    votes = {}
    for x in order:
        prior = [
            votes[y]
            for e in inst.edges
            if x in e
            for y in e
            if y != x and y in votes
        ]
        votes[x] = naive_vote(inst.agents[x], prior)
    scores = Counter()
    for x, c in votes.items():
        scores[c] += inst.agents[x].weight
    return tuple(scores[c] for c in inst.candidates)


def with_backer(inst, c):
    """`inst` with one more agent, friendless and backing `c`, that
    outweighs all the others together."""
    other = next(d for d in inst.candidates if d != c)
    backer = AgentPrefs(c, [c, other], inst.total_weight() + 1)
    return Instance(inst.candidates, inst.agents + (backer,), inst.edges, inst.distinguished)


def nice_td_of(inst):
    return make_nice(heuristic_td(graph_of(inst)))


def equal_split_possible(numbers):
    """Can the multiset split into two parts of equal sum? Bit k of
    `sums` is set when some subset sums to k."""
    total = sum(numbers)
    if total % 2:
        return False
    sums = 1
    for v in numbers:
        sums |= sums << v
    return bool((sums >> (total // 2)) & 1)


def satisfying_assignments(n_vars, clauses):
    """All satisfying assignments of a DIMACS-style clause list, as
    boolean tuples indexed by variable - 1."""
    out = []
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            out.append(bits)
    return out


def cnf_satisfiable(n_vars, clauses):
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def hitting_sets(n_elements, sets, budget, min_hits=1):
    """All element subsets of size <= budget meeting every set at least
    `min_hits` times, by plain enumeration."""
    found = []
    for r in range(budget + 1):
        for combo in itertools.combinations(range(n_elements), r):
            chosen = set(combo)
            if all(len(chosen & set(s)) >= min_hits for s in sets):
                found.append(chosen)
    return found


def brute_count_dags(t):
    """Count labeled DAGs on t vertices by checking all digraphs."""
    pairs = [(u, v) for u in range(t) for v in range(t) if u != v]
    count = 0
    for picks in itertools.product((False, True), repeat=len(pairs)):
        arcs = [p for p, take in zip(pairs, picks) if take]
        succ = [[] for _ in range(t)]
        indeg = [0] * t
        for u, v in arcs:
            succ[u].append(v)
            indeg[v] += 1
        ready = [x for x in range(t) if indeg[x] == 0]
        seen = 0
        while ready:
            x = ready.pop()
            seen += 1
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        if seen == t:
            count += 1
    return count


def brute_acyclic_orientations(g):
    """All acyclic orientations of a graph by filtering every edge
    direction assignment."""
    edges = sorted(g.edges)
    out = set()
    for picks in itertools.product((0, 1), repeat=len(edges)):
        arcs = tuple(
            (u, v) if not flip else (v, u)
            for (u, v), flip in zip(edges, picks)
        )
        succ = [[] for _ in range(g.n)]
        indeg = [0] * g.n
        for u, v in arcs:
            succ[u].append(v)
            indeg[v] += 1
        ready = [x for x in range(g.n) if indeg[x] == 0]
        seen = 0
        while ready:
            x = ready.pop()
            seen += 1
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        if seen == g.n:
            out.add(frozenset(arcs))
    return out
