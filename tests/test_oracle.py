"""Brute-force solvers: achievable scores, decisions, witnesses, guards."""

import heapq
import itertools
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_scores, small_instances
from socialpolls.graphkit import connected_components, graph_of, induced_subgraph
from socialpolls.model import (
    AgentPrefs,
    Instance,
    PollInputError,
    ResourceLimitError,
    instance_union,
    simulate_order,
    simulate_orientation,
    winners,
)
from socialpolls.oracle import (
    achievable_scores_bf,
    margins_bf,
    necessary_winner_bf,
    possible_winner_bf,
)
from socialpolls.reductions import gen_random
from test_graphkit import reference_orientations
from test_model import p3_gadget, two_agent_edge


def score_set(inst, **kw):
    return {sf.values for sf in achievable_scores_bf(inst, **kw)}


def seeded_instance(seed, n, edges, n_candidates=3, max_weight=1):
    """Agents with seeded preferred sets of size 2, tops and weights."""
    rng = random.Random(seed)
    candidates = ("a", "b", "c", "d")[:n_candidates]
    agents = []
    for _ in range(n):
        prefs = rng.sample(candidates, 2)
        agents.append(AgentPrefs(prefs[0], prefs, rng.randint(1, max_weight)))
    return Instance(candidates, tuple(agents), edges, candidates[0])


def split_weighted_seven():
    """Components {0, 1}, {2}, {3, 4, 5} and {6}: single agents between
    components with several orientations. The weights sum to 2^5 - 1 and
    every agent votes `a` when 0 and 4 vote first, so `a` can fill a
    whole 5-bit field. `a`'s witness tuple (16, 11, 4) comes from two
    pairs of component outcomes, so the merge order picks its
    representative."""
    ballots = [("a", "ab", 5), ("b", "ab", 6), ("a", "ac", 1), ("c", "ac", 4),
               ("a", "ab", 8), ("b", "ab", 3), ("a", "ac", 4)]
    agents = tuple(AgentPrefs(top, prefs, w) for top, prefs, w in ballots)
    return Instance(("a", "b", "c"), agents, [(0, 1), (3, 4), (4, 5)], "a")


def reference_table(inst):
    """Score tuple -> representative orientation, built the slow way:
    every orientation of each component, from the recursive enumerator,
    is simulated from scratch with `simulate_orientation` and the first
    one per score tuple is kept; components combine by pointwise sums,
    first pair first."""
    g = graph_of(inst)
    table = {(0,) * len(inst.candidates): ()}
    for comp in connected_components(g):
        sub, ids = induced_subgraph(g, comp)
        mini = Instance(inst.candidates, tuple(inst.agents[v] for v in ids),
                        sub.edges, inst.distinguished)
        outcomes = {}
        for arcs in reference_orientations(sub):
            key = simulate_orientation(mini, arcs).scores.values
            outcomes.setdefault(key, tuple((ids[u], ids[v]) for u, v in arcs))
        merged = {}
        for base, rep in table.items():
            for part, arcs in outcomes.items():
                merged.setdefault(tuple(map(sum, zip(base, part))), rep + arcs)
        table = merged
    return table


def reference_order(n, table, outcome):
    """Smallest-first topological order of the table's orientation for
    the first sorted score tuple with `outcome(key)` true, or None."""
    for k in sorted(table):
        if outcome(k):
            preds = {x: set() for x in range(n)}
            for u, v in table[k]:
                preds[v].add(u)
            ready = [x for x in preds if not preds[x]]
            heapq.heapify(ready)
            order = []
            while ready:
                x = heapq.heappop(ready)
                order.append(x)
                for y in preds:
                    if x in preds[y]:
                        preds[y].discard(x)
                        if not preds[y]:
                            heapq.heappush(ready, y)
            return tuple(order)
    return None


class TestAchievable:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_rule_over_all_orders(self, inst):
        expected = {
            naive_scores(inst, order)
            for order in itertools.permutations(range(inst.n_agents))
        }
        assert score_set(inst) == expected

    @pytest.mark.parametrize("name, inst", [
        ("weighted-4-cycle", seeded_instance(
            71, 7, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6)],
            max_weight=4)),
        ("two-trees-and-isolated", seeded_instance(
            72, 7, [(0, 1), (0, 2), (2, 3), (4, 5)], n_candidates=4, max_weight=3)),
        ("dense", seeded_instance(
            73, 7, [e for e in itertools.combinations(range(7), 2)
                    if e not in {(0, 6), (1, 5), (2, 4)}])),
        ("split-weighted", split_weighted_seven()),
    ])
    def test_matches_naive_rule_over_all_orders_of_seven(self, name, inst):
        expected = {
            naive_scores(inst, order)
            for order in itertools.permutations(range(7))
        }
        assert len(expected) > 1
        assert score_set(inst) == expected

    def test_two_agent_edge(self):
        # whoever votes first drags the other along
        assert score_set(two_agent_edge()) == {(2, 0), (0, 2)}

    def test_heavy_path(self):
        # candidate order (a, b, c)
        assert score_set(p3_gadget()) == {(0, 0, 7), (1, 5, 1)}


class TestDecisions:
    def test_possible_and_witness(self):
        inst = two_agent_edge()
        ok, wit = possible_winner_bf(inst, "a")
        assert ok
        sim = simulate_order(inst, wit.order)
        assert sim.scores == wit.scores
        assert "a" in winners(sim.scores)

    def test_necessary_counterexample(self):
        inst = two_agent_edge()
        ok, counter = necessary_winner_bf(inst, "a")
        assert not ok
        assert "a" not in winners(simulate_order(inst, counter.order).scores)

    @given(small_instances())
    @example(split_weighted_seven())
    @settings(max_examples=60, deadline=None)
    def test_witness_orders_match_reference(self, inst):
        table = reference_table(inst)
        for ci, c in enumerate(inst.candidates):
            _, wit = possible_winner_bf(inst, c)
            want = reference_order(inst.n_agents, table, lambda k: k[ci] == max(k))
            assert (wit.order if wit else None) == want
            _, cex = necessary_winner_bf(inst, c)
            want = reference_order(inst.n_agents, table, lambda k: k[ci] != max(k))
            assert (cex.order if cex else None) == want

    def test_single_agent_trivial(self):
        inst = Instance(("a",), (AgentPrefs("a", ["a"]),), (), "a")
        assert possible_winner_bf(inst, "a")[0]
        assert necessary_winner_bf(inst, "a") == (True, None)

    def test_margins(self):
        assert margins_bf(p3_gadget(), "a")["b"] == 4
        assert margins_bf(two_agent_edge(), "a") == {"b": 2}
        single = Instance(("a",), (AgentPrefs("a", ["a"]),), (), "a")
        assert margins_bf(single, "a") == {}

    def test_unknown_candidate(self):
        inst = two_agent_edge()
        with pytest.raises(PollInputError):
            possible_winner_bf(inst, "z")
        with pytest.raises(PollInputError):
            necessary_winner_bf(inst, "z")
        with pytest.raises(PollInputError):
            margins_bf(inst, "z")


class TestGuardsAndStats:
    def test_orientation_counter(self):
        stats = {}
        achievable_scores_bf(p3_gadget(), stats=stats)
        assert stats["orientations"] == 4

    @pytest.mark.parametrize("n, edges, count", [
        (4, list(itertools.combinations(range(4), 2)), 24),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 14),
        (6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)], 2 ** 5),
        (7, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 6)], 2 ** 6),
        # per component: two trees and an isolated agent
        (7, [(0, 1), (0, 2), (2, 3), (4, 5)], 2 ** 3 + 2 ** 1 + 1),
    ])
    def test_counts_acyclic_orientations(self, n, edges, count):
        stats = {}
        achievable_scores_bf(seeded_instance(5, n, edges), stats=stats)
        assert stats["orientations"] == count

    def test_guard_names_the_tripping_component(self):
        # path 0-2-3 (4 orientations), then triangle 1-4-5 (6): the
        # product is 24, and the triangle trips the guard below that
        inst = seeded_instance(9, 6, [(0, 2), (2, 3), (1, 4), (4, 5), (1, 5)])
        with pytest.raises(ResourceLimitError, match="containing agent 1$"):
            achievable_scores_bf(inst, max_orientations=23)
        stats = {}
        achievable_scores_bf(inst, max_orientations=24, stats=stats)
        assert stats["orientations"] == 4 + 6

    def test_guard_trips_inside_component(self):
        inst = p3_gadget()
        with pytest.raises(ResourceLimitError, match="component containing agent"):
            achievable_scores_bf(inst, max_orientations=3)

    def test_guard_trips_on_component_product(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = instance_union(p3_gadget(), p3_gadget())
        # each path has 4 orientations; the second path's third one
        # takes the product to 4 * 3 = 12, past the guard
        with pytest.raises(ResourceLimitError,
                           match="product 12 over 8 at component containing agent 3$"):
            achievable_scores_bf(inst, max_orientations=8)
        achievable_scores_bf(inst, max_orientations=16)


class TestComposition:
    @given(st.integers(0, 500), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_union_scores_are_pointwise_sums(self, seed, n1, n2):
        i1 = gen_random(seed, n1, 2, edge_prob=0.5)
        i2 = gen_random(seed + 1, n2, 2, edge_prob=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = instance_union(i1, i2)
        got = {sf.values for sf in achievable_scores_bf(u)}
        want = {
            tuple(x + y for x, y in zip(s1.values, s2.values))
            for s1 in achievable_scores_bf(i1)
            for s2 in achievable_scores_bf(i2)
        }
        assert got == want

    @given(st.integers(0, 500), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_necessary_implies_possible(self, seed, n):
        inst = gen_random(seed, n, 3, edge_prob=0.4)
        for c in inst.candidates:
            if necessary_winner_bf(inst, c)[0]:
                assert possible_winner_bf(inst, c)[0]

    @given(st.integers(0, 500), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_achievable_covers_sampled_orders(self, seed, n):
        inst = gen_random(seed, n, 2, edge_prob=0.4, max_weight=3)
        achievable = achievable_scores_bf(inst)
        import random

        rng = random.Random(seed)
        order = list(range(n))
        for _ in range(5):
            rng.shuffle(order)
            assert simulate_order(inst, order).scores in achievable
