"""Brute-force solvers: achievable scores, decisions, witnesses, guards."""

import heapq
import itertools
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_scores, small_instances
from socialpolls.graphkit import connected_components, induced_subgraph
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


def tied_components():
    """Two one-edge components. Streamed, {0, 1} gives `a` its first
    co-win (a=5, c=4) with {2, 3}'s second outcome, so the witness is
    0,1,3,2; streaming {2, 3} instead would give 1,0,2,3."""
    ballots = [("c", "bc", 1), ("a", "ac", 3), ("c", "ac", 3), ("a", "ab", 2)]
    agents = tuple(AgentPrefs(top, prefs, w) for top, prefs, w in ballots)
    return Instance(("a", "b", "c"), agents, [(0, 1), (2, 3)], "a")


def reference_outcomes(inst, comp):
    """(orientation in original ids, score tuple) of every orientation of
    the component `comp`, from the recursive enumerator, each simulated
    from scratch with `simulate_orientation`."""
    sub, ids = induced_subgraph(inst.graph, comp)
    mini = Instance(inst.candidates, tuple(inst.agents[v] for v in ids),
                    sub.edges, inst.distinguished)
    for arcs in reference_orientations(sub):
        yield (tuple((ids[u], ids[v]) for u, v in arcs),
               simulate_orientation(mini, arcs).scores.values)


def reference_table(inst, comps):
    """Score tuple -> representative orientation over the components
    `comps`, built the slow way: the first orientation per score tuple
    of each component, combined by pointwise sums, first pair first."""
    table = {(0,) * len(inst.candidates): ()}
    for comp in comps:
        outcomes = {}
        for arcs, key in reference_outcomes(inst, comp):
            outcomes.setdefault(key, arcs)
        merged = {}
        for base, rep in table.items():
            for part, arcs in outcomes.items():
                merged.setdefault(tuple(map(sum, zip(base, part))), rep + arcs)
        table = merged
    return table


def smallest_order(n, arcs):
    """Smallest-first topological order of `arcs` over agents 0..n-1."""
    preds = {x: set() for x in range(n)}
    for u, v in arcs:
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


def reference_order(inst, outcome):
    """Certificate order of the first qualifying orientation, or None.

    The component with the most edges (the first such) is streamed, the
    others are combined first pair first, and every streamed orientation
    is tried against that table in order; the first pair whose summed
    score tuple has `outcome(key)` true gives the smallest topological
    order of its arcs. An empty poll streams the empty orientation."""
    g = inst.graph
    comps = connected_components(g)
    size = {comp: sum(1 for u, v in g.edges if u in comp) for comp in comps}
    big = next((comp for comp in comps if size[comp] == max(size.values())), ())
    rest = reference_table(inst, [comp for comp in comps if comp != big])
    for arcs, part in reference_outcomes(inst, big):
        for base, rep in rest.items():
            if outcome(tuple(map(sum, zip(base, part)))):
                return smallest_order(inst.n_agents, rep + arcs)
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
    def test_first_of_tied_components_is_streamed(self):
        _, wit = possible_winner_bf(tied_components(), "a")
        assert wit.order == (0, 1, 3, 2)
        assert wit.scores.values == (5, 0, 4)

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
    @example(tied_components())
    @settings(max_examples=60, deadline=None)
    def test_witness_orders_match_reference(self, inst):
        for ci, c in enumerate(inst.candidates):
            _, wit = possible_winner_bf(inst, c)
            want = reference_order(inst, lambda k: k[ci] == max(k))
            assert (wit.order if wit else None) == want
            _, cex = necessary_winner_bf(inst, c)
            want = reference_order(inst, lambda k: k[ci] != max(k))
            assert (cex.order if cex else None) == want

    @given(small_instances())
    @example(Instance(("a", "b"), (), (), "a"))
    @example(seeded_instance(72, 6, [(0, 1), (0, 2), (4, 5)], max_weight=3))
    @settings(max_examples=60, deadline=None)
    def test_decisions_match_all_permutations(self, inst):
        # the naive check: every voting order simulated, and every
        # certificate re-simulated to a co-win (possible) or a loss
        # (necessary)
        cowins = {c: set() for c in inst.candidates}
        for order in itertools.permutations(range(inst.n_agents)):
            won = winners(simulate_order(inst, order).scores)
            for c in inst.candidates:
                cowins[c].add(c in won)
        for c in inst.candidates:
            ok, wit = possible_winner_bf(inst, c)
            assert ok == (True in cowins[c])
            if ok:
                assert c in winners(simulate_order(inst, wit.order).scores)
            ok, cex = necessary_winner_bf(inst, c)
            assert ok == (False not in cowins[c])
            if not ok:
                assert c not in winners(simulate_order(inst, cex.order).scores)

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

    def test_guard_on_the_empty_poll(self):
        # the decisions enumerate the empty poll's one orientation, so
        # they trip a guard of 0 where scores enumerates none
        inst = Instance(("a", "b"), (), (), "a")
        assert score_set(inst, max_orientations=0) == {(0, 0)}
        with pytest.raises(ResourceLimitError, match="product 1 over 0 at the empty poll$"):
            necessary_winner_bf(inst, "a", max_orientations=0)
        stats = {}
        assert possible_winner_bf(inst, "a", stats=stats)[0]
        assert stats["orientations"] == 1

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
