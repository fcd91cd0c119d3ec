"""Brute-force solvers: achievable scores, decisions, witnesses, guards."""

import itertools
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_scores, small_instances
from socialpolls.model import (
    AgentPrefs,
    Instance,
    PollInputError,
    ResourceLimitError,
    instance_union,
    simulate_order,
    winners,
)
from socialpolls.oracle import (
    achievable_scores_bf,
    max_margin_bf,
    necessary_winner_bf,
    possible_winner_bf,
)
from socialpolls.reductions import gen_random
from test_model import p3_gadget, two_agent_edge


def score_set(inst, **kw):
    return {sf.values for sf in achievable_scores_bf(inst, **kw)}


class TestAchievable:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_rule_over_all_orders(self, inst):
        expected = {
            naive_scores(inst, order)
            for order in itertools.permutations(range(inst.n_agents))
        }
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

    def test_single_agent_trivial(self):
        inst = Instance(("a",), (AgentPrefs("a", ["a"]),), (), "a")
        assert possible_winner_bf(inst, "a")[0]
        assert necessary_winner_bf(inst, "a") == (True, None)

    def test_margins(self):
        assert max_margin_bf(p3_gadget(), "b", "a") == 4
        assert max_margin_bf(two_agent_edge(), "b", "a") == 2
        assert max_margin_bf(p3_gadget(), "c", "c") == 0

    def test_unknown_candidate(self):
        inst = two_agent_edge()
        with pytest.raises(PollInputError):
            possible_winner_bf(inst, "z")
        with pytest.raises(PollInputError):
            necessary_winner_bf(inst, "z")
        with pytest.raises(PollInputError):
            max_margin_bf(inst, "a", "z")


class TestGuardsAndStats:
    def test_orientation_counter(self):
        stats = {}
        achievable_scores_bf(p3_gadget(), stats=stats)
        assert stats["orientations"] == 4

    def test_guard_trips_inside_component(self):
        inst = p3_gadget()
        with pytest.raises(ResourceLimitError, match="component containing agent"):
            achievable_scores_bf(inst, max_orientations=3)

    def test_guard_trips_on_component_product(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = instance_union(p3_gadget(), p3_gadget())
        # each path has 4 orientations; the product 16 exceeds the guard
        with pytest.raises(ResourceLimitError):
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
