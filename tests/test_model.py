"""Voting model: validation, single votes, full simulations, winners."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_vote, small_instances
from socialpolls.model import (
    AgentPrefs,
    Instance,
    PollInputError,
    ScoreFunction,
    choice,
    instance_union,
    orientation_of,
    simulate_order,
    simulate_orientation,
    winners,
)
from socialpolls.reductions import gen_family, gen_random


def p3_gadget():
    # path 0-1-2 with one heavy endpoint; candidates a, b, c
    agents = (
        AgentPrefs("c", frozenset(["c", "b"]), 1),
        AgentPrefs("a", frozenset(["a", "c"]), 1),
        AgentPrefs("b", frozenset(["b", "c"]), 5),
    )
    return Instance(("a", "b", "c"), agents, ((0, 1), (1, 2)), "c")


def two_agent_edge():
    agents = (
        AgentPrefs("a", frozenset(["a", "b"])),
        AgentPrefs("b", frozenset(["a", "b"])),
    )
    return Instance(("a", "b"), agents, ((0, 1),), "a")


class TestValidation:
    def test_agent_prefs(self):
        ag = AgentPrefs("a", ["a", "b"])
        assert ag.preferred == frozenset(["a", "b"])
        assert ag.weight == 1
        with pytest.raises(PollInputError):
            AgentPrefs("c", ["a", "b"])
        with pytest.raises(PollInputError):
            AgentPrefs("a", [])
        with pytest.raises(PollInputError):
            AgentPrefs("a", ["a"], weight=0)
        with pytest.raises(PollInputError):
            AgentPrefs("a", ["a"], weight=2.5)

    @pytest.mark.parametrize("label", ["", "a b", "a,b", "a=b", "#a", "a\tb", 7])
    def test_bad_candidate_labels(self, label):
        with pytest.raises(PollInputError):
            Instance((label,), (AgentPrefs(label, [label]),), (), label)

    def test_instance_checks(self):
        ag = AgentPrefs("a", ["a"])
        with pytest.raises(PollInputError):
            Instance((), (), (), "a")
        with pytest.raises(PollInputError):
            Instance(("a", "a"), (ag,), (), "a")
        with pytest.raises(PollInputError):
            Instance(("a",), (ag,), (), "b")
        with pytest.raises(PollInputError):
            Instance(("a",), (AgentPrefs("b", ["b"]),), (), "a")
        with pytest.raises(PollInputError):
            Instance(("a",), (ag, ag), ((0, 0),), "a")
        with pytest.raises(PollInputError):
            Instance(("a",), (ag, ag), ((0, 5),), "a")
        with pytest.raises(PollInputError):
            Instance(("a",), (ag,), (), "a", name="two words")

    def test_edges_normalize(self):
        ag = AgentPrefs("a", ["a"])
        inst = Instance(("a",), (ag, ag, ag), ((2, 0), (0, 2), (1, 2)), "a")
        assert inst.edges == frozenset([(0, 2), (1, 2)])
        assert inst.graph.adjacency == ((2,), (2,), (0, 1))

    def test_non_uniform_pref_sizes_warn(self):
        agents = (AgentPrefs("a", ["a"]), AgentPrefs("a", ["a", "b"]))
        with pytest.warns(UserWarning):
            Instance(("a", "b"), agents, (), "a")


class TestChoice:
    def test_tie_keeps_top(self):
        # two prior friends split one vote each: no strict majority
        inst = Instance(
            ("a", "b", "c"),
            (
                AgentPrefs("a", ["a", "c"]),
                AgentPrefs("c", ["a", "c"]),
                AgentPrefs("b", ["b", "c"]),
            ),
            ((0, 1), (0, 2)),
            "a",
        )
        assert choice(inst, 0, {1: "c", 2: "b"}) == "a"

    def test_majority_within_preferred_wins(self):
        inst = p3_gadget()
        assert choice(inst, 1, {0: "c"}) == "c"
        assert choice(inst, 1, {0: "b"}) == "a"  # b not preferred by 1
        assert choice(inst, 1, {}) == "a"

    def test_prior_must_be_friends(self):
        inst = p3_gadget()
        with pytest.raises(PollInputError):
            choice(inst, 0, {2: "c"})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_rule_on_random_priors(self, data):
        inst = data.draw(small_instances())
        x = data.draw(st.integers(0, inst.n_agents - 1))
        prior = {
            y: data.draw(st.sampled_from(inst.candidates))
            for y in inst.graph.adjacency[x]
            if data.draw(st.booleans())
        }
        assert choice(inst, x, prior) == naive_vote(inst.agents[x], prior.values())


class TestSimulate:
    def test_path_votes_and_scores(self):
        inst = p3_gadget()
        sim = simulate_order(inst, (0, 1, 2))
        assert sim.votes == ("c", "c", "c")
        assert sim.scores.as_dict() == {"a": 0, "b": 0, "c": 7}

    def test_reverse_path(self):
        inst = p3_gadget()
        sim = simulate_order(inst, (2, 1, 0))
        assert sim.votes == ("c", "a", "b")
        assert sim.scores.as_dict() == {"a": 1, "b": 5, "c": 1}

    def test_order_must_be_permutation(self):
        inst = p3_gadget()
        for bad in ((0, 1), (0, 1, 1), (0, 1, 3)):
            with pytest.raises(PollInputError):
                simulate_order(inst, bad)

    def test_orientation_matches_order(self):
        inst = p3_gadget()
        ori = orientation_of(inst, (0, 1, 2))
        assert ori == frozenset([(0, 1), (1, 2)])
        assert simulate_orientation(inst, ori).scores.as_dict() == {
            "a": 0, "b": 0, "c": 7,
        }
        ori = orientation_of(inst, (2, 1, 0))
        assert simulate_orientation(inst, ori).votes == ("c", "a", "b")

    def test_orientation_validation(self):
        inst = p3_gadget()
        with pytest.raises(PollInputError):
            simulate_orientation(inst, [(0, 1)])  # edge 1-2 unoriented
        with pytest.raises(PollInputError):
            simulate_orientation(inst, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(PollInputError):
            simulate_orientation(inst, [(0, 2), (1, 2)])  # 0-2 not an edge
        tri = Instance(
            ("a",),
            tuple(AgentPrefs("a", ["a"]) for _ in range(3)),
            ((0, 1), (1, 2), (0, 2)),
            "a",
        )
        with pytest.raises(PollInputError):
            simulate_orientation(tri, [(0, 1), (1, 2), (2, 0)])


class TestScoresAndWinners:
    def test_winners_are_cowinners(self):
        s = ScoreFunction(("a", "b", "c"), (7, 0, 0))
        assert winners(s) == frozenset(["a"])
        s = ScoreFunction(("a", "b", "c"), (3, 3, 1))
        assert winners(s) == frozenset(["a", "b"])

    def test_score_function_api(self):
        s = ScoreFunction(("a", "b"), (2, 5))
        assert s.of("b") == 5
        assert s.total() == 7
        with pytest.raises(PollInputError):
            s.of("z")
        with pytest.raises(PollInputError):
            ScoreFunction(("a",), (1, 2))


class TestUnion:
    def test_reindexes_and_merges_candidates(self):
        left = gen_family("L", 1)
        right = gen_family("R", 1)
        u = instance_union(left, right)
        assert u.n_agents == 2
        assert u.edges == frozenset()
        # both agents vote their top in every order
        for order in ((0, 1), (1, 0)):
            assert simulate_order(u, order).scores.as_dict() == {"c*": 1, "a": 1}

    def test_distinguished_conflict_warns(self):
        ag = AgentPrefs("a", ["a", "b"])
        i1 = Instance(("a", "b"), (ag,), (), "a", name="i1")
        i2 = Instance(("a", "b"), (ag,), (), "b", name="i2")
        with pytest.warns(UserWarning):
            u = instance_union(i1, i2)
        assert u.distinguished == "a"

    def test_edge_shift(self):
        inst = p3_gadget()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = instance_union(inst, inst)
        assert u.n_agents == 6
        assert u.edges == frozenset([(0, 1), (1, 2), (3, 4), (4, 5)])


@st.composite
def poll_and_order(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 7))
    inst = gen_random(
        seed,
        n,
        draw(st.integers(1, 3)),
        edge_prob=draw(st.sampled_from((0.2, 0.5, 0.9))),
        max_weight=draw(st.sampled_from((1, 5))),
    )
    order = draw(st.permutations(range(n)))
    return inst, tuple(order)


class TestProperties:
    @given(poll_and_order())
    @settings(max_examples=200, deadline=None)
    def test_votes_legal_and_weight_conserved(self, case):
        inst, order = case
        sim = simulate_order(inst, order)
        for x, vote in enumerate(sim.votes):
            assert vote in inst.agents[x].preferred
        assert sim.scores.total() == inst.total_weight()

    @given(poll_and_order())
    @settings(max_examples=200, deadline=None)
    def test_outcome_depends_only_on_orientation(self, case):
        inst, order = case
        direct = simulate_order(inst, order)
        via = simulate_orientation(inst, orientation_of(inst, order))
        assert direct == via
