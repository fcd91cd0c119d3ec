"""Tree-decomposition dynamic programs against the brute-force oracle."""

import itertools
import math
import random
from operator import add, le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nice_td_of, small_instances, with_backer
from socialpolls import dpkeys, dpsolver
from socialpolls.dpsolver import (
    achievable_scores_dp,
    margins_dp,
    necessary_winner_dp,
    possible_winner_dp,
)
from socialpolls.graphkit import (
    TreeDecomposition,
    exact_td_small,
    heuristic_td,
    make_nice,
)
from socialpolls.model import (
    AgentPrefs,
    Instance,
    PollInputError,
    ResourceLimitError,
    instance_union,
)
from socialpolls.oracle import (
    achievable_scores_bf,
    margins_bf,
    necessary_winner_bf,
    possible_winner_bf,
)
from socialpolls.reductions import gen_family, gen_random
from test_model import p3_gadget, two_agent_edge


def all_decompositions(inst):
    """Three differently built nice decompositions of the same graph."""
    g = inst.graph
    yield make_nice(heuristic_td(g))
    yield make_nice(exact_td_small(g))
    one_bag = TreeDecomposition((frozenset(range(g.n)),), set())
    yield make_nice(one_bag)


class TestFrozenCases:
    def test_margins(self):
        inst = p3_gadget()
        ntd = nice_td_of(inst)
        assert margins_dp(inst, ntd, "a")["b"] == 4
        inst = two_agent_edge()
        assert margins_dp(inst, nice_td_of(inst), "a")["b"] == 2

    def test_necessary(self):
        inst = two_agent_edge()
        assert necessary_winner_dp(inst, nice_td_of(inst), "a") == (False, "b")
        lr = instance_union(gen_family("L", 2), gen_family("R", 2))
        assert necessary_winner_dp(lr, nice_td_of(lr), "c*") == (True, None)
        single = Instance(("a", "b"), (AgentPrefs("a", ["a", "b"]),), (), "a")
        assert necessary_winner_dp(single, nice_td_of(single), "a") == (True, None)

    def test_possible(self):
        inst = two_agent_edge()
        ntd = nice_td_of(inst)
        assert possible_winner_dp(inst, ntd, "a")
        assert possible_winner_dp(inst, ntd, "b")
        # weighted: the heavy agent 2 outvotes "a" on every order
        inst = p3_gadget()
        ntd = nice_td_of(inst)
        assert [possible_winner_dp(inst, ntd, c) for c in "abc"] == [False, True, True]

    def test_unknown_candidate(self):
        inst = two_agent_edge()
        ntd = nice_td_of(inst)
        with pytest.raises(PollInputError):
            possible_winner_dp(inst, ntd, "z")
        with pytest.raises(PollInputError):
            margins_dp(inst, ntd, "z")

    def test_table_guard(self):
        inst = gen_random(7, 8, 2, edge_prob=0.5)
        with pytest.raises(ResourceLimitError, match="table guard"):
            achievable_scores_dp(inst, nice_td_of(inst), max_table=4)
        with pytest.raises(ResourceLimitError, match="table guard"):
            possible_winner_dp(inst, nice_td_of(inst), "c1", max_table=4)


class TestOracleEquivalence:
    @given(st.integers(0, 2_000), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_achievable_scores(self, seed, n):
        inst = gen_random(seed, n, 3, edge_prob=0.4)
        assert achievable_scores_dp(inst, nice_td_of(inst)) == achievable_scores_bf(inst)

    def test_achievable_scores_weighted(self):
        # a weighted count vector is a score function too
        rng = random.Random(5)
        polls = [p3_gadget()] + [
            gen_random(rng.randrange(10**6), rng.randint(2, 6), rng.randint(2, 3),
                       edge_prob=0.4, max_weight=rng.choice((3, 9)))
            for _ in range(40)]
        assert sum(not inst.is_unweighted() for inst in polls) >= 35
        for inst in polls:
            assert achievable_scores_dp(inst, nice_td_of(inst)) == achievable_scores_bf(inst)

    @given(st.integers(0, 2_000), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_margins_weighted(self, seed, n):
        inst = gen_random(seed, n, 3, edge_prob=0.4, max_weight=9)
        ntd = nice_td_of(inst)
        for c in inst.candidates:
            # one sweep per candidate gives every rival's margin against it
            assert margins_dp(inst, ntd, c) == margins_bf(inst, c)

    @given(st.integers(0, 2_000), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_necessary_weighted(self, seed, n):
        inst = gen_random(seed, n, 3, edge_prob=0.4, max_weight=5)
        ntd = nice_td_of(inst)
        for c in inst.candidates:
            assert necessary_winner_dp(inst, ntd, c)[0] == necessary_winner_bf(inst, c)[0]

    # keys holding many count vectors: up to 13 on the path, 83 on the forest
    @pytest.mark.parametrize("inst", [
        Instance(("a", "b"), tuple(AgentPrefs("ab"[x % 2], ["a", "b"]) for x in range(12)),
                 frozenset((x, x + 1) for x in range(11)), "a"),
        gen_random(1, 12, 3, edge_prob=0.9, forest=True, pref_size=3),
    ], ids=["alternating-path-12", "forest-3-candidates"])
    def test_achievable_scores_where_keys_hold_many_vectors(self, monkeypatch, inst):
        found = []
        calls = captured_checks(
            monkeypatch, lambda: found.append(achievable_scores_dp(inst, nice_td_of(inst))))
        assert max(len(counts) for _, _, items, _ in calls for _, counts in items) >= 10
        assert found[0] == achievable_scores_bf(inst)


def check_margins_against_bf(inst):
    """margins_dp against brute force for every ordered pair, and the
    offender of necessary_winner_dp: the first rival in candidate order
    whose margin is positive."""
    ntd = nice_td_of(inst)
    for c in inst.candidates:
        margins = margins_dp(inst, ntd, c)
        rivals = [d for d in inst.candidates if d != c]
        assert list(margins) == rivals
        bf = margins_bf(inst, c)
        assert margins == bf
        first = next((d for d in rivals if bf[d] > 0), None)
        assert necessary_winner_dp(inst, ntd, c) == (first is None, first)


class TestMarginSweep:
    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_margins_equal_bf_on_small_polls(self, inst):
        check_margins_against_bf(inst)

    @given(st.integers(0, 2_000), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_margins_equal_bf_four_candidates(self, seed, n, size):
        check_margins_against_bf(
            gen_random(seed, n, 4, edge_prob=0.4, pref_size=size, max_weight=9)
        )

    def test_necessary_runs_one_sweep(self, monkeypatch):
        padded = with_backer(gen_random(11, 6, 4, edge_prob=0.4, max_weight=9), "c1")
        ntd = nice_td_of(padded)
        trace, found = [], []
        calls = captured_checks(monkeypatch, lambda: found.append(
            necessary_winner_dp(padded, ntd, "c1", trace=trace)))
        assert found == [(True, None)]
        # the bound empties the first leaf, where the sweep stops, and
        # every node still has its trace row
        assert len(calls) == 1 and not calls[0][2]
        assert [t[:2] for t in trace] == [(i, nd.kind) for i, nd in enumerate(ntd.nodes)]
        assert all(entries == 0 for _, _, entries in trace)

    @pytest.mark.parametrize("seed", range(6))
    def test_decisions_match_bf_with_and_without_a_heavy_backer(self, seed):
        # the bounded sweeps against brute force, on polls where the
        # bound rarely bites and on the same polls padded so that it
        # empties the backed candidate's necessary sweep and every other
        # candidate's possible sweep
        rng = random.Random(seed)
        for _ in range(8):
            inst = gen_random(rng.randrange(10**6), rng.randint(2, 7), rng.randint(2, 4),
                              edge_prob=0.35, max_weight=rng.choice((1, 5)))
            backed = rng.choice(inst.candidates)
            for poll in (inst, with_backer(inst, backed)):
                ntd = nice_td_of(poll)
                for c in poll.candidates:
                    bf = margins_bf(poll, c)
                    first = next((d for d, margin in bf.items() if margin > 0), None)
                    stats = {}
                    assert necessary_winner_dp(poll, ntd, c, stats=stats) == (first is None,
                                                                              first)
                    if poll is not inst and c == backed:
                        assert stats["entries"] == 0
                    stats = {}
                    assert possible_winner_dp(poll, ntd, c, stats=stats) == \
                        possible_winner_bf(poll, c)[0]
                    if poll is not inst and c != backed:
                        assert stats["entries"] == 0

    def test_single_candidate_sweeps_zero_length_vectors(self):
        # with no rival a vector has no coordinate: the margin and front
        # sweeps keep the one empty vector, and the outside-agent bound of
        # necessary, which no rival can pass, empties the leaf
        single = Instance(("a",), (AgentPrefs("a", ["a"]),), (), "a")
        ntd = nice_td_of(single)
        traces = [], [], []
        assert margins_dp(single, ntd, "a", trace=traces[0]) == {}
        assert possible_winner_dp(single, ntd, "a", trace=traces[1])
        assert necessary_winner_dp(single, ntd, "a", trace=traces[2]) == (True, None)
        nodes = [(0, "leaf"), (1, "insert"), (2, "forget")]
        assert traces == tuple([node + (e,) for node in nodes] for e in (1, 1, 0))


def check_possible_against_bf(inst):
    """possible_winner_dp against brute force for every candidate and
    against the count sweep: c co-wins some achievable score function."""
    ntd = nice_td_of(inst)
    sets = achievable_scores_dp(inst, ntd)
    for ci, c in enumerate(inst.candidates):
        dp = possible_winner_dp(inst, ntd, c)
        assert dp == possible_winner_bf(inst, c)[0], c
        assert dp == any(sf.values[ci] == max(sf.values) for sf in sets), c


def unit_weights(inst):
    agents = tuple(AgentPrefs(a.top, a.preferred) for a in inst.agents)
    return Instance(inst.candidates, agents, inst.edges, inst.distinguished)


def minimal(vectors):
    """The vectors that no other one is <= in every coordinate."""
    return {p for p in vectors
            if not any(q != p and all(map(le, q, p)) for q in vectors)}


class TestPossibleFront:
    @given(small_instances(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_bf_on_small_polls(self, inst, unit):
        check_possible_against_bf(unit_weights(inst) if unit else inst)

    @pytest.mark.parametrize("max_weight", (1, 5))
    @pytest.mark.parametrize("m", (2, 3, 4))
    def test_matches_bf_on_seeded_polls(self, m, max_weight):
        rng = random.Random(10 * m + max_weight)
        for _ in range(12):
            check_possible_against_bf(gen_random(rng.randrange(10**6), rng.randint(2, 7), m,
                                                 edge_prob=0.35, max_weight=max_weight))

    @given(st.integers(0, 2_000), st.integers(1, 6), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_front_is_the_minimum_of_the_count_sweep(self, seed, n, m):
        # node by node: the same nodes as the count sweep, and the keys
        # of its count vectors whose margin vectors pass the node's
        # outside-agent bound, each key's front the minimal such vectors,
        # so never more entries; a front sweep that empties stops there
        # and traces the nodes it skips as empty
        inst = gen_random(seed, n, m, edge_prob=0.4)
        ntd = nice_td_of(inst)
        count_trace = []
        with pytest.MonkeyPatch.context() as mp:
            count_calls = captured_checks(
                mp, lambda: achievable_scores_dp(inst, ntd, trace=count_trace))
        for ci, c in enumerate(inst.candidates):
            trace = []
            with pytest.MonkeyPatch.context() as mp:
                calls = captured_checks(
                    mp, lambda: possible_winner_dp(inst, ntd, c, trace=trace))
            assert [t[:2] for t in trace] == [t[:2] for t in count_trace]
            assert all(t[2] <= u[2] for t, u in zip(trace, count_trace))
            assert len(calls) == len(count_calls) or (
                len(calls) < len(count_calls) and not calls[-1][2]
                and all(t[2] == 0 for t in trace[len(calls):]))
            for (_, rec, fronts, _), (_, _, slices, _) in zip(calls, count_calls):
                mapped = {}
                for key, vectors in slices:
                    kept = {p for p in (tuple(q - counts[ci] for d, q in enumerate(counts)
                                              if d != ci) for counts in vectors)
                            if all(map(le, p, rec.neg))}
                    if kept:
                        mapped[key] = kept
                assert len(fronts) == len(mapped)
                for key, front in fronts:
                    assert len(set(front)) == len(front)
                    assert set(front) == minimal(mapped[key])


class TestDecompositionIndependence:
    @given(st.integers(0, 1_000), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_counts_and_margins_agree(self, seed, n):
        inst = gen_random(seed, n, 2, edge_prob=0.4)
        results = [
            (
                achievable_scores_dp(inst, ntd),
                margins_dp(inst, ntd, inst.candidates[-1]),
            )
            for ntd in all_decompositions(inst)
        ]
        assert results[0] == results[1] == results[2]


def soft_bound(inst, ntd):
    # t bounds the bag size, not the width
    t = ntd.width + 1
    n = max(inst.n_agents, 1)
    k = len(inst.candidates)
    return (
        k ** t
        * math.factorial(t + 1)
        * n ** k
        * n ** ((t + 1) * (k - 1))
        * n ** (t + 1)
    )


class TestTableShape:
    @given(st.integers(0, 1_000), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_per_node_growth_bound(self, seed, n):
        inst = gen_random(seed, n, 2, edge_prob=0.5)
        ntd = nice_td_of(inst)
        trace = []
        achievable_scores_dp(inst, ntd, trace=trace)
        bound = soft_bound(inst, ntd)
        assert len(trace) == len(ntd.nodes)
        for node_id, kind, entries in trace:
            assert kind in ("leaf", "insert", "forget", "join")
            assert 0 <= entries <= bound, (node_id, entries, bound)

    def test_stats_report_entries(self):
        inst = p3_gadget()
        stats = {}
        margins_dp(inst, nice_td_of(inst), "a", stats=stats)
        assert stats["entries"] > 0


INF = float("inf")


def one_key(inst, bag, v, order, rows, counts=None):
    """The key checker on one key over `bag`, in index form: votes `v`,
    voting order `order`, one (d_1, ..., d_k) row per bag agent, and one
    count vector, or None for a margin key. Agents whose friends all lie
    in the bag get r = 0; for the others no friend outside the bag is
    seen yet, so r is their number."""
    tables = dpkeys.agent_tables(inst)
    alts, friends = tables[2], tables[3]
    unseen = tuple(len(friends[x] - set(bag)) for x in bag)
    rec = dpkeys.bag_record(alts, friends, bag, unseen, None)
    key = (v, order, tuple(f for row in rows for f in row))
    if counts is None:
        return dpkeys.keys_compatible(tables, rec, [(key, (0,))], "margin")
    return dpkeys.keys_compatible(tables, rec, [(key, {counts})], "count")


class TestMutuallyCompatible:
    # are a key's components mutually compatible? Candidates are
    # indexes: in both polls a = 0 and b = 1. Each agent here has one
    # alternative, so one field; a fully seen agent (r = 0) holds the
    # mark of its vote, (-INF,) for its top and (INF,) for the
    # alternative
    def setup_method(self):
        self.single = Instance(
            ("a", "b"), (AgentPrefs("a", ["a", "b"]),), (), "a"
        )
        self.edge = two_agent_edge()

    def test_empty_bag(self):
        assert one_key(self.single, (), (), (), (), (0, 0))

    def test_isolated_agent_voting_top(self):
        assert one_key(self.single, (0,), (0,), (0,), ((-INF,),), (1, 0))

    def test_anterior_above_degree(self):
        # the mark of b stands for d_b > 0, so for at least one earlier
        # friend voting b: above the degree of a friendless agent
        assert not one_key(self.single, (0,), (1,), (0,), ((INF,),), (0, 1))

    def test_margin_variant_without_counts(self):
        assert one_key(self.single, (0,), (0,), (0,), ((-INF,),))

    def test_oriented_edge_with_follower(self):
        # agent 1 votes after agent 0 and copies its vote for a
        assert one_key(self.edge, (0, 1), (0, 0), (0, 1), ((-INF,), (INF,)), (2, 0))

    def test_voting_rule_enforced_when_fully_seen(self):
        # agent 1 claims a non-top vote without a strict majority: both
        # hold their vote's mark, which tallies of 0 and -1 cannot reach
        assert not one_key(self.edge, (0, 1), (1, 0), (0, 1), ((INF,), (INF,)), (1, 1))

    def test_unoriented_friendship_edge(self):
        # an order that leaves an agent out orients none of its edges
        for order in ((0,), (1,), ()):
            assert not one_key(self.edge, (0, 1), (0, 1), order, ((0,), (0,)), (1, 1))

    def test_two_cycle_and_closure(self):
        tri = Instance(
            ("a", "b"),
            tuple(AgentPrefs("a", ["a", "b"]) for _ in range(3)),
            ((0, 1), (1, 2), (0, 2)),
            "a",
        )
        bag, votes = (0, 1, 2), (0, 0, 0)
        marks = ((-INF,),) * 3
        assert one_key(tri, bag, votes, (0, 1, 2), marks)
        assert one_key(tri, bag, votes, (2, 0, 1), marks)
        # the cycle 0 -> 1 -> 2 -> 0, one earlier friend each, fits no order
        for order in itertools.permutations(bag):
            assert not one_key(tri, bag, votes, order, ((-1,), (-1,), (-1,)))
        # an order that repeats an agent, as a two-cycle would, or lists
        # one outside the bag
        for order in ((0, 1, 0), (0, 1, 0, 2), (0, 1, 2, 0), (0, 1, 3)):
            assert not one_key(tri, bag, votes, order, marks)
        # with one unseen friend each (r = 1) the rows need no mark, and
        # their in-bag tallies fix them: 0, -1, -2 friends' worth of the
        # top along the order, so the cycle still fits no order
        pendants = Instance(tri.candidates, tri.agents * 2,
                            ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)), "a")
        assert one_key(pendants, bag, votes, (0, 1, 2), ((0,), (-1,), (-2,)))
        assert one_key(pendants, bag, votes, (2, 0, 1), ((-1,), (-2,), (0,)))
        for order in itertools.permutations(bag):
            assert not one_key(pendants, bag, votes, order, ((-1,), (-1,), (-1,)))

    def test_counts_must_cover_bag_votes(self):
        top = ((-INF,),)
        assert not one_key(self.single, (0,), (0,), (0,), top, (0, 0))
        assert not one_key(self.single, (0,), (0,), (0,), top, (1, 5))
        # weighted: the agent's own weight, and at most the total weight
        heavy = Instance(("a", "b"), (AgentPrefs("a", ["a", "b"], 3),), (), "a")
        assert one_key(heavy, (0,), (0,), (0,), top, (3, 0))
        assert not one_key(heavy, (0,), (0,), (0,), top, (1, 0))
        assert not one_key(heavy, (0,), (0,), (0,), top, (3, 1))


def friend_moves(width):
    """What one friend voting earlier does to a row of `width` fields:
    +1 on the field of the alternative it votes and -1 on the others,
    or -1 on every field when it votes none of them."""
    return [tuple(1 if g == j else -1 for g in range(width)) for j in range(width + 1)]


def can_still_vote(top, alts, vote, row, r):
    """Can an agent with the unmarked row `row` still cast `vote` if t
    of its r unseen friends vote before it, for some t <= r? Searches t
    and the friends' votes."""
    for t in range(r + 1):
        for votes in itertools.combinations_with_replacement(friend_moves(len(alts)), t):
            final = [q + sum(move[j] for move in votes) for j, q in enumerate(row)]
            if vote == top:
                if all(q <= 0 for q in final):
                    return True
            elif final[alts.index(vote)] > 0:
                return True
    return False


def settled(top, alts, vote, row, r):
    """Does `row` fix the agent's vote whatever its r unseen friends do?"""
    if vote == top:
        return all(q <= -r for q in row)
    return row[alts.index(vote)] > r


def reference_keys_compatible(tables, bag, items, kind, unseen, neg=None, rule=True):
    """The table-key checker written over nested keys (v, D, rows), with
    one d row per bag agent and `D` the bag in voting order, checking
    every condition on every key. An agent's in-friends inside the bag
    give its row T, and each of its `seen` friends outside the bag, the
    friends outside the bag minus its `unseen` count r, moves a field
    by at most one, so an unmarked row lies in the box T +- seen with
    fields of one parity; with `rule`, it must be able to cast its vote
    after some t <= r more friends (searched), and at r = 0 it must be
    its mark. A mark, -inf on every field for the top and +inf on the
    alternative's field and -inf elsewhere, must stand for some settled
    row of the box (searched). A "count" payload is a container of
    weighted count vectors, which must not be empty, and every vector is
    checked; a "front" payload is a non-empty list of margin vectors.
    With `neg`, the outside-agent bound: some rival of a "margin" payload
    must still be able to lead (a coordinate above `neg`), and every
    front vector must still be able to end <= 0 (no coordinate above
    `neg`). Kept as the reference for the flat checker."""
    prefs, top, alts, friends, weights = tables[:5]
    pos = {y: k for k, y in enumerate(bag)}
    nbr_in = tuple(tuple(y for y in bag if y in friends[x]) for x in bag)
    total = sum(weights)
    for (v, order, rows), payload in items:
        if len(rows) != len(bag) or any(len(rows[k]) != len(alts[x])
                                        for k, x in enumerate(bag)):
            return False
        if sorted(order) != sorted(bag):
            return False
        for k, x in enumerate(bag):
            if v[k] not in prefs[x]:
                return False
            ing = [y for y in nbr_in[k] if order.index(y) < order.index(x)]
            tally = [sum(1 if v[pos[y]] == c else -1 for y in ing) for c in alts[x]]
            r = unseen[k]
            seen = len(friends[x]) - len(nbr_in[k]) - r
            box = (p for p in itertools.product(*(range(t - seen, t + seen + 1)
                                                  for t in tally))
                   if len({q % 2 for q in p}) < 2)
            mark = tuple(INF if c == v[k] else -INF for c in alts[x])
            if rows[k] == mark:
                if not any(settled(top[x], alts[x], v[k], p, r) for p in box):
                    return False
            elif rows[k] not in box:
                return False
            elif rule and (r == 0 or not can_still_vote(top[x], alts[x], v[k], rows[k], r)):
                return False
        if kind == "count":
            if not payload:
                return False
            for counts in payload:
                if any(q < 0 for q in counts) or sum(counts) > total:
                    return False
                own = [sum(weights[x] for x, vk in zip(bag, v) if vk == c)
                       for c in range(len(counts))]
                if any(q < w for q, w in zip(counts, own)):
                    return False
        elif kind == "front":
            if not payload:
                return False
            if neg is not None and any(q > b for p in payload for q, b in zip(p, neg)):
                return False
        elif neg is not None and not any(q > b for q, b in zip(payload, neg)):
            return False
    return True


def nested_item(rec, item):
    """A flat ((v, D, d), payload) item over bag record `rec` in the
    nested (v, D, rows) form, with the payload container as it is;
    fields past the bag's rows become one more row."""
    (v, order, d), payload = item
    bag, off = rec.bag, rec.off
    rows = [d[off[k]:off[k + 1]] for k in range(len(bag))]
    if len(d) > off[-1]:
        rows.append(d[off[-1]:])
    return (v, order, tuple(rows)), payload


def captured_checks(monkeypatch, run):
    """Every (tables, bag record, items, kind) call the sweeps in `run`
    make to the key checker, with the items listed."""
    calls = []
    real = dpsolver.keys_compatible

    def spy(tables, rec, items, kind):
        items = list(items)
        calls.append((tables, rec, items, kind))
        return real(tables, rec, items, kind)

    with monkeypatch.context() as mp:
        mp.setattr(dpsolver, "keys_compatible", spy)
        run()
    return calls


def mutants(rng, tables, rec, item, kind, n_candidates):
    """One-field mutations of a flat item: a vote, each field of one
    agent's row moved by one, a field pushed just past the voting-rule
    bound (keeping the row's parity), the row turned into its vote's
    mark or a mark turned back into a row, one field too many; in the
    order an agent dropped, an agent repeated, an agent from outside the
    bag added and two friends swapped; in count mode also one count
    vector of the container with a field moved by one or pushed just
    below the bag's own votes, the others kept (see `bad_counts`), and
    the empty container; in a bounded margin sweep the payload `neg`
    itself, <= `neg` everywhere; in front mode the empty front and, when
    bounded, one more vector just above `neg` in one coordinate."""
    top, alts, friends = tables[1], tables[2], tables[3]
    (v, order, d), payload = item
    bag, off, unseen = rec.bag, rec.off, rec.unseen
    out = [((v, order, d + (0,)), payload)]

    def with_row(k, row):
        return (v, order, d[:off[k]] + tuple(row) + d[off[k + 1]:]), payload

    def with_field(i, value):
        return (v, order, d[:i] + (value,) + d[i + 1:]), payload

    def with_order(changed):
        return (v, changed, d), payload

    def inserted(y):
        i = rng.randrange(len(order) + 1)
        return with_order(order[:i] + (y,) + order[i:])

    if bag:
        k = rng.randrange(len(bag))
        vote = rng.randrange(n_candidates)
        out.append(((v[:k] + (vote,) + v[k + 1:], order, d), payload))
        for i in range(off[k], off[k + 1]):
            out.append(with_field(i, d[i] + rng.choice((-1, 1))))
        x, r, width = bag[k], unseen[k], off[k + 1] - off[k]
        row = d[off[k]:off[k + 1]]
        mark = tuple(INF if c == v[k] else -INF for c in alts[x])
        if width:
            # the parity of the row's other fields, where it has them
            odd = (row[0] if abs(row[0]) != INF else 0) % 2
            if v[k] == top[x]:
                past = r + 1
                f = rng.randrange(off[k], off[k + 1])
            else:
                past = -r
                f = off[k] + alts[x].index(v[k])
            out.append(with_field(f, past + (past - odd) % 2 * (1 if past > 0 else -1)))
        if row == mark:
            # the least settled row of the vote
            out.append(with_row(k, [r + 1 if c == v[k] else -r - 1 for c in alts[x]]
                                if v[k] != top[x] else [-r] * width))
        else:
            out.append(with_row(k, mark))
        i = rng.randrange(len(order))
        out.append(with_order(order[:i] + order[i + 1:]))
        out.append(inserted(rng.choice(order)))
    n = len(tables[0])
    out.append(inserted(rng.choice([y for y in range(n) if y not in bag] or [n])))
    swaps = [(i, j) for j in range(len(order)) for i in range(j)
             if order[i] in friends[order[j]]]
    if swaps:
        i, j = rng.choice(swaps)
        out.append(with_order(order[:i] + (order[j],) + order[i + 1:j] + (order[i],)
                              + order[j + 1:]))
    if kind == "count":
        counts = rng.choice(sorted(payload))
        j = rng.randrange(len(counts))
        moved = counts[:j] + (counts[j] + rng.choice((-1, 1)),) + counts[j + 1:]
        out.append(((v, order, d), (payload - {counts}) | {moved}))
        out += [((v, order, d), bad) for bad in bad_counts(rng, tables, rec, v, payload)]
    elif kind == "front":
        out.append(((v, order, d), []))
        # a vector without coordinates has none to push above `neg`
        if rec.neg:
            out.append(((v, order, d), payload + [above(rng, rng.choice(payload), rec.neg)]))
    elif rec.neg is not None:
        out.append(((v, order, d), rec.neg))
    return out


def above(rng, p, neg):
    """`p` with one coordinate set just above `neg`."""
    j = rng.randrange(len(p))
    return p[:j] + (neg[j] + 1,) + p[j + 1:]


def bad_counts(rng, tables, rec, v, payload):
    """Two count containers that no state can have: `payload` with one
    of its vectors pushed one below the bag's own weighted votes in a
    field, and the empty container."""
    counts = rng.choice(sorted(payload))
    j = rng.randrange(len(counts))
    own = sum(tables[4][x] for x, vk in zip(rec.bag, v) if vk == j)
    low = counts[:j] + (own - 1,) + counts[j + 1:]
    return [(payload - {counts}) | {low}, set()]


def compare_checkers(calls, n_candidates, rng, per_slice=3, siblings=40):
    """The flat checker against the reference on every captured slice, on
    mutants of sampled items alone, and on each mutant placed after the
    first items of its slice that share its order, so that the per-order
    and per-(v, D) caches are filled when it arrives (a payload mutant
    then arrives after its own key with the original container)."""
    for tables, rec, items, kind in calls:
        def agree(flat):
            nested = [nested_item(rec, it) for it in flat]
            assert dpkeys.keys_compatible(tables, rec, flat, kind) == \
                reference_keys_compatible(tables, rec.bag, nested, kind,
                                          rec.unseen, rec.neg), (rec.bag, flat)

        agree(items)
        for idx in rng.sample(range(len(items)), min(per_slice, len(items))):
            order = items[idx][0][1]
            before = [it for it in items if it[0][1] == order][:siblings]
            for mutant in mutants(rng, tables, rec, items[idx], kind, n_candidates):
                agree([mutant])
                agree(before + [mutant])


def sweep_all(inst):
    """One count sweep, and per candidate one margin sweep and the
    bounded margin and front sweeps of the two decisions."""
    ntd = nice_td_of(inst)
    achievable_scores_dp(inst, ntd)
    for c in inst.candidates:
        margins_dp(inst, ntd, c)
        necessary_winner_dp(inst, ntd, c)
        possible_winner_dp(inst, ntd, c)


class TestKeyChecker:
    # at most four agents: on a complete graph of five one example
    # takes about ten seconds
    @given(small_instances(max_agents=4), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_matches_reference_on_small_polls(self, inst, rng):
        with pytest.MonkeyPatch.context() as mp:
            calls = captured_checks(mp, lambda: sweep_all(inst))
        compare_checkers(calls, len(inst.candidates), rng)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", (3, 4))
    def test_matches_reference_on_seeded_polls(self, monkeypatch, seed, m):
        rng = random.Random(seed)
        for inst in (gen_random(seed, 5, m, edge_prob=0.5),
                     gen_random(seed, 5, m, edge_prob=0.4, pref_size=3, max_weight=5)):
            calls = captured_checks(monkeypatch, lambda: sweep_all(inst))
            compare_checkers(calls, m, rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_bad_count_containers_are_rejected(self, monkeypatch, seed):
        # one bad vector among good ones, or none at all, fails the key
        # and so the slice, in both checkers
        rng = random.Random(seed)
        inst = gen_random(seed, 10, 3, edge_prob=0.9, forest=True, pref_size=3)
        calls = captured_checks(monkeypatch,
                                lambda: achievable_scores_dp(inst, nice_td_of(inst)))
        tried = 0
        for tables, rec, items, kind in calls:
            several = [k for k, (_, counts) in enumerate(items) if len(counts) > 1]
            for idx in rng.sample(several, min(3, len(several))):
                (v, order, c), counts = items[idx]
                for bad in bad_counts(rng, tables, rec, v, counts):
                    corrupt = items[:idx] + [((v, order, c), bad)] + items[idx + 1:]
                    assert not dpkeys.keys_compatible(tables, rec, corrupt, kind)
                    assert not reference_keys_compatible(
                        tables, rec.bag, [nested_item(rec, it) for it in corrupt], kind,
                        rec.unseen)
                tried += 1
        assert tried >= 5

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("question", (necessary_winner_dp, possible_winner_dp),
                             ids=("necessary", "possible"))
    def test_payloads_past_the_bound_are_rejected(self, monkeypatch, seed, question):
        # a margin payload <= neg everywhere, or one front vector above
        # neg in one coordinate next to good ones, fails the key and so
        # the slice, in both checkers
        rng = random.Random(seed)
        inst = gen_random(seed, 6, 3, edge_prob=0.4, max_weight=5)
        ntd = nice_td_of(inst)
        calls = captured_checks(monkeypatch, lambda: [question(inst, ntd, c)
                                                      for c in inst.candidates])
        tried = 0
        for tables, rec, items, kind in calls:
            for idx in rng.sample(range(len(items)), min(2, len(items))):
                key, payload = items[idx]
                bad = (rec.neg if kind == "margin"
                       else payload + [above(rng, rng.choice(payload), rec.neg)])
                corrupt = items[:idx] + [(key, bad)] + items[idx + 1:]
                assert not dpkeys.keys_compatible(tables, rec, corrupt, kind)
                assert not reference_keys_compatible(
                    tables, rec.bag, [nested_item(rec, it) for it in corrupt], kind,
                    rec.unseen, rec.neg)
                tried += 1
        assert tried >= 10


def join_without_overlap(original):
    """A join that adds the in-bag tallies back: one that forgot to
    subtract the overlap of its two sides."""
    def join(self, rec, left, right):
        sl = {}
        for (v, order, d), p in original(self, rec, left, right).items():
            ins = dpkeys.in_friends(self.nbr, rec.bag, order)
            extra = dpkeys.tallies(self.alts, rec.bag, v, ins)
            self._merge(sl, (v, order, tuple(map(add, d, extra))), p)
        return sl
    return join


def places_without_bumps(original):
    """Insert places that never count x for the friends voting after it."""
    def places(self, *args):
        return [(in_pos, {}, order) for in_pos, _, order in original(self, *args)]
    return places


def unpruned(original, above_leaves=False, bound=False):
    """An insert or join that prunes nothing by the voting rule: its bag
    record gives every bag agent `dpkeys.NO_BOUND` unseen friends. With
    `bound` it drops the outside-agent bound too, and with `above_leaves`
    it changes only the inserts into an empty bag, which sit right above
    the leaves."""
    def transition(self, rec, *args):
        if not above_leaves or not args[0].bag:
            rec = rec._replace(unseen=(dpkeys.NO_BOUND,) * len(rec.bag))
            if bound:
                rec = rec._replace(neg=None)
        return original(self, rec, *args)
    return transition


def forgotten_row(crec, x):
    """Where the forgotten agent x sits in the child's bag (record
    `crec`), and where its row starts and stops in the child's flat
    rows."""
    px = crec.bag.index(x)
    off = crec.off
    return px, off[px], off[px + 1]


def forget_keeping_row(original):
    """A forget that moves the forgotten agent's row to the end of the
    rows instead of dropping it."""
    def forget(self, crec, child, x):
        px, start, stop = forgotten_row(crec, x)
        sl = {}
        for (v, order, d), p in child.items():
            order = tuple(y for y in order if y != x)
            self._merge(sl, (v[:px] + v[px + 1:], order, d[:start] + d[stop:] + d[start:stop]),
                        p)
        return sl
    return forget


def forget_with_rule(original):
    """A forget that first drops the states whose forgotten agent breaks
    the voting rule, as a program that prunes nowhere else must."""
    def forget(self, crec, child, x):
        px, start, stop = forgotten_row(crec, x)

        def obeys(key):
            v, _, d = key
            held = [alt for alt, q in zip(self.alts[x], d[start:stop]) if q > 0]
            return v[px] == (held[0] if held else self.tables[1][x])

        return original(self, crec, {k: p for k, p in child.items() if obeys(k)}, x)
    return forget


# possible asks about "b": for "a" the outside-agent bound already drops
# every state that STAR's unpruned join would store
SWEEPS = {
    "count": lambda inst, ntd: achievable_scores_dp(inst, ntd),
    "margin": lambda inst, ntd: margins_dp(inst, ntd, "a"),
    "necessary": lambda inst, ntd: necessary_winner_dp(inst, ntd, "a"),
    "front": lambda inst, ntd: possible_winner_dp(inst, ntd, "b"),
}


class TestSweepCheckIsLive:
    # a triangle with a pendant agent on each corner: its decomposition
    # joins on a bag holding a friendship edge, so the overlap that the
    # join subtracts is not zero
    INST = Instance(
        ("a", "b", "c"),
        tuple(AgentPrefs(t, ["a", "b", "c"]) for t in "abcabc"),
        ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)),
        "a",
    )

    @pytest.mark.parametrize("corrupt, method", [
        (join_without_overlap, "_join"),
        (places_without_bumps, "_places"),
    ])
    @pytest.mark.parametrize("mode", SWEEPS)
    def test_corrupt_transition_trips_the_check(self, monkeypatch, corrupt, method, mode):
        inst = self.INST
        ntd = nice_td_of(inst)
        assert any(nd.kind == "join" and any(set(e) <= set(nd.bag) for e in inst.edges)
                   for nd in ntd.nodes)
        monkeypatch.setattr(dpsolver._Engine, method,
                            corrupt(getattr(dpsolver._Engine, method)))
        with pytest.raises(AssertionError, match="incompatible key stored at node"):
            SWEEPS[mode](inst, ntd)

    # a star whose center joins two pairs of leaves, and an isolated
    # agent that may only vote its top: the insert above a leaf, any
    # insert and the join each make dead states on it
    STAR = Instance(
        ("a", "b"),
        tuple(AgentPrefs(t, ["a", "b"]) for t in "abbaab"),
        ((0, 1), (0, 2), (0, 3), (0, 4)),
        "a",
    )

    @pytest.mark.parametrize("kind", ("leaf", "insert", "join"))
    @pytest.mark.parametrize("mode", SWEEPS)
    def test_unpruned_transition_trips_the_check(self, monkeypatch, kind, mode):
        inst = self.STAR
        ntd = nice_td_of(inst)
        assert any(nd.kind == "join" for nd in ntd.nodes)
        # "leaf" patches only the inserts into a leaf's empty state
        method = "_join" if kind == "join" else "_insert"
        monkeypatch.setattr(dpsolver._Engine, method,
                            unpruned(getattr(dpsolver._Engine, method), kind == "leaf"))
        if kind == "join":
            # in margin mode a live key of the same (v, D) beats every
            # dead key of this join, so that only without dominance are
            # they stored
            monkeypatch.setattr(dpsolver._Engine, "_undominated_margin",
                                staticmethod(dpsolver._Engine._every_key))
        with pytest.raises(AssertionError,
                           match=r"^incompatible key stored at node \d+$") as info:
            SWEEPS[mode](inst, ntd)
        node = ntd.nodes[int(str(info.value).split()[-1])]
        assert node.kind == ("insert" if kind == "leaf" else kind)
        if kind == "leaf":
            assert ntd.nodes[node.children[0]].kind == "leaf"
            assert node.bag == (5,)  # the isolated agent votes its top or dies

    @pytest.mark.parametrize("mode", SWEEPS)
    def test_row_kept_past_the_bag_trips_the_check(self, monkeypatch, mode):
        inst = self.INST
        ntd = nice_td_of(inst)
        monkeypatch.setattr(dpsolver._Engine, "_forget",
                            forget_keeping_row(dpsolver._Engine._forget))
        with pytest.raises(AssertionError, match="incompatible key stored at node"):
            SWEEPS[mode](inst, ntd)


def root_answer(engine, root):
    """What a sweep's root says, as pruning must keep it: every count
    vector or exact margin vector of an unbounded sweep, and of a
    bounded sweep the rivals' positive margins (necessary) or the front
    vectors that are <= 0 everywhere (possible)."""
    if engine.kind == "count":
        return sorted(p for counts in root.values() for p in counts)
    if engine.edge is None:
        return sorted(root.values())
    if engine.kind == "margin":
        return sorted(tuple(max(q, 0) for q in p) for p in root.values()
                      if any(q > 0 for q in p))
    return sorted(p for front in root.values() for p in front if all(q <= 0 for q in p))


def sweeps_with_reference_checker(inst, ntd, pruned):
    """Per sweep of `sweep_all`, the trace and the root answer, with the
    reference checker on every stored slice. Unpruned, the insert and
    join prune nothing, the forget applies the voting rule, and the
    checker skips the voting-rule and outside-agent bounds, so it takes
    the unmarked rows of fully seen agents too."""
    results = []

    def check(tables, rec, items, kind):
        nested = [nested_item(rec, it) for it in items]
        return reference_keys_compatible(tables, rec.bag, nested, kind, rec.unseen,
                                         rec.neg if pruned else None, rule=pruned)

    def run(self, real=dpsolver._Engine.run):
        root = real(self)
        results.append((self.trace, root_answer(self, root)))
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpsolver, "keys_compatible", check)
        mp.setattr(dpsolver._Engine, "run", run)
        if not pruned:
            for method in ("_insert", "_join"):
                mp.setattr(dpsolver._Engine, method,
                           unpruned(getattr(dpsolver._Engine, method), bound=True))
            mp.setattr(dpsolver._Engine, "_forget",
                       forget_with_rule(dpsolver._Engine._forget))
        achievable_scores_dp(inst, ntd, trace=[])
        for c in inst.candidates:
            margins_dp(inst, ntd, c, trace=[])
            necessary_winner_dp(inst, ntd, c, trace=[])
            possible_winner_dp(inst, ntd, c, trace=[])
    return results


class TestPruning:
    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_unseen_counts_friends_outside_the_subtree(self, inst):
        alts, friends = dpkeys.agent_tables(inst)[2:4]
        for ntd in all_decompositions(inst):
            below = []
            for nd, rec in zip(ntd.nodes, dpkeys.bag_records(ntd, alts, friends)):
                seen = set(nd.bag).union(*(below[k] for k in nd.children))
                below.append(seen)
                assert rec.bag == nd.bag
                assert rec.unseen == tuple(len(friends[x] - seen) for x in nd.bag)

    @given(small_instances())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_pruning_shrinks_every_node_and_keeps_the_roots(self, inst):
        ntd = nice_td_of(inst)
        pruned = sweeps_with_reference_checker(inst, ntd, True)
        full = sweeps_with_reference_checker(inst, ntd, False)
        assert len(pruned) == len(full)
        for (trace, root), (full_trace, full_root) in zip(pruned, full):
            assert root == full_root
            assert [t[:2] for t in trace] == [t[:2] for t in full_trace]
            assert all(t[2] <= f[2] for t, f in zip(trace, full_trace))


def sweeps_merged_or_not(inst, ntd, merged):
    """The answers of `sweep_all`'s sweeps, then per sweep its trace and
    root slice. Unmerged, no row is marked, since every settled bound is
    out of reach, and margin mode keeps every key; the checker then reads
    each settled row as its mark."""
    answers, results = [], []

    def run(self, real=dpsolver._Engine.run):
        root = real(self)
        results.append((self.trace, root))
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpsolver._Engine, "run", run)
        if not merged:
            rules_of, check = dpsolver.rule_bounds, dpsolver.keys_compatible

            def unsettled_rules(tables, rec, v, positions):
                return [rule[:5] + (dpkeys.NO_BOUND,) + rule[6:]
                        for rule in rules_of(tables, rec, v, positions)]

            def check_marked(tables, rec, items, kind):
                every = range(len(rec.bag))
                marked = []
                for (v, order, d), payload in items:
                    rows = dpkeys.settle(d, rules_of(tables, rec, v, every))
                    marked.append(((v, order, d if rows is None else rows), payload))
                return check(tables, rec, marked, kind)

            mp.setattr(dpsolver, "rule_bounds", unsettled_rules)
            mp.setattr(dpsolver, "keys_compatible", check_marked)
            mp.setattr(dpsolver._Engine, "_undominated_margin",
                       staticmethod(dpsolver._Engine._every_key))
        answers.append(achievable_scores_dp(inst, ntd, trace=[]))
        for c in inst.candidates:
            answers.append(margins_dp(inst, ntd, c, trace=[]))
            answers.append(necessary_winner_dp(inst, ntd, c, trace=[]))
            answers.append(possible_winner_dp(inst, ntd, c, trace=[]))
    return answers, results


def sorted_root(root):
    """A root slice with each container as a sorted list."""
    return {key: sorted(p) if isinstance(p, (set, list)) else p for key, p in root.items()}


class TestMerging:
    @pytest.mark.parametrize("max_weight", (1, 5))
    @pytest.mark.parametrize("size", (1, 2, 3))
    def test_marks_and_dominance_keep_every_root(self, size, max_weight):
        # settled rows sharing one mark and margin mode's dominated keys
        # dropped: the same roots, answers and offenders as sweeps that do
        # neither, from no more entries at any node
        rng = random.Random(10 * size + max_weight)
        fewer = 0
        for _ in range(8):
            inst = gen_random(rng.randrange(10**6), rng.randint(2, 7), rng.randint(2, 4),
                              edge_prob=0.4, pref_size=size, max_weight=max_weight)
            ntd = nice_td_of(inst)
            answers, merged = sweeps_merged_or_not(inst, ntd, True)
            full_answers, full = sweeps_merged_or_not(inst, ntd, False)
            assert answers == full_answers
            assert len(merged) == len(full)
            for (trace, root), (full_trace, full_root) in zip(merged, full):
                assert sorted_root(root) == sorted_root(full_root)
                assert [t[:2] for t in trace] == [t[:2] for t in full_trace]
                assert all(t[2] <= f[2] for t, f in zip(trace, full_trace))
                fewer += sum(f[2] - t[2] for t, f in zip(trace, full_trace))
        # with one preferred candidate no agent has a row, and one (v, D)
        # holds one key
        assert fewer > 0 if size > 1 else fewer == 0
