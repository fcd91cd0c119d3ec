"""Reduction generators, witness orders, text parsers, families."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cnf_satisfiable, equal_split_possible, hitting_sets
from socialpolls.graphkit import connected_components
from socialpolls.model import PollInputError, simulate_order, winners
from socialpolls.oracle import possible_winner_bf, necessary_winner_bf
from socialpolls.reductions import (
    CnfInput,
    HittingSetInput,
    PartitionInput,
    ReductionParams,
    gen_family,
    gen_family_multi,
    gen_hitting_set_upw,
    gen_partition_wpw,
    gen_random,
    gen_sat_upw,
    parse_dimacs,
    parse_hitting_sets,
    parse_partition_numbers,
    witness_order_hitting,
    witness_order_partition,
    witness_order_sat,
)


def is_bipartite(g):
    color = [None] * g.n
    for start in range(g.n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            x = queue.pop()
            for y in g.adjacency[x]:
                if color[y] is None:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


class TestPartitionInput:
    def test_validation(self):
        p = PartitionInput([2, 1, 1])
        assert p.numbers == (2, 1, 1)
        assert p.total == 4
        with pytest.raises(PollInputError):
            PartitionInput([])
        with pytest.raises(PollInputError):
            PartitionInput([1, 0])
        with pytest.raises(PollInputError):
            PartitionInput([1, -2])


class TestPartitionReduction:
    def test_structure(self):
        inst = gen_partition_wpw(PartitionInput([1, 1]), big_b=5)
        assert inst.n_agents == 7
        assert len(inst.edges) == 4
        assert inst.meta["isolated_id"] == 6
        assert inst.agents[6].weight == 9  # half * big_b + 2n
        assert inst.name == "partition-2"
        assert inst.distinguished == "a"

    def test_default_scale(self):
        inst = gen_partition_wpw(PartitionInput([1, 1]))
        assert inst.meta["big_b"] == 7  # 3n + 1

    def test_witness_certifies_equal_split(self):
        p = PartitionInput([1, 1])
        inst = gen_partition_wpw(p, big_b=5)
        order = witness_order_partition(p, (0,))
        sim = simulate_order(inst, order)
        assert sim.scores.as_dict() == {"a": 10, "c": 8, "b": 5}
        assert winners(sim.scores) == frozenset(["a"])

    def test_witness_subset_must_sum_to_half(self):
        p = PartitionInput([1, 3])
        with pytest.raises(PollInputError):
            witness_order_partition(p, (0,))
        with pytest.raises(PollInputError):
            witness_order_partition(p, (0, 1, 1))
        with pytest.raises(PollInputError):
            witness_order_partition(p, (5,))

    def test_small_scale_keeps_spurious_tie(self):
        # at big_b = 2n + 1 the middle agents of paths voting b add
        # enough to a that a subset summing to half+1 also produces a
        # tie for a; the default big_b = 3n + 1 removes that slack
        p = PartitionInput([1, 3])
        assert not possible_winner_bf(gen_partition_wpw(p), "a")[0]
        assert possible_winner_bf(gen_partition_wpw(p, big_b=5), "a")[0]

    def test_odd_total_rejected(self):
        with pytest.raises(PollInputError, match="even total"):
            gen_partition_wpw(PartitionInput([1, 2]))

    def test_matches_subset_sum_oracle_exhaustively(self):
        for size in range(1, 5):
            for numbers in itertools.combinations_with_replacement(
                range(1, 5), size
            ):
                if sum(numbers) % 2:
                    continue
                inst = gen_partition_wpw(PartitionInput(numbers))
                got = possible_winner_bf(inst, "a")[0]
                assert got == equal_split_possible(numbers), numbers

    def test_witness_wins_whenever_split_exists(self):
        for numbers in [(2, 1, 1), (3, 1, 2, 2), (1, 1, 1, 1)]:
            p = PartitionInput(numbers)
            half = p.total // 2
            chosen = next(
                combo
                for r in range(1, len(numbers) + 1)
                for combo in itertools.combinations(range(len(numbers)), r)
                if sum(numbers[i] for i in combo) == half
            )
            inst = gen_partition_wpw(p)
            sim = simulate_order(inst, witness_order_partition(p, chosen))
            assert "a" in winners(sim.scores)


class TestHittingSetInput:
    def test_validation(self):
        h = HittingSetInput(4, [[2, 0, 1], [1, 2, 3]], 2)
        assert h.sets == ((0, 1, 2), (1, 2, 3))
        assert h.n_sets == 2
        with pytest.raises(PollInputError):
            HittingSetInput(4, [[0, 1, 2]], 1)  # one set only
        with pytest.raises(PollInputError):
            HittingSetInput(4, [[0, 1, 2], [0, 0, 1]], 1)  # collapses to a pair
        with pytest.raises(PollInputError):
            HittingSetInput(3, [[0, 1, 2], [0, 1, 3]], 1)  # out of range
        with pytest.raises(PollInputError):
            HittingSetInput(4, [[0, 1, 2], [1, 2, 3]], 0)

    def test_param_inequalities(self):
        h = HittingSetInput(3, [[0, 1, 2], [0, 1, 2]], 1)
        with pytest.raises(PollInputError, match="must exceed the number of sets"):
            ReductionParams(big_b=100, big_d=2).resolve(3, 2, 1)
        with pytest.raises(PollInputError, match="isolated a-count"):
            ReductionParams(big_b=6, big_d=3).resolve(3, 2, 1)
        with pytest.raises(PollInputError, match="isolated b-count"):
            ReductionParams(big_b=13, big_d=3).resolve(3, 2, 7)
        assert ReductionParams().resolve(3, 2, 1) == (3 ** 9, 3 ** 4)


class TestHittingSetReduction:
    def minimal(self):
        h = HittingSetInput(3, [[0, 1, 2], [0, 1, 2]], 1)
        params = ReductionParams(big_b=7, big_d=3)
        return h, params

    def test_agent_count(self):
        h, params = self.minimal()
        inst = gen_hitting_set_upw(h, params)
        # 4n element agents, D*t chain agents, B-k-D*t and B-2k isolated
        assert inst.n_agents == 23
        assert inst.n_agents == 4 * 3 + 2 * 7 - 3 * 1
        a0, a1 = inst.meta["isolated_a_range"]
        b0, b1 = inst.meta["isolated_b_range"]
        assert a1 - a0 == 7 - 1 - 3 * 2
        assert b1 - b0 == 7 - 2 * 1

    def test_bipartite(self):
        h, params = self.minimal()
        assert is_bipartite(gen_hitting_set_upw(h, params).graph)

    def test_witness_scores_match_closed_forms(self):
        h, params = self.minimal()
        inst = gen_hitting_set_upw(h, params)
        order = witness_order_hitting(h, params, (0,))
        sim = simulate_order(inst, order)
        # H = {0}; elements 1 and 2 sit in some set but are not hit
        n_hit, u1, u0 = 1, 2, 0
        big_b, big_d, k, t = 7, 3, 1, 2
        assert sim.scores.of("a") == big_b - k + n_hit + u1
        assert sim.scores.of("b") == big_b - 2 * k + 2 * n_hit + 2 * u1
        assert sim.scores.of("c") == n_hit + u1 + 4 * u0

    def test_chain_agents_follow_the_hit_element(self):
        # every chain agent ends up voting a under the witness order
        h, params = self.minimal()
        inst = gen_hitting_set_upw(h, params)
        sim = simulate_order(inst, witness_order_hitting(h, params, (0,)))
        for head in inst.meta["set_heads"]:
            for x in range(head, head + 3):
                assert sim.votes[x] == "a"

    def test_isolated_blocks_vote_their_top(self):
        h = HittingSetInput(4, [[0, 1, 2], [1, 2, 3]], 2)
        params = ReductionParams(big_b=20, big_d=3)
        inst = gen_hitting_set_upw(h, params)
        sim = simulate_order(inst, witness_order_hitting(h, params, (1, 2)))
        a0, a1 = inst.meta["isolated_a_range"]
        b0, b1 = inst.meta["isolated_b_range"]
        assert all(v == "a" for v in sim.votes[a0:a1])
        assert all(v == "b" for v in sim.votes[b0:b1])
        # H = {1, 2}; elements 0 and 3 stay unhit but sit in one set each
        assert sim.scores.of("a") == 20 - 2 + 2 + 2
        assert sim.scores.of("b") == 20 - 4 + 4 + 4

    def test_witness_validation(self):
        h, params = self.minimal()
        with pytest.raises(PollInputError):
            witness_order_hitting(h, params, ())
        with pytest.raises(PollInputError):
            witness_order_hitting(h, params, (0, 1))  # over budget
        with pytest.raises(PollInputError):
            witness_order_hitting(h, params, (9,))
        miss = HittingSetInput(6, [[0, 1, 2], [3, 4, 5]], 1)
        with pytest.raises(PollInputError):
            witness_order_hitting(miss, ReductionParams(8, 3), (0,))

    def test_no_hitting_set_means_no_witness(self):
        # disjoint sets cannot be hit by one element; the generator
        # refuses every candidate set, matching the enumeration oracle
        miss = HittingSetInput(6, [[0, 1, 2], [3, 4, 5]], 1)
        assert hitting_sets(6, miss.sets, 1) == []
        for e in range(6):
            with pytest.raises(PollInputError):
                witness_order_hitting(miss, ReductionParams(8, 3), (e,))


class TestCnfInput:
    def test_validation(self):
        f = CnfInput(2, ((1, -2), (-1, 2)))
        assert f.n_clauses == 2
        with pytest.raises(PollInputError):
            CnfInput(0, ((1,),))
        with pytest.raises(PollInputError):
            CnfInput(2, ((1, 3),))
        with pytest.raises(PollInputError):
            CnfInput(2, ((1, 0),))


class TestSatReduction:
    def satisfiable_formula(self):
        return CnfInput(3, ((1, 2, 3), (-1, -2), (2, -3)))

    def unsatisfiable_formula(self):
        # the first two clauses force variable 1, the next two force
        # variable 3, and the last clause forbids that combination
        return CnfInput(4, ((1, 2), (1, -2), (3, 4), (3, -4), (-1, -3)))

    def test_layout(self):
        inst = gen_sat_upw(self.satisfiable_formula())
        n, m = 3, 3
        assert inst.n_agents == 8 * n + 6 * m + 5
        assert len(inst.candidates) == 2 * n + m + 2
        assert inst.candidates[:2] == ("x1", "nx1")
        assert inst.candidates[-2:] == ("d", "a")
        assert inst.name == "sat-3v3c"
        assert inst.meta["clause_base"] == [2 * n, 2 * n + 6, 2 * n + 12]

    def test_baseline_scores_hold_in_any_order(self):
        inst = gen_sat_upw(self.satisfiable_formula())
        order = tuple(range(inst.n_agents))
        sim = simulate_order(inst, order)
        assert sim.scores.of("a") == 5
        assert sim.scores.of("d") == 0
        sim = simulate_order(inst, tuple(reversed(order)))
        assert sim.scores.of("a") == 5
        assert sim.scores.of("d") == 0

    def test_witness_certifies_assignment(self):
        f = self.satisfiable_formula()
        inst = gen_sat_upw(f)
        order = witness_order_sat(f, (True, False, False))
        sim = simulate_order(inst, order)
        assert "a" in winners(sim.scores)
        assert max(sim.scores.values) == 5

    def test_witness_rejects_bad_assignment(self):
        f = self.satisfiable_formula()
        with pytest.raises(PollInputError):
            witness_order_sat(f, (False, False, True))  # falsifies (2,-3)
        with pytest.raises(PollInputError):
            witness_order_sat(f, (True, True))  # wrong length

    def test_equivalence_on_fixed_formulas(self):
        for f, sat in (
            (self.satisfiable_formula(), True),
            (self.unsatisfiable_formula(), False),
        ):
            assert cnf_satisfiable(f.n_vars, f.clauses) == sat
            inst = gen_sat_upw(f)
            assert possible_winner_bf(inst, "a")[0] == sat

    def test_unit_propagation_renumbers(self):
        f = CnfInput(3, ((1,), (-1, 2, 3), (-2, 3), (2, -3)))
        inst = gen_sat_upw(f)
        assert inst.meta["n_vars"] == 2
        assert inst.meta["var_map"] == {2: 1, 3: 2}
        assert inst.meta["clauses"] == ((1, 2), (-1, 2), (1, -2))
        order = witness_order_sat(f, (True, True, True))
        assert "a" in winners(simulate_order(inst, order).scores)

    def test_pure_literal_elimination(self):
        f = CnfInput(3, ((1, 2), (-2, 3), (2, -3)))
        inst = gen_sat_upw(f)
        assert inst.meta["var_map"] == {2: 1, 3: 2}

    def test_preprocessing_rejections(self):
        with pytest.raises(PollInputError, match="conflict"):
            gen_sat_upw(CnfInput(1, ((1,), (-1,))))
        with pytest.raises(PollInputError, match="satisfied the whole formula"):
            gen_sat_upw(CnfInput(2, ((1, 2),)))
        with pytest.raises(PollInputError, match="unsatisfiable"):
            gen_sat_upw(CnfInput(2, ((1, 2), ())))

    def test_structural_rejections_without_preprocessing(self):
        with pytest.raises(PollInputError, match="unit clause"):
            gen_sat_upw(CnfInput(2, ((1,), (-1, 2), (1, -2))), preprocess=False)
        with pytest.raises(PollInputError, match="pure literal"):
            gen_sat_upw(CnfInput(2, ((1, 2), (1, -2))), preprocess=False)
        with pytest.raises(PollInputError, match="never occurs"):
            gen_sat_upw(CnfInput(3, ((1, 2), (-1, -2))), preprocess=False)
        with pytest.raises(PollInputError, match="occurs 4 times"):
            gen_sat_upw(
                CnfInput(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))),
                preprocess=False,
            )
        with pytest.raises(PollInputError, match=">3 literals|literals"):
            gen_sat_upw(CnfInput(4, ((1, 2, 3, 4), (-1, -2), (-3, -4))),
                        preprocess=False)

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_on_sampled_formulas(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 4)
        clauses = []
        for _ in range(rng.randint(2, 4)):
            size = rng.choice((2, 3))
            vs = rng.sample(range(1, n + 1), min(size, n))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        f = CnfInput(n, tuple(clauses))
        try:
            inst = gen_sat_upw(f)
        except PollInputError:
            return  # formula does not survive preprocessing
        assert possible_winner_bf(inst, "a")[0] == cnf_satisfiable(n, clauses)


class TestFamilies:
    def test_single_path_shapes(self):
        left = gen_family("L", 3)
        assert left.n_agents == 3
        assert all(ag.top == "c*" for ag in left.agents)
        right = gen_family("R", 2)
        assert all(ag.top == "a" for ag in right.agents)
        with pytest.raises(PollInputError):
            gen_family("X", 2)
        with pytest.raises(PollInputError):
            gen_family("L", 0)

    @pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (1, 2), (3, 3), (2, 3)])
    def test_longer_left_side_wins(self, i, j):
        from socialpolls.model import instance_union

        u = instance_union(gen_family("L", i), gen_family("R", j))
        assert possible_winner_bf(u, "c*")[0] == (i >= j)
        assert necessary_winner_bf(u, "c*")[0] == (i >= j)

    def test_multi_path_variant(self):
        left = gen_family_multi("L", (2, 3))
        assert left.candidates == ("c*", "a1", "a2")
        assert left.agents[0].top == "a1"
        assert left.agents[2].top == "a2"
        right = gen_family_multi("R", (2, 3))
        assert right.agents[-1].top == "c*"
        assert right.agents[-1].preferred == frozenset(["c*", "a1"])
        with pytest.raises(PollInputError):
            gen_family_multi("R", (2,))
        with pytest.raises(PollInputError):
            gen_family_multi("L", ())


class TestRandomGenerator:
    def test_deterministic(self):
        a = gen_random(11, 6, 3, edge_prob=0.5, max_weight=4)
        b = gen_random(11, 6, 3, edge_prob=0.5, max_weight=4)
        assert a == b

    @given(st.integers(0, 500), st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_forest_flag_makes_forests(self, seed, n):
        inst = gen_random(seed, n, 2, edge_prob=0.7, forest=True)
        g = inst.graph
        assert len(g.edges) == g.n - len(connected_components(g))

    def test_bounds_respected(self):
        inst = gen_random(3, 9, 4, edge_prob=0.5, pref_size=3, max_weight=6)
        assert inst.n_agents == 9
        assert len(inst.candidates) == 4
        for ag in inst.agents:
            assert len(ag.preferred) == 3
            assert 1 <= ag.weight <= 6


class TestTextParsers:
    def test_dimacs_round_trip(self):
        # SATLIB files end with a '%' line and then a lone '0'
        text = "c a comment\np cnf 3 2\n1 -2 3 0\n-1\n2 0\n%\n0\n"
        f = parse_dimacs(text)
        assert f.n_vars == 3
        assert f.clauses == ((1, -2, 3), (-1, 2))

    def test_dimacs_errors(self):
        with pytest.raises(PollInputError):
            parse_dimacs("1 2 0\n")  # no header
        with pytest.raises(PollInputError):
            parse_dimacs("p cnf 2 1\np cnf 2 1\n1 2 0\n")
        with pytest.raises(PollInputError):
            parse_dimacs("p cnf 2 2\n1 2 0\n")  # fewer clauses than declared
        with pytest.raises(PollInputError):
            parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause

    def test_hitting_sets_format(self):
        text = "# instance\nset a b c\nset a b d\nbudget 2\n"
        h = parse_hitting_sets(text)
        assert h.n_elements == 4
        assert h.sets == ((0, 1, 2), (0, 1, 3))
        assert h.budget == 2
        override = parse_hitting_sets(text, budget=1)
        assert override.budget == 1
        with pytest.raises(PollInputError, match="no budget"):
            parse_hitting_sets("set a b c\nset a b d\n")

    def test_partition_numbers(self):
        assert parse_partition_numbers("3, 5 7 # tail\n1\n").numbers == (3, 5, 7, 1)
        with pytest.raises(PollInputError):
            parse_partition_numbers("3 x\n")
