"""End-to-end acceptance gate, one test per shipped guarantee.

Each test states its scale and budget in the body and checks against an
independent oracle (subset sums, truth tables, exhaustive enumeration)
or a frozen closed form. One failure is expected and kept visible:
test_c05b shows that the order built from a hitting set does not make
the distinguished candidate a co-winner at minimal padding. The other
direction of that construction is out of brute-force reach by design,
so it is not checked end to end anywhere.
"""

import random
import time

from conftest import (
    brute_count_dags,
    cnf_satisfiable,
    equal_split_possible,
    hitting_sets,
    nice_td_of,
)
from socialpolls.graphkit import count_labeled_dags, graph_of, heuristic_td
from socialpolls.model import (
    AgentPrefs,
    Instance,
    instance_union,
    orientation_of,
    simulate_order,
    winners,
)
from socialpolls.oracle import (
    achievable_scores_bf,
    margins_bf,
    necessary_winner_bf,
    possible_winner_bf,
)
from socialpolls.dpsolver import (
    achievable_scores_dp,
    margins_dp,
    necessary_winner_dp,
)
from socialpolls.reductions import (
    CnfInput,
    HittingSetInput,
    PartitionInput,
    ReductionParams,
    gen_family,
    gen_hitting_set_upw,
    gen_partition_wpw,
    gen_random,
    gen_sat_upw,
    witness_order_hitting,
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


def test_c01_scores_dp_equals_bf_unweighted():
    # 300 unweighted instances, n <= 8, 3 candidates, two-candidate
    # preference sets: 150 random forests plus 150 random graphs kept
    # only when the heuristic decomposition has width <= 2. Budget 5
    # minutes; the two achievable-score sets must be equal exactly.
    rng = random.Random(101)
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 8)
        inst = gen_random(rng.randrange(10**6), n, 3, edge_prob=0.5, forest=True)
        assert achievable_scores_dp(inst, nice_td_of(inst)) == achievable_scores_bf(inst)
        checked += 1
    while checked < 300:
        n = rng.randint(2, 8)
        inst = gen_random(rng.randrange(10**6), n, 3, edge_prob=0.4)
        if heuristic_td(graph_of(inst)).width > 2:
            continue
        assert achievable_scores_dp(inst, nice_td_of(inst)) == achievable_scores_bf(inst)
        checked += 1
    assert checked == 300


def test_c02_margins_and_necessary_dp_equals_bf_weighted():
    # 300 weighted instances, n <= 8, weights <= 9, up to 4 candidates.
    # Every ordered candidate pair must give the same maximum margin
    # under both methods, and the necessary-winner decision must agree
    # for every candidate. Budget 5 minutes.
    rng = random.Random(202)
    for _ in range(300):
        n = rng.randint(2, 8)
        k = rng.randint(2, 4)
        while True:
            inst = gen_random(
                rng.randrange(10**6), n, k, edge_prob=0.3, max_weight=9
            )
            if len(graph_of(inst).edges) <= 14:
                break
        ntd = nice_td_of(inst)
        for c in inst.candidates:
            # one sweep per candidate gives every rival's margin against it
            assert margins_dp(inst, ntd, c) == margins_bf(inst, c)
            assert necessary_winner_dp(inst, ntd, c)[0] == necessary_winner_bf(inst, c)[0]


def test_c03_partition_instances_match_subset_sum():
    # 200 sampled multisets of at most 8 integers from 1..6 with even
    # sum. The distinguished candidate can win the generated poll
    # exactly when the multiset splits into two equal-sum halves.
    # Budget 5 minutes.
    rng = random.Random(303)
    done = 0
    while done < 200:
        numbers = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
        if sum(numbers) % 2:
            continue
        inst = gen_partition_wpw(PartitionInput(numbers))
        got = possible_winner_bf(inst, "a")[0]
        assert got == equal_split_possible(numbers), numbers
        done += 1


def test_c04_sat_instances_match_truth_table():
    # 100 random small formulas that survive preprocessing with at
    # most 4 variables and 4 clauses. The distinguished candidate can
    # win exactly when the formula is satisfiable, and the enumeration
    # stays within 2^16 orientations per instance. Budget 10 minutes.
    rng = random.Random(404)
    done = 0
    while done < 100:
        n_vars = rng.randint(2, 4)
        clauses = []
        for _ in range(rng.randint(2, 5)):
            size = rng.randint(2, 3)
            lits = rng.sample(range(1, n_vars + 1), min(size, n_vars))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
        try:
            f = CnfInput(n_vars, tuple(clauses))
            inst = gen_sat_upw(f)
        except Exception:
            continue
        if inst.meta["n_vars"] > 4 or inst.meta["n_clauses"] > 4:
            continue
        stats = {}
        got = possible_winner_bf(inst, "a", max_orientations=1 << 16, stats=stats)[0]
        assert stats["orientations"] <= 1 << 16
        assert got == cnf_satisfiable(f.n_vars, f.clauses), (n_vars, clauses)
        done += 1


def hitting_cases():
    """Deterministic pool of small covering problems with a known
    hitting set, paired with the minimal padding the score accounting
    allows: D = t + 1 and B = max(k + D*t, 2k)."""
    rng = random.Random(505)
    cases = []
    while len(cases) < 20:
        n = rng.randint(3, 4)
        t = rng.randint(2, 3)
        k = rng.randint(1, 2)
        sets = [sorted(rng.sample(range(n), 3)) for _ in range(t)]
        found = hitting_sets(n, sets, k)
        if not found:
            continue
        h = HittingSetInput(n, sets, k)
        big_d = t + 1
        big_b = max(k + big_d * t, 2 * k)
        cases.append((h, ReductionParams(big_b, big_d), min(found, key=len)))
    return cases


def test_c05a_hitting_instances_structurally_sound():
    # 20 covering problems, n <= 4 elements, t <= 3 sets, budget <= 2,
    # each with a known hitting set and minimal padding. The generated
    # graph must be bipartite and the isolated blocks must have exactly
    # B - k - D*t top-a agents and B - 2k top-b agents. Budget 1 minute.
    for h, params, _ in hitting_cases():
        inst = gen_hitting_set_upw(h, params)
        assert is_bipartite(graph_of(inst))
        big_b, big_d = params.resolve(h.n_elements, h.n_sets, h.budget)
        a_lo, a_hi = inst.meta["isolated_a_range"]
        b_lo, b_hi = inst.meta["isolated_b_range"]
        assert a_hi - a_lo == big_b - h.budget - big_d * h.n_sets
        assert b_hi - b_lo == big_b - 2 * h.budget
        adjacency = graph_of(inst).adjacency
        for x in range(a_lo, a_hi):
            assert inst.agents[x].top == "a" and not adjacency[x]
        for x in range(b_lo, b_hi):
            assert inst.agents[x].top == "b" and not adjacency[x]


def test_c05b_hitting_witness_certifies_distinguished():
    # Same 20 problems: the order built from the hitting set is
    # supposed to make candidate a a co-winner. It does not at minimal
    # padding (b ends ahead of a), and this test records that failure
    # rather than hiding it. Budget 1 minute.
    for h, params, hitting in hitting_cases():
        inst = gen_hitting_set_upw(h, params)
        order = witness_order_hitting(h, params, hitting)
        sim = simulate_order(inst, order)
        assert "a" in winners(sim.scores), (h, sorted(hitting), sim.scores.as_dict())


def test_c06_balanced_path_families_decided_by_index():
    # All 36 length pairs 1..6. The distinguished candidate is both a
    # possible and a necessary winner of the combined paths exactly
    # when the first path is at least as long as the second. Exhaustive
    # enumeration; budget 1 minute.
    for i in range(1, 7):
        for j in range(1, 7):
            inst = instance_union(gen_family("L", i), gen_family("R", j))
            expected = i >= j
            assert possible_winner_bf(inst, "c*")[0] == expected, (i, j)
            assert necessary_winner_bf(inst, "c*")[0] == expected, (i, j)


def test_c07_labeled_dag_counts():
    # Closed-form counts against brute enumeration; budget 1 second.
    frozen = [1, 1, 3, 25, 543]
    assert [count_labeled_dags(t) for t in range(5)] == frozen
    assert [brute_count_dags(t) for t in range(5)] == frozen


def test_c08_simulation_invariants_hold():
    # 10,000 randomized trials: every vote stays inside the voter's
    # preference set, scores sum to the total weight, and two orders
    # inducing the same orientation produce identical votes. Budget 1
    # minute, zero tolerated violations.
    rng = random.Random(606)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        inst = gen_random(
            rng.randrange(10**6),
            n,
            rng.randint(1, 4),
            edge_prob=0.4,
            pref_size=rng.randint(1, 3),
            max_weight=5,
        )
        order = list(range(n))
        rng.shuffle(order)
        sim = simulate_order(inst, order)
        for x, vote in enumerate(sim.votes):
            assert vote in inst.agents[x].preferred
        assert sim.scores.total() == sum(a.weight for a in inst.agents)
        arcs = orientation_of(inst, order)
        indeg = [0] * n
        succ = [[] for _ in range(n)]
        for u, v in arcs:
            succ[u].append(v)
            indeg[v] += 1
        ready = [x for x in range(n) if indeg[x] == 0]
        other = []
        while ready:
            x = ready.pop(rng.randrange(len(ready)))
            other.append(x)
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        assert simulate_order(inst, other).votes == sim.votes


def test_c09_dp_scales_to_twenty_agent_path():
    # A 20-agent two-candidate path: the decomposition method must
    # finish within 60 seconds and match the full enumeration of its
    # 2^19 orientations.
    n = 20
    agents = tuple(
        AgentPrefs("a" if x % 2 == 0 else "b", frozenset(["a", "b"]))
        for x in range(n)
    )
    edges = frozenset((x, x + 1) for x in range(n - 1))
    inst = Instance(("a", "b"), agents, edges, "a", name="path-20")
    start = time.monotonic()
    via_dp = achievable_scores_dp(inst, nice_td_of(inst))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    stats = {}
    via_bf = achievable_scores_bf(inst, max_orientations=1 << 20, stats=stats)
    assert stats["orientations"] == 1 << 19
    assert via_dp == via_bf
