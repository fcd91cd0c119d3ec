"""Graphs, orientation enumeration, DAG counting, tree decompositions."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_acyclic_orientations, brute_count_dags, with_backer
from socialpolls.dpsolver import (
    achievable_scores_dp,
    margins_dp,
    necessary_winner_dp,
    possible_winner_dp,
)
from socialpolls.graphkit import (
    Graph,
    NiceNode,
    NiceTreeDecomposition,
    TreeDecomposition,
    connected_components,
    count_labeled_dags,
    enumerate_acyclic_orientations,
    exact_td_small,
    heuristic_td,
    make_nice,
    validate_nice,
)
from socialpolls.model import AgentPrefs, Instance, PollInputError
from socialpolls.oracle import achievable_scores_bf, margins_bf, possible_winner_bf
from socialpolls.reductions import gen_random


def random_graph(seed, n, p):
    return gen_random(seed, n, 2, edge_prob=p).graph


def random_forest(seed, n):
    """A forest on n vertices, relabeled at random: each vertex joins an
    earlier one with probability 1/2, so several trees and isolated
    vertices are common."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[rng.randrange(v)]) for v in range(1, n)
             if rng.random() < 0.5]
    return Graph(n, edges)


def reference_orientations(g):
    """The recursive enumerator: sorted edges, (u, v) tried before
    (v, u), a direction kept unless the reverse path exists."""
    edges = sorted(g.edges)
    m = len(edges)
    succ = [set() for _ in range(g.n)]
    arcs = []

    def reaches(src, dst):
        stack = [src]
        seen = {src}
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    def extend(k):
        if k == m:
            yield tuple(arcs)
            return
        u, v = edges[k]
        for a, b in ((u, v), (v, u)):
            if not reaches(b, a):
                succ[a].add(b)
                arcs.append((a, b))
                yield from extend(k + 1)
                arcs.pop()
                succ[a].remove(b)

    return extend(0)


class TestGraph:
    def test_normalization_and_validation(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset([(0, 2), (1, 2)])
        assert g.adjacency == ((2,), (2,), (0, 1))
        with pytest.raises(PollInputError):
            Graph(2, [(0, 0)])
        with pytest.raises(PollInputError):
            Graph(2, [(0, 5)])
        with pytest.raises(PollInputError):
            Graph(-1, [])

    def test_instance_builds_its_graph_once(self):
        inst = gen_random(5, 6, 2, edge_prob=0.5)
        assert inst.graph is inst.graph
        assert inst.graph == Graph(inst.n_agents, inst.edges)
        assert inst.edges is inst.graph.edges

    def test_components(self):
        g = Graph(5, [(0, 1), (3, 4)])
        comps = connected_components(g)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2], [3, 4]]


class TestOrientations:
    def test_tree_has_all_assignments(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        got = {frozenset(a) for a in enumerate_acyclic_orientations(g)}
        assert len(got) == 8
        assert got == brute_acyclic_orientations(g)

    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        got = list(enumerate_acyclic_orientations(g))
        assert len(got) == 6
        assert len({frozenset(a) for a in got}) == 6

    def test_four_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        got = {frozenset(a) for a in enumerate_acyclic_orientations(g)}
        assert len(got) == 14
        assert got == brute_acyclic_orientations(g)

    @given(st.integers(0, 400), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_filtered_enumeration(self, seed, n):
        g = random_graph(seed, n, 0.5)
        got = {frozenset(a) for a in enumerate_acyclic_orientations(g)}
        assert got == brute_acyclic_orientations(g)

    @given(st.integers(0, 10**6), st.integers(1, 7), st.sampled_from([0.3, 0.5, 0.8]))
    @settings(max_examples=80, deadline=None)
    def test_order_matches_recursive_reference(self, seed, n, p):
        g = random_graph(seed, n, p)
        assert list(enumerate_acyclic_orientations(g)) == list(reference_orientations(g))

    @given(st.integers(0, 10**6), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_forest_order_matches_recursive_reference(self, seed, n):
        g = random_forest(seed, n)
        got = list(enumerate_acyclic_orientations(g))
        assert got == list(reference_orientations(g))
        assert len(got) == 2 ** len(g.edges)

    def test_forest_with_isolated_vertices(self):
        # two trees and two isolated vertices: every assignment is acyclic
        g = Graph(7, [(4, 0), (0, 2), (5, 1)])
        got = list(enumerate_acyclic_orientations(g))
        assert got == list(reference_orientations(g))
        assert got[0] == ((0, 2), (0, 4), (1, 5))
        assert got[-1] == ((2, 0), (4, 0), (5, 1))
        assert list(enumerate_acyclic_orientations(Graph(3, []))) == [()]


class TestDagCounts:
    def test_known_prefix(self):
        assert [count_labeled_dags(t) for t in range(5)] == [1, 1, 3, 25, 543]

    def test_matches_brute_force(self):
        for t in range(5):
            assert count_labeled_dags(t) == brute_count_dags(t)

    def test_rejects_negative(self):
        with pytest.raises(PollInputError):
            count_labeled_dags(-1)


class TestTreeDecomposition:
    def test_validate_accepts_path_decomposition(self):
        g = Graph(3, [(0, 1), (1, 2)])
        td = TreeDecomposition((frozenset([0, 1]), frozenset([1, 2])), {(0, 1)})
        validate_nice(g, make_nice(td))
        assert td.width == 1

    def test_violations(self):
        g = Graph(3, [(0, 1), (1, 2)])
        cases = [
            # vertex 2 missing
            ([[0, 1]], [], "vertex 2 is not in any bag"),
            # vertex 3 is not a vertex of g
            ([[0, 1], [1, 2, 3]], [(0, 1)], "holds unknown vertex 3"),
            # edge 1-2 in no bag
            ([[0, 1], [2]], [(0, 1)], r"edge \(1, 2\) is not inside any bag"),
            # bags holding vertex 0 are not connected in the tree
            ([[0, 1], [1, 2], [0, 2]], [(0, 1), (1, 2)],
             "bags of vertex 0 are not connected"),
            # vertex 0 sits at nodes 0, 1 and 3 of the bag path 0-1-2-3: its
            # bags share one tree edge, where a connected set of three needs two
            ([[0, 1], [0, 1, 2], [1, 2], [0, 2]], [(0, 1), (1, 2), (2, 3)],
             "bags of vertex 0 are not connected"),
            # tree edges form a cycle
            ([[0, 1], [1, 2], [1]], [(0, 1), (1, 2), (0, 2)], "bag graph is not a tree"),
            # b - 1 tree edges, but they close a cycle and leave bag 3 apart
            ([[0, 1], [1, 2], [1], [2]], [(0, 1), (1, 2), (0, 2)],
             "bag graph is not connected"),
            ([], [], "a decomposition needs at least one bag"),
            # bags 2 and -1 do not exist
            ([[0, 1], [1, 2]], [(0, 2)], r"tree edge \(0, 2\) is invalid"),
            ([[0, 1], [1, 2]], [(-1, 0)], r"tree edge \(-1, 0\) is invalid"),
            ([[0, 1], [1, 2]], [(1, 1)], r"tree edge \(1, 1\) is invalid"),
        ]
        for bags, tree_edges, match in cases:
            td = TreeDecomposition(tuple(frozenset(b) for b in bags), set(tree_edges))
            with pytest.raises(PollInputError, match=match):
                validate_nice(g, make_nice(td))

    @given(st.integers(0, 400), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_heuristic_always_valid(self, seed, n):
        g = random_graph(seed, n, 0.4)
        validate_nice(g, make_nice(heuristic_td(g)))

    def test_exact_widths(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert exact_td_small(path).width == 1
        assert exact_td_small(cycle).width == 2
        assert exact_td_small(k4).width == 3
        with pytest.raises(PollInputError):
            exact_td_small(Graph(15, []))

    @given(st.integers(0, 400), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_exact_never_wider_than_heuristic(self, seed, n):
        g = random_graph(seed, n, 0.5)
        exact = exact_td_small(g)
        validate_nice(g, make_nice(exact))
        assert exact.width <= heuristic_td(g).width


# a star centered at 0 with leaves 1 and 2, as two branches joined on (0,)
STAR = Graph(3, [(0, 1), (0, 2)])
STAR_NICE = (
    NiceNode("leaf", ()),
    NiceNode("insert", (0,), (0,), 0),
    NiceNode("insert", (0, 1), (1,), 1),
    NiceNode("forget", (0,), (2,), 1),
    NiceNode("leaf", ()),
    NiceNode("insert", (0,), (4,), 0),
    NiceNode("insert", (0, 2), (5,), 2),
    NiceNode("forget", (0,), (6,), 2),
    NiceNode("join", (0,), (3, 7)),
    NiceNode("forget", (), (8,), 0),
)


def corrupted_star(node=None, **changes):
    """The nice tree of STAR with `changes` made to one node."""
    nodes = list(STAR_NICE)
    if node is not None:
        nodes[node] = dataclasses.replace(nodes[node], **changes)
    return NiceTreeDecomposition(tuple(nodes))


def with_empty_bags(td, rng):
    """`td` behind a new empty bag 0, at which make_nice roots the tree,
    and with one to three more empty bags tied to random bags."""
    bags = [frozenset()] + list(td.bags)
    edges = {(0, 1)} | {(i + 1, j + 1) for i, j in td.tree_edges}
    for _ in range(rng.randint(1, 3)):
        edges.add((rng.randrange(len(bags)), len(bags)))
        bags.append(frozenset())
    return TreeDecomposition(tuple(bags), frozenset(edges))


def check_against_bf(inst, ntd):
    """Every DP program on `ntd` gives the brute-force answers of `inst`
    (the count program where unweighted)."""
    if inst.is_unweighted():
        assert achievable_scores_dp(inst, ntd) == achievable_scores_bf(inst)
    for c in inst.candidates:
        bf = margins_bf(inst, c)
        assert margins_dp(inst, ntd, c) == bf
        first = next((d for d, margin in bf.items() if margin > 0), None)
        assert necessary_winner_dp(inst, ntd, c) == (first is None, first)
        assert possible_winner_dp(inst, ntd, c) == possible_winner_bf(inst, c)[0]


def check_nice_with_empty_bags(inst, td):
    """The nice form of `td`, a decomposition of `inst` holding empty
    bags, is valid, has an empty leaf, and gives every DP program the
    brute-force answers."""
    ntd = make_nice(td)
    validate_nice(inst.graph, ntd)
    assert any(nd.kind == "leaf" and not nd.bag for nd in ntd.nodes)
    check_against_bf(inst, ntd)
    return ntd


def nice_node_counts(td):
    """From the bags alone: the node count of `td`'s nice form when every
    child is chained up to its whole parent bag, and what joining an
    inner bag's children on `meet`, the vertices it shares with them,
    saves, (children - 1) * |bag - meet| per inner bag."""
    nbrs = [set() for _ in td.bags]
    for i, j in td.tree_edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    parent = {0: None}
    order = [0]
    for x in order:
        for y in nbrs[x] - parent.keys():
            parent[y] = x
            order.append(y)
    per_child, saving = len(td.bags[0]), 0
    for u, bag in enumerate(td.bags):
        kids = nbrs[u] - {parent[u]}
        if not kids:
            per_child += len(bag) + 1
            continue
        per_child += len(kids) - 1 + sum(len(bag ^ td.bags[c]) for c in kids)
        meet = frozenset().union(*(bag & td.bags[c] for c in kids))
        saving += (len(kids) - 1) * len(bag - meet)
    return per_child, saving


def poll(edges, agents):
    """A poll over a, b and c, distinguished a, from (top, preferred,
    weight) triples."""
    return Instance(("a", "b", "c"), tuple(AgentPrefs(*a) for a in agents),
                    edges, "a")


class TestNiceForm:
    @given(st.integers(0, 400), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_make_nice_valid_and_width_preserving(self, seed, n):
        g = random_graph(seed, n, 0.4)
        td = heuristic_td(g)
        ntd = make_nice(td)
        validate_nice(g, ntd)
        assert ntd.width <= td.width
        assert ntd.nodes[-1].bag == ()

    @given(st.integers(0, 400), st.integers(1, 9), st.sampled_from([0.1, 0.3, 0.6, "forest"]),
           st.sampled_from(["heuristic", "exact", "empty bags"]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_node_count_and_width(self, seed, n, p, source):
        # sparse graphs and forests leave agents friendless and the graph
        # disconnected
        g = random_forest(seed, n) if p == "forest" else random_graph(seed, n, p)
        td = exact_td_small(g) if source == "exact" else heuristic_td(g)
        if source == "empty bags":
            td = with_empty_bags(td, random.Random(seed))
        ntd = make_nice(td)
        validate_nice(g, ntd)
        assert ntd.width <= td.width
        per_child, saving = nice_node_counts(td)
        assert len(ntd.nodes) == per_child - saving <= per_child

    @pytest.mark.parametrize("inst, kinds, joins", [
        # the tree 0-1, 1-2, 1-5, 2-3, 2-4: bag (1, 2) joins its children
        # (2, 3) and (2, 4) on (2,), and 1 is inserted once above the join
        (poll([(0, 1), (1, 2), (1, 5), (2, 3), (2, 4)],
              [("a", "ab", 1), ("b", "bc", 1), ("c", "ac", 1),
               ("a", "ac", 1), ("b", "ab", 1), ("c", "bc", 1)]),
         "LIILIIFFJILIFIIJFIFF", [(2,), (1, 5)]),
        # bag (2,) shares no vertex with its children (1,) and (3,), so
        # they join on () and 2 is inserted once above the join
        (poll([(0, 2)], [("a", "ab", 2), ("b", "bc", 1), ("b", "ab", 3), ("c", "ac", 1)]),
         "LILIFFJIIFF", [()]),
    ], ids=["shared-vertex", "no-shared-vertex"])
    def test_children_join_on_shared_vertices(self, inst, kinds, joins):
        ntd = make_nice(heuristic_td(inst.graph))
        validate_nice(inst.graph, ntd)
        assert "".join(nd.kind[0].upper() for nd in ntd.nodes) == kinds
        assert [nd.bag for nd in ntd.nodes if nd.kind == "join"] == joins
        check_against_bf(inst, ntd)

    @pytest.mark.parametrize("bags, tree_edges, match", [
        ([(0, 1, "a")], [], "bag 0 holds non-integer vertex 'a'"),
        ([(0, 1), (None, 0, 1)], [(0, 1)], "bag 1 holds non-integer vertex None"),
    ])
    def test_non_integer_vertex(self, bags, tree_edges, match):
        # refused before make_nice sorts a bag, where mixed types raise
        # TypeError
        td = TreeDecomposition(tuple(frozenset(b) for b in bags), set(tree_edges))
        with pytest.raises(PollInputError, match=match):
            make_nice(td)

    # STAR_NICE's nodes 1, 2 and 6 insert 0, 1 and 2; some forget and
    # join cases turn node 2 into a forget or node 6 into a join
    @pytest.mark.parametrize("g, ntd, match", [
        (STAR, NiceTreeDecomposition(()), "needs at least one node"),
        # a bag that mixes ints and a string
        (STAR, corrupted_star(6, bag=(0, "a"), vertex="a"), "node 6 holds unknown vertex 'a'"),
        (STAR, corrupted_star(9, bag=(0,)), "root bag must be empty"),
        (STAR, corrupted_star(1, bag=(0, 0)), "node 1 bag is not sorted"),
        (STAR, corrupted_star(2, children=(6,)), "node 2 child 6 does not precede it"),
        (STAR, corrupted_star(5, children=(1,)), "node 1 has two parents"),
        # a leaf holds no vertex: vertices enter at inserts only
        (STAR, corrupted_star(0, bag=(0,)), "leaf node 0 is malformed"),
        (STAR, corrupted_star(1, vertex=None), "insert node 1 is malformed"),
        (STAR, corrupted_star(2, kind="forget", children=()), "forget node 2 is malformed"),
        (STAR, corrupted_star(1, vertex=2), "insert node 1 does not add its vertex"),
        (STAR, corrupted_star(2, kind="forget"), "forget node 2 does not drop its vertex"),
        (STAR, corrupted_star(6, kind="join", children=(5,)), "join node 6 needs two children"),
        (STAR, corrupted_star(6, kind="join", children=(5, 3)), "join node 6 changes the bag"),
        (STAR, corrupted_star(0, kind="seed"), "unknown node kind 'seed'"),
        # node 0 is nobody's child
        (Graph(1, []), NiceTreeDecomposition((
            NiceNode("leaf", ()),
            NiceNode("leaf", ()),
            NiceNode("insert", (0,), (1,), 0),
            NiceNode("forget", (), (2,), 0),
        )), "tree is not connected through the root"),
        # a valid nice tree of another graph
        (Graph(3, [(0, 1), (1, 2)]), make_nice(heuristic_td(Graph(2, [(0, 1)]))),
         "vertex 2 is not in any bag"),
        # vertex 0 is forgotten under both children of the root join
        (Graph(1, []), NiceTreeDecomposition((
            NiceNode("leaf", ()),
            NiceNode("insert", (0,), (0,), 0),
            NiceNode("forget", (), (1,), 0),
            NiceNode("leaf", ()),
            NiceNode("insert", (0,), (3,), 0),
            NiceNode("forget", (), (4,), 0),
            NiceNode("join", (), (2, 5)),
        )), "bags of vertex 0 are not connected"),
        # no bag of the star's tree holds both of its leaves
        (Graph(3, [(0, 1), (0, 2), (1, 2)]), corrupted_star(),
         r"edge \(1, 2\) is not inside any bag"),
        (Graph(2, [(0, 1)]), corrupted_star(), "unknown vertex 2"),
        (STAR, corrupted_star(2, bag=(1, 0)), "node 2 bag is not sorted"),
        # child indexes that are not ints
        (STAR, corrupted_star(3, children=("x",)), "node 3 child 'x' does not precede it"),
        (STAR, corrupted_star(3, children=(0.5,)), "node 3 child 0.5 does not precede it"),
    ])
    def test_nice_shape_rejections(self, g, ntd, match):
        validate_nice(STAR, corrupted_star())
        with pytest.raises(PollInputError, match=match):
            validate_nice(g, ntd)

    @pytest.mark.parametrize("seed", range(8))
    def test_empty_bags(self, seed):
        rng = random.Random(seed)
        inst = gen_random(seed, rng.randint(2, 5), 3, edge_prob=0.6)
        check_nice_with_empty_bags(inst, with_empty_bags(heuristic_td(inst.graph), rng))

    def test_empty_bags_where_the_bound_empties_the_sweep(self):
        # an empty leaf's subtree holds no agent, so the outside-agent
        # bound drops the empty state there when the isolated heavy
        # backer of "c1" leaves no rival a lead
        rng = random.Random(5)
        inst = with_backer(gen_random(5, 4, 3, edge_prob=0.6), "c1")
        ntd = check_nice_with_empty_bags(inst, with_empty_bags(heuristic_td(inst.graph), rng))
        trace = []
        assert necessary_winner_dp(inst, ntd, "c1", trace=trace) == (True, None)
        assert len(trace) == len(ntd.nodes)
        assert all(entries == 0 for _, _, entries in trace)

    def test_empty_bag_under_bag_zero(self):
        inst = gen_random(3, 4, 2, edge_prob=0.6)
        td = heuristic_td(inst.graph)
        td = TreeDecomposition(td.bags + (frozenset(),),
                               td.tree_edges | {(0, len(td.bags))})
        check_nice_with_empty_bags(inst, td)
