"""Graphs, orientation enumeration, DAG counting, tree decompositions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_acyclic_orientations, brute_count_dags
from socialpolls.graphkit import (
    Graph,
    TreeDecomposition,
    connected_components,
    count_labeled_dags,
    enumerate_acyclic_orientations,
    exact_td_small,
    graph_of,
    heuristic_td,
    make_nice,
    parse_td,
    render_td,
    validate_nice,
    validate_td,
)
from socialpolls.model import PollInputError
from socialpolls.reductions import gen_random


def random_graph(seed, n, p):
    return graph_of(gen_random(seed, n, 2, edge_prob=p))


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
        validate_td(g, td)
        assert td.width == 1

    def test_violations(self):
        g = Graph(3, [(0, 1), (1, 2)])
        # vertex 2 missing
        with pytest.raises(PollInputError):
            validate_td(g, TreeDecomposition((frozenset([0, 1]),), set()))
        # edge 1-2 in no bag
        with pytest.raises(PollInputError):
            validate_td(
                g,
                TreeDecomposition(
                    (frozenset([0, 1]), frozenset([2])), {(0, 1)}
                ),
            )
        # bags holding vertex 0 are not connected in the tree
        with pytest.raises(PollInputError):
            validate_td(
                g,
                TreeDecomposition(
                    (
                        frozenset([0, 1]),
                        frozenset([1, 2]),
                        frozenset([0, 2]),
                    ),
                    {(0, 1), (1, 2)},
                ),
            )
        # vertex 0 sits at nodes 0, 1 and 3 of the bag path 0-1-2-3: its
        # bags share one tree edge, where a connected set of three needs two
        with pytest.raises(PollInputError, match="bags of vertex 0 are not connected"):
            validate_td(
                g,
                TreeDecomposition(
                    (
                        frozenset([0, 1]),
                        frozenset([0, 1, 2]),
                        frozenset([1, 2]),
                        frozenset([0, 2]),
                    ),
                    {(0, 1), (1, 2), (2, 3)},
                ),
            )
        # tree edges form a cycle
        with pytest.raises(PollInputError):
            validate_td(
                g,
                TreeDecomposition(
                    (
                        frozenset([0, 1]),
                        frozenset([1, 2]),
                        frozenset([1]),
                    ),
                    {(0, 1), (1, 2), (0, 2)},
                ),
            )

    @given(st.integers(0, 400), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_heuristic_always_valid(self, seed, n):
        g = random_graph(seed, n, 0.4)
        td = heuristic_td(g)
        validate_td(g, td)

    def test_exact_widths(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert exact_td_small(path).width == 1
        assert exact_td_small(cycle).width == 2
        assert exact_td_small(k4).width == 3
        with pytest.raises(PollInputError):
            exact_td_small(Graph(15, []), max_n=14)

    @given(st.integers(0, 400), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_exact_never_wider_than_heuristic(self, seed, n):
        g = random_graph(seed, n, 0.5)
        exact = exact_td_small(g)
        validate_td(g, exact)
        assert exact.width <= heuristic_td(g).width


class TestNiceForm:
    @given(st.integers(0, 400), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_make_nice_valid_and_width_preserving(self, seed, n):
        g = random_graph(seed, n, 0.4)
        td = heuristic_td(g)
        ntd = make_nice(td)
        validate_nice(g, ntd)
        assert ntd.width <= td.width
        assert ntd.nodes[ntd.root].bag == ()

    def test_nice_shape_rejections(self):
        g = Graph(2, [(0, 1)])
        ntd = make_nice(heuristic_td(g))
        validate_nice(g, ntd)
        with pytest.raises(PollInputError):
            validate_nice(Graph(3, [(0, 1), (1, 2)]), ntd)


class TestSerialization:
    def test_round_trip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        td = heuristic_td(g)
        again = parse_td(render_td(td))
        assert again.bags == td.bags
        assert again.tree_edges == td.tree_edges

    def test_parse_diagnostics(self):
        with pytest.raises(PollInputError):
            parse_td("bag\n")
        with pytest.raises(PollInputError):
            parse_td("bag 0 1\nbag 0 2\n")
        with pytest.raises(PollInputError):
            parse_td("bag 0 1\ntreeedge 0\n")
        with pytest.raises(PollInputError):
            parse_td("hedge 0 1\n")
        with pytest.raises(PollInputError):
            parse_td("# only a comment\n")

    def test_comments_ignored(self):
        td = parse_td("bag 0 1 2  # the only bag\n")
        assert td.bags == (frozenset([1, 2]),)
