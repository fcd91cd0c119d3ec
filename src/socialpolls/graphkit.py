"""Undirected graph algorithms for the poll solvers.

`Graph` itself lives in `model`, where each instance builds its
friendship graph once; it is imported here so that `graphkit.Graph`
keeps working. `graph_of(inst)` returns `inst.graph` and stays only for
`benchmark/make_pool.py`. Provides connected components, enumeration of
acyclic orientations, counting of labeled DAGs, tree decompositions (a
min-fill heuristic and an exact search for small graphs), and conversion
to the nice form the dynamic programs consume. A decomposition is
checked once, on its nice form: with an empty root bag, the nodes
holding a vertex form one subtree per forget of that vertex, so vertex
coverage, connectivity and edge coverage are read off the forget nodes.
A plain text export format for decompositions lives here as well:

    bag <id> <vertex>*
    treeedge <id> <id>

with one line per bag and per tree edge, '#' starting a comment token.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .model import Graph, PollInputError

# exact_td_small's table has 2^n entries
_EXACT_MAX_N = 14


def graph_of(inst):
    """Friendship graph of an instance, built once with it: another name
    for `inst.graph`, kept only for `benchmark/make_pool.py`."""
    return inst.graph


def connected_components(g):
    """Vertex sets of the connected components, each sorted, ordered by
    smallest member."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in g.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def induced_subgraph(g, vertices):
    """Subgraph induced by `vertices`, relabeled 0..k-1.

    Returns (subgraph, original_ids) where original_ids[i] is the vertex
    of `g` that position i stands for.
    """
    verts = tuple(sorted(set(vertices)))
    for v in verts:
        if not 0 <= v < g.n:
            raise PollInputError("vertex %r out of range" % (v,))
    index = {v: i for i, v in enumerate(verts)}
    keep = set(verts)
    edges = frozenset(
        (index[u], index[v]) for u, v in g.edges if u in keep and v in keep
    )
    return Graph(len(verts), edges), verts


def enumerate_acyclic_orientations(g):
    """Iterate over every acyclic orientation of `g` as a tuple of arcs.

    Edges are directed one at a time in sorted order, (u, v) tried
    before (v, u), depth first, so the orientations come in that
    lexicographic order and consecutive ones share the longest possible
    prefix. A direction a -> b is taken only when b does not already
    reach a, so exactly the acyclic orientations appear, each once.
    Reachability is held as one bitmask per vertex (a Python int, the
    vertex itself included), saved per level so that backtracking just
    drops the deeper levels. A forest (m = n - #components) has no cycle
    to close: all 2^m assignments are acyclic and come straight from a
    product, without the test.
    """
    edges = sorted(g.edges)
    choices = [((u, v), (v, u)) for u, v in edges]
    if len(edges) == g.n - len(connected_components(g)):
        return itertools.product(*choices)
    return _acyclic_choices(g.n, choices)


def _acyclic_choices(n, choices):
    """Depth-first search over the edge directions in `choices`, one
    level per edge, keeping a direction only when it closes no cycle."""
    m = len(choices)
    arcs = [None] * m
    reach = [None] * m    # reach[k]: the bitmasks before edge k is directed
    tried = [0] * m       # directions of edge k tried so far
    reach[0] = [1 << x for x in range(n)]
    k = 0
    while k >= 0:
        t = tried[k]
        if t == 2:
            k -= 1
            continue
        tried[k] = t + 1
        a, b = arc = choices[k][t]
        masks = reach[k]
        into = masks[b]
        if into >> a & 1:
            continue
        arcs[k] = arc
        if k + 1 == m:
            yield tuple(arcs)
            continue
        bit = 1 << a
        k += 1
        reach[k] = [r | into if r & bit else r for r in masks]
        tried[k] = 0


def count_labeled_dags(t):
    """Number of labeled DAGs on t vertices.

    Inclusion-exclusion over the non-empty set of sources: picking k of
    t vertices as sources leaves 2^(k(t-k)) arc choices into the rest.
    The sequence starts 1, 1, 3, 25, 543.
    """
    if not isinstance(t, int) or t < 0:
        raise PollInputError("vertex count must be a non-negative integer")
    q = [1]
    for n in range(1, t + 1):
        total = 0
        for k in range(1, n + 1):
            total += (-1) ** (k - 1) * math.comb(n, k) * 2 ** (k * (n - k)) * q[n - k]
        q.append(total)
    return q[t]


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 plus tree edges between bag indexes."""

    bags: tuple
    tree_edges: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "bags", tuple(frozenset(b) for b in self.bags)
        )
        norm = set()
        for e in self.tree_edges:
            i, j = e
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "tree_edges", frozenset(norm))

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1


def validate_td(g, td):
    """Check that `td` is a tree decomposition of `g`; raise otherwise.

    Only what needs the bag graph itself is checked here: at least one
    bag, bag vertices of `g`, and tree edges between existing bags, one
    fewer than the bags. `make_nice` then rejects a disconnected bag
    graph, so the bags form a tree, and `validate_nice` checks vertex
    coverage, connectivity and edge coverage on its nice form, whose
    bags hold each vertex in as many separate subtrees as the original
    bags do and cover no edge the original bags miss.
    """
    b = len(td.bags)
    if b == 0:
        raise PollInputError("a decomposition needs at least one bag")
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (isinstance(v, int) and 0 <= v < g.n):
                raise PollInputError("bag %d holds unknown vertex %r" % (i, v))
    for i, j in td.tree_edges:
        if i == j or not (0 <= i < b and 0 <= j < b):
            raise PollInputError("tree edge (%r, %r) is invalid" % (i, j))
    if len(td.tree_edges) != b - 1:
        raise PollInputError("bag graph is not a tree")
    validate_nice(g, make_nice(td))


def _td_from_order(g, order):
    """Tree decomposition induced by an elimination order.

    Bag k is the closed neighborhood of order[k] at its elimination and
    attaches to the bag of its earliest-eliminated remaining neighbor,
    which is guaranteed to contain the whole neighborhood.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition(bags=(frozenset(),), tree_edges=frozenset())
    adj = [set(g.adjacency[v]) for v in range(n)]
    step = {v: k for k, v in enumerate(order)}
    bags = []
    nbhoods = []
    for v in order:
        nb = adj[v]
        bags.append(frozenset(nb | {v}))
        nbhoods.append(frozenset(nb))
        for u in nb:
            adj[u].discard(v)
            adj[u].update(nb - {u})
        adj[v] = set()
    edges = set()
    for k in range(n - 1):
        nb = nbhoods[k]
        j = min((step[u] for u in nb), default=k + 1)
        edges.add((k, j))
    return TreeDecomposition(tuple(bags), frozenset(edges))


def _min_fill_order(g):
    """Elimination order chosen greedily by fewest fill edges, lowest id
    breaking ties. Fill counts are kept in a lazy heap so large graphs
    of mostly simplicial vertices stay cheap."""
    adj = [set(g.adjacency[v]) for v in range(g.n)]

    def fill(u):
        nb = sorted(adj[u])
        cnt = 0
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                if nb[j] not in adj[nb[i]]:
                    cnt += 1
        return cnt

    current = {u: fill(u) for u in range(g.n)}
    heap = [(f, u) for u, f in current.items()]
    heapq.heapify(heap)
    alive = set(range(g.n))
    order = []
    while heap:
        f, u = heapq.heappop(heap)
        if u not in alive or current[u] != f:
            continue
        alive.discard(u)
        order.append(u)
        nb = adj[u]
        touched = set(nb)
        for x in nb:
            adj[x].discard(u)
        for x, y in itertools.combinations(sorted(nb), 2):
            if y not in adj[x]:
                adj[x].add(y)
                adj[y].add(x)
                touched |= adj[x] & adj[y]
        adj[u] = set()
        for x in touched & alive:
            current[x] = fill(x)
            heapq.heappush(heap, (current[x], x))
    return order


def heuristic_td(g):
    """Tree decomposition from a min-fill elimination order."""
    return _td_from_order(g, _min_fill_order(g))


def exact_td_small(g):
    """Minimum-width tree decomposition by dynamic programming over
    vertex subsets. Only for small graphs; the table has 2^n entries."""
    if g.n > _EXACT_MAX_N:
        raise PollInputError(
            "exact decomposition limited to %d vertices, got %d" % (_EXACT_MAX_N, g.n)
        )
    n = g.n
    adjmask = [0] * n
    for u, v in g.edges:
        adjmask[u] |= 1 << v
        adjmask[v] |= 1 << u

    def back_degree(done, v):
        # neighbors of v, or of eliminated vertices reachable from it,
        # that are still present
        stack = [v]
        visited = 1 << v
        reach = 0
        while stack:
            x = stack.pop()
            nb = adjmask[x]
            reach |= nb
            inner = nb & done & ~visited
            while inner:
                low = inner & -inner
                inner ^= low
                visited |= low
                stack.append(low.bit_length() - 1)
        return (reach & ~done & ~(1 << v)).bit_count()

    size = 1 << n
    best = [n] * size
    best[0] = -1
    last = [0] * size
    for mask in range(1, size):
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            prev = mask ^ low
            w = best[prev]
            d = back_degree(prev, v)
            if d > w:
                w = d
            if w < best[mask]:
                best[mask] = w
                last[mask] = v
    order = [0] * n
    mask = size - 1
    for k in range(n - 1, -1, -1):
        v = last[mask]
        order[k] = v
        mask ^= 1 << v
    return _td_from_order(g, order)


@dataclass(frozen=True)
class NiceNode:
    """One node of a nice decomposition. `bag` is a sorted vertex tuple,
    `vertex` the inserted or forgotten vertex where applicable."""

    kind: str
    bag: tuple
    children: tuple = ()
    vertex: int | None = None


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Nodes listed children first; the root is the last node and has an
    empty bag. Leaves hold at most one vertex, insert and forget nodes
    change their child's bag by one vertex, joins copy it twice."""

    nodes: tuple
    root: int

    @property
    def width(self):
        return max((len(nd.bag) for nd in self.nodes), default=0) - 1


def make_nice(td):
    """Rewrite a tree decomposition into nice form.

    The bag tree is rooted at bag 0 and traversed iteratively. Each
    original bag becomes a leaf-plus-insert chain or, for inner nodes,
    per-child forget/insert chains folded together by joins; a final
    forget chain empties the root bag. Width never grows and the node
    count stays linear in the input size.
    """
    b = len(td.bags)
    nbrs = [[] for _ in range(b)]
    for i, j in td.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    children = [[] for _ in range(b)]
    parent = [-1] * b
    seen = {0}
    stack = [0]
    topo = []
    while stack:
        x = stack.pop()
        topo.append(x)
        for y in sorted(nbrs[x]):
            if y not in seen:
                seen.add(y)
                parent[y] = x
                children[x].append(y)
                stack.append(y)
    if len(topo) != b:
        raise PollInputError("bag graph is not connected")

    nodes = []

    def emit(kind, bag, child_ids=(), vertex=None):
        nodes.append(
            NiceNode(kind=kind, bag=tuple(bag), children=tuple(child_ids), vertex=vertex)
        )
        return len(nodes) - 1

    def chain_to(node_id, have, want):
        cur = set(have)
        for w in sorted(have - want):
            cur.discard(w)
            node_id = emit("forget", sorted(cur), (node_id,), w)
        for w in sorted(want - have):
            cur.add(w)
            node_id = emit("insert", sorted(cur), (node_id,), w)
        return node_id

    done = {}
    for u in reversed(topo):
        bag = td.bags[u]
        if not children[u]:
            first = {min(bag)} if bag else set()
            done[u] = chain_to(emit("leaf", sorted(first)), first, bag)
            continue
        parts = [chain_to(done[c], td.bags[c], bag) for c in children[u]]
        cur = parts[0]
        for nxt in parts[1:]:
            cur = emit("join", sorted(bag), (cur, nxt))
        done[u] = cur
    root = chain_to(done[0], td.bags[0], frozenset())
    return NiceTreeDecomposition(nodes=tuple(nodes), root=root)


def validate_nice(g, ntd):
    """Check shape rules of a nice decomposition and that it is a valid
    decomposition of `g`; raise otherwise.

    Once the shape rules hold, the decomposition is read off its leaves,
    inserts and forgets. Bags gain vertices only at leaves and inserts,
    so checking the vertices those bring in checks every bag. Going up
    the tree a vertex leaves the bags only at a forget of it, and the
    root bag is empty, so the nodes holding v form one subtree per forget
    of v, topped by that forget's child: v is in some bag exactly when it
    is forgotten, and its bags are connected exactly when it is forgotten
    once. Two such subtrees meet only if the top of one lies in the
    other, so edge (u, v) is inside a bag exactly when v is in the bag
    of u's forget child or u in that of v's.
    """
    nodes = ntd.nodes
    if not nodes:
        raise PollInputError("a nice decomposition needs at least one node")
    if ntd.root != len(nodes) - 1:
        raise PollInputError("root must be the last node")
    if nodes[ntd.root].bag != ():
        raise PollInputError("root bag must be empty")
    used = set()
    top = {}    # vertex -> child of its forget node
    for i, nd in enumerate(nodes):
        if list(nd.bag) != sorted(set(nd.bag)):
            raise PollInputError("node %d bag is not sorted and duplicate-free" % i)
        for c in nd.children:
            if not (0 <= c < i):
                raise PollInputError("node %d child %r does not precede it" % (i, c))
            if c in used:
                raise PollInputError("node %r has two parents" % (c,))
            used.add(c)
        bag = set(nd.bag)
        new = ()
        if nd.kind == "leaf":
            if nd.children or len(nd.bag) > 1:
                raise PollInputError("leaf node %d is malformed" % i)
            new = nd.bag
        elif nd.kind in ("insert", "forget"):
            if len(nd.children) != 1 or nd.vertex is None:
                raise PollInputError("%s node %d is malformed" % (nd.kind, i))
            child = set(nodes[nd.children[0]].bag)
            if nd.kind == "insert":
                if nd.vertex in child or bag != child | {nd.vertex}:
                    raise PollInputError("insert node %d does not add its vertex" % i)
                new = (nd.vertex,)
            else:
                if nd.vertex not in child or bag != child - {nd.vertex}:
                    raise PollInputError("forget node %d does not drop its vertex" % i)
                if nd.vertex in top:
                    raise PollInputError("bags of vertex %d are not connected" % nd.vertex)
                top[nd.vertex] = nd.children[0]
        elif nd.kind == "join":
            if len(nd.children) != 2:
                raise PollInputError("join node %d needs two children" % i)
            for c in nd.children:
                if tuple(nodes[c].bag) != nd.bag:
                    raise PollInputError("join node %d changes the bag" % i)
        else:
            raise PollInputError("unknown node kind %r" % (nd.kind,))
        for v in new:
            if not (isinstance(v, int) and 0 <= v < g.n):
                raise PollInputError("node %d holds unknown vertex %r" % (i, v))
    if used != set(range(len(nodes))) - {ntd.root}:
        raise PollInputError("tree is not connected through the root")
    for v in range(g.n):
        if v not in top:
            raise PollInputError("vertex %d is not in any bag" % v)
    for u, v in g.edges:
        if v not in nodes[top[u]].bag and u not in nodes[top[v]].bag:
            raise PollInputError("edge (%d, %d) is not inside any bag" % (u, v))


def render_td(td):
    """Serialize a decomposition in the bag/treeedge line format."""
    out = []
    for i, bag in enumerate(td.bags):
        out.append(" ".join(["bag", str(i)] + [str(v) for v in sorted(bag)]))
    for i, j in sorted(td.tree_edges):
        out.append("treeedge %d %d" % (i, j))
    return "\n".join(out) + "\n"


def line_tokens(line):
    """The whitespace-separated tokens of a document line, up to the
    first one that starts with '#'."""
    toks = []
    for tok in line.split():
        if tok.startswith("#"):
            break
        toks.append(tok)
    return toks


def parse_td(text):
    """Parse the bag/treeedge line format back into a decomposition."""
    bags = {}
    edges = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = line_tokens(raw)
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        if kind == "bag":
            if not args:
                raise PollInputError("line %d: bag line without an id" % ln)
            try:
                idx = int(args[0])
                verts = [int(t) for t in args[1:]]
            except ValueError:
                raise PollInputError("line %d: bag ids must be integers" % ln) from None
            if idx in bags:
                raise PollInputError("line %d: duplicate bag %d" % (ln, idx))
            bags[idx] = frozenset(verts)
        elif kind == "treeedge":
            if len(args) != 2:
                raise PollInputError("line %d: treeedge needs two bag ids" % ln)
            try:
                i, j = int(args[0]), int(args[1])
            except ValueError:
                raise PollInputError("line %d: bag ids must be integers" % ln) from None
            edges.add((i, j))
        else:
            raise PollInputError("line %d: unknown keyword %r" % (ln, kind))
    if not bags:
        raise PollInputError("no bags found")
    if sorted(bags) != list(range(len(bags))):
        raise PollInputError("bag ids must be 0..%d" % (len(bags) - 1))
    for i, j in edges:
        if i not in bags or j not in bags:
            raise PollInputError("treeedge (%d, %d) references a missing bag" % (i, j))
    return TreeDecomposition(
        tuple(bags[i] for i in range(len(bags))), frozenset(edges)
    )
