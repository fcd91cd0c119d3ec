"""Dynamic programs over nice tree decompositions.

All three programs sweep the nice tree bottom up, keeping per-node
tables of partial poll states. A table key `(v, D, c)` describes
everything the nodes above may still observe about the processed
subtree:

* `v`: the votes of the bag agents, as candidate indexes, in bag order;
* `D`: the bag agents as a tuple, in the order in which they vote. A
  partial poll's voting order restricted to the bag is one such tuple,
  and the orders of two subtrees that agree on their shared bag always
  merge into one order, so this is all that joins and inserts need;
* `c`: one flat int tuple holding, in bag order, each bag agent x's row
  `(s_1, ..., s_k, a)`: `s_j` counts the friends that voted before x
  for `alts[x][j]`, its j-th non-top preferred candidate, and `a` all
  friends that voted before x.

With flat counters a join adds two keys' counters with one `map`, a
forget drops one contiguous slice, and an insert splices in the new
agent's row and bumps the fields of its friends voting after it by
deltas precomputed once per place of the new agent in the child's
order. Leaves are empty (see `graphkit`), so a leaf holds the empty
state `((), (), ())` alone and an agent enters the tables only at an
insert. Everything a sweep knows about a bag apart from its keys (row
offsets, unseen friends, degree caps) is built once per sweep, bottom
up, as one `_BagRecord` per nice node, which the transitions and the
checker read.

Every program's slice maps a key `(v, D, c)` to one payload container,
and the programs differ only in that container and in three functions
over it: shift (add an agent's value row to every vector), merge (store
a container under a key, uniting it with the one already there) and
combine (every sum of a vector of each side, at a join). The
transitions visit each key once and touch payloads only through these.

The achievable-scores program additionally tracks the weighted
per-candidate vote counts of the processed subtree, so that a count
vector is a score function; any weights. Its slices map `(v, D, c)` to
the set of count vectors that states with that key reach. The margin
program replaces counts by a payload with one maximized value per rival
d of a candidate c, the weighted score difference score(d) - score(c),
so it handles arbitrary weights and any number of candidates; its
slices map `(v, D, c)` to that payload. The key set does not depend on
the pair, and keys, transitions and the join's double-count correction
are additive given the key, so each coordinate is the single-pair
program and one sweep gives every margin against c. A poll with one
candidate gives c no rival, and its sweeps carry zero-length vectors.

The possible-winner program keeps the same margin vectors unmaximized,
as a Pareto front: its slices map `(v, D, c)` to the list of vectors
that no other vector of the key is <= in every coordinate. Inserts add
one row to every vector of a key and joins add two vectors and subtract
one, both alike for all vectors of a key, so a dominated vector never
ends below the one dominating it; c co-wins some order iff a root
vector is <= 0 everywhere. Any weights here too.

Dead states are pruned where they are made. A bag record gives, per
bag agent x, the number r of x's friends outside the vertices of the
node's subtree; they may still vote before x, and no other friend
can. A state is dead when no such future can make x's row agree with
x's vote (`_live`), and no insert or join node stores one. At
the forget node of x every friend is seen (r = 0), so the bound is
then exactly the voting rule and the forget node tests nothing.

The two decision sweeps, necessary (margin mode) and possible (front
mode), also prune by one admissible bound on the agents outside the
node's subtree; `margins_dp` and the count sweep stay exact. Agent x's
row `edge[x]` holds, per rival, the most (necessary) or the least
(possible) that x's vote can add to that margin, over the votes x can
cast: its preferred set, or its top alone when x has no friends. A bag
record's `neg` is the sum of `edge` over the vertices of the node's
subtree minus the sum over all agents, so the agents outside add at
most (at least) -neg. A margin payload <= neg in every coordinate can
no longer give any rival a lead, and a front vector > neg in some
coordinate can no longer end <= 0; neither is stored. A state that is
dead stays dead at every node above, so a state that reaches a positive
maximum, or a vector <= 0 at the root, is never pruned. The root's
subtree is the whole poll (neg = 0), so necessary answers YES and
possible NO exactly when the root slice is empty. A sweep whose slice
empties still visits every node.

A guard bounds the number of live table entries, stored (key, vector)
pairs: a key counts once per vector of its container in count and
front mode, and once in margin mode.

The key invariant is written once, in `_keys_compatible`, and includes
both bounds. The sweep asserts it on every stored slice, so `python -O`
skips it.
"""

from __future__ import annotations

from operator import add, le, sub
from typing import NamedTuple

from .graphkit import validate_nice
from .model import PollInputError, ResourceLimitError, ScoreFunction

DEFAULT_MAX_TABLE = 1 << 24
_NO_BOUND = float("inf")


def _agent_tables(inst):
    """Per-agent (prefs, top, alts, friends, weights): sorted preferred
    candidate indexes, the top index, the non-top preferred indexes,
    friend sets, weights."""
    prefs = tuple(row[1] for row in inst.ballots)
    top = tuple(row[0] for row in inst.ballots)
    alts = tuple(tuple(c for c in row if c != t) for row, t in zip(prefs, top))
    return (prefs, top, alts, tuple(frozenset(b) for b in inst.graph.adjacency),
            tuple(ag.weight for ag in inst.agents))


def _in_friends(friends, bag, order):
    """Per bag agent, the bag positions of its friends that vote before
    it in `order`; None unless `order` lists the bag exactly once."""
    if len(order) != len(bag) or set(order) != set(bag):
        return None
    ins = []
    for x in bag:
        earlier = friends[x].intersection(order[:order.index(x)])
        ins.append(tuple(sorted(map(bag.index, earlier))) if earlier else ())
    return ins


def _tallies(alts, bag, v, ins):
    """The counters that arcs inside the bag account for, as a flat
    tuple: per bag agent, its in-friends' votes for each alternative,
    then their number."""
    out = ()
    for x, row in zip(bag, ins):
        if row:
            votes = [v[k] for k in row]
            out += tuple(map(votes.count, alts[x])) + (len(row),)
        else:
            out += (0,) * (len(alts[x]) + 1)
    return out


class _BagRecord(NamedTuple):
    """What a sweep knows about one nice node's bag apart from its keys.
    It depends on the instance and the decomposition alone, and `neg`
    also on the question a bounded sweep answers."""

    bag: tuple
    off: tuple  # where each agent's row starts in `c`, then the length of `c`
    unseen: tuple  # per agent, its friends outside the subtree
    inner: tuple  # positions of the agents whose friends all lie in the bag
    outer: tuple  # positions of the others
    caps: tuple  # per agent: its degree once per field if outer, else None
    sums: tuple  # per outer agent with alternatives: its (s_1, a) indexes
    neg: tuple  # the outside-agent bound (module docstring), or None


def _bag_record(alts, friends, bag, unseen, neg):
    bagset = frozenset(bag)
    off, inner, outer, caps, sums = [0], [], [], [], []
    for k, x in enumerate(bag):
        off.append(off[k] + len(alts[x]) + 1)
        if friends[x] <= bagset:
            inner.append(k)
            caps.append(None)
        else:
            outer.append(k)
            caps.append((len(friends[x]),) * (off[k + 1] - off[k]))
            if alts[x]:
                sums.append((off[k], off[k + 1] - 1))
    return _BagRecord(bag, tuple(off), unseen, tuple(inner), tuple(outer), tuple(caps),
                      tuple(sums), neg)


def _plus(p, q):
    return tuple(map(add, p, q))


def _bags(ntd, alts, friends, edge=None, total=None):
    """Each nice node's bag record, in node order. A bag agent's unseen
    count is the number of its friends outside the vertices of the
    node's subtree, so one pass bottom up gives them all; a record is
    kept only until its parent's is built. With per-agent rows `edge`
    and their sum `total`, the same pass sums `edge` over the subtree
    and stores that sum minus `total` as `neg`; without, `neg` is None.
    A leaf's subtree holds no agent."""
    waiting = {}
    for i, nd in enumerate(ntd.nodes):
        neg = None
        if nd.kind == "leaf":
            row = ()
            if edge is not None:
                neg = tuple(-t for t in total)
        elif nd.kind == "join":
            # the two subtrees share only the bag, so a friend outside
            # the bag that neither side has seen is missed by both
            left, right = (waiting.pop(k) for k in nd.children)
            bagset = frozenset(nd.bag)
            row = tuple(rl + rr - len(friends[x] - bagset)
                        for x, rl, rr in zip(nd.bag, left.unseen, right.unseen))
            if edge is not None:
                # both sides count the bag agents' rows
                neg = _plus(_plus(left.neg, right.neg), total)
                for x in nd.bag:
                    neg = tuple(map(sub, neg, edge[x]))
        else:
            child = waiting.pop(nd.children[0])
            cr = dict(zip(child.bag, child.unseen))
            y = nd.vertex
            neg = child.neg
            if nd.kind == "forget":
                row = tuple(cr[x] for x in nd.bag)
            else:
                # every friend of the new agent in the subtree is in the
                # child's bag, and its friends there see it now
                row = tuple(len(friends[y].difference(child.bag)) if x == y
                            else cr[x] - (x in friends[y]) for x in nd.bag)
                if edge is not None:
                    neg = _plus(neg, edge[y])
        waiting[i] = rec = _bag_record(alts, friends, nd.bag, row, neg)
        yield rec


def _rules(tables, rec, v, positions):
    """The voting-rule bound of each agent of bag record `rec`, with
    votes `v`, at a position in `positions`, whose unseen count is r.
    Those r friends may each still vote before the agent, raising its
    `a` field and at most one `s` field by one. So it is dead when it
    votes its top and 2·s_j > a + r for some j, or when it votes the
    alternative j and 2·s_j + r <= a; with r = 0 this is the voting rule
    itself, and with r = `_NO_BOUND` no bound at all. Each bound is (f,
    i, low, high), for `_live`: the agent is alive while low <= 2·c[f] -
    c[i] <= high, where c[i] is its `a` field and c[f] one of its `s`
    fields."""
    top, alts = tables[1], tables[2]
    bag, off, unseen = rec.bag, rec.off, rec.unseen
    out = []
    for k in positions:
        r = unseen[k]
        x = bag[k]
        ai = off[k + 1] - 1
        if v[k] == top[x]:
            for f in range(off[k], ai):
                out.append((f, ai, -_NO_BOUND, r))
        else:
            out.append((off[k] + alts[x].index(v[k]), ai, 1 - r, _NO_BOUND))
    return out


def _live(c, rules):
    """Can every agent in `rules` (see `_rules`) still meet the voting
    rule, given flat counters `c`?"""
    for f, ai, low, high in rules:
        if not low <= 2 * c[f] - c[ai] <= high:
            return False
    return True


def _keys_compatible(tables, rec, items, kind):
    """Could each key in `items`, ((v, D, c), payload) pairs over the bag
    of record `rec` in index form, come from a partial poll whose voting
    rule every bag agent can still meet? `D` must list the bag exactly
    once. `kind` names the payload: a "count" container of count
    vectors or a "front" list of margin vectors, either of which must
    hold at least one vector, or one "margin" vector. Every count vector
    must hold at least the bag agents' own weighted votes and sum to at
    most the total weight. The record's unseen counts give the bound of
    `_live`, and its `neg`, where not None, the outside-agent bound: a
    margin vector must exceed it in some coordinate and a front vector
    must not exceed it in any. The checker reads only that static record,
    never what a transition computed.

    The conditions on v alone are checked once per distinct v, and
    those on D alone once per distinct D. The bounds that v and D put
    on the counters are built once per (v, D), as a flat lower and a
    flat upper bound tuple; a counter row must also sum its `s` fields
    to at most `a` while the agent has friends outside the bag (inside,
    the bounds are equalities). The rows of agents whose friends all
    lie in the bag equal the lower bound, so their voting rule is
    checked once per (v, D) too."""
    prefs, _, alts, friends, weights = tables
    bag, off, caps, sums, neg = rec.bag, rec.off, rec.caps, rec.sums, rec.neg
    counted = kind == "count"
    total = sum(weights) if counted else None
    groups = {}  # D -> (in-friend positions, {v: bounds})
    votes = {}  # v -> (count floor, `_live` bounds of inner, of outer agents)
    for (v, order, c), payload in items:
        if kind != "margin" and not payload:
            return False
        group = groups.get(order)
        if group is None:
            ins = _in_friends(friends, bag, order)
            if ins is None:
                return False
            group = groups[order] = (ins, {})
        bounds = group[1].get(v)
        if bounds is None:
            by_vote = votes.get(v)
            if by_vote is None:
                if any(vk not in prefs[x] for x, vk in zip(bag, v)):
                    return False
                floor = None
                if counted:
                    floor = [0] * len(next(iter(payload)))
                    for x, vk in zip(bag, v):
                        floor[vk] += weights[x]
                by_vote = votes[v] = (floor, _rules(tables, rec, v, rec.inner),
                                      _rules(tables, rec, v, rec.outer))
            floor, inner_rules, rules = by_vote
            lo = _tallies(alts, bag, v, group[0])
            if not _live(lo, inner_rules):
                return False
            hi = ()
            for k, cap in enumerate(caps):
                hi += lo[off[k]:off[k + 1]] if cap is None else cap
            bounds = group[1][v] = (lo, hi, floor, rules)
        lo, hi, floor, rules = bounds
        if len(c) != off[-1] or not (all(map(le, lo, c)) and all(map(le, c, hi))):
            return False
        for start, stop in sums:
            if sum(c[start:stop]) > c[stop]:
                return False
        if not _live(c, rules):
            return False
        if counted:
            for counts in payload:
                if not (all(map(le, floor, counts)) and sum(counts) <= total):
                    return False
        elif neg is not None:
            if kind == "margin":
                if all(map(le, payload, neg)):
                    return False
            else:
                for p in payload:
                    if not all(map(le, p, neg)):
                        return False
    return True


def _with_vector(front, p):
    """The antichain `front` with `p` added: `front` itself when one of
    its vectors is <= p, else a new list without the vectors >= p."""
    kept = []
    for q in front:
        if all(map(le, q, p)):
            return front
        if not all(map(le, p, q)):
            kept.append(q)
    kept.append(p)
    return kept


class _Engine:
    """Shared sweep for all three programs over `(v, D, c)` keys (see the
    module docstring). A slice maps each key to one payload container
    of int-tuple vectors. Without `rivals` (count mode) a vector is the
    subtree's weighted vote count per candidate and a container the set
    of those vectors. With `rivals`, candidate indexes d paired with the
    index `c`, a vector's coordinate j is a weighted score(rivals[j]) -
    score(c) of a subtree state: in margin mode the container is the
    largest vector, per coordinate, and in front mode (with `front`) the
    list of Pareto-minimal vectors. Only three functions per mode,
    picked when the engine is made, touch containers: `_shift(container,
    row)` adds a value row to every vector, `_merge(slice_, key,
    container)` stores a container under a key, uniting it with the one
    already there, and `_combine(left, right)` holds every sum of a left
    and a right vector. None of them changes a container in place, since
    an insert stores one container under several keys. `_size` counts
    the stored (key, vector) pairs. `run` builds each node's bag record
    once, in the same pass; a leaf holds the empty state alone, and the
    last node is the root. With no rival the vectors have no
    coordinates, and the sweep runs as any other.

    With `bounded` (margin or front mode) the sweep prunes by the
    outside-agent bound of the module docstring: `edge` holds each
    agent's row, every bag record its `neg`, and `_cut(container, neg)`
    returns what of a container survives the bound, or None when nothing
    does. It is applied where vectors are made, to an insert's shifted
    payload and a join's combined one; a forget changes neither the
    subtree nor the payloads. A bounded sweep may end with an empty
    root, which its caller reads as the answer."""

    def __init__(self, inst, ntd, rivals=None, c=None, front=False, bounded=False,
                 max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
        self.ntd = ntd
        self.kind = "count" if rivals is None else "front" if front else "margin"
        self.max_table = max_table
        self.trace = trace
        self.stats = stats
        m = len(inst.candidates)
        self.tables = _agent_tables(inst)
        self.prefs, _, self.alts, self.nbr, weights = self.tables
        self.altpos = tuple({a: k for k, a in enumerate(alt)} for alt in self.alts)
        # values[x][k]: the vector of agent x voting candidate index k,
        # one shared row per weight; a count vector has one coordinate per
        # candidate and no `c`
        cols = range(m) if rivals is None else rivals
        rows = {w: tuple(tuple(w * ((k == d) - (k == c)) for d in cols) for k in range(m))
                for w in set(weights)}
        self.zero = (0,) * len(cols)
        self.values = tuple(rows[w] for w in weights)
        # `start`: the container of the empty state, the zero vector alone;
        # plain functions, so that the engine holds no reference to itself
        if self.kind == "count":
            self.start = {self.zero}
            self._shift, self._merge, self._combine = (
                self._shift_count, self._merge_count, self._combine_count)
        elif front:
            self.start = [self.zero]
            self._shift, self._merge, self._combine = (
                self._shift_front, self._merge_front, self._combine_front)
        else:
            self.start = self.zero
            self._shift, self._merge, self._combine = (
                self._shift_margin, self._merge_margin, self._shift_margin)
        self.edge = self.total = self._cut = None
        if bounded:
            # what x's vote adds at most (margin) or at least (front) to
            # each margin; a friendless agent always votes its top
            pick = max if self.kind == "margin" else min
            edge_of = {}  # (weight, votes) -> row
            edge = []
            for x, ag in enumerate(inst.agents):
                votes = self.prefs[x] if self.nbr[x] else (self.tables[1][x],)
                row = edge_of.get((ag.weight, votes))
                if row is None:
                    vals = self.values[x]
                    row = edge_of[ag.weight, votes] = tuple(
                        pick(col) for col in zip(*(vals[k] for k in votes)))
                edge.append(row)
            self.edge = tuple(edge)
            self.total = tuple(map(sum, zip(self.zero, *edge)))
            self._cut = self._cut_margin if self.kind == "margin" else self._cut_front

    @staticmethod
    def _shift_count(counts, row):
        return {tuple(map(add, p, row)) for p in counts}

    @staticmethod
    def _merge_count(slice_, key, counts):
        old = slice_.get(key)
        slice_[key] = counts if old is None else old | counts

    @staticmethod
    def _combine_count(left, right):
        return {tuple(map(add, p, q)) for p in left for q in right}

    @staticmethod
    def _shift_margin(payload, row):
        # the margin mode's combine too: one vector per side
        return tuple(map(add, payload, row))

    @staticmethod
    def _merge_margin(slice_, key, payload):
        old = slice_.get(key)
        if old is None:
            slice_[key] = payload
        elif old != payload:
            slice_[key] = tuple(map(max, old, payload))

    @staticmethod
    def _shift_front(front, row):
        # adding one row to every vector keeps the front an antichain
        return [tuple(map(add, p, row)) for p in front]

    @staticmethod
    def _merge_front(slice_, key, front):
        old = slice_.get(key)
        if old is not None:
            for p in front:
                old = _with_vector(old, p)
            front = old
        slice_[key] = front

    @staticmethod
    def _combine_front(left, right):
        out = []
        for p in left:
            for q in right:
                out = _with_vector(out, tuple(map(add, p, q)))
        return out

    @staticmethod
    def _cut_margin(payload, neg):
        # dead when no rival can still get above 0
        return None if all(map(le, payload, neg)) else payload

    @staticmethod
    def _cut_front(front, neg):
        # a vector above neg in some coordinate ends above 0 there
        kept = [p for p in front if all(map(le, p, neg))]
        return kept or None

    def _size(self, slice_):
        return len(slice_) if self.kind == "margin" else sum(map(len, slice_.values()))

    def run(self):
        done = {}  # node -> (bag record, slice), until its parent takes it
        live = 0
        recs = _bags(self.ntd, self.alts, self.nbr, self.edge, self.total)
        for i, (nd, rec) in enumerate(zip(self.ntd.nodes, recs)):
            if nd.kind == "leaf":
                sl = {((), (), ()): self.start}
                if rec.neg is not None and self._cut(self.start, rec.neg) is None:
                    sl = {}
            elif nd.kind == "join":
                left, right = (done.pop(k)[1] for k in nd.children)
                live -= self._size(left) + self._size(right)
                sl = self._join(rec, left, right)
            else:
                crec, child = done.pop(nd.children[0])
                live -= self._size(child)
                sl = (self._insert(rec, crec, child, nd.vertex) if nd.kind == "insert"
                      else self._forget(crec, child, nd.vertex))
            assert _keys_compatible(self.tables, rec, sl.items(), self.kind), \
                "incompatible key stored at node %d" % i
            done[i] = rec, sl
            size = self._size(sl)
            live += size
            if live > self.max_table:
                raise ResourceLimitError(
                    "table guard exceeded at node %d with %d live entries"
                    % (i, live)
                )
            if self.stats is not None:
                self.stats["entries"] = self.stats.get("entries", 0) + size
            if self.trace is not None:
                self.trace.append((i, nd.kind, size))
        # `sl` is the last node's slice, the root's
        if not sl and self._cut is None:
            raise AssertionError("empty root table; the sweep lost all states")
        return sl

    def _insert(self, rec, crec, child, x):
        """Agent x joins the child's bag (record `crec`), giving `rec`."""
        bag = rec.bag
        px = bag.index(x)
        split = crec.off[px]
        alts_x = self.alts[x]
        vals = self.values[x]
        # only x's row is new, and only its friends' rows and unseen
        # counts change
        watched = [px] + [k for k, y in enumerate(bag) if y in self.nbr[x]]
        rules_of = {}
        shift, merge, cut, neg = self._shift, self._merge, self._cut, rec.neg
        places_of = {}
        sl = {}
        for (cv, cd, cc), payload in child.items():
            # x's vote adds the same to the payload in every place
            grown = []
            for c in self.prefs[x]:
                grown_payload = shift(payload, vals[c])
                if neg is not None:
                    grown_payload = cut(grown_payload, neg)
                    if grown_payload is None:
                        continue
                v = cv[:px] + (c,) + cv[px:]
                rules = rules_of.get(v)
                if rules is None:
                    rules = rules_of[v] = _rules(self.tables, rec, v, watched)
                grown.append((c, v, grown_payload, rules))
            if not grown:
                continue
            # the places of x depend on the child's order alone
            places = places_of.get(cd)
            if places is None:
                places = places_of[cd] = self._places(x, crec, cd, px)
            head, tail = cc[:split], cc[split:]
            for in_pos, bumps, order in places:
                votes_in = [cv[k] for k in in_pos]
                base = (head + tuple(map(votes_in.count, alts_x))
                        + (len(in_pos),) + tail)
                for c, v, grown_payload, rules in grown:
                    delta = bumps.get(c)
                    new = base if delta is None else tuple(map(add, base, delta))
                    if _live(new, rules):
                        merge(sl, (v, order, new), grown_payload)
        return sl

    def _places(self, x, crec, cd, px):
        """Each place of x in the child's order `cd`: (child positions of
        the friends voting before x, {vote of x: the delta that the
        friends voting after x receive, over the parent's flat
        counters}, the new order). `crec` is the child's bag record and
        `px` is x's position in the parent's bag."""
        cbag, coff = crec.bag, crec.off
        nbrx = self.nbr[x]
        wx = len(self.alts[x]) + 1
        width = coff[-1] + wx
        places = []
        for cut in range(len(cd) + 1):
            ahead = cd[:cut]
            # each friend after x counts x once in `a`, and in the `s`
            # field of x's vote when that is one of its alternatives
            followers = [(coff[k] + (wx if k >= px else 0), y)
                         for k, y in enumerate(cbag) if y in nbrx and y not in ahead]
            bumps = {}
            for c in self.prefs[x] if followers else ():
                delta = [0] * width
                for start, y in followers:
                    j = self.altpos[y].get(c)
                    if j is not None:
                        delta[start + j] += 1
                    delta[start + len(self.alts[y])] += 1
                bumps[c] = tuple(delta)
            places.append((
                tuple(k for k, y in enumerate(cbag) if y in nbrx and y in ahead),
                bumps,
                ahead + (x,) + cd[cut:],
            ))
        return places

    def _forget(self, crec, child, x):
        """Agent x leaves the child's bag (record `crec`)."""
        px = crec.bag.index(x)
        start, stop = crec.off[px], crec.off[px + 1]
        orders = {}
        sl = {}
        # every friend of x is seen below, so the child holds only states
        # in which x meets the voting rule
        merge = self._merge
        for (cv, cd, cc), payload in child.items():
            # drop x from each distinct child order once; its entries share
            # the result
            order = orders.get(cd)
            if order is None:
                order = orders[cd] = tuple(y for y in cd if y != x)
            merge(sl, (cv[:px] + cv[px + 1:], order, cc[:start] + cc[stop:]), payload)
        return sl

    def _join(self, rec, left, right):
        bag = rec.bag
        groups = {}
        for (v, d, c), payload in left.items():
            groups.setdefault((v, d), ([], []))[0].append((c, payload))
        for (v, d, c), payload in right.items():
            grp = groups.get((v, d))
            if grp is not None:
                grp[1].append((c, payload))
        shift, merge, combine = self._shift, self._merge, self._combine
        cut, neg = self._cut, rec.neg
        ins_of = {}
        rules_of = {}
        sl = {}
        for (v, d), (lefts, rights) in groups.items():
            if not rights:
                continue
            ins = ins_of.get(d)
            if ins is None:
                ins = ins_of[d] = _in_friends(self.nbr, bag, d)
            # counted once per side, so the bag's own votes and the
            # in-arc tallies inside the bag are subtracted once, from
            # each right entry rather than per pair
            overlap = _tallies(self.alts, bag, v, ins)
            dup = self.zero
            for k, x in enumerate(bag):
                dup = tuple(map(add, dup, self.values[x][v[k]]))
            alone = shift(self.start, dup)
            minus = tuple(map(sub, self.zero, dup))
            # the rows and unseen counts of agents whose friends all lie
            # in the bag are the same on both sides and here
            rules = rules_of.get(v)
            if rules is None:
                rules = rules_of[v] = _rules(self.tables, rec, v, rec.outer)
            # None where the right side adds nothing, so that the left
            # side's tuple or container is stored as it is
            rights = [(None if c2 == overlap else tuple(map(sub, c2, overlap)),
                       None if p2 == alone else shift(p2, minus))
                      for c2, p2 in rights]
            for c1, p1 in lefts:
                for c2, p2 in rights:
                    c = c1 if c2 is None else tuple(map(add, c1, c2))
                    if _live(c, rules):
                        p = p1 if p2 is None else combine(p1, p2)
                        if neg is not None:
                            p = cut(p, neg)
                            if p is None:
                                continue
                        merge(sl, (v, d, c), p)
        return sl


def achievable_scores_dp(inst, ntd, max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
    """All score functions some voting order can produce, computed over
    a nice tree decomposition. Any weights."""
    validate_nice(inst.graph, ntd)
    root = _Engine(inst, ntd, max_table=max_table, trace=trace, stats=stats).run()
    return frozenset(ScoreFunction(inst.candidates, p) for counts in root.values() for p in counts)


def _rival_sweep(inst, ntd, c, front, bounded, max_table, trace, stats):
    """The candidates other than `c`, in candidate order, and the root
    slice of one sweep whose payloads hold their margins against `c`
    (margin or front mode), pruned by the outside-agent bound when
    `bounded`."""
    index = inst.candidate_index
    if c not in index:
        raise PollInputError("unknown candidate %r" % (c,))
    validate_nice(inst.graph, ntd)
    rivals = tuple(d for d in inst.candidates if d != c)
    return rivals, _Engine(inst, ntd, tuple(index[d] for d in rivals), index[c], front,
                           bounded, max_table, trace, stats).run()


def possible_winner_dp(inst, ntd, c, max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
    """Decision only: can `c` co-win some voting order? Any weights. One
    bounded sweep keeps the Pareto front of the margin vectors against
    `c` that can still end <= 0 everywhere. At the root no agent is
    outside, so every vector kept there is <= 0 and an empty root
    means no."""
    _, root = _rival_sweep(inst, ntd, c, front=True, bounded=True, max_table=max_table,
                           trace=trace, stats=stats)
    return bool(root)


def margins_dp(inst, ntd, c, max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
    """{d: largest achievable weighted score(d) - score(c)} for every
    other candidate d, in candidate order, from one sweep. Any weights."""
    rivals, root = _rival_sweep(inst, ntd, c, front=False, bounded=False,
                                max_table=max_table, trace=trace, stats=stats)
    if len(root) != 1:
        raise AssertionError("margin root table should hold exactly one value")
    return dict(zip(rivals, next(iter(root.values()))))


def necessary_winner_dp(inst, ntd, c, max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
    """Does `c` co-win every voting order? Works for weighted instances.

    Returns (decision, offending): when the answer is no, `offending` is
    the first candidate, in candidate order, that can strictly beat `c`
    on some order. One bounded margin sweep covers every rival: it
    keeps only keys that can still give some rival a lead, so an empty
    root means yes, and a positive root margin is exact.
    """
    rivals, root = _rival_sweep(inst, ntd, c, front=False, bounded=True,
                                max_table=max_table, trace=trace, stats=stats)
    # the root bag is empty, so the root holds at most one key
    for payload in root.values():
        for d, margin in zip(rivals, payload):
            if margin > 0:
                return False, d
    return True, None
