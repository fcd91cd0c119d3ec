"""Dynamic programs over nice tree decompositions.

All three programs sweep the nice tree bottom up, keeping per-node
tables of partial poll states under the keys `(v, D, d)` of `dpkeys`:
the bag agents' votes, their voting order and one flat tuple of the rows
the voting rule reads, with settled rows marked.

Every transition moves the rows linearly. With flat rows a join adds
two keys' rows with one `map` and subtracts the in-bag tallies that
both sides count, a forget drops one contiguous slice, and an insert
splices in the new agent's row and bumps the rows of its friends voting
after it by deltas precomputed once per place of the new agent in the
child's order. Leaves are empty (see `graphkit`), so a leaf holds the
empty state `((), (), ())` alone and an agent enters the tables only at
an insert. Inserts and joins, where rows and unseen counts change, mark
the settled rows (`dpkeys.settle`).

Every program's slice maps a key `(v, D, d)` to one payload container,
and the programs differ only in that container and in four functions
over it: shift (add an agent's value row to every vector), merge (store
a container under a key, uniting it with the one already there),
combine (every sum of a vector of each side, at a join) and undominated
(the keys of a slice worth keeping). The transitions visit each key
once and touch payloads only through these.

The achievable-scores program additionally tracks the weighted
per-candidate vote counts of the processed subtree, so that a count
vector is a score function; any weights. Its slices map `(v, D, d)` to
the set of count vectors that states with that key reach. The margin
program replaces counts by a payload with one maximized value per rival
e of a candidate c, the weighted score difference score(e) - score(c),
so it handles arbitrary weights and any number of candidates; its
slices map `(v, D, d)` to that payload. The key set does not depend on
the pair, and keys, transitions and the join's double-count correction
are additive given the key, so each coordinate is the single-pair
program and one sweep gives every margin against c. A poll with one
candidate gives c no rival, and its sweeps carry zero-length vectors.

The margin program also drops, at each forget and join, every key that
another key of the same `(v, D)` beats (`dpkeys.rule_reader`): every
top voter's d_j no larger, every alternative-j voter's d_j no smaller,
and the payload no smaller in any coordinate. Every completion of the beaten state
completes the other with a payload at least as large, so the root
maxima stay exact. An insert keeps a beaten key beaten, so dropping
keys there too would store fewer entries only until the next forget or
join. The count and front programs keep every key.

The possible-winner program keeps the same margin vectors unmaximized,
as a Pareto front: its slices map `(v, D, d)` to the list of vectors
that no other vector of the key is <= in every coordinate. Inserts add
one row to every vector of a key and joins add two vectors and subtract
one, both alike for all vectors of a key, so a dominated vector never
ends below the one dominating it; c co-wins some order iff a root
vector is <= 0 everywhere. Any weights here too.

Dead states are pruned where they are made: no insert or join node
stores a state in which some bag agent can no longer meet the voting
rule, whatever its unseen friends do (`dpkeys.settle`). At the forget
node of x every friend is seen (r = 0), so the bound is then exactly
the voting rule and the forget node tests nothing.

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
possible NO exactly when the root slice is empty. A bounded sweep stops
at the first node whose slice is empty, since every ancestor's slice,
the root's too, is then empty; the nodes it skips get trace rows of
zero entries.

A guard bounds the number of live table entries, stored (key, vector)
pairs: a key counts once per vector of its container in count and
front mode, and once in margin mode.

The sweep asserts the key invariant, `dpkeys.keys_compatible`, on every
stored slice, so `python -O` skips it.
"""

from __future__ import annotations

from operator import add, ge, le, sub

from .dpkeys import (
    agent_tables,
    bag_records,
    follower_deltas,
    in_friends,
    keys_compatible,
    rule_bounds,
    rule_reader,
    settle,
    tallies,
    vote_row,
)
from .graphkit import validate_nice
from .model import PollInputError, ResourceLimitError, ScoreFunction

DEFAULT_MAX_TABLE = 1 << 24


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
    """Shared sweep for all three programs over `(v, D, d)` keys (see the
    module docstring). A slice maps each key to one payload container
    of int-tuple vectors. Without `rivals` (count mode) a vector is the
    subtree's weighted vote count per candidate and a container the set
    of those vectors. With `rivals`, candidate indexes e paired with the
    index `c`, a vector's coordinate j is a weighted score(rivals[j]) -
    score(c) of a subtree state: in margin mode the container is the
    largest vector, per coordinate, and in front mode (with `front`) the
    list of Pareto-minimal vectors. Only four functions per mode, picked
    when the engine is made, touch containers: `_shift(container, row)`
    adds a value row to every vector, `_merge(slice_, key, container)`
    stores a container under a key, uniting it with the one already
    there, `_combine(left, right)` holds every sum of a left and a right
    vector, and `_undominated(tables, rec, slice_)` returns a forget's or
    a join's slice without the keys that another key beats (margin mode),
    or as it is. Those are the nodes where keys of one (v, D) meet from
    different child keys; an insert keeps a beaten key beaten, so a key
    that a mark made there lets another beat goes at the next forget or
    join. None of them changes a container in place, since an insert
    stores one container under several keys. `_size` counts the stored
    (key, vector) pairs. `run` builds each node's bag record once, in the
    same pass; a leaf holds the empty state alone, and the last node is
    the root. With no rival the vectors have no coordinates, and the
    sweep runs as any other.

    With `bounded` (margin or front mode) the sweep prunes by the
    outside-agent bound of the module docstring: `edge` holds each
    agent's row, every bag record its `neg`, and `_cut(container, neg)`
    returns what of a container survives the bound, or None when nothing
    does. It is applied where vectors are made, to an insert's shifted
    payload and a join's combined one; a forget changes neither the
    subtree nor the payloads. A bounded sweep stops at its first empty
    slice, and returns it as the root's, which its caller reads as the
    answer."""

    def __init__(self, inst, ntd, rivals=None, c=None, front=False, bounded=False,
                 max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
        self.ntd = ntd
        self.kind = "count" if rivals is None else "front" if front else "margin"
        self.max_table = max_table
        self.trace = trace
        self.stats = stats
        m = len(inst.candidates)
        self.tables = agent_tables(inst)
        self.prefs, _, self.alts, self.nbr, weights, _ = self.tables
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
            self._shift, self._merge, self._combine, self._undominated = (
                self._shift_count, self._merge_count, self._combine_count, self._every_key)
        elif front:
            self.start = [self.zero]
            self._shift, self._merge, self._combine, self._undominated = (
                self._shift_front, self._merge_front, self._combine_front, self._every_key)
        else:
            self.start = self.zero
            self._shift, self._merge, self._combine, self._undominated = (
                self._shift_margin, self._merge_margin, self._shift_margin,
                self._undominated_margin)
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

    @staticmethod
    def _every_key(tables, rec, slice_):
        return slice_

    @staticmethod
    def _undominated_margin(tables, rec, slice_):
        # a key beats another of its (v, D) when its rule reading
        # (`dpkeys.rule_reader`) followed by its payload is no smaller in
        # any coordinate; taken largest first, a beaten key comes after
        # one that beats it. The slice is the transition's own, so it is
        # thinned in place
        groups = {}
        for item in slice_.items():
            groups.setdefault(item[0][:2], []).append(item)
        if len(groups) == len(slice_):
            return slice_
        for (v, _), items in groups.items():
            if len(items) == 1:
                continue
            read = rule_reader(tables, rec, v)
            kept = []
            for reading, key in sorted([(read(key[2]) + p, key) for key, p in items],
                                       reverse=True):
                if any(all(map(ge, better, reading)) for better in kept):
                    del slice_[key]
                else:
                    kept.append(reading)
        return slice_

    def _size(self, slice_):
        return len(slice_) if self.kind == "margin" else sum(map(len, slice_.values()))

    def run(self):
        done = {}  # node -> (bag record, slice), until its parent takes it
        live = 0
        nodes = self.ntd.nodes
        recs = bag_records(self.ntd, self.alts, self.nbr, self.edge, self.total)
        for i, (nd, rec) in enumerate(zip(nodes, recs)):
            if nd.kind == "leaf":
                sl = {((), (), ()): self.start}
                if rec.neg is not None and self._cut(self.start, rec.neg) is None:
                    sl = {}
            elif nd.kind == "join":
                left, right = (done.pop(k)[1] for k in nd.children)
                live -= self._size(left) + self._size(right)
                sl = self._undominated(self.tables, rec, self._join(rec, left, right))
            else:
                crec, child = done.pop(nd.children[0])
                live -= self._size(child)
                if nd.kind == "insert":
                    sl = self._insert(rec, crec, child, nd.vertex)
                else:
                    sl = self._undominated(self.tables, rec,
                                           self._forget(crec, child, nd.vertex))
            assert keys_compatible(self.tables, rec, sl.items(), self.kind), \
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
            if not sl and self._cut is not None:
                # every ancestor's slice, the root's too, is empty as well
                if self.trace is not None:
                    self.trace.extend((j, nodes[j].kind, 0) for j in range(i + 1, len(nodes)))
                return sl
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
        for (cv, cd, cd_rows), payload in child.items():
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
                    rules = rules_of[v] = rule_bounds(self.tables, rec, v, watched)
                grown.append((c, v, grown_payload, rules))
            if not grown:
                continue
            # the places of x depend on the child's order alone
            places = places_of.get(cd)
            if places is None:
                places = places_of[cd] = self._places(x, crec, cd, px)
            head, tail = cd_rows[:split], cd_rows[split:]
            for in_pos, bumps, order in places:
                base = head + vote_row(alts_x, [cv[k] for k in in_pos]) + tail
                for c, v, grown_payload, rules in grown:
                    delta = bumps.get(c)
                    new = settle(base if delta is None else tuple(map(add, base, delta)), rules)
                    if new is not None:
                        merge(sl, (v, order, new), grown_payload)
        return sl

    def _places(self, x, crec, cd, px):
        """Each place of x in the child's order `cd`: (child positions of
        the friends voting before x, {vote of x: the delta that the
        friends voting after x receive, over the parent's flat rows},
        the new order). A vote without a delta changes no row. `crec` is
        the child's bag record and `px` is x's position in the parent's
        bag."""
        cbag, coff = crec.bag, crec.off
        nbrx, alts = self.nbr[x], self.alts
        wx = len(alts[x])
        width = coff[-1] + wx
        places = []
        for cut in range(len(cd) + 1):
            ahead = cd[:cut]
            # the rows of x's friends after it, in the parent's layout
            followers = [(coff[k] + (wx if k >= px else 0), y)
                         for k, y in enumerate(cbag)
                         if y in nbrx and y not in ahead and alts[y]]
            places.append((
                tuple(k for k, y in enumerate(cbag) if y in nbrx and y in ahead),
                follower_deltas(alts, self.prefs[x], followers, width),
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
        # in which x meets the voting rule, and x's row is its mark
        merge = self._merge
        for (cv, cd, rows), payload in child.items():
            # drop x from each distinct child order once; its entries share
            # the result
            order = orders.get(cd)
            if order is None:
                order = orders[cd] = tuple(y for y in cd if y != x)
            merge(sl, (cv[:px] + cv[px + 1:], order, rows[:start] + rows[stop:]), payload)
        return sl

    def _join(self, rec, left, right):
        bag = rec.bag
        groups = {}
        for (v, order, rows), payload in left.items():
            groups.setdefault((v, order), ([], []))[0].append((rows, payload))
        for (v, order, rows), payload in right.items():
            grp = groups.get((v, order))
            if grp is not None:
                grp[1].append((rows, payload))
        shift, merge, combine = self._shift, self._merge, self._combine
        cut, neg = self._cut, rec.neg
        ins_of = {}
        rules_of = {}
        sl = {}
        for (v, order), (lefts, rights) in groups.items():
            if not rights:
                continue
            ins = ins_of.get(order)
            if ins is None:
                ins = ins_of[order] = in_friends(self.nbr, bag, order)
            # counted once per side, so the bag's own votes and the
            # in-arc tallies inside the bag are subtracted once, from
            # each right entry rather than per pair; a mark stays a mark
            overlap = tallies(self.alts, bag, v, ins)
            dup = self.zero
            for k, x in enumerate(bag):
                dup = tuple(map(add, dup, self.values[x][v[k]]))
            alone = shift(self.start, dup)
            minus = tuple(map(sub, self.zero, dup))
            # the rows and unseen counts of agents whose friends all lie
            # in the bag are the same marks on both sides and here
            rules = rules_of.get(v)
            if rules is None:
                rules = rules_of[v] = rule_bounds(self.tables, rec, v, rec.outer)
            # None where the right side adds nothing, so that the left
            # side's tuple or container is stored as it is
            rights = [(None if d2 == overlap else tuple(map(sub, d2, overlap)),
                       None if p2 == alone else shift(p2, minus))
                      for d2, p2 in rights]
            for d1, p1 in lefts:
                for d2, p2 in rights:
                    rows = settle(d1 if d2 is None else tuple(map(add, d1, d2)), rules)
                    if rows is not None:
                        p = p1 if p2 is None else combine(p1, p2)
                        if neg is not None:
                            p = cut(p, neg)
                            if p is None:
                                continue
                        merge(sl, (v, order, rows), p)
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
    """{e: largest achievable weighted score(e) - score(c)} for every
    other candidate e, in candidate order, from one sweep. Any weights."""
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
