"""Table keys of the dynamic programs in `dpsolver`, and their invariant.

A table key `(v, D, d)` describes everything the nodes above a nice
tree node may still observe about the partial poll states of the
node's subtree:

* `v`: the votes of the bag agents, as candidate indexes, in bag order;
* `D`: the bag agents as a tuple, in the order in which they vote. A
  partial poll's voting order restricted to the bag is one such tuple,
  and the orders of two subtrees that agree on their shared bag always
  merge into one order, so this is all that joins and inserts need;
* `d`: one flat tuple holding, in bag order, each bag agent x's row
  `(d_1, ..., d_k)`, one field per non-top preferred candidate
  `alts[x][j]`: d_j = 2·s_j - a, where s_j counts the friends that
  voted before x for `alts[x][j]` and a all friends that voted before
  x. The voting rule reads a row through these alone: x votes
  alternative j when d_j > 0, and its top when every d_j <= 0. An agent
  without alternatives has an empty row.

A friend voting earlier for alternative j adds 1 to d_j and -1 to the
row's other fields, and any other vote -1 to every field. This module
is the one place that knows the row format: `vote_row` gives a new
agent's row and `tallies` the rows that the friends inside a bag
account for, `follower_deltas` what a new agent's vote adds to the rows
of its friends voting after it, `rule_bounds` and `settle` the voting
rule's bound and the marks, `rule_reader` how the rule ranks two rows
of one vote, and `keys_compatible` the invariant. The sweep in
`dpsolver` only splices, slices and adds the flat tuples these give.

Everything a sweep knows about a bag apart from its keys is built once
per sweep, bottom up, as one `BagRecord` per nice node (`bag_records`):
row offsets, per bag agent the number r of its friends outside the
vertices of the node's subtree (they may still vote before it, and no
other friend can) and the number of its friends outside the bag that
the subtree holds, and for a bounded sweep the outside-agent bound
`neg` of `dpsolver`.

Once every friend of an agent is seen (r = 0) its row can change no
more, and the voting rule has read it: a live row is replaced by its
vote's mark, -inf in every field for the top and +inf in field j, -inf
elsewhere, for alternative j. Later deltas and join sums leave a mark as
it is, and states whose fully seen agents cast the same votes from
different rows share one key. So a row is its vote's mark if and only
if its agent has r = 0, which the bag record alone tells; a row is not
marked earlier, even where no friend still to come can change its vote.
`settle` marks the rows of fully seen agents and tells a dead key, where
no future can make some row agree with its agent's vote, from a live
one.

The key invariant is written once, in `keys_compatible`, and includes
the voting-rule bound and the outside-agent bound. The sweep asserts it
on every stored slice, so `python -O` skips it.
"""

from __future__ import annotations

from operator import add, le, mul, sub
from typing import NamedTuple

NO_BOUND = float("inf")


def agent_tables(inst):
    """Per-agent (prefs, top, alts, friends, weights, marks): sorted
    preferred candidate indexes, the top index, the non-top preferred
    indexes, friend sets, weights, and {vote: the mark of a fully seen
    agent casting it} (module docstring)."""
    prefs = tuple(row[1] for row in inst.ballots)
    top = tuple(row[0] for row in inst.ballots)
    alts = tuple(tuple(c for c in row if c != t) for row, t in zip(prefs, top))
    marks = tuple({c: tuple(NO_BOUND if a == c else -NO_BOUND for a in alt) for c in row}
                  for row, alt in zip(prefs, alts))
    return (prefs, top, alts, tuple(frozenset(b) for b in inst.graph.adjacency),
            tuple(ag.weight for ag in inst.agents), marks)


def in_friends(friends, bag, order):
    """Per bag agent, the bag positions of its friends that vote before
    it in `order`; None unless `order` lists the bag exactly once."""
    if len(order) != len(bag) or set(order) != set(bag):
        return None
    ins = []
    for x in bag:
        earlier = friends[x].intersection(order[:order.index(x)])
        ins.append(tuple(sorted(map(bag.index, earlier))) if earlier else ())
    return ins


def vote_row(alts_x, votes):
    """The row of an agent with alternatives `alts_x` whose friends that
    vote before it cast `votes`: per alternative j, 2·(votes for j)
    minus their number."""
    n = len(votes)
    return tuple([2 * votes.count(c) - n for c in alts_x])


def tallies(alts, bag, v, ins):
    """The rows that arcs inside the bag account for, as a flat tuple:
    each bag agent's `vote_row` over its in-friends in `ins`."""
    out = ()
    for x, row in zip(bag, ins):
        if row:
            out += vote_row(alts[x], [v[k] for k in row])
        else:
            out += (0,) * len(alts[x])
    return out


def follower_deltas(alts, votes, followers, width):
    """{vote c of an agent: what c adds to the flat rows, `width` long,
    of its friends that vote after it}: +1 on the field of c where c is
    one of a friend's alternatives and -1 on the friend's other fields.
    `followers` lists (start of the friend's row, friend); a vote
    without a delta, as every vote when nobody follows, changes no
    row."""
    deltas = {}
    for c in votes if followers else ():
        delta = [0] * width
        for start, y in followers:
            for j, a in enumerate(alts[y]):
                delta[start + j] = 1 if a == c else -1
        deltas[c] = tuple(delta)
    return deltas


class BagRecord(NamedTuple):
    """What a sweep knows about one nice node's bag apart from its keys.
    It depends on the instance and the decomposition alone, and `neg`
    also on the question a bounded sweep answers."""

    bag: tuple
    off: tuple  # where each agent's row starts in `d`, then the length of `d`
    unseen: tuple  # per agent, r: its friends outside the subtree
    seen: tuple  # per agent, its friends outside the bag but in the subtree
    outer: tuple  # positions of the agents with friends outside the bag
    spread: tuple  # per field, its agent's `seen`, or inf where r = 0
    pairs: tuple  # adjacent fields of one row whose agent has r > 0
    neg: tuple  # the outside-agent bound (see `dpsolver`), or None


def bag_record(alts, friends, bag, unseen, neg):
    """The record of `bag` whose agents have `unseen` counts r, with the
    outside-agent bound `neg` (or None)."""
    bagset = frozenset(bag)
    off, seen, outer, spread, pairs = [0], [], [], (), ()
    for k, x in enumerate(bag):
        width = len(alts[x])
        off.append(off[k] + width)
        outside = len(friends[x] - bagset)
        if outside:
            outer.append(k)
        r = unseen[k]
        seen.append(outside - r)
        spread += (seen[k] if r else NO_BOUND,) * width
        if r and width > 1:
            pairs += tuple((f, f + 1) for f in range(off[k], off[k + 1] - 1))
    return BagRecord(bag, tuple(off), unseen, tuple(seen), tuple(outer), spread, pairs, neg)


def _plus(p, q):
    return tuple(map(add, p, q))


def bag_records(ntd, alts, friends, edge=None, total=None):
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
        waiting[i] = rec = bag_record(alts, friends, nd.bag, row, neg)
        yield rec


def _field(top, alts, x, vote, start):
    """The field of x's row, which starts at `start`, that the voting
    rule reads for `vote`: None for x's top, which reads every field,
    else the field of that alternative."""
    return None if vote == top[x] else start + alts[x].index(vote)


def rule_bounds(tables, rec, v, positions):
    """The voting-rule bound of each agent of bag record `rec`, with
    votes `v`, at a position in `positions`, whose unseen count is r.
    Those r friends may each still vote before the agent, moving every
    field of its row by one. So it is dead when it votes its top and
    d_j > r for some j, or when it votes the alternative j and
    d_j <= -r; with r = 0 this is the voting rule itself, and with r =
    `NO_BOUND` no bound at all. Each bound is (start, stop, f, sign, low,
    mark), for `settle`: the agent's row is d[start:stop], its reading t
    is sign·d[f], or -max(row) where f is None, and the agent is alive
    while t >= low. `mark` is the row of a live agent at r = 0, and None
    at r > 0. Agents without alternatives have no bound."""
    top, alts, marks = tables[1], tables[2], tables[5]
    bag, off, unseen = rec.bag, rec.off, rec.unseen
    out = []
    for k in positions:
        start, stop = off[k], off[k + 1]
        if start == stop:
            continue
        r = unseen[k]
        x = bag[k]
        mark = None if r else marks[x][v[k]]
        f = _field(top, alts, x, v[k], start)
        if f is None:
            out.append((start, stop, start if stop - start == 1 else None, -1, -r, mark))
        else:
            out.append((start, stop, f, 1, 1 - r, mark))
    return out


def rule_reader(tables, rec, v):
    """A function reading the flat rows `d` of a key with votes `v` over
    the bag of record `rec` as the voting rule does, larger being better
    for every agent: each field of a top voter negated, and the field j
    of a voter of alternative j (a mark reads +inf). Of two keys of one
    (v, D), the one whose reading and payload are no smaller in any
    coordinate beats the other: every completion of the other completes
    it too, with a payload at least as large."""
    top, alts, bag, off = tables[1], tables[2], rec.bag, rec.off
    fields, signs = [], []
    for k, x in enumerate(bag):
        start, stop = off[k], off[k + 1]
        f = _field(top, alts, x, v[k], start)
        if f is None:
            fields += range(start, stop)
            signs += [-1] * (stop - start)
        else:
            fields.append(f)
            signs.append(1)
    return lambda d: tuple(map(mul, signs, map(d.__getitem__, fields)))


def settle(d, rules):
    """`d` with the row of every fully seen agent in `rules` (see
    `rule_bounds`) replaced by its mark, or None when some agent can no
    longer meet the voting rule. A mark reads +inf, so it is never
    marked again."""
    for start, stop, f, sign, low, mark in rules:
        t = -max(d[start:stop]) if f is None else sign * d[f]
        if t < low:
            return None
        if mark is not None and t != NO_BOUND:
            d = d[:start] + mark + d[stop:]
    return d


def _reachable(tally, row):
    """Is some row of the box of a fully seen agent's `row` (see
    `keys_compatible`) live, so that its mark stands for a real
    state?"""
    start, stop, f, seen = row
    if f is None:
        return max(tally[start:stop]) <= seen
    return tally[f] + seen > 0


def keys_compatible(tables, rec, items, kind):
    """Could each key in `items`, ((v, D, d), payload) pairs over the bag
    of record `rec` in index form, come from a partial poll whose voting
    rule every bag agent can still meet? `D` must list the bag exactly
    once. `kind` names the payload: a "count" container of count
    vectors or a "front" list of margin vectors, either of which must
    hold at least one vector, or one "margin" vector. Every count vector
    must hold at least the bag agents' own weighted votes and sum to at
    most the total weight. The record's `neg`, where not None, gives the
    outside-agent bound: a margin vector must exceed it in some
    coordinate and a front vector must not exceed it in any. The checker
    reads only that static record, never what a transition computed.

    Let T be the row that a bag agent's in-friends inside the bag
    account for. Each friend outside the bag that the subtree holds
    (`seen`) moves every field by at most one, and the r unseen ones
    bound the voting rule as in `rule_bounds`. So at r > 0 the row lies
    in the box [T - seen, T + seen] cut to the rule's interval (d_j <= r
    for a top voter, d_j >= 1 - r for a voter of alternative j), and its
    fields share a parity, since each is 2·s_j - a. At r = 0 the row is
    its vote's mark, which must be reachable: some row of the box is
    live.

    The conditions on v alone are checked once per distinct v, and
    those on D alone once per distinct D. The bounds that v and D put
    on the rows are built once per (v, D) with `map`, as one flat lower
    and one flat upper bound tuple that pin a row at r = 0 to its mark,
    whose reachability is checked there too. A key passes when its rows
    fit these bounds with one parity per row at r > 0."""
    prefs, top, alts, friends, weights, marks = tables
    bag, off, unseen, seen, spread, pairs, neg = (
        rec.bag, rec.off, rec.unseen, rec.seen, rec.spread, rec.pairs, rec.neg)
    counted = kind == "count"
    total = sum(weights) if counted else None
    groups = {}  # D -> (in-friend positions, {v: bounds})
    votes = {}  # v -> (count floor, rule's lower and upper bounds, rows at r = 0)
    for (v, order, d), payload in items:
        if kind != "margin" and not payload:
            return False
        group = groups.get(order)
        if group is None:
            ins = in_friends(friends, bag, order)
            if ins is None:
                return False
            group = groups[order] = (ins, {})
        bounds = group[1].get(v)
        if bounds is None:
            by_vote = votes.get(v)
            if by_vote is None:
                # per field, the rule's interval at r > 0 and the mark at r = 0
                low, high, pinned = [], [], []
                for k, x in enumerate(bag):
                    if v[k] not in prefs[x]:
                        return False
                    start, stop = off[k], off[k + 1]
                    if start == stop:
                        continue
                    r = unseen[k]
                    f = _field(top, alts, x, v[k], start)
                    if not r:
                        pinned.append((start, stop, f, seen[k]))
                        low += marks[x][v[k]]
                        high += marks[x][v[k]]
                    elif f is None:
                        low += [-NO_BOUND] * (stop - start)
                        high += [r] * (stop - start)
                    else:
                        low += [-NO_BOUND] * (stop - start)
                        low[f] = 1 - r
                        high += [NO_BOUND] * (stop - start)
                floor = None
                if counted:
                    floor = [0] * len(next(iter(payload)))
                    for x, vk in zip(bag, v):
                        floor[vk] += weights[x]
                by_vote = votes[v] = floor, low, high, pinned
            floor, low, high, pinned = by_vote
            tally = tallies(alts, bag, v, group[0])
            for row in pinned:
                if not _reachable(tally, row):
                    return False
            bounds = group[1][v] = (tuple(map(max, map(sub, tally, spread), low)),
                                    tuple(map(min, map(add, tally, spread), high)), floor)
        lo, hi, floor = bounds
        if not (len(d) == off[-1] and all(map(le, lo, d)) and all(map(le, d, hi))
                and (not pairs or all([(d[f] - d[g]) % 2 == 0 for f, g in pairs]))):
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
