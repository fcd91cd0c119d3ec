"""Dynamic programs over nice tree decompositions.

Both programs sweep the nice tree bottom up, keeping per-node tables of
partial poll states. A table key describes everything the nodes above
may still observe about the processed subtree:

* `v`: the votes of the bag agents, as candidate indexes;
* `D`: a transitively closed DAG on the bag whose underlying graph
  covers the bag's friendship edges. It over-approximates reachability
  between bag agents in the orientation built so far, which is exactly
  what join and insert nodes need to rule out directed cycles;
* `s`, `a`: for each bag agent, how many of its friends voted before it
  for each non-top preferred candidate, and in total. Only arcs between
  actual friends count here; `D` may relate non-adjacent agents.

The achievable-scores program additionally tracks the per-candidate
vote counts of the processed subtree; it requires unit weights because
counts enter keys. The margin program replaces counts by one maximized
value, the weighted score difference of a candidate pair, so it handles
arbitrary weights and any number of candidates.

An agent's voting rule is enforced once, at the forget node that drops
it: by then every friend has been inserted below, so `s` and `a` are
final. A guard bounds the number of live table entries.

The key invariant is written once, in `_keys_compatible`. The sweep
asserts it on every stored slice, so `python -O` skips it; the public
`mutually_compatible` runs it on one key given over labels, then adds
the voting rule for agents whose friends all lie in the bag.
"""

from __future__ import annotations

import itertools

from .graphkit import graph_of, validate_nice
from .model import (
    PollInputError,
    ResourceLimitError,
    ScoreFunction,
    UnsupportedModeError,
)

DEFAULT_MAX_TABLE = 1 << 24


def _agent_tables(inst):
    """Per-agent (prefs, top, alts, friends): sorted preferred candidate
    indexes, the top index, the non-top preferred indexes, friend sets."""
    prefs = tuple(row[1] for row in inst.ballots)
    top = tuple(row[0] for row in inst.ballots)
    alts = tuple(tuple(c for c in row if c != t) for row, t in zip(prefs, top))
    return prefs, top, alts, tuple(frozenset(b) for b in inst.adjacency)


def _keys_compatible(tables, bag, items, counted):
    """Could each key in `items`, ((v, D, s, a), payload) pairs over
    `bag` in index form, come from a partial poll? Payloads are count
    vectors to check too when `counted`. The voting rule of fully-seen
    agents is left out: leaf and insert nodes legitimately hold votes
    that the matching forget node prunes."""
    prefs, _, alts, friends = tables
    bagset = frozenset(bag)
    pos = {y: k for k, y in enumerate(bag)}
    nbr_in = tuple(tuple(y for y in bag if y in friends[x]) for x in bag)
    n = len(prefs)
    for (v, dag, s, a), payload in items:
        for u, w in dag:
            if u == w or u not in bagset or w not in bagset or (w, u) in dag:
                return False
        for u, w in dag:
            for w2, z in dag:
                if w2 == w and z != u and (u, z) not in dag:
                    return False
        for k, x in enumerate(bag):
            if v[k] not in prefs[x]:
                return False
            if any(q < 0 for q in s[k]) or sum(s[k]) > a[k]:
                return False
            if a[k] > len(friends[x]):
                return False
            ing = []
            for y in nbr_in[k]:
                if (y, x) in dag:
                    ing.append(y)
                elif (x, y) not in dag:
                    return False
            full = len(nbr_in[k]) == len(friends[x])
            if a[k] < len(ing) or (full and a[k] != len(ing)):
                return False
            for j, c in enumerate(alts[x]):
                seen = sum(1 for y in ing if v[pos[y]] == c)
                if s[k][j] < seen or (full and s[k][j] != seen):
                    return False
        if counted:
            if any(q < 0 for q in payload) or sum(payload) > n:
                return False
            if any(q < v.count(c) for c, q in enumerate(payload)):
                return False
    return True


class _Engine:
    """Shared sweep for both programs. `mode` is "count" or "margin";
    margin mode maximizes weight(d) - weight(c) style values for the
    candidate index pair `pair`."""

    def __init__(self, inst, ntd, mode, pair=None, max_table=DEFAULT_MAX_TABLE,
                 trace=None, stats=None):
        self.inst = inst
        self.ntd = ntd
        self.mode = mode
        self.pair = pair
        self.max_table = max_table
        self.trace = trace
        self.stats = stats
        self.m = len(inst.candidates)
        self.tables = _agent_tables(inst)
        self.prefs, self.p1, self.alts, self.nbr = self.tables
        self.altpos = tuple({c: k for k, c in enumerate(alt)} for alt in self.alts)
        self.weight = tuple(ag.weight for ag in inst.agents)

    def _value(self, x, c):
        # contribution of agent x voting candidate index c
        if self.mode == "count":
            return tuple(1 if k == c else 0 for k in range(self.m))
        d, c0 = self.pair
        return self.weight[x] * ((1 if c == d else 0) - (1 if c == c0 else 0))

    def _combine(self, left, right):
        if self.mode == "count":
            return tuple(p + q for p, q in zip(left, right))
        return left + right

    def _subtract(self, total, part):
        if self.mode == "count":
            return tuple(p - q for p, q in zip(total, part))
        return total - part

    def _zero(self):
        if self.mode == "count":
            return (0,) * self.m
        return 0

    def _add(self, slice_, key, payload):
        if self.mode == "count":
            slice_[key + (payload,)] = True
        else:
            old = slice_.get(key)
            if old is None or payload > old:
                slice_[key] = payload

    def _items(self, slice_):
        # yields ((v, D, s, a), payload) in either mode
        if self.mode == "count":
            for key in slice_:
                yield key[:4], key[4]
        else:
            yield from slice_.items()

    def run(self):
        slices = {}
        live = 0
        for i, nd in enumerate(self.ntd.nodes):
            if nd.kind == "leaf":
                sl = self._leaf(nd)
            elif nd.kind == "insert":
                child = slices.pop(nd.children[0])
                live -= len(child)
                sl = self._insert(nd, child)
            elif nd.kind == "forget":
                child = slices.pop(nd.children[0])
                live -= len(child)
                sl = self._forget(nd, child)
            else:
                left = slices.pop(nd.children[0])
                right = slices.pop(nd.children[1])
                live -= len(left) + len(right)
                sl = self._join(nd, left, right)
            assert _keys_compatible(
                self.tables, nd.bag, self._items(sl), self.mode == "count"
            ), "incompatible key stored at node %d" % i
            slices[i] = sl
            live += len(sl)
            if live > self.max_table:
                raise ResourceLimitError(
                    "table guard exceeded at node %d with %d live entries"
                    % (i, live)
                )
            if self.stats is not None:
                self.stats["entries"] = self.stats.get("entries", 0) + len(sl)
            if self.trace is not None:
                self.trace.append((i, nd.kind, len(sl)))
        root = slices[self.ntd.root]
        if not root:
            raise AssertionError("empty root table; the sweep lost all states")
        return root

    def _leaf(self, nd):
        sl = {}
        if not nd.bag:
            self._add(sl, ((), frozenset(), (), ()), self._zero())
            return sl
        x = nd.bag[0]
        szero = (0,) * len(self.alts[x])
        for c in self.prefs[x]:
            key = ((c,), frozenset(), (szero,), (0,))
            self._add(sl, key, self._value(x, c))
        return sl

    def _insert(self, nd, child):
        x = nd.vertex
        bag = nd.bag
        px = bag.index(x)
        cbag = bag[:px] + bag[px + 1:]
        pos = {y: k for k, y in enumerate(cbag)}
        nbrx = self.nbr[x]
        # per bag vertex: the admissible arc states toward x
        options = [
            ((1, 2) if y in nbrx else (0, 1, 2)) for y in cbag
        ]
        sl = {}
        for (cv, cd, cs, ca), payload in self._items(child):
            preds = {y: set() for y in cbag}
            succs = {y: set() for y in cbag}
            for u, w in cd:
                preds[w].add(u)
                succs[u].add(w)
            for states in itertools.product(*options):
                ins = {y for y, st in zip(cbag, states) if st == 1}
                outs = {y for y, st in zip(cbag, states) if st == 2}
                # closure: ancestors of in-arcs point at x too, successors
                # of out-arcs are reached from x, and every in/out pair is
                # already related (which also keeps D acyclic)
                if any(not preds[y] <= ins for y in ins):
                    continue
                if any(not succs[y] <= outs for y in outs):
                    continue
                if any((i2, o2) not in cd for i2 in ins for o2 in outs):
                    continue
                in_g = ins & nbrx
                out_g = outs & nbrx
                a_x = len(in_g)
                votes_in = [cv[pos[y]] for y in in_g]
                s_x = tuple(votes_in.count(c2) for c2 in self.alts[x])
                arcs = frozenset(
                    itertools.chain(
                        cd, ((y, x) for y in ins), ((x, y) for y in outs)
                    )
                )
                base_s = list(cs)
                base_a = list(ca)
                for y in out_g:
                    base_a[pos[y]] += 1
                for c in self.prefs[x]:
                    new_s = list(base_s)
                    for y in out_g:
                        k = self.altpos[y].get(c)
                        if k is not None:
                            row = list(new_s[pos[y]])
                            row[k] += 1
                            new_s[pos[y]] = tuple(row)
                    new_s.insert(px, s_x)
                    new_a = list(base_a)
                    new_a.insert(px, a_x)
                    v = cv[:px] + (c,) + cv[px:]
                    key = (v, arcs, tuple(new_s), tuple(new_a))
                    self._add(sl, key, self._combine(payload, self._value(x, c)))
        return sl

    def _forget(self, nd, child):
        x = nd.vertex
        child_bag = self.ntd.nodes[nd.children[0]].bag
        px = child_bag.index(x)
        p1x = self.p1[x]
        altpos = self.altpos[x]
        sl = {}
        for (cv, cd, cs, ca), payload in self._items(child):
            c = cv[px]
            svec = cs[px]
            ax = ca[px]
            # the voting rule for x, now that all its friends are below
            if c == p1x:
                if any(2 * sv > ax for sv in svec):
                    continue
            else:
                if 2 * svec[altpos[c]] <= ax:
                    continue
            v = cv[:px] + cv[px + 1:]
            s = cs[:px] + cs[px + 1:]
            a = ca[:px] + ca[px + 1:]
            arcs = frozenset((u, w) for u, w in cd if u != x and w != x)
            self._add(sl, (v, arcs, s, a), payload)
        return sl

    def _join(self, nd, left, right):
        bag = nd.bag
        pos = {y: k for k, y in enumerate(bag)}
        groups = {}
        for (v, d, s, a), payload in self._items(left):
            groups.setdefault((v, d), [[], []])[0].append((s, a, payload))
        for (v, d, s, a), payload in self._items(right):
            grp = groups.get((v, d))
            if grp is not None:
                grp[1].append((s, a, payload))
        sl = {}
        for (v, d), (lefts, rights) in groups.items():
            if not rights:
                continue
            # counted once per side, so the bag's own contribution and the
            # in-arc tallies inside the bag are subtracted once
            ov_a = []
            ov_s = []
            for x in bag:
                friends_in = [u for u, w in d if w == x and u in self.nbr[x]]
                ov_a.append(len(friends_in))
                votes = [v[pos[u]] for u in friends_in]
                ov_s.append(tuple(votes.count(c2) for c2 in self.alts[x]))
            if self.mode == "count":
                dup = tuple(
                    sum(1 for k, x in enumerate(bag) if v[k] == c)
                    for c in range(self.m)
                )
            else:
                dc, cc = self.pair
                dup = sum(
                    self.weight[x] * ((1 if v[k] == dc else 0) - (1 if v[k] == cc else 0))
                    for k, x in enumerate(bag)
                )
            for s1, a1, p1 in lefts:
                for s2, a2, p2 in rights:
                    s = tuple(
                        tuple(q1 + q2 - q0 for q1, q2, q0 in zip(r1, r2, r0))
                        for r1, r2, r0 in zip(s1, s2, ov_s)
                    )
                    a = tuple(q1 + q2 - q0 for q1, q2, q0 in zip(a1, a2, ov_a))
                    payload = self._subtract(self._combine(p1, p2), dup)
                    self._add(sl, (v, d, s, a), payload)
        return sl


def mutually_compatible(votes, dag, counts, influence, anterior, inst, bag):
    """Could these table-key components all come from one partial poll?

    `bag` lists the agents under consideration; `votes` maps each of
    them to a candidate label, `dag` is an iterable of (earlier, later)
    agent pairs over the bag, `influence` maps each bag agent to a
    mapping {candidate: votes already cast for it by friends} over its
    non-top preferred candidates, `anterior` maps each bag agent to the
    total number of friends that voted before it, and `counts` maps
    candidate labels to subtree vote counts (pass None for the margin
    variant, which stores no counts).

    The checks: votes are preferred; the dag is irreflexive, has no
    two-cycles, is transitively closed and orients every friendship
    edge inside the bag; influence rows are non-negative and sum to at
    most the anterior total; each anterior total lies between the
    agent's in-friends under the dag and its degree; agents whose whole
    neighborhood lies inside the bag get equalities instead of bounds
    and must satisfy the voting rule; counts are non-negative, dominate
    the bag's own votes and total at most the number of agents.

    Domain mismatches (keys that disagree with `bag`, unknown agents or
    candidate labels, arcs leaving the bag) raise; everything else is a
    boolean verdict.
    """
    bag = tuple(bag)
    bagset = set(bag)
    if len(bagset) != len(bag):
        raise PollInputError("bag repeats an agent")
    for x in bag:
        if not isinstance(x, int) or not 0 <= x < inst.n_agents:
            raise PollInputError("unknown agent %r in bag" % (x,))
    for mapping, what in ((votes, "votes"), (influence, "influence"),
                          (anterior, "anterior")):
        if set(mapping) != bagset:
            raise PollInputError("%s keys must match the bag exactly" % what)
    arcs = set()
    for u, w in dag:
        if u not in bagset or w not in bagset:
            raise PollInputError("dag arc (%r, %r) leaves the bag" % (u, w))
        arcs.add((u, w))
    known = inst.candidate_index
    for x in bag:
        if votes[x] not in known:
            raise PollInputError("unknown candidate %r" % (votes[x],))
        for c in influence[x]:
            if c not in known:
                raise PollInputError("unknown candidate %r" % (c,))
    if counts is not None:
        if isinstance(counts, ScoreFunction):
            counts = counts.as_dict()
        for c in counts:
            if c not in known:
                raise PollInputError("unknown candidate %r" % (c,))

    tables = _agent_tables(inst)
    _, top, alts, friends = tables
    v = tuple(known[votes[x]] for x in bag)
    rows = []
    for x in bag:
        labels = [inst.candidates[c] for c in alts[x]]
        if not set(influence[x]) <= set(labels):
            return False
        rows.append(tuple(influence[x].get(c, 0) for c in labels))
    ante = tuple(anterior[x] for x in bag)
    key = (v, arcs, tuple(rows), ante)
    cvec = None if counts is None else tuple(counts.get(c, 0) for c in inst.candidates)
    if not _keys_compatible(tables, bag, [(key, cvec)], counts is not None):
        return False
    # the voting rule, for agents whose whole neighborhood is in the bag
    for k, x in enumerate(bag):
        if not friends[x] <= bagset:
            continue
        if v[k] == top[x]:
            if any(2 * q > ante[k] for q in rows[k]):
                return False
        elif 2 * rows[k][alts[x].index(v[k])] <= ante[k]:
            return False
    return True


def achievable_scores_dp(inst, ntd, max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
    """All score functions some voting order can produce, computed over
    a nice tree decomposition. Requires unit weights."""
    if not inst.is_unweighted():
        raise UnsupportedModeError(
            "the achievable-scores program requires an unweighted instance"
        )
    validate_nice(graph_of(inst), ntd)
    engine = _Engine(inst, ntd, "count", max_table=max_table, trace=trace, stats=stats)
    root = engine.run()
    return frozenset(
        ScoreFunction(inst.candidates, key[4]) for key in root
    )


def possible_winner_dp(inst, ntd, c, max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
    """Decision only: can `c` co-win some voting order? Unit weights."""
    if c not in inst.candidate_index:
        raise PollInputError("unknown candidate %r" % (c,))
    ci = inst.candidate_index[c]
    for sf in achievable_scores_dp(inst, ntd, max_table=max_table, trace=trace, stats=stats):
        if sf.values[ci] == max(sf.values):
            return True
    return False


def max_margin_dp(inst, ntd, d, c, max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
    """Largest achievable weighted score(d) - score(c), any weights."""
    for label in (d, c):
        if label not in inst.candidate_index:
            raise PollInputError("unknown candidate %r" % (label,))
    validate_nice(graph_of(inst), ntd)
    return _margin(inst, ntd, d, c, max_table, trace, stats)


def _margin(inst, ntd, d, c, max_table, trace, stats):
    pair = (inst.candidate_index[d], inst.candidate_index[c])
    engine = _Engine(inst, ntd, "margin", pair=pair, max_table=max_table,
                     trace=trace, stats=stats)
    root = engine.run()
    if len(root) != 1:
        raise AssertionError("margin root table should hold exactly one value")
    return next(iter(root.values()))


def necessary_winner_dp(inst, ntd, c, max_table=DEFAULT_MAX_TABLE, trace=None, stats=None):
    """Does `c` co-win every voting order? Works for weighted instances.

    Returns (decision, offending): when the answer is no, `offending` is
    a candidate that can strictly beat `c` on some order.
    """
    if c not in inst.candidate_index:
        raise PollInputError("unknown candidate %r" % (c,))
    validate_nice(graph_of(inst), ntd)
    for d in inst.candidates:
        if d == c:
            continue
        if _margin(inst, ntd, d, c, max_table, trace, stats) > 0:
            return False, d
    return True, None
