"""Poll instances and the sequential voting model.

An instance is a social network of agents. Each agent has a set of
preferred candidates, a single top choice inside that set, and a
positive integer weight. Agents vote one at a time in some order. When
it is her turn, an agent looks at the friends who already voted: if
strictly more than half of them voted for one of her preferred
candidates, she votes for that candidate, otherwise she votes for her
top choice. Majorities are counted by number of agents; weights only
enter the scores.

A vote depends only on which friends precede the voter, not on their
relative order. Every voting order therefore induces an acyclic
orientation of the friendship graph, and two orders with the same
orientation produce identical outcomes. `simulate_orientation` exploits
this directly.

The rule itself is written once, in `_vote`, over candidate indexes:
an agent's (top, preferred, weight) row comes from `Instance.ballots`
and the votes of its preceding friends arrive as indexes. `choice`
calls it for one agent after turning the labels of `prior` into
indexes. `_cast_votes` calls it agent by agent along an order, for
`simulate_order` (a permutation) and `simulate_orientation` (an
acyclic orientation); `_simulation` turns the index votes back into
labels. The brute-force oracle calls `_vote` directly, once per vote
its incremental replay casts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property


class PollInputError(ValueError):
    """Malformed instance, order, orientation or generator input."""


class ResourceLimitError(RuntimeError):
    """An enumeration or table guard would be exceeded."""


class UnsupportedModeError(PollInputError):
    """The requested solver does not support this instance mode."""


_LABEL_FORBIDDEN = set(" \t\r\n,=")


def _check_label(label):
    if not isinstance(label, str) or not label:
        raise PollInputError("candidate labels must be non-empty strings")
    if label.startswith("#") or any(ch in _LABEL_FORBIDDEN for ch in label):
        raise PollInputError(
            "candidate label %r may not start with '#' or contain "
            "whitespace, ',' or '='" % label
        )


@dataclass(frozen=True)
class AgentPrefs:
    """One agent: top choice, preferred candidate set, positive weight."""

    top: str
    preferred: frozenset
    weight: int = 1

    def __post_init__(self):
        object.__setattr__(self, "preferred", frozenset(self.preferred))
        if not self.preferred:
            raise PollInputError("preferred set must be non-empty")
        if self.top not in self.preferred:
            raise PollInputError(
                "top choice %r is not in the preferred set" % (self.top,)
            )
        if not isinstance(self.weight, int) or self.weight < 1:
            raise PollInputError("weight must be a positive integer")


@dataclass(frozen=True)
class ScoreFunction:
    """Dense candidate scores, in instance candidate order.

    Storing every candidate, including those on zero, makes equality and
    hashing canonical, so sets of score functions compare exactly.
    """

    candidates: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.candidates) != len(self.values):
            raise PollInputError("score function length mismatch")

    def of(self, label):
        try:
            return self.values[self.candidates.index(label)]
        except ValueError:
            raise PollInputError("unknown candidate %r" % (label,)) from None

    def as_dict(self):
        return dict(zip(self.candidates, self.values))

    def total(self):
        return sum(self.values)


@dataclass(frozen=True)
class Instance:
    """A poll: candidates, agents, friendship edges, distinguished candidate.

    Agents are addressed by their index into `agents`. Edges are
    unordered pairs of agent ids, stored normalized as (low, high); self
    loops are rejected and duplicates collapse. `meta` carries optional
    generator bookkeeping and never takes part in equality.
    """

    candidates: tuple
    agents: tuple
    edges: frozenset
    distinguished: str
    name: str = "poll"
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.candidates:
            raise PollInputError("an instance needs at least one candidate")
        seen = set()
        for label in self.candidates:
            _check_label(label)
            if label in seen:
                raise PollInputError("duplicate candidate label %r" % label)
            seen.add(label)
        if self.distinguished not in seen:
            raise PollInputError(
                "distinguished candidate %r is not declared" % (self.distinguished,)
            )
        if not isinstance(self.name, str) or not self.name or any(
            ch.isspace() for ch in self.name
        ):
            raise PollInputError("instance name must be a single token")
        sizes = set()
        for i, ag in enumerate(self.agents):
            if not isinstance(ag, AgentPrefs):
                raise PollInputError("agent %d is not an AgentPrefs" % i)
            if not ag.preferred <= seen:
                unknown = sorted(ag.preferred - seen)
                raise PollInputError(
                    "agent %d prefers unknown candidate %r" % (i, unknown[0])
                )
            sizes.add(len(ag.preferred))
        if len(sizes) > 1:
            warnings.warn(
                "preferred sets have non-uniform sizes %s" % sorted(sizes),
                stacklevel=2,
            )
        n = len(self.agents)
        norm = set()
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise PollInputError("edge %r is not a pair" % (e,)) from None
            if u == v:
                raise PollInputError("self-loop edge at agent %r" % (u,))
            if not (0 <= u < n and 0 <= v < n):
                raise PollInputError("edge %r references an unknown agent" % (e,))
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @cached_property
    def adjacency(self):
        nbrs = [[] for _ in self.agents]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(b)) for b in nbrs)

    @cached_property
    def candidate_index(self):
        return {c: i for i, c in enumerate(self.candidates)}

    @cached_property
    def ballots(self):
        """Per agent (top, preferred, weight), candidates as indexes; the
        preferred indexes are sorted."""
        cidx = self.candidate_index
        return tuple(
            (cidx[ag.top], tuple(sorted(cidx[c] for c in ag.preferred)), ag.weight)
            for ag in self.agents
        )

    def neighbors(self, x):
        self._check_agent(x)
        return self.adjacency[x]

    def _check_agent(self, x):
        if not isinstance(x, int) or not 0 <= x < len(self.agents):
            raise PollInputError("unknown agent id %r" % (x,))

    @property
    def n_agents(self):
        return len(self.agents)

    def total_weight(self):
        return sum(ag.weight for ag in self.agents)

    def is_unweighted(self):
        return all(ag.weight == 1 for ag in self.agents)


@dataclass(frozen=True)
class Simulation:
    """Outcome of one complete poll: per-agent votes plus the scores."""

    votes: tuple
    scores: ScoreFunction


def _vote(top, preferred, prior):
    """The voting rule: the one tally-and-majority loop in the package.

    Candidates are indexes. `prior` lists the votes of the friends who
    voted before the agent; the agent copies a `preferred` candidate
    holding a strict majority of them, and votes `top` otherwise. At
    most one candidate can hold a strict majority, so the order of
    `preferred` does not matter.
    """
    total = len(prior)
    for c in preferred:
        if 2 * prior.count(c) > total:
            return c
    return top


def _cast_votes(inst, order, preceding, votes):
    """Agents vote in `order`; `preceding[x]` lists the friends of `x`
    that vote before it, and `votes` (indexable by agent id) holds their
    candidate indexes by then. Each vote is written into `votes`; the
    returned list holds the weighted scores of these voters, in
    candidate order.
    """
    scores = [0] * len(inst.candidates)
    ballots = inst.ballots
    for x in order:
        top, preferred, weight = ballots[x]
        vote = votes[x] = _vote(top, preferred, [votes[y] for y in preceding[x]])
        scores[vote] += weight
    return scores


def choice(inst, x, prior):
    """Vote of agent `x` given the votes `prior` of already-voted friends.

    `prior` maps friend ids to candidate labels. Returns the preferred
    candidate with a strict majority among `prior` when one exists and
    the top choice otherwise. At most one candidate can hold a strict
    majority, so the result is deterministic.
    """
    inst._check_agent(x)
    nbrs = set(inst.adjacency[x])
    for y in prior:
        if y not in nbrs:
            raise PollInputError(
                "agent %r in prior is not a friend of agent %d" % (y, x)
            )
    # a label outside the poll still counts towards the total
    cidx = inst.candidate_index
    top, preferred, _ = inst.ballots[x]
    vote = _vote(top, preferred, [cidx.get(c, -1) for c in prior.values()])
    return inst.candidates[vote]


def _simulation(inst, votes, scores):
    """Simulation from index votes and a score list."""
    labels = inst.candidates
    return Simulation(
        votes=tuple(labels[c] for c in votes),
        scores=ScoreFunction(inst.candidates, tuple(scores)),
    )


def _positions(inst, order):
    """Position of each agent in `order`, which must be a permutation."""
    n = len(inst.agents)
    if len(order) != n or sorted(order) != list(range(n)):
        raise PollInputError("order is not a permutation of the %d agents" % n)
    position = [0] * n
    for pos, x in enumerate(order):
        position[x] = pos
    return position


def simulate_order(inst, order):
    """Run the poll with agents voting in the given permutation."""
    order = tuple(order)
    position = _positions(inst, order)
    preceding = [
        [y for y in nbrs if position[y] < position[x]]
        for x, nbrs in enumerate(inst.adjacency)
    ]
    votes = [None] * len(order)
    return _simulation(inst, votes, _cast_votes(inst, order, preceding, votes))


def orientation_of(inst, order):
    """Acyclic orientation induced by an order: edges point earlier to later."""
    position = _positions(inst, tuple(order))
    return frozenset(
        (u, v) if position[u] < position[v] else (v, u) for u, v in inst.edges
    )


def _toposort(n, arcs_out, indegree):
    """Kahn's algorithm, smallest id first. Returns None on a cycle."""
    import heapq

    ready = [x for x in range(n) if indegree[x] == 0]
    heapq.heapify(ready)
    indeg = list(indegree)
    out = []
    while ready:
        x = heapq.heappop(ready)
        out.append(x)
        for y in arcs_out[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(ready, y)
    if len(out) != n:
        return None
    return out


def simulate_orientation(inst, orientation):
    """Run the poll for any order extending this acyclic orientation.

    The orientation must assign a direction to every friendship edge
    exactly once and be acyclic. Each agent's preceding friends are its
    in-neighbors, so the outcome matches `simulate_order` on every
    linear extension.
    """
    arcs = list(orientation)
    covered = set()
    for u, v in arcs:
        key = (min(u, v), max(u, v))
        if key not in inst.edges:
            raise PollInputError("arc (%r, %r) is not an instance edge" % (u, v))
        if key in covered:
            raise PollInputError("edge %r oriented twice" % (key,))
        covered.add(key)
    if covered != inst.edges:
        missing = sorted(inst.edges - covered)[0]
        raise PollInputError("edge %r left unoriented" % (missing,))
    # any topological order will do, so agents are taken breadth first
    n = len(inst.agents)
    preceding = [[] for _ in range(n)]
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        preceding[v].append(u)
        succ[u].append(v)
        indeg[v] += 1
    order = [x for x in range(n) if indeg[x] == 0]
    for x in order:
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                order.append(y)
    if len(order) != n:
        raise PollInputError("orientation contains a directed cycle")
    votes = [None] * n
    return _simulation(inst, votes, _cast_votes(inst, order, preceding, votes))


def winners(s):
    """Co-winners of a score function: no other candidate scores higher."""
    best = max(s.values)
    return frozenset(c for c, v in zip(s.candidates, s.values) if v == best)


def instance_union(i1, i2):
    """Disjoint union of two instances, unifying candidates by label.

    Agents of `i2` are re-indexed after those of `i1`. The distinguished
    candidate is taken from `i1`; a disagreement only warns because the
    union is still well formed.
    """
    candidates = list(i1.candidates)
    have = set(candidates)
    for c in i2.candidates:
        if c not in have:
            candidates.append(c)
            have.add(c)
    if i2.distinguished != i1.distinguished:
        warnings.warn(
            "distinguished candidates differ (%r vs %r), keeping %r"
            % (i1.distinguished, i2.distinguished, i1.distinguished),
            stacklevel=2,
        )
    shift = len(i1.agents)
    edges = set(i1.edges)
    edges.update((u + shift, v + shift) for u, v in i2.edges)
    return Instance(
        candidates=tuple(candidates),
        agents=i1.agents + i2.agents,
        edges=frozenset(edges),
        distinguished=i1.distinguished,
        name="%s+%s" % (i1.name, i2.name),
    )
