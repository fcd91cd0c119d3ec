"""Hardness-reduction instance generators and witness orders.

Three reductions map classic problems onto polls whose distinguished
candidate can win exactly when the source problem is a yes-instance:
number partition (weighted, paths of three agents), 3-element hitting
set (unweighted, bipartite graph), and (3,3)-CNF satisfiability
(unweighted, disjoint single edges). Each generator has a companion
that turns a certificate of the source problem into a concrete voting
order. The L/R path families exercise winner determination on disjoint
unions of paths.

Agent ids follow a fixed layout per reduction (blocks of 3, 4 or 2
agents per source item, padding at the end); the layout is recorded in
the instance metadata so callers can address gadgets directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import AgentPrefs, Instance, PollInputError


@dataclass(frozen=True)
class PartitionInput:
    """Multiset of positive integers with an even total."""

    numbers: tuple

    def __post_init__(self):
        object.__setattr__(self, "numbers", tuple(self.numbers))
        if not self.numbers:
            raise PollInputError("partition input needs at least one number")
        for k in self.numbers:
            if not isinstance(k, int) or k <= 0:
                raise PollInputError("partition numbers must be positive integers")

    @property
    def total(self):
        return sum(self.numbers)


@dataclass(frozen=True)
class HittingSetInput:
    """Ground set {0..n_elements-1}, sets of exactly 3 elements, budget."""

    n_elements: int
    sets: tuple
    budget: int

    def __post_init__(self):
        if not isinstance(self.n_elements, int) or self.n_elements <= 0:
            raise PollInputError("ground set size must be a positive integer")
        sets = tuple(tuple(sorted(set(s))) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        if len(sets) < 2:
            raise PollInputError("hitting-set input needs at least 2 sets")
        for s in sets:
            if len(s) != 3:
                raise PollInputError("every set must contain exactly 3 elements")
            for q in s:
                if not isinstance(q, int) or not 0 <= q < self.n_elements:
                    raise PollInputError(
                        "set element %r outside ground set of size %d"
                        % (q, self.n_elements)
                    )
        if not isinstance(self.budget, int) or self.budget <= 0:
            raise PollInputError("budget must be a positive integer")

    @property
    def n_sets(self):
        return len(self.sets)


@dataclass(frozen=True)
class CnfInput:
    """CNF formula over variables 1..n_vars, clauses as DIMACS literals.

    A positive literal i means variable i, a negative literal -i its
    negation. The dataclass only checks literal ranges; the structural
    limits (clause sizes 2..3, both polarities, at most 3 occurrences
    per variable) are enforced by gen_sat_upw after preprocessing.
    """

    n_vars: int
    clauses: tuple

    def __post_init__(self):
        if not isinstance(self.n_vars, int) or self.n_vars <= 0:
            raise PollInputError("a formula needs at least one variable")
        clauses = tuple(tuple(cl) for cl in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        for cl in clauses:
            for lit in cl:
                if not isinstance(lit, int) or lit == 0 or abs(lit) > self.n_vars:
                    raise PollInputError(
                        "literal %r outside variable range 1..%d" % (lit, self.n_vars)
                    )

    @property
    def n_clauses(self):
        return len(self.clauses)


@dataclass(frozen=True)
class ReductionParams:
    """Padding sizes for the hitting-set reduction.

    big_b is the baseline count of isolated padding agents, big_d the
    length of each set chain. None means the scale-safe defaults n**9
    and n**4. The generator checks big_d > t and big_b >= k + big_d*t
    and big_b >= 2k, which is what the score accounting needs; smaller
    values than the defaults are fine as long as those hold.
    """

    big_b: int = None
    big_d: int = None

    def __post_init__(self):
        for v in (self.big_b, self.big_d):
            if v is not None and (not isinstance(v, int) or v <= 0):
                raise PollInputError("padding parameters must be positive integers")

    def resolve(self, n_elements, n_sets, budget):
        big_b = self.big_b if self.big_b is not None else n_elements**9
        big_d = self.big_d if self.big_d is not None else n_elements**4
        if big_d <= n_sets:
            raise PollInputError(
                "chain length big_d=%d must exceed the number of sets t=%d"
                % (big_d, n_sets)
            )
        if big_b < budget + big_d * n_sets:
            raise PollInputError(
                "big_b=%d < k + big_d*t = %d, isolated a-count would be negative"
                % (big_b, budget + big_d * n_sets)
            )
        if big_b < 2 * budget:
            raise PollInputError(
                "big_b=%d < 2k = %d, isolated b-count would be negative"
                % (big_b, 2 * budget)
            )
        return big_b, big_d


def gen_partition_wpw(p, big_b=None):
    """Weighted possible-winner instance for a number-partition input.

    Number k_j becomes a path of three agents 3j, 3j+1, 3j+2 with
    preferences (c,{c,b}), (a,{a,c}), (b,{b,c}) and weights 1, 1,
    k_j*big_b. One isolated agent 3n with preferences (a,{a,c}) carries
    weight K*big_b + 2n, K = half the total.

    Every path votes (c,c,c) or (c,a,b), so with J the set of b-voting
    paths the scores are a = K*big_b + 2n + |J|, b = big_b * sum(J),
    c = big_b * (2K - sum(J)) + 2n - |J|. Candidate a wins exactly for
    an equal split provided big_b > 3n; a subset summing to K+1 would
    otherwise reach a tie through the |J| term. The default is 3n+1;
    smaller values are accepted but weaken the no-direction.
    """
    numbers = p.numbers
    if p.total % 2 != 0:
        raise PollInputError("partition numbers must have an even total")
    n = len(numbers)
    if big_b is None:
        big_b = 3 * n + 1
    if not isinstance(big_b, int) or big_b <= 0:
        raise PollInputError("big_b must be a positive integer")
    half = p.total // 2
    agents = []
    edges = []
    for j, k in enumerate(numbers):
        agents.append(AgentPrefs("c", frozenset(["c", "b"]), 1))
        agents.append(AgentPrefs("a", frozenset(["a", "c"]), 1))
        agents.append(AgentPrefs("b", frozenset(["b", "c"]), k * big_b))
        edges.append((3 * j, 3 * j + 1))
        edges.append((3 * j + 1, 3 * j + 2))
    agents.append(AgentPrefs("a", frozenset(["a", "c"]), half * big_b + 2 * n))
    meta = {
        "kind": "partition",
        "big_b": big_b,
        "half_total": half,
        "n_numbers": n,
        "isolated_id": 3 * n,
    }
    return Instance(
        candidates=("a", "b", "c"),
        agents=tuple(agents),
        edges=frozenset(edges),
        distinguished="a",
        name="partition-%d" % n,
        meta=meta,
    )


def witness_order_partition(p, chosen):
    """Voting order certifying candidate a for an equal split.

    `chosen` is a set of indexes into p.numbers whose values sum to
    half the total. Their paths vote head first (3j, 3j+1, 3j+2), so
    all three agents copy c; the remaining paths vote middle first
    (3j+1, 3j, 3j+2), splitting into a, c, b; the isolated agent closes.
    """
    numbers = p.numbers
    if p.total % 2 != 0:
        raise PollInputError("partition numbers must have an even total")
    half = p.total // 2
    chosen = set(chosen)
    for j in chosen:
        if not isinstance(j, int) or not 0 <= j < len(numbers):
            raise PollInputError("chosen index %r out of range" % (j,))
    picked = sum(numbers[j] for j in chosen)
    if picked != half:
        raise PollInputError(
            "chosen numbers sum to %d, need half the total %d" % (picked, half)
        )
    order = []
    for j in sorted(chosen):
        order += [3 * j, 3 * j + 1, 3 * j + 2]
    for j in range(len(numbers)):
        if j not in chosen:
            order += [3 * j + 1, 3 * j, 3 * j + 2]
    order.append(3 * len(numbers))
    return tuple(order)


def gen_hitting_set_upw(h, params=None):
    """Unweighted possible-winner instance for a 3-hitting-set input.

    Element j becomes a path of four agents 4j..4j+3 with preferences
    (c,{c,b}), (a,{a,c}), (b,{b,c}), (b,{b,c}). Each set grows a chain
    of big_d agents with preferences (b,{b,a}); the chain head is
    friends with agent 4h+1 of every element h in the set. Padding:
    big_b - k - big_d*t isolated (a,{a,c}) agents, then big_b - 2k
    isolated (b,{b,c}) agents. The graph is bipartite.
    """
    if params is None:
        params = ReductionParams()
    big_b, big_d = params.resolve(h.n_elements, h.n_sets, h.budget)
    n, t, k = h.n_elements, h.n_sets, h.budget
    agents = []
    edges = []
    for j in range(n):
        agents.append(AgentPrefs("c", frozenset(["c", "b"])))
        agents.append(AgentPrefs("a", frozenset(["a", "c"])))
        agents.append(AgentPrefs("b", frozenset(["b", "c"])))
        agents.append(AgentPrefs("b", frozenset(["b", "c"])))
        edges += [(4 * j, 4 * j + 1), (4 * j + 1, 4 * j + 2), (4 * j + 2, 4 * j + 3)]
    set_heads = []
    for i, s in enumerate(h.sets):
        head = 4 * n + big_d * i
        set_heads.append(head)
        for p in range(big_d):
            agents.append(AgentPrefs("b", frozenset(["b", "a"])))
            if p > 0:
                edges.append((head + p - 1, head + p))
        for q in s:
            edges.append((head, 4 * q + 1))
    iso_a_lo = 4 * n + big_d * t
    for _ in range(big_b - k - big_d * t):
        agents.append(AgentPrefs("a", frozenset(["a", "c"])))
    iso_b_lo = iso_a_lo + (big_b - k - big_d * t)
    for _ in range(big_b - 2 * k):
        agents.append(AgentPrefs("b", frozenset(["b", "c"])))
    meta = {
        "kind": "hitting-set",
        "big_b": big_b,
        "big_d": big_d,
        "n_elements": n,
        "n_sets": t,
        "budget": k,
        "set_heads": set_heads,
        "isolated_a_range": (iso_a_lo, iso_b_lo),
        "isolated_b_range": (iso_b_lo, len(agents)),
    }
    return Instance(
        candidates=("a", "b", "c"),
        agents=tuple(agents),
        edges=frozenset(edges),
        distinguished="a",
        name="hitting-%dx%d" % (n, t),
        meta=meta,
    )


def witness_order_hitting(h, params, hitting):
    """Voting order built from a hitting set, phase by phase.

    Phase 1: paths of hit elements, middle agent first (4j+1, 4j,
    4j+2, 4j+3). Phase 2: every set chain head to tail; all chain
    agents copy a because all their already-voted friends did. Phase 3:
    remaining element paths head first (4j, 4j+1, 4j+2, 4j+3). Phase 4:
    isolated agents in id order.
    """
    if params is None:
        params = ReductionParams()
    big_b, big_d = params.resolve(h.n_elements, h.n_sets, h.budget)
    n, t, k = h.n_elements, h.n_sets, h.budget
    hitting = set(hitting)
    if not hitting:
        raise PollInputError("the hitting set must be non-empty")
    for q in hitting:
        if not isinstance(q, int) or not 0 <= q < n:
            raise PollInputError("hitting-set element %r out of range" % (q,))
    if len(hitting) > k:
        raise PollInputError(
            "hitting set of size %d exceeds the budget %d" % (len(hitting), k)
        )
    for s in h.sets:
        if not hitting.intersection(s):
            raise PollInputError("set %r is not hit" % (s,))
    order = []
    for j in sorted(hitting):
        order += [4 * j + 1, 4 * j, 4 * j + 2, 4 * j + 3]
    for i in range(t):
        head = 4 * n + big_d * i
        order += list(range(head, head + big_d))
    for j in range(n):
        if j not in hitting:
            order += [4 * j, 4 * j + 1, 4 * j + 2, 4 * j + 3]
    order += list(range(4 * n + big_d * t, 4 * n + 2 * big_b - 3 * k))
    return tuple(order)


def _normalize_cnf(f):
    """Drop duplicate literals and tautological clauses; reject empty ones."""
    clauses = []
    for cl in f.clauses:
        seen = []
        for lit in cl:
            if lit not in seen:
                seen.append(lit)
        if not seen:
            raise PollInputError("empty clause: the formula is unsatisfiable")
        if any(-lit in seen for lit in seen):
            continue
        clauses.append(tuple(seen))
    return clauses


def _propagate(clauses):
    """Unit propagation and pure-literal elimination to a fixed point.

    Returns the surviving clauses over the original variable numbers.
    A derived conflict or a formula satisfied away by propagation has
    no reduction image, so both raise.
    """
    clauses = list(clauses)
    forced = {}
    while True:
        unit = None
        for cl in clauses:
            if len(cl) == 1:
                unit = cl[0]
                break
        if unit is None:
            polarity = {}
            for cl in clauses:
                for lit in cl:
                    polarity.setdefault(abs(lit), set()).add(lit > 0)
            pure = [v for v, pol in polarity.items() if len(pol) == 1]
            if not pure:
                break
            v = pure[0]
            unit = v if True in polarity[v] else -v
        var, val = abs(unit), unit > 0
        if var in forced and forced[var] != val:
            raise PollInputError("unit propagation found a conflict")
        forced[var] = val
        nxt = []
        for cl in clauses:
            if unit in cl:
                continue
            reduced = tuple(lit for lit in cl if lit != -unit)
            if not reduced:
                raise PollInputError("unit propagation found a conflict")
            nxt.append(reduced)
        clauses = nxt
    if not clauses:
        raise PollInputError(
            "preprocessing satisfied the whole formula, nothing to reduce"
        )
    return clauses


def _check_33(clauses, n_vars, require_all_vars):
    occurrences = {}
    polarity = {}
    for cl in clauses:
        if len(cl) == 1:
            raise PollInputError("unit clause %r not allowed" % (cl,))
        if len(cl) > 3:
            raise PollInputError("clause %r has more than 3 literals" % (cl,))
        for lit in cl:
            occurrences[abs(lit)] = occurrences.get(abs(lit), 0) + 1
            polarity.setdefault(abs(lit), set()).add(lit > 0)
    for v, cnt in occurrences.items():
        if cnt > 3:
            raise PollInputError("variable %d occurs %d times, limit is 3" % (v, cnt))
        if len(polarity[v]) == 1:
            raise PollInputError("variable %d is a pure literal" % v)
    if require_all_vars:
        for v in range(1, n_vars + 1):
            if v not in occurrences:
                raise PollInputError("variable %d never occurs" % v)


def _prepare_cnf(f, preprocess):
    """Shared normalization pipeline; returns (clauses, var_map).

    var_map sends surviving original variables to consecutive new
    numbers 1..n'. Without preprocessing it is the identity and every
    declared variable must occur.
    """
    clauses = _normalize_cnf(f)
    if preprocess:
        clauses = _propagate(clauses)
        alive = sorted({abs(lit) for cl in clauses for lit in cl})
        var_map = {v: i + 1 for i, v in enumerate(alive)}
    else:
        if not clauses:
            raise PollInputError("the formula has no clauses left")
        var_map = {v: v for v in range(1, f.n_vars + 1)}
    clauses = [
        tuple((1 if lit > 0 else -1) * var_map[abs(lit)] for lit in cl)
        for cl in clauses
    ]
    _check_33(clauses, len(var_map), require_all_vars=not preprocess)
    return clauses, var_map


def _lit_label(lit):
    return ("x%d" if lit > 0 else "nx%d") % abs(lit)


def gen_sat_upw(f, preprocess=True):
    """Unweighted possible-winner instance for a (3,3)-CNF formula.

    Variable i becomes a friend pair 2(i-1), 2(i-1)+1 with preferences
    (x_i,{x_i,nx_i}) and (nx_i,{x_i,nx_i}); whoever votes first drags
    the other along. Clause j becomes one friend pair per literal l:
    a collector (c_j,{c_j,d}) and a literal agent (l,{l,c_j}); clauses
    of two literals add two isolated (c_j,{c_j,d}) dummies so every
    clause block spans six ids. Then 3 isolated (l,{l,d}) agents per
    literal and 5 isolated (a,{a,d}) agents. Candidate a starts at 5
    points and wins exactly when no clause collector can be kept at 5
    or below, which happens exactly for satisfiable formulas.

    With preprocess=True (default) unit clauses and pure literals are
    eliminated first and surviving variables renumbered; otherwise the
    formula must already satisfy the structural limits.
    """
    clauses, var_map = _prepare_cnf(f, preprocess)
    n = len(var_map)
    m = len(clauses)
    candidates = []
    for i in range(1, n + 1):
        candidates += ["x%d" % i, "nx%d" % i]
    candidates += ["c%d" % (j + 1) for j in range(m)]
    candidates += ["d", "a"]
    agents = []
    edges = []
    for i in range(1, n + 1):
        pair = frozenset(["x%d" % i, "nx%d" % i])
        agents.append(AgentPrefs("x%d" % i, pair))
        agents.append(AgentPrefs("nx%d" % i, pair))
        edges.append((2 * (i - 1), 2 * (i - 1) + 1))
    clause_base = []
    for j, cl in enumerate(clauses):
        base = 2 * n + 6 * j
        clause_base.append(base)
        cj = "c%d" % (j + 1)
        for g, lit in enumerate(cl):
            lab = _lit_label(lit)
            agents.append(AgentPrefs(cj, frozenset([cj, "d"])))
            agents.append(AgentPrefs(lab, frozenset([lab, cj])))
            edges.append((base + 2 * g, base + 2 * g + 1))
        for _ in range(6 - 2 * len(cl)):
            agents.append(AgentPrefs(cj, frozenset([cj, "d"])))
    iso_lit_base = 2 * n + 6 * m
    for i in range(1, n + 1):
        for lab in ("x%d" % i, "nx%d" % i):
            for _ in range(3):
                agents.append(AgentPrefs(lab, frozenset([lab, "d"])))
    for _ in range(5):
        agents.append(AgentPrefs("a", frozenset(["a", "d"])))
    meta = {
        "kind": "sat",
        "n_vars": n,
        "n_clauses": m,
        "clauses": tuple(clauses),
        "var_map": var_map,
        "clause_base": clause_base,
        "isolated_literal_base": iso_lit_base,
    }
    return Instance(
        candidates=tuple(candidates),
        agents=tuple(agents),
        edges=frozenset(edges),
        distinguished="a",
        name="sat-%dv%dc" % (n, m),
        meta=meta,
    )


def witness_order_sat(f, assignment, preprocess=True):
    """Voting order certifying candidate a for a satisfying assignment.

    `assignment` assigns a boolean to every variable of the original
    formula (index i-1 for variable i). Phase 1: per variable the agent
    whose top choice is the false literal, so the pair wastes both
    votes there. Phase 2: per clause, literal pairs with the literal
    agent first when the literal is true (collector stays at +1) and
    collector first otherwise (+2). Phase 3: everyone else in id order.
    """
    assignment = tuple(bool(v) for v in assignment)
    if len(assignment) != f.n_vars:
        raise PollInputError(
            "assignment has %d values, formula has %d variables"
            % (len(assignment), f.n_vars)
        )

    def sat(lit):
        return assignment[abs(lit) - 1] == (lit > 0)

    for cl in _normalize_cnf(f):
        if not any(sat(lit) for lit in cl):
            raise PollInputError("assignment does not satisfy clause %r" % (cl,))
    clauses, var_map = _prepare_cnf(f, preprocess)
    inv = {new: old for old, new in var_map.items()}
    n = len(var_map)
    order = []
    for i in range(1, n + 1):
        base = 2 * (i - 1)
        order.append(base + 1 if assignment[inv[i] - 1] else base)
    for j, cl in enumerate(clauses):
        base = 2 * n + 6 * j
        for g, lit in enumerate(cl):
            if assignment[inv[abs(lit)] - 1] == (lit > 0):
                order += [base + 2 * g + 1, base + 2 * g]
            else:
                order += [base + 2 * g, base + 2 * g + 1]
        order += range(base + 2 * len(cl), base + 6)
    used = set(order)
    order += (x for x in range(8 * n + 6 * len(clauses) + 5) if x not in used)
    return tuple(order)


def gen_family(kind, length):
    """Path family L_i or R_i over candidates c* and a.

    Both kinds are a single path of `length` agents, every agent with
    preferred set {c*, a}; L tops c*, R tops a. Votes never change along
    the path, so L_i scores i for c* and R_j scores j for a, and c*
    wins the union L_i + R_j exactly when i >= j.
    """
    if kind not in ("L", "R"):
        raise PollInputError("family kind must be 'L' or 'R'")
    if not isinstance(length, int) or length <= 0:
        raise PollInputError("family length must be a positive integer")
    top = "c*" if kind == "L" else "a"
    prefs = frozenset(["c*", "a"])
    agents = tuple(AgentPrefs(top, prefs) for _ in range(length))
    edges = frozenset((x, x + 1) for x in range(length - 1))
    return Instance(
        candidates=("c*", "a"),
        agents=agents,
        edges=edges,
        distinguished="c*",
        name="%s%d" % (kind, length),
        meta={"kind": "family", "family": kind, "lengths": (length,)},
    )


def gen_family_multi(kind, lengths):
    """Disjoint-path family with one candidate a_j per path.

    L takes paths P_{i_1}..P_{i_{k-1}}; path j has preferences
    {c*, a_j} and top a_j. R takes one more path: the first k-1 as in
    L, the last with preferences {c*, a_1} and top c*. R therefore
    needs at least two paths.
    """
    if kind not in ("L", "R"):
        raise PollInputError("family kind must be 'L' or 'R'")
    lengths = tuple(lengths)
    if not lengths or any(not isinstance(i, int) or i <= 0 for i in lengths):
        raise PollInputError("path lengths must be positive integers")
    if kind == "R" and len(lengths) < 2:
        raise PollInputError("an R family needs at least two paths")
    n_named = len(lengths) if kind == "L" else len(lengths) - 1
    candidates = ("c*",) + tuple("a%d" % (j + 1) for j in range(max(n_named, 1)))
    agents = []
    edges = []
    for j, ln in enumerate(lengths):
        if kind == "R" and j == len(lengths) - 1:
            top, other = "c*", "a1"
        else:
            top = other = "a%d" % (j + 1)
        prefs = frozenset(["c*", other])
        base = len(agents)
        for x in range(ln):
            agents.append(AgentPrefs(top, prefs))
            if x:
                edges.append((base + x - 1, base + x))
    return Instance(
        candidates=candidates,
        agents=tuple(agents),
        edges=frozenset(edges),
        distinguished="c*",
        name="%s-%s" % (kind, "-".join(map(str, lengths))),
        meta={"kind": "family", "family": kind, "lengths": lengths},
    )


def gen_random(
    seed,
    n_agents,
    n_candidates,
    edge_prob=0.3,
    forest=False,
    pref_size=2,
    max_weight=1,
):
    """Random instance for cross-checks; deterministic in the seed.

    forest=True attaches each agent to at most one earlier agent, which
    keeps every component a tree. Preferred sets have pref_size
    candidates (capped at n_candidates) and always contain the top.
    """
    if n_agents <= 0 or n_candidates <= 0:
        raise PollInputError("need at least one agent and one candidate")
    if not 0.0 <= edge_prob <= 1.0:
        raise PollInputError("edge probability must lie in [0, 1]")
    if pref_size <= 0 or max_weight <= 0:
        raise PollInputError("pref_size and max_weight must be positive")
    rng = random.Random(seed)
    candidates = tuple("c%d" % (i + 1) for i in range(n_candidates))
    size = min(pref_size, n_candidates)
    agents = []
    for _ in range(n_agents):
        prefs = rng.sample(candidates, size)
        agents.append(
            AgentPrefs(rng.choice(prefs), frozenset(prefs), rng.randint(1, max_weight))
        )
    edges = set()
    if forest:
        for x in range(1, n_agents):
            if rng.random() < edge_prob:
                edges.add((rng.randrange(x), x))
    else:
        for x in range(n_agents):
            for y in range(x + 1, n_agents):
                if rng.random() < edge_prob:
                    edges.add((x, y))
    return Instance(
        candidates=candidates,
        agents=tuple(agents),
        edges=frozenset(edges),
        distinguished=rng.choice(candidates),
        name="random-%s" % seed,
        meta={"kind": "random", "seed": seed},
    )


def parse_dimacs(text):
    """Parse DIMACS CNF text into a CnfInput."""
    n_vars = None
    declared = None
    literals = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith("%"):
            break    # SATLIB files end with a '%' line, then a lone '0'
        if not line or line[0] == "c":
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise PollInputError("line %d: malformed problem line %r" % (ln, line))
            if n_vars is not None:
                raise PollInputError("line %d: duplicate problem line" % ln)
            try:
                n_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise PollInputError("line %d: problem line needs integers" % ln)
            continue
        if n_vars is None:
            raise PollInputError("line %d: clause before the problem line" % ln)
        for tok in line.split():
            try:
                literals.append(int(tok))
            except ValueError:
                raise PollInputError("line %d: bad literal %r" % (ln, tok))
    if n_vars is None:
        raise PollInputError("missing 'p cnf' problem line")
    clauses = []
    current = []
    for lit in literals:
        if lit == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise PollInputError("last clause is not terminated by 0")
    if len(clauses) != declared:
        raise PollInputError(
            "problem line declares %d clauses, found %d" % (declared, len(clauses))
        )
    return CnfInput(n_vars=n_vars, clauses=tuple(clauses))


def parse_hitting_sets(text, budget=None):
    """Parse `set q_a q_b q_c` lines into a HittingSetInput.

    Element labels are arbitrary tokens; they are sorted and numbered
    0..n-1. An optional `budget <k>` line (or the keyword argument,
    which wins) supplies the budget; '#' starts a comment.
    """
    raw_sets = []
    file_budget = None
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "set":
            if len(parts) != 4:
                raise PollInputError("line %d: a set needs exactly 3 elements" % ln)
            raw_sets.append(parts[1:])
        elif parts[0] == "budget":
            if len(parts) != 2:
                raise PollInputError("line %d: budget needs one integer" % ln)
            try:
                file_budget = int(parts[1])
            except ValueError:
                raise PollInputError("line %d: bad budget %r" % (ln, parts[1]))
        else:
            raise PollInputError("line %d: unknown directive %r" % (ln, parts[0]))
    if budget is None:
        budget = file_budget
    if budget is None:
        raise PollInputError("no budget given (add a 'budget <k>' line)")
    labels = sorted({q for s in raw_sets for q in s})
    index = {q: i for i, q in enumerate(labels)}
    sets = tuple(tuple(index[q] for q in s) for s in raw_sets)
    return HittingSetInput(n_elements=len(labels), sets=sets, budget=budget)


def parse_partition_numbers(text):
    """Parse whitespace or comma separated integers into a PartitionInput."""
    numbers = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0]
        for tok in line.replace(",", " ").split():
            try:
                numbers.append(int(tok))
            except ValueError:
                raise PollInputError("line %d: bad number %r" % (ln, tok))
    return PartitionInput(numbers=tuple(numbers))
