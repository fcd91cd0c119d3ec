"""Workload definitions: seeded poll instances, the CLI queries asked about
them, and the checks applied to every report.

A workload is a list of slots. Most slots draw one instance from a pool
of generator parameters stored in `pool.json`; `make_pool.py` filled
each pool with instances of nearly equal solver work (table entries or
orientations), so every seed costs about the same while still solving
different polls, and it stored their answers. L/R family unions are
drawn from the seed directly and checked against their closed form.

Why each workload exists, which layer it loads and which it leaves idle
is in BENCHMARK.json; `spans.LAYER_PREDICTIONS` records which end-to-end
metric each per-layer metric should move, and where.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from socialpolls.cli import render_instance
from socialpolls.model import AgentPrefs, Instance, instance_union, simulate_order
from socialpolls.reductions import gen_family, gen_random

POOL_FILE = Path(__file__).with_name("pool.json")

# ---------------------------------------------------------------- generators

def alternating_path(n):
    """Two-candidate path whose tops alternate a, b, a, ... (width 1)."""
    agents = tuple(
        AgentPrefs("a" if x % 2 == 0 else "b", frozenset(["a", "b"]))
        for x in range(n)
    )
    edges = frozenset((x, x + 1) for x in range(n - 1))
    return Instance(("a", "b"), agents, edges, "a", name="path-%d" % n)


def weighted_path(seed, n):
    """Two-candidate path with seeded tops and weights 1..9."""
    rng = random.Random(seed)
    cands = ("c1", "c2")
    agents = tuple(
        AgentPrefs(rng.choice(cands), frozenset(cands), rng.randint(1, 9))
        for _ in range(n)
    )
    edges = frozenset((x, x + 1) for x in range(n - 1))
    return Instance(cands, agents, edges, "c1", name="wpath-%d-%d" % (seed, n))


def padded(inst, c):
    """`inst` plus one isolated agent backing `c` with more weight than
    all other agents together, so `c` wins every order outright."""
    other = next(d for d in inst.candidates if d != c)
    extra = AgentPrefs(c, frozenset([c, other]), inst.total_weight() + 1)
    return Instance(inst.candidates, inst.agents + (extra,), inst.edges,
                    inst.distinguished, name=inst.name + "-pad")


def lr_union(i, j):
    """L_i + R_j: c* scores i, a scores j on every order."""
    return instance_union(gen_family("L", i), gen_family("R", j))


def build(gen):
    """Instance from a pool member's generator record."""
    kind = gen["kind"]
    if kind == "path":
        return alternating_path(gen["n"])
    if kind == "wpath":
        return weighted_path(gen["seed"], gen["n"])
    return gen_random(
        gen["seed"], gen["n"], gen["m"], edge_prob=gen["edge_prob"],
        forest=gen.get("forest", False), max_weight=gen.get("max_weight", 1),
    )


# ------------------------------------------------------------------ queries

@dataclass
class Query:
    """One CLI invocation and the answer it must produce.

    `expect` holds the answer known in advance: "scores" (count and
    digest of the score sets), "decision" or "width". `source` says where
    it came from: "bf", "closed-form" or "dp@<commit>".
    """

    qid: str
    command: str
    inst: Instance
    file: str
    method: str | None = None
    candidate: str | None = None
    expect: dict = field(default_factory=dict)
    source: str = ""

    def argv(self, out, dump_table=False):
        args = [self.command, "--instance", self.file, "--output", out]
        if self.candidate is not None:
            args += ["--candidate", self.candidate]
        if self.method is not None:
            args += ["--method", self.method]
            if dump_table and self.method == "dp":
                args.append("--dump-table")
        return args


def score_digest(sets):
    """Order-free digest of score vectors given as tuples."""
    text = ";".join(",".join(map(str, t)) for t in sorted(sets))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pool():
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _slot_queries(workload, slot, inst, member):
    """Queries a slot asks about its instance; `member` carries stored answers."""
    ans = member["answers"]
    src = member["source"]
    out = []

    def q(command, method=None, candidate=None, expect=None, source=src, target=None):
        out.append(Query(
            qid="%s/%s/%s%s" % (slot, command, method or "-",
                                "/" + candidate if candidate else ""),
            command=command, inst=target or inst, file="", method=method,
            candidate=candidate, expect=expect or {}, source=source,
        ))

    if workload == "thin-count":
        c = inst.distinguished
        q("scores", "dp", expect={"scores": ans["scores"]})
        q("possible", "dp", c, expect={"decision": ans["possible"][c]})
    elif workload == "weighted-margin":
        for k, c in enumerate(inst.candidates):
            if k % 2 == 0:
                q("necessary", "dp", c, expect={"decision": True},
                  source="closed-form", target=padded(inst, c))
                out[-1].qid += "/pad"
            else:
                q("necessary", "dp", c, expect={"decision": ans["necessary"][c]})
    elif workload == "bf-small":
        c = inst.distinguished
        q("scores", "bf", expect={"scores": ans["scores"]})
        q("possible", "bf", c, expect={"decision": ans["possible"][c]})
        q("necessary", "bf", c, expect={"decision": ans["necessary"][c]})
    elif workload == "large-thin":
        if member["gen"]["kind"] != "wpath":
            q("td", expect={"width": 1}, source="closed-form")
        c = inst.distinguished
        q("necessary", "dp", c, expect={"decision": ans["necessary"][c]})
    return out


def _union_queries(slot, rng):
    # a fixed total keeps the union's size, and so its cost, the same on
    # every seed, while the answer (i >= j) still varies
    i = rng.randint(8, 30)
    j = 38 - i
    inst = lr_union(i, j)
    cs = inst.candidate_index["c*"]
    vec = [0, 0]
    vec[cs], vec[1 - cs] = i, j
    scores = {"count": 1, "digest": score_digest([tuple(vec)])}
    return [
        Query("%s/scores/dp" % slot, "scores", inst, "", "dp",
              expect={"scores": scores}, source="closed-form"),
        Query("%s/possible/dp/c*" % slot, "possible", inst, "", "dp", "c*",
              expect={"decision": i >= j}, source="closed-form"),
    ]


def make_queries(workload, seed):
    """The workload's query list for `seed`, without instance files yet."""
    rng = random.Random("%s:%d" % (workload, seed))
    pool = _pool()[workload]
    queries = []
    if workload == "thin-count":
        for slot in ("union-1", "union-2"):
            queries += _union_queries(slot, rng)
    for slot in pool:
        member = rng.choice(slot["members"])
        inst = build(member["gen"])
        queries += _slot_queries(workload, slot["slot"], inst, member)
    return queries


def write_instances(queries, directory):
    """Render each distinct instance once and point its queries at the file."""
    files = {}
    for q in queries:
        key = id(q.inst)
        if key not in files:
            path = Path(directory) / ("inst-%d.poll" % len(files))
            path.write_text(render_instance(q.inst), encoding="utf-8")
            files[key] = str(path)
        q.file = files[key]


# ------------------------------------------------------------------- checks

def parse_report(text):
    """Report lines as (ordered key/value pairs, dump-table rows)."""
    pairs = []
    dump = []
    for line in text.splitlines():
        if line.startswith("node "):
            # node <i> type <kind> entries <k>
            toks = line.split()
            dump.append((int(toks[1]), toks[3], int(toks[5])))
            continue
        key, sep, value = line.partition(": ")
        if sep:
            pairs.append((key, value))
    return pairs, dump


def check(query, pairs):
    """Return None when the report is right, else a reason.

    Witnesses and counterexamples are re-simulated with
    `simulate_order`; everything else is compared with `query.expect`.
    """
    rep = dict(pairs)
    inst = query.inst
    exp = query.expect
    if query.command == "td":
        if int(rep.get("width", -1)) != exp["width"]:
            return "width %s, expected %d" % (rep.get("width"), exp["width"])
        return None
    if query.command == "scores":
        sets = []
        for key, value in pairs:
            if key.startswith("set "):
                sets.append(tuple(int(kv.partition("=")[2]) for kv in value.split()))
        if len(sets) != int(rep.get("count", -1)):
            return "count line disagrees with the listed sets"
        total = inst.total_weight()
        if any(sum(s) != total for s in sets):
            return "a score set does not sum to the total weight"
        want = exp["scores"]
        if len(sets) != want["count"] or score_digest(sets) != want["digest"]:
            return "score sets differ from the %s answer" % query.source
        return None
    decision = rep.get("decision")
    if decision not in ("YES", "NO"):
        return "no decision line"
    ok = decision == "YES"
    want = exp["decision"]
    if ok != want:
        return "decision %s, %s answer is %s" % (decision, query.source, want)
    cert = "witness" if query.command == "possible" else "counterexample"
    if cert in rep:
        order = tuple(int(t) for t in rep[cert].split(","))
        sim = simulate_order(inst, order).scores
        for c in inst.candidates:
            if int(rep.get("%s score %s" % (cert, c), -1)) != sim.of(c):
                return "%s scores differ from re-simulation" % cert
        wins = sim.of(query.candidate) == max(sim.values)
        if wins != (query.command == "possible"):
            return "%s order does not certify the decision" % cert
    elif query.method == "bf" and (query.command == "possible") == ok:
        return "brute force gave no %s" % cert
    return None
