"""Command-line front end: instance files, solver dispatch, generators.

Instances travel as line-oriented text documents:

    poll <name>
    candidates <label> <label> ...
    distinguished <label>
    agent <id> top=<label> prefs=<label>,<label>... [weight=<int>]
    edge <id> <id>

Tokens are whitespace-separated and a token starting with '#' comments
out the rest of the line. Agent ids must be exactly 0..n-1. Rendering
is canonical (agents by id, edges sorted, prefs in candidate order,
weight omitted when 1), so render(parse(render(x))) == render(x).
`td` reports print the decomposition as one `bag <id> <vertex>*` line
per bag, then one `treeedge <id> <id>` line per tree edge. The package's
text formats all live here, apart from the reduction input files that
`reductions` parses.

Reports are one `key: value` pair per line. Exit codes: 0 clean run,
1 usage, parse or cross-check failure, 2 a NO decision under
--strict-exit, 3 a resource guard refused the run.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .dpsolver import (
    DEFAULT_MAX_TABLE,
    achievable_scores_dp,
    necessary_winner_dp,
    possible_winner_dp,
)
from .graphkit import exact_td_small, heuristic_td, make_nice
from .model import (
    AgentPrefs,
    Instance,
    PollInputError,
    ResourceLimitError,
    simulate_order,
    winners,
)
from .oracle import (
    DEFAULT_MAX_ORIENTATIONS,
    achievable_scores_bf,
    necessary_winner_bf,
    possible_winner_bf,
)
from . import reductions


def line_tokens(line):
    """The whitespace-separated tokens of a document line, up to the
    first one that starts with '#'."""
    toks = []
    for tok in line.split():
        if tok.startswith("#"):
            break
        toks.append(tok)
    return toks


def parse_instance(text):
    """Parse an instance document; errors carry the offending line."""
    name = None
    candidates = None
    distinguished = None
    agents = {}
    agent_lines = {}
    edges = {}
    for ln, line in enumerate(text.splitlines(), 1):
        toks = line_tokens(line)
        if not toks:
            continue
        kind = toks[0]
        if kind == "poll":
            if len(toks) != 2:
                raise PollInputError("line %d: poll takes one name" % ln)
            if name is not None:
                raise PollInputError("line %d: duplicate poll line" % ln)
            name = toks[1]
        elif kind == "candidates":
            if candidates is not None:
                raise PollInputError("line %d: duplicate candidates line" % ln)
            if len(toks) < 2:
                raise PollInputError("line %d: candidates needs at least one label" % ln)
            candidates = tuple(toks[1:])
        elif kind == "distinguished":
            if len(toks) != 2:
                raise PollInputError("line %d: distinguished takes one label" % ln)
            if distinguished is not None:
                raise PollInputError("line %d: duplicate distinguished line" % ln)
            distinguished = toks[1]
        elif kind == "agent":
            _parse_agent(toks, ln, agents, agent_lines)
        elif kind == "edge":
            if len(toks) != 3:
                raise PollInputError("line %d: edge takes two agent ids" % ln)
            try:
                x, y = int(toks[1]), int(toks[2])
            except ValueError:
                raise PollInputError("line %d: edge ids must be integers" % ln)
            if x == y:
                raise PollInputError("line %d: self loop at agent %d" % (ln, x))
            key = (min(x, y), max(x, y))
            if key in edges:
                raise PollInputError(
                    "line %d: duplicate edge %d %d (first on line %d)"
                    % (ln, x, y, edges[key])
                )
            edges[key] = ln
        else:
            raise PollInputError("line %d: unknown directive %r" % (ln, kind))
    if candidates is None:
        raise PollInputError("missing candidates line")
    if distinguished is None:
        raise PollInputError("missing distinguished line")
    n = len(agents)
    for i in sorted(agents):
        if not 0 <= i < n:
            raise PollInputError(
                "line %d: agent ids must be exactly 0..%d, got %d"
                % (agent_lines[i], n - 1, i)
            )
    known = set(candidates)
    for i in sorted(agents):
        prefs = agents[i]
        bad = [c for c in prefs.preferred if c not in known]
        if bad:
            raise PollInputError(
                "line %d: unknown candidate label %r" % (agent_lines[i], bad[0])
            )
    for (x, y), ln in sorted(edges.items()):
        if not 0 <= x < n or not 0 <= y < n:
            raise PollInputError("line %d: edge references unknown agent" % ln)
    return Instance(
        candidates=candidates,
        agents=tuple(agents[i] for i in range(n)),
        edges=frozenset(edges),
        distinguished=distinguished,
        name=name if name is not None else "poll",
    )


def _parse_agent(toks, ln, agents, agent_lines):
    if len(toks) < 3:
        raise PollInputError("line %d: agent needs an id, top= and prefs=" % ln)
    try:
        aid = int(toks[1])
    except ValueError:
        raise PollInputError("line %d: agent id must be an integer" % ln)
    if aid in agents:
        raise PollInputError(
            "line %d: duplicate agent id %d (first on line %d)"
            % (ln, aid, agent_lines[aid])
        )
    top = prefs = weight = None
    for tok in toks[2:]:
        if "=" not in tok:
            raise PollInputError("line %d: expected key=value, got %r" % (ln, tok))
        key, _, value = tok.partition("=")
        if key == "top":
            top = value
        elif key == "prefs":
            prefs = tuple(v for v in value.split(",") if v)
        elif key == "weight":
            try:
                weight = int(value)
            except ValueError:
                raise PollInputError("line %d: weight must be an integer" % ln)
        else:
            raise PollInputError("line %d: unknown agent field %r" % (ln, key))
    if top is None or not prefs:
        raise PollInputError("line %d: agent needs top= and prefs=" % ln)
    try:
        agents[aid] = AgentPrefs(top, frozenset(prefs), 1 if weight is None else weight)
    except PollInputError as exc:
        raise PollInputError("line %d: %s" % (ln, exc))
    agent_lines[aid] = ln


def render_instance(inst):
    """Canonical document for an instance; inverse of parse_instance."""
    pos = inst.candidate_index
    lines = ["poll %s" % inst.name]
    lines.append("candidates %s" % " ".join(inst.candidates))
    lines.append("distinguished %s" % inst.distinguished)
    for i, a in enumerate(inst.agents):
        prefs = ",".join(sorted(a.preferred, key=pos.__getitem__))
        entry = "agent %d top=%s prefs=%s" % (i, a.top, prefs)
        if a.weight != 1:
            entry += " weight=%d" % a.weight
        lines.append(entry)
    for x, y in sorted(tuple(sorted(e)) for e in inst.edges):
        lines.append("edge %d %d" % (x, y))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for NO
    # decisions under --strict-exit, so usage errors must exit 1.
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _positive(kind):
    def convert(text):
        value = int(text)
        if value <= 0:
            raise argparse.ArgumentTypeError("%s must be positive" % kind)
        return value

    return convert


def _load_instance(path, parse=None):
    """Read a file, the CLI's only reader, and parse it as an instance
    document, or with `parse` when given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PollInputError("cannot read %s: %s" % (path, exc))
    return (parse or parse_instance)(text)


def _emit(lines, output):
    text = "".join(line + "\n" for line in lines)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PollInputError("cannot write %s: %s" % (output, exc))
    else:
        sys.stdout.write(text)


def _fmt_scores(inst, sf):
    return " ".join("%s=%d" % (c, sf.of(c)) for c in inst.candidates)


def _ntd_of(inst, td):
    """The min-fill decomposition (`td` when already built) and its nice form."""
    if td is None:
        td = heuristic_td(inst.graph)
    return td, make_nice(td)


def _method_of(inst, args, question):
    """(method, decomposition or None). Under `--method auto` the DP is
    picked when the min-fill width allows it (for `scores`, only on
    unit weights and at most three candidates), and the decomposition
    that measured the width is handed on so that the DP does not build
    it again."""
    if args.method != "auto":
        return args.method, None
    td = heuristic_td(inst.graph)
    if td.width <= 3 and (question != "scores" or (
            inst.is_unweighted() and len(inst.candidates) <= 3)):
        return "dp", td
    return "bf", td


def _dump_lines(trace):
    return ["node %d type %s entries %d" % (i, kind, k) for i, kind, k in trace]


def _cmd_validate(args):
    inst = _load_instance(args.instance)
    lines = [
        "question: validate",
        "status: ok",
        "name: %s" % inst.name,
        "agents: %d" % inst.n_agents,
        "candidates: %d" % len(inst.candidates),
        "edges: %d" % len(inst.edges),
        "weighted: %s" % ("no" if inst.is_unweighted() else "yes"),
        "distinguished: %s" % inst.distinguished,
    ]
    _emit(lines, args.output)
    return 0


def _cmd_simulate(args):
    inst = _load_instance(args.instance)
    try:
        order = tuple(int(t) for t in args.order.split(",")) if args.order else ()
    except ValueError:
        raise PollInputError("order must be comma-separated integers")
    sim = simulate_order(inst, order)
    lines = [
        "question: simulate",
        "order: %s" % ",".join(map(str, order)),
        "votes: %s" % ",".join(sim.votes),
    ]
    for c in inst.candidates:
        lines.append("score %s: %d" % (c, sim.scores.of(c)))
    lines.append("winners: %s" % ",".join(sorted(winners(sim.scores))))
    _emit(lines, args.output)
    return 0


def _solve(inst, args, method, trace, td):
    """(answer, brute-force witness or counterexample or None, extra
    report lines) for the question `args.command` by `method`. The answer
    is the set of achievable score functions for `scores` and the
    decision otherwise."""
    question = args.command
    stats = {}
    if method == "bf":
        if question == "scores":
            answer, cert = achievable_scores_bf(inst, args.max_orientations, stats), None
        else:
            solve = possible_winner_bf if question == "possible" else necessary_winner_bf
            answer, cert = solve(inst, args.candidate, args.max_orientations, stats)
        return answer, cert, ["orientations: %d" % stats["orientations"]]
    td, ntd = _ntd_of(inst, td)
    offender = None
    if question == "scores":
        answer = achievable_scores_dp(inst, ntd, args.max_table, trace, stats)
    elif question == "possible":
        answer = possible_winner_dp(inst, ntd, args.candidate, args.max_table, trace, stats)
    else:
        answer, offender = necessary_winner_dp(inst, ntd, args.candidate, args.max_table,
                                               trace, stats)
    extra = ["width: %d" % td.width, "table-entries: %d" % stats["entries"]]
    if offender is not None:
        extra.append("offending-candidate: %s" % offender)
    return answer, None, extra


def _cmd_question(args):
    """scores, possible and necessary: solve, cross-check, report."""
    inst = _load_instance(args.instance)
    question = args.command
    lines = ["question: %s" % question]
    if question != "scores":
        if args.candidate not in inst.candidates:
            raise PollInputError("candidate %r is not declared" % args.candidate)
        lines.append("candidate: %s" % args.candidate)
    start = time.monotonic()
    method, td = _method_of(inst, args, question)
    trace = [] if args.dump_table else None
    answer, cert, extra = _solve(inst, args, method, trace, td)
    elapsed = int((time.monotonic() - start) * 1000)
    lines.append("method: %s" % method)
    if args.cross_check:
        if _solve(inst, args, "dp" if method == "bf" else "bf", None, td)[0] != answer:
            lines.append("cross-check: mismatch")
            _emit(lines, args.output)
            return 1
        lines.append("cross-check: ok")
    if question == "scores":
        lines.append("count: %d" % len(answer))
        for i, sf in enumerate(sorted(answer, key=lambda s: s.values), 1):
            lines.append("set %d: %s" % (i, _fmt_scores(inst, sf)))
    else:
        lines.append("decision: %s" % ("YES" if answer else "NO"))
    if cert is not None:
        key = "witness" if question == "possible" else "counterexample"
        lines.append("%s: %s" % (key, ",".join(map(str, cert.order))))
        for c in inst.candidates:
            lines.append("%s score %s: %d" % (key, c, cert.scores.of(c)))
    lines += extra
    lines.append("elapsed-ms: %d" % elapsed)
    if trace is not None:
        lines += _dump_lines(trace)
    _emit(lines, args.output)
    return 2 if question != "scores" and args.strict_exit and not answer else 0


def render_td(td):
    """Serialize a decomposition as `bag <id> <vertex>*` lines, then
    `treeedge <id> <id>` lines."""
    out = []
    for i, bag in enumerate(td.bags):
        out.append(" ".join(["bag", str(i)] + [str(v) for v in sorted(bag)]))
    for i, j in sorted(td.tree_edges):
        out.append("treeedge %d %d" % (i, j))
    return "\n".join(out) + "\n"


def _cmd_td(args):
    inst = _load_instance(args.instance)
    td = heuristic_td(inst.graph)
    lines = [
        "question: td",
        "width: %d" % td.width,
        "bags: %d" % len(td.bags),
    ]
    if args.exact:
        lines.append("exact-width: %d" % exact_td_small(inst.graph).width)
    lines += render_td(td).splitlines()
    _emit(lines, args.output)
    return 0


def _cmd_gen(args):
    if args.generator == "partition":
        p = reductions.parse_partition_numbers(args.numbers)
        inst = reductions.gen_partition_wpw(p, big_b=args.big_b)
    elif args.generator == "hitting-set":
        h = _load_instance(
            args.sets, lambda text: reductions.parse_hitting_sets(text, budget=args.budget)
        )
        params = reductions.ReductionParams(big_b=args.big_b, big_d=args.big_d)
        inst = reductions.gen_hitting_set_upw(h, params)
    elif args.generator == "sat":
        f = _load_instance(args.dimacs, reductions.parse_dimacs)
        inst = reductions.gen_sat_upw(f, preprocess=not args.no_preprocess)
    elif args.generator == "family":
        if args.lengths:
            try:
                lengths = tuple(int(t) for t in args.lengths.split(","))
            except ValueError:
                raise PollInputError("--lengths must be comma-separated integers")
            inst = reductions.gen_family_multi(args.kind, lengths)
        elif args.length:
            inst = reductions.gen_family(args.kind, args.length)
        else:
            raise PollInputError("family needs --length or --lengths")
    else:
        inst = reductions.gen_random(
            args.seed,
            args.agents,
            args.candidates,
            edge_prob=args.edge_prob,
            forest=args.forest,
            pref_size=args.pref_size,
            max_weight=args.max_weight,
        )
    _emit(render_instance(inst).splitlines(), args.output)
    return 0


def _add_common(sub, decision=False):
    sub.add_argument("--instance", required=True, help="instance document file")
    sub.add_argument("--output", help="write the report here instead of stdout")
    if decision:
        sub.add_argument("--candidate", required=True, help="candidate label")
        sub.add_argument(
            "--strict-exit", action="store_true",
            help="exit 2 when the decision is NO",
        )
    sub.add_argument(
        "--method", choices=("bf", "dp", "auto"), default="auto",
        help="solver: brute-force orientations, tree DP, or pick by shape",
    )
    sub.add_argument(
        "--max-orientations", type=_positive("--max-orientations"),
        default=DEFAULT_MAX_ORIENTATIONS, help="brute-force enumeration guard",
    )
    sub.add_argument(
        "--max-table", type=_positive("--max-table"),
        default=DEFAULT_MAX_TABLE, help="DP live table guard",
    )
    sub.add_argument(
        "--cross-check", action="store_true",
        help="run both methods and fail on any disagreement",
    )
    sub.add_argument(
        "--dump-table", action="store_true",
        help="append per-node DP slice sizes to the report",
    )


def build_parser():
    parser = _Parser(prog="socialpolls", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    val = commands.add_parser("validate", help="parse and validate an instance")
    val.add_argument("--instance", required=True)
    val.add_argument("--output")

    sim = commands.add_parser("simulate", help="run one voting order")
    sim.add_argument("--instance", required=True)
    sim.add_argument("--order", required=True, help="comma-separated agent ids")
    sim.add_argument("--output")

    sc = commands.add_parser("scores", help="enumerate achievable score functions")
    _add_common(sc)

    pos = commands.add_parser("possible", help="can the candidate co-win some order")
    _add_common(pos, decision=True)

    nec = commands.add_parser("necessary", help="does the candidate co-win every order")
    _add_common(nec, decision=True)

    td = commands.add_parser("td", help="tree decomposition of the friendship graph")
    td.add_argument("--instance", required=True)
    td.add_argument("--exact", action="store_true", help="also compute exact width")
    td.add_argument("--output")

    gen = commands.add_parser("gen", help="generate instances")
    gens = gen.add_subparsers(dest="generator", required=True)

    gp = gens.add_parser("partition", help="number-partition reduction")
    gp.add_argument("--numbers", required=True, help="comma or space separated")
    gp.add_argument("--big-b", type=_positive("--big-b"), default=None)
    gp.add_argument("--output")

    gh = gens.add_parser("hitting-set", help="3-hitting-set reduction")
    gh.add_argument("--sets", required=True, help="file of `set q_a q_b q_c` lines")
    gh.add_argument("--budget", type=_positive("--budget"), default=None)
    gh.add_argument("--big-b", type=_positive("--big-b"), default=None)
    gh.add_argument("--big-d", type=_positive("--big-d"), default=None)
    gh.add_argument("--output")

    gs = gens.add_parser("sat", help="(3,3)-CNF reduction")
    gs.add_argument("--dimacs", required=True, help="DIMACS CNF file")
    gs.add_argument("--no-preprocess", action="store_true",
                    help="skip unit propagation and pure-literal elimination")
    gs.add_argument("--output")

    gf = gens.add_parser("family", help="L/R path families")
    gf.add_argument("--kind", choices=("L", "R"), required=True)
    gf.add_argument("--length", type=_positive("--length"), default=None)
    gf.add_argument("--lengths", help="comma-separated for the multi-path variant")
    gf.add_argument("--output")

    gr = gens.add_parser("random", help="random instance")
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--agents", type=_positive("--agents"), required=True)
    gr.add_argument("--candidates", type=_positive("--candidates"), required=True)
    gr.add_argument("--edge-prob", type=float, default=0.3)
    gr.add_argument("--forest", action="store_true")
    gr.add_argument("--pref-size", type=_positive("--pref-size"), default=2)
    gr.add_argument("--max-weight", type=_positive("--max-weight"), default=1)
    gr.add_argument("--output")

    return parser


@functools.cache
def _parser():
    """The parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command in ("scores", "possible", "necessary"):
            return _cmd_question(args)
        if args.command == "td":
            return _cmd_td(args)
        return _cmd_gen(args)
    except ResourceLimitError as exc:
        print("resource guard: %s" % exc, file=sys.stderr)
        return 3
    except PollInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
