"""socialpolls benchmark: seeded poll instances answered through the CLI.

Usage, from the root of a checkout:
    python3 benchmark/run.py --workload thin-count --seed 1 --seconds 30 --trace 0

Each query calls `socialpolls.cli.main(argv)` in this process, with
`--output` to a scratch file, so it pays for parsing, solving and report
writing as a CLI user does; every report is checked (see
`workloads.check`). The loop is closed: one thread sends the queries
one after another, and one pass answers the whole query set once.
Passes repeat until `--seconds` would run out.

With `--trace 0` the last line reports the end-to-end metrics: median
pass time (wall_s), median query time (query_p50_s), the median of
SETUP_REPEATS fresh interpreters that import the package, generate the
instances and write them (setup_s), this process's peak RSS
(peak_rss_mb) and the share of queries answered correctly (ok_frac).
With `--trace 1` untraced and traced passes alternate, both running the
DP queries with `--dump-table`, and the last line reports the per-layer
metrics listed under `per_layer` in BENCHMARK.json; `spans.LAYER_PREDICTIONS`
must name the same metrics.

Exact counts (table entries, sweeps, orientations, nice nodes) must
repeat across passes, between traced and untraced passes, and across
runs on the same seed and the same sources; runs record them under
`.bench_tmp/counts/`. Spans of traced runs are written to
`.bench_tmp/spans-<workload>-<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_REPEATS = 9
WORKLOADS = ("thin-count", "weighted-margin", "bf-small", "large-thin")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR",
                    help="only import, generate and write the instances into DIR")
    return ap.parse_args(argv)


def _setup(workload, seed, directory):
    import workloads

    queries = workloads.make_queries(workload, seed)
    workloads.write_instances(queries, directory)
    return queries


def _time_setups(args, directory):
    """Median wall time of fresh interpreters doing the set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        probe = directory / ("probe-%d" % k)
        probe.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe)]
        t0 = time.perf_counter()
        # a blocking wait: waiting with a timeout polls, which would round
        # the measured time up to the polling interval
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
            code = proc.wait()
        times.append(time.perf_counter() - t0)
        if code:
            raise RuntimeError("set-up probe exited with %d" % code)
        shutil.rmtree(probe)
    return statistics.median(times)


class Pass:
    """Outcome of answering the query set once."""

    def __init__(self):
        self.times = []
        self.failures = []        # queries answered wrongly or not at all
        self.problems = []        # pass-level inconsistencies
        self.counts = Counter()   # exact counts, compared between passes
        self.layers = Counter()   # per-layer values of a traced pass

    @property
    def wall(self):
        return sum(self.times)


def _report_counts(query, pairs, p):
    rep = dict(pairs)
    if "table-entries" in rep:
        p.counts["dpsolver.entries"] += int(rep["table-entries"])
    if "orientations" in rep:
        p.counts["oracle.orientations"] += int(rep["orientations"])
        if query.command == "scores":
            p.layers["bf_outcomes"] += int(rep["count"])
            p.layers["bf_scores_orientations"] += int(rep["orientations"])


def run_pass(queries, directory, tracer=None, dump_table=False):
    from socialpolls import cli
    import spans
    import workloads

    p = Pass()
    out = directory / "report.txt"
    before_spans = len(tracer.spans) if tracer else 0
    before_counts = Counter(tracer.counts) if tracer else Counter()
    for q in queries:
        if out.exists():
            out.unlink()
        argv = q.argv(str(out), dump_table=dump_table)
        if tracer:
            tracer.last_nice = None
            tracer.label = q.qid
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash fails the query, not the run
            code = "%s: %s" % (type(exc).__name__, exc)
        p.times.append(time.perf_counter() - t0)
        reason = None if code == 0 else "exit %s" % (code,)
        if reason is None:
            pairs, dump = workloads.parse_report(out.read_text(encoding="utf-8"))
            reason = workloads.check(q, pairs)
            _report_counts(q, pairs, p)
            if tracer:
                try:
                    dp = spans.dp_counts(dump, tracer.last_nice)
                except ValueError as exc:
                    p.problems.append("%s: %s" % (q.qid, exc))
                    dp = Counter()
                p.layers["dpsolver.peak_live"] = max(
                    p.layers["dpsolver.peak_live"], dp.pop("dpsolver.peak_live", 0))
                p.layers.update(dp)
        if reason:
            p.failures.append("%s: %s" % (q.qid, reason))
    if tracer:
        p.layers.update(tracer.self_times(before_spans))
        grown = tracer.counts - before_counts
        p.layers["graphkit.heuristic_td_calls"] = grown["graphkit.heuristic_td"]
        p.layers["graphkit.validate_nice_calls"] = grown["graphkit.validate_nice"]
        p.layers["graphkit.nice_nodes"] = grown["graphkit.nice_nodes"]
        p.layers["model.simulate_order_calls"] = grown["model.simulate_order"]
        p.layers["oracle.orientations"] = grown["oracle.orientations"]
        p.counts["dpsolver.sweeps"] = p.layers["dpsolver.sweeps"]
        p.counts["graphkit.nice_nodes"] = grown["graphkit.nice_nodes"]
        if p.layers["dpsolver.entries"] != p.counts["dpsolver.entries"]:
            p.problems.append("dump-table entries differ from table-entries lines")
        if grown["oracle.orientations"] != p.counts["oracle.orientations"]:
            p.problems.append("enumerated orientations differ from the reports")
    return p


def _source_hash():
    h = hashlib.sha256()
    for path in sorted(SRC.glob("socialpolls/*.py")) + sorted(HERE.glob("*.py")) + [
            HERE / "pool.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_counts(args, passes):
    """Problems with exact counts: between passes, and against earlier
    runs of the same workload, seed and sources."""
    import spans

    problems = []
    merged = {}
    for p in passes:
        for key in spans.EXACT_COUNTS:
            if key not in p.counts:
                continue
            if merged.setdefault(key, p.counts[key]) != p.counts[key]:
                problems.append("%s differs between passes: %d vs %d"
                                % (key, merged[key], p.counts[key]))
    path = TMP / "counts" / ("%s-%d-%s.json" % (args.workload, args.seed, _source_hash()))
    earlier = {}
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
    for key, value in merged.items():
        if earlier.setdefault(key, value) != value:
            problems.append("%s differs from an earlier run: %d vs %d"
                            % (key, earlier[key], value))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(earlier, sort_keys=True), encoding="utf-8")
    return problems


def _measure(args, queries, directory):
    """Untraced passes, or alternating untraced/traced pairs, until the
    next one would overrun --seconds. Returns (untraced, traced, tracer)."""
    import spans

    tracer = spans.Tracer() if args.trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    rounds = []
    while not rounds or (time.perf_counter() - start + statistics.median(rounds)
                         <= args.seconds):
        t0 = time.perf_counter()
        untraced.append(run_pass(queries, directory, dump_table=bool(tracer)))
        if tracer:
            tracer.install()
            try:
                traced.append(run_pass(queries, directory, tracer, dump_table=True))
            finally:
                tracer.uninstall()
        rounds.append(time.perf_counter() - t0)
    return untraced, traced, tracer


def _layer_units():
    """Per-layer metric -> unit, from BENCHMARK.json; None when its names
    differ from those of `spans.LAYER_PREDICTIONS`."""
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return units if set(units) == set(spans.LAYER_PREDICTIONS) else None


def _metrics(args, untraced, traced, setup_s, layer_units):
    if not args.trace:
        times = [t for p in untraced for t in p.times]
        attempted = len(times)
        failed = sum(len(p.failures) for p in untraced)
        return {
            "wall_s": (statistics.median(p.wall for p in untraced), "s"),
            "query_p50_s": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": (1 - failed / attempted, "ratio"),
        }
    out = {}
    for name, unit in layer_units.items():
        values = [p.layers[name] for p in traced]
        out[name] = (statistics.median(values), unit)
    orients = traced[0].layers["bf_scores_orientations"]
    out["oracle.outcome_ratio"] = (
        traced[0].layers["bf_outcomes"] / orients if orients else 0.0,
        layer_units["oracle.outcome_ratio"])
    out["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1,
        layer_units["trace.overhead_frac"])
    return out


def main(argv=None):
    args = _args(argv)
    if not (SRC / "socialpolls" / "cli.py").is_file():
        print("error: %s/socialpolls not found; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup(args.workload, args.seed, args.setup_probe)
        return 0
    layer_units = _layer_units()
    if layer_units is None:
        print("error: the per_layer metrics of BENCHMARK.json differ from "
              "spans.LAYER_PREDICTIONS", file=sys.stderr)
        return 2

    TMP.mkdir(exist_ok=True)
    directory = TMP / ("run-%d" % os.getpid())
    directory.mkdir()
    try:
        setup_s = None if args.trace else _time_setups(args, directory)
        queries = _setup(args.workload, args.seed, directory)
        untraced, traced, tracer = _measure(args, queries, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    passes = untraced + traced
    problems = [f for p in passes for f in p.failures + p.problems]
    problems += _check_counts(args, passes)
    if tracer:
        tracer.write(TMP / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))

    metrics = _metrics(args, untraced, traced, setup_s, layer_units)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for problem in problems:
        print("FAIL %s" % problem, file=sys.stderr)
    print("%s seed %d: %d queries per pass, %d untraced and %d traced passes, "
          "failed_frac %g" % (args.workload, args.seed, len(queries), len(untraced),
                              len(traced), failed / attempted))
    for name, (value, unit) in metrics.items():
        print("%-30s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
