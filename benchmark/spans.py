"""Spans recorded around the solver layers, from the benchmark's side.

`Tracer.install()` replaces the names that callers import (the CLI's
solver entry points, `dpsolver.validate_nice`, the oracle's orientation
enumerator and `simulate_order`) with wrappers that record spans, and
`uninstall()` puts the originals back. Nothing inside the package
changes. Spans stay in memory until `write()`.

A span is [name, parent index, start, end, busy, child busy, label],
where the label names the query it belongs to. For an ordinary call
busy is end - start. The orientation enumerator is a generator whose
consumer runs between items, so its span is never on the stack: each
`next()` is timed and added to its busy time and to its parent's child
time. Self time is busy minus child busy.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from socialpolls import cli, dpsolver, oracle

# per-layer metric -> the end-to-end metric it should move and the workload
# where it should move it; elsewhere it should stay small. Units and
# directions are in the per_layer list of BENCHMARK.json, which must name
# the same metrics. Traced passes run DP queries with --dump-table, so
# cli.self_s includes writing those rows.
LAYER_PREDICTIONS = {
    "cli.self_s": "query_p50_s on the workload with the shortest queries",
    "cli.parse_s": "wall_s on large-thin",
    "graphkit.heuristic_td_s": "wall_s on large-thin",
    "graphkit.make_nice_s": "wall_s on large-thin",
    "graphkit.validate_nice_s": "wall_s on large-thin",
    "graphkit.validate_nice_calls": "wall_s on large-thin",
    "graphkit.heuristic_td_calls": "wall_s on large-thin",
    "graphkit.nice_nodes": "wall_s on large-thin",
    "dpsolver.sweep_s": "wall_s, query_p50_s on thin-count, weighted-margin",
    "dpsolver.entries": "wall_s, query_p50_s on thin-count, weighted-margin",
    "dpsolver.entries.leaf": "wall_s on thin-count, weighted-margin",
    "dpsolver.entries.insert": "wall_s on thin-count, weighted-margin",
    "dpsolver.entries.forget": "wall_s on thin-count, weighted-margin",
    "dpsolver.entries.join": "wall_s on thin-count, weighted-margin",
    "dpsolver.peak_live": "peak_rss_mb on thin-count",
    "dpsolver.sweeps": "wall_s on weighted-margin",
    "graphkit.enumerate_s": "wall_s, query_p50_s on bf-small",
    "oracle.simulate_combine_s": "wall_s, query_p50_s on bf-small",
    "oracle.orientations": "wall_s, query_p50_s on bf-small",
    "oracle.outcome_ratio": "wall_s on bf-small",
    "model.simulate_order_s": "query_p50_s on bf-small",
    "model.simulate_order_calls": "query_p50_s on bf-small",
    "trace.overhead_frac": ("none: traced wall_s / untraced wall_s - 1, both passes "
                            "with --dump-table"),
}

# counts that must repeat exactly between passes and runs on one seed
EXACT_COUNTS = ("dpsolver.entries", "dpsolver.sweeps", "oracle.orientations",
                "graphkit.nice_nodes")

# span name -> the layer whose self time it adds to
_SELF_TIME = {
    "cli.main": "cli.self_s",
    "cli.parse_instance": "cli.parse_s",
    "graphkit.heuristic_td": "graphkit.heuristic_td_s",
    "graphkit.make_nice": "graphkit.make_nice_s",
    "graphkit.validate_nice": "graphkit.validate_nice_s",
    "dpsolver.achievable_scores_dp": "dpsolver.sweep_s",
    "dpsolver.possible_winner_dp": "dpsolver.sweep_s",
    "dpsolver.necessary_winner_dp": "dpsolver.sweep_s",
    "oracle.achievable_scores_bf": "oracle.simulate_combine_s",
    "oracle.possible_winner_bf": "oracle.simulate_combine_s",
    "oracle.necessary_winner_bf": "oracle.simulate_combine_s",
    "graphkit.enumerate_acyclic_orientations": "graphkit.enumerate_s",
    "model.simulate_order": "model.simulate_order_s",
}

# (module, attribute, span name)
_TARGETS = [
    (cli, "main", "cli.main"),
    (cli, "parse_instance", "cli.parse_instance"),
    (cli, "heuristic_td", "graphkit.heuristic_td"),
    (cli, "make_nice", "graphkit.make_nice"),
    (cli, "achievable_scores_dp", "dpsolver.achievable_scores_dp"),
    (cli, "possible_winner_dp", "dpsolver.possible_winner_dp"),
    (cli, "necessary_winner_dp", "dpsolver.necessary_winner_dp"),
    (cli, "achievable_scores_bf", "oracle.achievable_scores_bf"),
    (cli, "possible_winner_bf", "oracle.possible_winner_bf"),
    (cli, "necessary_winner_bf", "oracle.necessary_winner_bf"),
    (cli, "simulate_order", "model.simulate_order"),
    (dpsolver, "validate_nice", "graphkit.validate_nice"),
    (oracle, "simulate_order", "model.simulate_order"),
]

_NAME, _PARENT, _START, _END, _BUSY, _CHILD, _LABEL = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.last_nice = None   # nice tree of the latest make_nice call
        self.label = None       # query that new spans belong to
        self._saved = []

    def install(self):
        for module, attr, name in _TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        fn = oracle.enumerate_acyclic_orientations
        self._saved.append((oracle, "enumerate_acyclic_orientations", fn))
        oracle.enumerate_acyclic_orientations = self._wrap_generator(
            "graphkit.enumerate_acyclic_orientations", fn)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0, 0.0, self.label])
        self.counts[name] += 1
        return len(self.spans) - 1

    def _add_busy(self, sid, dt):
        span = self.spans[sid]
        span[_BUSY] += dt
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += dt

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span = self.spans[sid]
                span[_END] = time.perf_counter()
                self._add_busy(sid, span[_END] - span[_START])
            if name == "graphkit.make_nice":
                self.last_nice = result
                self.counts["graphkit.nice_nodes"] += len(result.nodes)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            t0 = time.perf_counter()
            items = iter(fn(*args, **kwargs))
            self._add_busy(sid, time.perf_counter() - t0)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    break
                finally:
                    t1 = time.perf_counter()
                    self._add_busy(sid, t1 - t0)
                    self.spans[sid][_END] = t1
                self.counts["oracle.orientations"] += 1
                yield item

        return traced

    def self_times(self, first=0):
        """Layer self times summed over spans[first:]."""
        out = Counter()
        for span in self.spans[first:]:
            out[_SELF_TIME[span[_NAME]]] += span[_BUSY] - span[_CHILD]
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "query": span[_LABEL], "name": span[_NAME], "parent": span[_PARENT],
                    "start": span[_START], "end": span[_END],
                    "busy": span[_BUSY], "self": span[_BUSY] - span[_CHILD],
                }) + "\n")


def dp_counts(dump, ntd):
    """Entries per node kind, sweeps and peak live entries of one query,
    from its --dump-table rows and the nice tree it was swept over."""
    out = Counter()
    if not dump:
        return out
    nodes = ntd.nodes if ntd is not None else ()
    if not nodes or len(dump) % len(nodes):
        raise ValueError("dump-table rows do not cover whole sweeps of the nice tree")
    out["dpsolver.sweeps"] = len(dump) // len(nodes)
    peak = 0
    for start in range(0, len(dump), len(nodes)):
        live = 0
        sizes = {}
        for i, kind, entries in dump[start:start + len(nodes)]:
            out["dpsolver.entries." + kind] += entries
            out["dpsolver.entries"] += entries
            for c in nodes[i].children:
                live -= sizes.pop(c)
            sizes[i] = entries
            live += entries
            peak = max(peak, live)
    out["dpsolver.peak_live"] = peak
    return out
