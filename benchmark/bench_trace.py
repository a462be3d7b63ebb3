"""In-memory span tracer and per-layer metrics for the traced run.

A span is (name, start, end, parent, job). The traced run wraps every step
callable of a job in a span named after its layer, the whole job in a
`job` span, and one module-level seam inside the library,
`szegedcut.indices.quotient_graph`, which the cut entry points call once
per partition class. Spans are kept in memory and written out when the run
ends. A layer's self time is its span time minus the time of its child
spans; the `job` span's self time is benchmark glue that no layer claims.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from bench_workloads import STEPS

# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "molgen.build": "molgen.build_s",
    "graph.format": "graph.format_s",
    "graph.parse": "graph.parse_s",
    "theta.partition": "theta.partition_s",
    "theta.validate": "theta.validate_s",
    "quotient.build": "quotient.build_s",
    "indices": "indices.self_s",
    "output.json": "output.json_s",
}

# per-layer metric -> unit, in report order
PER_LAYER_UNITS = {
    "molgen.build_s": "s",
    "graph.format_s": "s",
    "graph.parse_s": "s",
    "graph.parse_edges_per_s": "edges/s",
    "theta.partition_s": "s",
    "theta.validate_s": "s",
    "theta.classes": "count",
    "quotient.build_s": "s",
    "quotient.builds": "count",
    "quotient.scan_ratio": "ratio",
    "indices.self_s": "s",
    "indices.tree_quotients": "count",
    "indices.generic_quotients": "count",
    "indices.generic_bfs": "count",
    "output.json_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

# metrics that need the quotient seam; null when a refactor removes it
QUOTIENT_SEAM_METRICS = (
    "quotient.build_s",
    "quotient.builds",
    "quotient.scan_ratio",
    "indices.tree_quotients",
    "indices.generic_quotients",
    "indices.generic_bfs",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.scale: list[float] = []  # per job: raw to nominal-host seconds
        self.seam_missing = False

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def steps(self) -> SimpleNamespace:
        """Step callables wrapped in layer spans, with per-layer counts."""
        wrapped = {name: self.wrap(span, fn) for name, (span, fn) in STEPS.items()}
        counts = self.counts
        parse, partition, weighted = (
            wrapped["graph_parse"], wrapped["theta_partition"], wrapped["indices_weighted"]
        )

        def graph_parse(text):
            g = parse(text)
            counts["graph.parsed_edges"] += g.m
            return g

        def theta_partition(g):
            p = partition(g)
            counts["theta.classes"] += len(p)
            return p

        def indices_weighted(g, *args):
            if g.m != g.n - 1:  # the direct pass runs two BFS per edge of g
                counts["indices.generic_bfs"] += 2 * g.m
            return weighted(g, *args)

        wrapped.update(
            graph_parse=graph_parse,
            theta_partition=theta_partition,
            indices_weighted=indices_weighted,
        )
        return SimpleNamespace(**wrapped)

    @contextmanager
    def quotient_seam(self):
        """Wrap `szegedcut.indices.quotient_graph` for the duration."""
        try:
            module = importlib.import_module("szegedcut.indices")
        except ImportError:
            module = None
        original = getattr(module, "quotient_graph", None)
        if original is None:
            self.seam_missing = True
            yield
            return
        traced = self.wrap("quotient.build", original)
        counts = self.counts

        def quotient_graph(g, *args, **kwargs):
            q = traced(g, *args, **kwargs)
            qn, qm = q.graph.n, q.graph.m
            counts["quotient.builds"] += 1
            counts["quotient.produced"] += qn + qm
            counts["quotient.scanned"] += g.n + g.m
            if qm == qn - 1:
                counts["indices.tree_quotients"] += 1
            else:
                counts["indices.generic_quotients"] += 1
                counts["indices.generic_bfs"] += 2 * qm
            return q

        module.quotient_graph = quotient_graph
        try:
            yield
        finally:
            module.quotient_graph = original

    def self_times(self) -> Counter:
        """Total self time per span name, scaled by its job's `scale`."""
        own = [(end - start) * self.scale[job] for _, start, end, _, job in self.spans]
        for _, start, end, parent, job in self.spans:
            if parent >= 0:
                own[parent] -= (end - start) * self.scale[job]
        totals: Counter = Counter()
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals

    def layer_metrics(self, jobs: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics, times and counts as means per traced job."""
        own = self.self_times()
        c = self.counts
        metrics = {metric: own[span] / jobs for span, metric in SELF_TIME_METRICS.items()}
        parse_s = own["graph.parse"]
        metrics["graph.parse_edges_per_s"] = c["graph.parsed_edges"] / parse_s if parse_s else 0.0
        metrics["theta.classes"] = c["theta.classes"] / jobs
        metrics["quotient.builds"] = c["quotient.builds"] / jobs
        scanned = c["quotient.scanned"]
        metrics["quotient.scan_ratio"] = c["quotient.produced"] / scanned if scanned else 0.0
        for name in ("indices.tree_quotients", "indices.generic_quotients", "indices.generic_bfs"):
            metrics[name] = c[name] / jobs
        if self.seam_missing:
            metrics.update(dict.fromkeys(QUOTIENT_SEAM_METRICS))
        metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1
        job_s = sum(
            (end - start) * self.scale[job]
            for name, start, end, _, job in self.spans
            if name == "job"
        )
        metrics["trace.accounted_ratio"] = 1 - own["job"] / job_s
        return {name: metrics[name] for name in PER_LAYER_UNITS}

    def write(self, path: Path, t0: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                    "job": job,
                }) + "\n")
