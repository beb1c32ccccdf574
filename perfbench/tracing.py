"""Traced replay: each operation re-run as the sequence of public calls that
``ueds.pipeline`` makes, with one span per call recorded from outside.

A span is (op id, span id, parent span id, name, start, end); the name is
``<layer>.<call>`` with the layer named after its module.  Spans are kept in
memory and written out when the run ends.  Counts come from the objects the
calls return, so they repeat exactly for the same operations and code.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ueds import (
    DecidedYes,
    InvalidDecomposition,
    WidthCapExceeded,
    extract_witness,
    greedy_maximal_matching,
    kernelize,
    make_nice,
    parse_graph,
    run_dp,
    td_from_vertex_cover,
    upper_eds_exact,
    validate_nice,
    vertex_cover_from_matching,
)
from ueds.oracle import DEFAULT_EDGE_LIMIT
from ueds.pipeline import DEFAULT_WIDTH_CAP

from workloads import Op

# Per-layer time metrics: metric name -> the span names whose self time it sums.
TIME_METRICS = {
    "graph.parse_ms": ("graph.parse_graph",),
    "graph.matching_ms": ("graph.greedy_maximal_matching",),
    "graph.cover_ms": ("graph.vertex_cover_from_matching",),
    "oracle.ms": ("oracle.upper_eds_exact",),
    "kernel.ms": ("kernel.kernelize",),
    "decomposition.td_ms": ("decomposition.td_from_vertex_cover",),
    "decomposition.nice_ms": ("decomposition.make_nice",),
    "decomposition.validate_ms": ("decomposition.validate_nice",),
    "dp.ms": ("dp.run_dp",),
    "dp.witness_ms": ("dp.extract_witness",),
    "pipeline.other_ms": ("pipeline.op",),
}

COUNT_METRICS = (
    "graph.matching_edges",
    "oracle.calls",
    "oracle.minimal_sets",
    "kernel.calls",
    "kernel.rule_applications",
    "kernel.decided",
    "kernel.vertices_removed",
    "decomposition.width_max",
    "decomposition.nice_nodes",
    "decomposition.join_nodes",
    "dp.calls",
    "dp.rows_total",
    "dp.rows_max",
    "dp.rows.introduce",
    "dp.rows.introduce-edge",
    "dp.rows.forget",
    "dp.rows.join",
    "pipeline.decided.matching",
    "pipeline.decided.kernel",
    "pipeline.decided.dp",
    "pipeline.decided.oracle",
)


class Tracer:
    """Span and count recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self._op = -1
        self._root: int | None = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((self._op, len(self.spans), self._root, name, t0, time.perf_counter()))
        return out

    def op(self, op_id: int, body: Callable[[], Any]) -> Any:
        """Run one operation under a root span of the pipeline layer."""
        self._op = op_id
        self._root = root = len(self.spans)
        self.spans.append((op_id, root, None, "pipeline.op", 0.0, 0.0))
        t0 = time.perf_counter()
        try:
            return body()
        finally:
            self.spans[root] = (op_id, root, None, "pipeline.op", t0, time.perf_counter())
            self._root = None

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus the part of it
        that its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out: dict[str, float] = defaultdict(float)
        for _, sid, _, name, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[name] += (t1 - t0) - covered
        return out

    def metrics(self, ops: int, overhead_ms: float) -> dict[str, dict[str, Any]]:
        selft = self.self_times()
        out: dict[str, dict[str, Any]] = {}
        for metric, names in TIME_METRICS.items():
            total = sum(selft.get(n, 0.0) for n in names)
            out[metric] = {"value": total * 1000 / ops, "unit": "ms"}
        for metric in COUNT_METRICS:
            value = self.maxima.get(metric, self.counts[metric])
            out[metric] = {"value": value, "unit": "count"}
        out["trace.overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for op_id, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "op": op_id, "span": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1,
                }) + "\n")

    # -- the pipeline stages, call by call ---------------------------------

    def _max(self, metric: str, value: int) -> None:
        self.maxima[metric] = max(self.maxima.get(metric, 0), value)

    def matching(self, g):
        m = self.call("graph.greedy_maximal_matching", greedy_maximal_matching, g)
        self.counts["graph.matching_edges"] += m.size
        return m

    def kernel(self, g, k):
        out = self.call("kernel.kernelize", kernelize, g, k)
        self.counts["kernel.calls"] += 1
        self.counts["kernel.rule_applications"] += len(out.trace)
        if isinstance(out, DecidedYes):
            self.counts["kernel.decided"] += 1
            n_after = int(out.trace[-1].rsplit(" n=", 1)[1].split()[0])
        else:
            n_after = out.graph.n
        self.counts["kernel.vertices_removed"] += g.n - n_after
        return out

    def dp_stage(self, g, want_witness: bool):
        """Mirror of ``pipeline._dp_stage``: returns (gamma', witness)."""
        matching = self.matching(g)
        cover = self.call("graph.vertex_cover_from_matching", vertex_cover_from_matching, g, matching)
        td = self.call("decomposition.td_from_vertex_cover", td_from_vertex_cover, g, cover)
        if td.width + 1 > DEFAULT_WIDTH_CAP:
            raise WidthCapExceeded(f"decomposition needs bags of size {td.width + 1}")
        nd = self.call("decomposition.make_nice", make_nice, g, td)
        violations = self.call("decomposition.validate_nice", validate_nice, g, nd)
        if violations:
            raise InvalidDecomposition("; ".join(violations[:5]))
        self._max("decomposition.width_max", nd.width)
        self.counts["decomposition.nice_nodes"] += len(nd.nodes)
        self.counts["decomposition.join_nodes"] += nd.count("join")
        result = self.call("dp.run_dp", run_dp, g, nd, check=False, keep_tables=want_witness)
        self.counts["dp.calls"] += 1
        for _, kind, size in result.node_stats:
            self.counts["dp.rows_total"] += size
            if kind != "leaf":
                self.counts[f"dp.rows.{kind}"] += size
        self._max("dp.rows_max", result.max_table_size)
        witness = None
        if want_witness:
            witness = self.call("dp.extract_witness", extract_witness, g, nd, result)
        return result.gamma_prime, witness


# -- traced replays, one per workload: each returns the fields that
#    ``workloads.summary`` reads, so the drift guard can compare them ---------


@dataclass
class Replayed:
    """The SolveReport fields that the drift guard and the checks read."""

    stage: str
    decision: bool | None = None
    gamma_prime: int | None = None
    reduced_gamma_prime: int | None = None
    witness: list[tuple[int, int]] | None = None
    witness_on_reduced: bool = False


def _pairs(g, solution) -> list[tuple[int, int]]:
    return [(u + 1, v + 1) for u, v in (g.edges[e] for e in solution)]


def replay_gamma(t: Tracer, op: Op) -> Replayed:
    g = t.call("graph.parse_graph", parse_graph, op.text)
    if g.m <= DEFAULT_EDGE_LIMIT:
        res = t.call("oracle.upper_eds_exact", upper_eds_exact, g, limit=DEFAULT_EDGE_LIMIT)
        t.counts["oracle.calls"] += 1
        t.counts["oracle.minimal_sets"] += res.count_minimal
        t.counts["pipeline.decided.oracle"] += 1
        return Replayed("oracle", gamma_prime=res.gamma_prime, witness=_pairs(g, res.witness))
    gamma, witness = t.dp_stage(g, want_witness=True)
    t.counts["pipeline.decided.dp"] += 1
    return Replayed("dp", gamma_prime=gamma, witness=_pairs(g, witness))


def replay_solve(t: Tracer, op: Op) -> Replayed:
    g = t.call("graph.parse_graph", parse_graph, op.text)
    matching = t.matching(g)
    if matching.size >= op.k:
        t.counts["pipeline.decided.matching"] += 1
        return Replayed("matching-early-yes", decision=True, witness=_pairs(g, matching))
    out = t.kernel(g, op.k)
    if isinstance(out, DecidedYes):
        t.counts["pipeline.decided.kernel"] += 1
        return Replayed("kernel-decided", decision=True)
    gamma, _ = t.dp_stage(out.graph, want_witness=False)
    t.counts["pipeline.decided.dp"] += 1
    transformed = bool(out.trace)
    return Replayed(
        "dp",
        decision=gamma >= out.k,
        gamma_prime=None if transformed else gamma,
        reduced_gamma_prime=gamma if transformed else None,
    )


def replay_kernelize(t: Tracer, op: Op):
    g = t.call("graph.parse_graph", parse_graph, op.text)
    k = t.matching(g).size + 1
    out = t.kernel(g, k)
    t.counts["pipeline.decided.kernel"] += 1
    return k, out


REPLAYS: dict[str, Callable[[Tracer, Op], Any]] = {
    "gamma-auto": replay_gamma,
    "solve-decide": replay_solve,
    "kernelize-sparse": replay_kernelize,
}
