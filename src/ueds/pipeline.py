"""End-to-end solving: greedy-matching early exit, optional kernelization,
then the dynamic program over a tree decomposition; plus the exact-value
entry point that picks between the enumeration oracle and the DP.

The DP runs over the narrower of two decompositions, the greedy path and
the min-fill elimination decomposition, a tie going to the path
(choose_decomposition); `ueds decomp` reports the same choice."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from typing import Any

from .decomposition import (
    TreeDecomposition,
    _build_nice,
    make_nice,
    td_greedy_path,
    td_min_fill,
)
from .dp import extract_witness, row_bag_limit, run_dp
from .errors import UedsError, WidthCapExceeded
from .graph import (
    EdgeSet,
    Graph,
    greedy_maximal_matching,
)
from .kernel import DecidedYes, kernelize
from .oracle import DEFAULT_EDGE_LIMIT, fits, upper_eds_exact

__all__ = [
    "DEFAULT_WIDTH_CAP",
    "SolveReport",
    "choose_decomposition",
    "solve",
    "gamma_prime",
]

DEFAULT_WIDTH_CAP = 14  # reject decompositions with width + 1 above this


@dataclass
class SolveReport:
    """Everything one run produced.  ``gamma_prime`` refers to the original
    graph; when kernelization transformed the instance the DP value lives in
    ``reduced_gamma_prime`` (for the reduced graph, against ``reduced_k``)
    and any witness is flagged via ``witness_on_reduced``."""

    instance: str
    stage: str
    k: int | None = None
    decision: bool | None = None
    gamma_prime: int | None = None
    reduced_gamma_prime: int | None = None
    reduced_k: int | None = None
    witness: list[tuple[int, int]] | None = None
    witness_on_reduced: bool = False
    method: str | None = None
    kernel: dict[str, Any] | None = None
    dp: dict[str, Any] | None = None
    oracle: dict[str, Any] | None = None
    timings_ms: dict[str, float] = field(default_factory=dict)

    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.witness is not None:
            out["witness"] = [list(e) for e in self.witness]
        if not include_timings:
            del out["timings_ms"]
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True, indent=2)


def _witness_pairs(g: Graph, solution: EdgeSet) -> list[tuple[int, int]]:
    """Solution edges as external 1-indexed endpoint pairs, ascending ids."""
    return [(u + 1, v + 1) for u, v in (g.edges[e] for e in solution)]


def _cap_advice(need: int, n: int) -> str:
    """Advice for a decomposition refused for needing bags of need or more
    vertices: a higher --max-width helps only up to the DP's row limit."""
    limit = row_bag_limit(n)
    if need > limit:
        return f"the DP's 64-bit row holds at most {limit} bag vertices for n = {n}"
    return "raise --max-width to proceed"


def choose_decomposition(
    g: Graph, max_width: int = DEFAULT_WIDTH_CAP
) -> tuple[str, TreeDecomposition]:
    """The decomposition the DP runs on, with its source: "min-fill" when
    the min-fill decomposition is narrower than the greedy path, else
    "greedy-path".  A path has no join nodes, the DP's most expensive kind,
    so a tie goes to it; min-fill wins on trees, where a path is wide.

    The path is built first, and min-fill stops as soon as it cannot be
    strictly narrower, so a tie costs only part of an elimination.  Raises
    WidthCapExceeded when both need a bag of more than max_width vertices;
    at or above the DP's row limit for g, the message names that limit.
    """
    path = td_greedy_path(g, max_bag=max_width)
    fill = td_min_fill(g, max_bag=max_width if path is None else path.width)
    if fill is not None and (path is None or fill.width < path.width):
        return "min-fill", fill
    if path is None:
        raise WidthCapExceeded(
            "both the greedy path and the min-fill decomposition need bags "
            f"above the cap {max_width}; {_cap_advice(max_width + 1, g.n)}"
        )
    return "greedy-path", path


def _dp_stage(
    work: Graph,
    *,
    timings: dict[str, float],
    max_width: int,
    want_witness: bool,
    diagnostics: bool = False,
    td: TreeDecomposition | None = None,
) -> tuple[int, EdgeSet | None, dict[str, Any]]:
    """Run the DP over td, or over the chosen decomposition when td is None.
    timings gets the milliseconds of the DP, decomposition included, as
    "dp" and those of the witness walk as "witness"."""
    t0 = time.perf_counter()
    if td is None:
        source, chosen = choose_decomposition(work, max_width)
        nd = _build_nice(work, chosen, early=True)  # valid by construction
    else:
        source = "given"
        nd = make_nice(work, td)  # an invalid td is an input error, checked first
        if td.width + 1 > max_width:
            raise WidthCapExceeded(
                f"the given decomposition needs bags of size {td.width + 1}, "
                f"above the cap {max_width}; {_cap_advice(td.width + 1, work.n)}"
            )
    # The builder writes the nice form as per-node columns, with no node
    # record, and checks its own output (the tests run validate_nice on it);
    # a given td was validated.  run_dp plans every node in one walk over
    # those columns, and extract_witness reads them too.
    result = run_dp(work, nd, keep_tables=want_witness, check=False)
    timings["dp"] = (time.perf_counter() - t0) * 1000
    witness = None
    if want_witness:
        t0 = time.perf_counter()
        witness = extract_witness(work, nd, result)
        timings["witness"] = (time.perf_counter() - t0) * 1000
    stats = {
        "source": source,
        "width": result.width,
        "nodes": len(nd.kind),
        "max_table_size": result.max_table_size,
    }
    if diagnostics:
        stats["diagnostics"] = result.diagnostics_lines()
    return result.gamma_prime, witness, stats


def solve(
    g: Graph,
    k: int,
    use_kernel: bool = True,
    want_witness: bool = False,
    max_width: int = DEFAULT_WIDTH_CAP,
    instance: str = "<graph>",
    diagnostics: bool = False,
) -> SolveReport:
    """Decide whether g has a minimal edge dominating set of size >= k.

    Pipeline: (1) a greedy maximal matching of size >= k settles it
    immediately (a maximal matching is a minimal edge dominating set);
    (2) kernelization, which may decide outright or shrink the instance;
    (3) the decomposition DP on what remains.  Kernel decisions carry no
    witness, so with want_witness a kernel-decided instance falls through to
    the DP on the original graph instead.
    """
    report = SolveReport(instance=instance, stage="", k=k)
    t_total = time.perf_counter()
    try:
        t0 = time.perf_counter()
        matching = greedy_maximal_matching(g)
        report.timings_ms["matching"] = (time.perf_counter() - t0) * 1000
        if matching.size >= k:
            report.stage = "matching-early-yes"
            report.decision = True
            report.witness = _witness_pairs(g, matching)
            return report

        work, work_k = g, k
        transformed = False
        if use_kernel:
            t0 = time.perf_counter()
            outcome = kernelize(g, k)
            report.timings_ms["kernel"] = (time.perf_counter() - t0) * 1000
            report.kernel = outcome.summary()
            if isinstance(outcome, DecidedYes):
                if not want_witness:
                    report.stage = "kernel-decided"
                    report.decision = True
                    return report
                # fall through to the DP on the original graph for a witness
            else:
                work, work_k = outcome.graph, outcome.k
                transformed = bool(outcome.trace)

        gamma, witness, stats = _dp_stage(
            work,
            timings=report.timings_ms,
            max_width=max_width,
            want_witness=want_witness,
            diagnostics=diagnostics,
        )
        report.stage = "dp"
        report.dp = stats
        report.decision = gamma >= work_k
        if transformed:
            report.reduced_gamma_prime = gamma
            report.reduced_k = work_k
        else:
            report.gamma_prime = gamma
        if witness is not None:
            report.witness = _witness_pairs(work, witness)
            report.witness_on_reduced = transformed
        return report
    finally:
        report.timings_ms["total"] = (time.perf_counter() - t_total) * 1000


def gamma_prime(
    g: Graph,
    method: str = "auto",
    max_width: int = DEFAULT_WIDTH_CAP,
    oracle_limit: int = DEFAULT_EDGE_LIMIT,
    instance: str = "<graph>",
    diagnostics: bool = False,
    td: TreeDecomposition | None = None,
) -> SolveReport:
    """Exact upper edge domination number.

    method "oracle" enumerates (m <= oracle_limit and m <= 64), "dp" runs
    the dynamic program over the decomposition choose_decomposition picks,
    or over td when one is given, "auto" picks the oracle wherever it fits
    (oracle.fits) and the DP otherwise (always the DP when td is given; the
    oracle method refuses a given td with UedsError).
    Both methods agree wherever both apply; the test suite enforces that.
    """
    if method not in ("auto", "dp", "oracle"):
        raise ValueError(f"unknown method {method!r}")
    if td is not None and method == "oracle":
        raise UedsError(
            "a given decomposition (--td) needs the DP method (--method dp or auto)"
        )
    if method == "auto":
        method = "oracle" if fits(g.m, oracle_limit) and td is None else "dp"
    report = SolveReport(instance=instance, stage=method, method=method)
    t_total = time.perf_counter()
    if method == "oracle":
        t0 = time.perf_counter()
        result = upper_eds_exact(g, limit=oracle_limit)
        report.timings_ms["oracle"] = (time.perf_counter() - t0) * 1000
        report.gamma_prime = result.gamma_prime
        report.witness = _witness_pairs(g, result.witness)
        report.oracle = {"count_minimal": result.count_minimal}
    else:
        gamma, witness, stats = _dp_stage(
            g,
            timings=report.timings_ms,
            max_width=max_width,
            want_witness=True,
            diagnostics=diagnostics,
            td=td,
        )
        report.gamma_prime = gamma
        report.witness = _witness_pairs(g, witness)
        report.dp = stats
    report.timings_ms["total"] = (time.perf_counter() - t_total) * 1000
    return report
