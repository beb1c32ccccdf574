"""Randomized cross-validation of the whole toolkit.

Runs, on a deterministic stream of gnp instances:

  * oracle-vs-DP equality of the exact value, over the same decomposition
    solve() uses (pipeline.choose_decomposition), with the decomposition and
    its nice form validated first (an invalid one is reported, and its DP
    checks are skipped) and every per-node table measured against the
    state-space bound;
  * greedy maximal matchings are minimal edge dominating sets;
  * every enumerated minimal edge dominating set induces a star forest and
    carries its privacy certificates (a single-edge star is dominated by
    nothing else; every leaf of a bigger star has a neighbor no solution
    edge touches);
  * kernelization is answer-preserving against the oracle for every k, and
    undecided outputs respect the 4k^2 - 2 size bound.

Any failure is reported with the generating spec (and k where relevant), so
it reproduces directly via gen().
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .decomposition import make_nice, validate_nice
from .dp import run_dp, state_space_bound
from .errors import InvalidDecomposition, NotStarForest
from .generate import GenSpec, SplitMix64, gen
from .graph import (
    EdgeSet,
    Graph,
    domination_count,
    greedy_maximal_matching,
    is_minimal_eds,
    star_decomposition,
)
from .kernel import DecidedYes, kernelize
from .oracle import MASK_BITS, enumerate_minimal_eds, upper_eds_exact
from .pipeline import choose_decomposition

__all__ = ["SelfCheckFailure", "SelfCheckReport", "star_privacy_violations", "selfcheck"]

_P_VALUES = (0.2, 0.4, 0.6)


@dataclass(frozen=True)
class SelfCheckFailure:
    check: str
    spec: GenSpec
    k: int | None
    detail: str

    def reproducer(self) -> str:
        parts = [
            f"gen --family {self.spec.family} --n {self.spec.n}",
        ]
        if self.spec.family == "gnp":
            parts.append(f"--p {self.spec.p}")
        if self.spec.family in ("gnp", "tree"):
            parts.append(f"--seed {self.spec.seed}")
        if self.k is not None:
            parts.append(f"(k={self.k})")
        return " ".join(parts)


@dataclass
class SelfCheckReport:
    count: int
    nmax: int
    seed: int
    instances: int = 0
    checks_run: int = 0
    failures: list[SelfCheckFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "nmax": self.nmax,
            "seed": self.seed,
            "instances": self.instances,
            "checks_run": self.checks_run,
            "passed": self.passed,
            "failures": [
                {
                    "check": f.check,
                    "reproducer": f.reproducer(),
                    "k": f.k,
                    "detail": f.detail,
                }
                for f in self.failures
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format_text(self) -> str:
        lines = [
            f"selfcheck: {self.instances} instances, {self.checks_run} checks, "
            f"{len(self.failures)} failures"
        ]
        for f in self.failures:
            lines.append(f"FAIL [{f.check}] {f.reproducer()}: {f.detail}")
        if self.passed:
            lines.append("all checks passed")
        return "\n".join(lines)


def star_privacy_violations(g: Graph, solution: EdgeSet) -> list[str]:
    """Why this minimal solution's star structure fails its certificates;
    empty when everything holds."""
    problems: list[str] = []
    try:
        structure = star_decomposition(g, solution)
    except NotStarForest as exc:
        return [f"not a star forest: {exc}"]
    touched = [False] * g.n
    for eid in solution:
        u, v = g.edges[eid]
        touched[u] = True
        touched[v] = True
    for star in structure.stars:
        if star.center is None:
            eid = star.edge_ids[0]
            if domination_count(g, solution, eid) != 1:
                problems.append(
                    f"single-edge star {star.leaves} dominated more than once"
                )
            continue
        for leaf in star.leaves:
            if not any(not touched[w] for w, _ in g.adj[leaf]):
                problems.append(
                    f"leaf {leaf + 1} of the star at {star.center + 1} has no "
                    f"untouched neighbor"
                )
    return problems


def _check_instance(g: Graph, spec: GenSpec, report: SelfCheckReport) -> None:
    def fail(check: str, detail: str, k: int | None = None) -> None:
        report.failures.append(SelfCheckFailure(check, spec, k, detail))

    exact = upper_eds_exact(g, limit=MASK_BITS)

    # oracle vs DP through the pipeline's own decomposition
    try:
        nd = make_nice(g, choose_decomposition(g)[1])
    except InvalidDecomposition as exc:
        violations = [str(exc)]
    else:
        violations = validate_nice(g, nd)
    if violations:
        fail("decomposition-valid", "; ".join(violations[:3]))
    else:
        dp_result = run_dp(g, nd, check=False)
        report.checks_run += 1
        if dp_result.gamma_prime != exact.gamma_prime:
            fail(
                "oracle-dp-equality",
                f"dp={dp_result.gamma_prime} oracle={exact.gamma_prime}",
            )
        bound = state_space_bound(nd.width)
        report.checks_run += 1
        if dp_result.max_table_size > bound:
            fail(
                "state-space-bound",
                f"table {dp_result.max_table_size} exceeds bound {bound}",
            )

    # maximal matchings are minimal edge dominating sets
    matching = greedy_maximal_matching(g)
    report.checks_run += 1
    if not is_minimal_eds(g, matching):
        fail("matching-minimal-eds", f"matching {sorted(matching)} not minimal")

    # star structure + privacy certificates of every minimal solution
    report.checks_run += 1
    for solution in enumerate_minimal_eds(g, limit=MASK_BITS):
        problems = star_privacy_violations(g, solution)
        if problems:
            fail("star-privacy", f"{sorted(solution)}: {problems[0]}")
            break

    # kernelization preserves the answer for every k and respects its bound
    for k in range(1, g.m + 1):
        report.checks_run += 1
        outcome = kernelize(g, k)
        want = exact.gamma_prime >= k
        if isinstance(outcome, DecidedYes):
            if not want:
                fail("kernel-preserves", f"decided yes but oracle says no", k)
            continue
        reduced = outcome
        got = upper_eds_exact(reduced.graph, limit=MASK_BITS).gamma_prime >= reduced.k
        if got != want:
            fail("kernel-preserves", f"reduced answer {got} != {want}", k)
        size_bound = 4 * reduced.k * reduced.k - 2
        if reduced.graph.n > size_bound:
            fail(
                "kernel-size-bound",
                f"reduced n={reduced.graph.n} > {size_bound}",
                k,
            )
        if any(reduced.graph.degree(v) == 0 for v in range(reduced.graph.n)):
            fail("kernel-clean", "reduced graph keeps an isolated vertex", k)
        if any(
            reduced.graph.degree(u) == 1 and reduced.graph.degree(v) == 1
            for u, v in reduced.graph.edges
        ):
            fail("kernel-clean", "reduced graph keeps an isolated edge", k)


def selfcheck(count: int, nmax: int = 8, seed: int = 1) -> SelfCheckReport:
    """Run all invariant suites on `count` seeded random instances with up to
    nmax vertices.  nmax <= 10 keeps the oracle comfortable; nmax below 1
    raises ValueError, as no instance has fewer than one vertex."""
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    report = SelfCheckReport(count=count, nmax=nmax, seed=seed)
    rng = SplitMix64(seed)
    for i in range(count):
        n = 1 + rng.next_u64() % nmax
        p = _P_VALUES[i % len(_P_VALUES)]
        sub_seed = rng.next_u64()
        spec = GenSpec("gnp", int(n), p, sub_seed)
        g = gen(spec)
        report.instances += 1
        _check_instance(g, spec, report)
    return report
