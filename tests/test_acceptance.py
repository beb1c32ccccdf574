"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact (integer equality or zero violations);
the only budgeted quantity is wall time, asserted where the criterion sets
one.
"""

import time

from ueds.decomposition import (
    make_nice,
    td_from_vertex_cover,
    td_min_fill,
    validate_nice,
    validate_td,
)
from ueds.dp import run_dp, state_space_bound
from ueds.generate import GenSpec, SplitMix64, gen
from ueds.graph import (
    Graph,
    emit_graph,
    greedy_maximal_matching,
    is_minimal_eds,
)
from ueds.kernel import DecidedYes, kernelize
from ueds.oracle import enumerate_minimal_eds, upper_eds_exact
from ueds.pipeline import gamma_prime, solve
from ueds.selfcheck import selfcheck, star_privacy_violations

from conftest import all_graphs_on, four_color_graph, graph_from_pairs, minimum_vertex_cover

ORACLE_LIMIT = 64  # the spec default (22) is configurable; n <= 10 needs more

P_CYCLE = (0.2, 0.4, 0.6)


def _random_corpus(count: int, base_seed: int, n_of=lambda i: 2 + i % 9):
    rng = SplitMix64(base_seed)
    for i in range(count):
        spec = GenSpec("gnp", n_of(i), P_CYCLE[i % 3], rng.next_u64())
        yield spec, gen(spec)


def _dp_value(g: Graph, collect=None, td=None) -> int:
    """The DP's value over td, by default the path over a minimum cover."""
    if td is None:
        td = td_from_vertex_cover(g, minimum_vertex_cover(g))
    nd = make_nice(g, td)
    result = run_dp(g, nd, check=False)
    if collect is not None:
        collect.append((g, td, nd, result))
    return result.gamma_prime


def _report(name: str, problems: list[str], extra: str = "") -> None:
    status = "PASS" if not problems else f"FAIL ({len(problems)} violations)"
    print(f"ACCEPTANCE {name}: {status}{' ' + extra if extra else ''}")
    assert not problems, "\n".join(problems[:20])


class TestAcceptance:
    def test_1_oracle_dp_equivalence(self):
        start = time.perf_counter()
        problems = []
        checked = 0
        # each graph runs on a minimum-cover path and on the min-fill
        # elimination decomposition, which brings join nodes
        def compare(g: Graph, label: str) -> None:
            want = upper_eds_exact(g, limit=ORACLE_LIMIT).gamma_prime
            for name, td in (("cover", None), ("min-fill", td_min_fill(g))):
                got = _dp_value(g, td=td)
                if got != want:
                    problems.append(f"{label} ({name}): dp={got} oracle={want}")

        # every graph on 5 labeled vertices: all 1024 subsets of the 10 pairs
        for g in all_graphs_on(5):
            checked += 1
            compare(g, f"n=5 corpus #{checked}")
        # 500 seeded random graphs, n <= 10, p cycling over {0.2, 0.4, 0.6}
        for spec, g in _random_corpus(500, base_seed=20260810):
            checked += 1
            compare(g, spec.instance_id)
        elapsed = time.perf_counter() - start
        if elapsed >= 300:
            problems.append(f"runtime {elapsed:.0f}s exceeds the 5 minute budget")
        _report(
            "1 oracle-dp-equivalence",
            problems,
            f"[{checked} graphs, {elapsed:.1f}s]",
        )

    def test_2_kernel_safety(self):
        problems = []
        checked = 0
        gamma_cache: dict[tuple, int] = {}

        def gamma_of(g: Graph) -> int:
            key = (g.n, g.edges)
            if key not in gamma_cache:
                gamma_cache[key] = upper_eds_exact(g, limit=ORACLE_LIMIT).gamma_prime
            return gamma_cache[key]

        for spec, g in _random_corpus(300, base_seed=77001):
            gamma = gamma_of(g)
            for k in range(1, g.m + 1):
                checked += 1
                outcome = kernelize(g, k)
                want = gamma >= k
                if isinstance(outcome, DecidedYes):
                    if not want:
                        problems.append(f"{spec.instance_id} k={k}: false yes")
                    continue
                got = gamma_of(outcome.graph) >= outcome.k
                if got != want:
                    problems.append(
                        f"{spec.instance_id} k={k}: reduced answer {got} != {want}"
                    )
                bound = 4 * outcome.k * outcome.k - 2
                if outcome.graph.n > bound:
                    problems.append(
                        f"{spec.instance_id} k={k}: size {outcome.graph.n} > {bound}"
                    )
        _report("2 kernel-safety", problems, f"[{checked} (instance,k) pairs]")

    def test_3_named_values(self):
        named = {
            "K2": (graph_from_pairs(2, [(1, 2)]), 1),
            "K3": (graph_from_pairs(3, [(1, 2), (2, 3), (1, 3)]), 1),
            "P4": (graph_from_pairs(4, [(1, 2), (2, 3), (3, 4)]), 2),
            "C4": (graph_from_pairs(4, [(1, 2), (2, 3), (3, 4), (4, 1)]), 2),
            "C5": (graph_from_pairs(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]), 2),
            "K13": (graph_from_pairs(4, [(1, 2), (1, 3), (1, 4)]), 1),
        }
        problems = []
        for name, (g, want) in named.items():
            via_oracle = upper_eds_exact(g).gamma_prime
            if via_oracle != want:
                problems.append(f"{name}: oracle {via_oracle} != {want}")
            via_dp = _dp_value(g)
            if via_dp != want:
                problems.append(f"{name}: dp {via_dp} != {want}")
        _report("3 named-values", problems)

    def test_4_structural_invariants(self):
        problems = []
        solutions_checked = 0
        matchings_checked = 0
        corpus = [four_color_graph()]
        corpus += list(all_graphs_on(4))
        corpus += [g for _, g in _random_corpus(150, base_seed=5150, n_of=lambda i: 2 + i % 6)]
        shuffler = SplitMix64(99)
        for g in corpus:
            for solution in enumerate_minimal_eds(g, limit=ORACLE_LIMIT):
                solutions_checked += 1
                broken = star_privacy_violations(g, solution)
                if broken:
                    problems.append(f"{emit_graph(g)!r}: {broken[0]}")
                    break
            orders = [list(range(g.m))]
            for _ in range(3):
                order = list(range(g.m))
                for i in range(len(order) - 1, 0, -1):
                    j = shuffler.next_u64() % (i + 1)
                    order[i], order[j] = order[j], order[i]
                orders.append(order)
            for order in orders:
                matching = greedy_maximal_matching(g, order)
                matchings_checked += 1
                if g.m and not is_minimal_eds(g, matching):
                    problems.append(
                        f"{emit_graph(g)!r}: matching {sorted(matching)} not minimal"
                    )
        _report(
            "4 structural-invariants",
            problems,
            f"[{solutions_checked} solutions, {matchings_checked} matchings]",
        )

    def test_5_state_space_bound(self):
        report = selfcheck(count=40, nmax=8, seed=1)
        problems = [
            f"{f.reproducer()}: {f.detail}"
            for f in report.failures
            if f.check == "state-space-bound"
        ]
        problems += [
            f"selfcheck unrelated failure: [{f.check}] {f.reproducer()}"
            for f in report.failures
            if f.check != "state-space-bound"
        ]
        # additionally assert the bound on a denser stress corpus
        for spec, g in _random_corpus(60, base_seed=31337):
            cover = minimum_vertex_cover(g)
            td = td_from_vertex_cover(g, cover)
            nd = make_nice(g, td)
            result = run_dp(g, nd, check=False)
            if result.max_table_size > state_space_bound(nd.width):
                problems.append(f"{spec.instance_id}: bound exceeded")
        _report("5 state-space-bound", problems)

    def test_6_decomposition_validity(self):
        problems = []
        checked = 0
        corpus = list(all_graphs_on(4))
        corpus += [g for _, g in _random_corpus(120, base_seed=616)]
        for g in corpus:
            for cover in (
                minimum_vertex_cover(g),
                tuple(
                    sorted(
                        {v for e in greedy_maximal_matching(g) for v in g.edges[e]}
                    )
                ),
            ):
                td = td_from_vertex_cover(g, cover)
                bad = validate_td(g, td)
                if bad:
                    problems.append(f"td invalid: {bad[0]}")
                    continue
                for placement in ("early", "late"):
                    nd = make_nice(g, td, edge_placement=placement)
                    bad = validate_nice(g, nd)
                    checked += 1
                    if bad:
                        problems.append(f"nice invalid ({placement}): {bad[0]}")
        _report("6 decomposition-validity", problems, f"[{checked} decompositions]")

    def test_7_determinism(self):
        problems = []
        p4 = graph_from_pairs(4, [(1, 2), (2, 3), (3, 4)])
        for label, runner in [
            ("solve", lambda: solve(p4, 3).to_json(include_timings=False)),
            ("solve-witness", lambda: solve(p4, 2, want_witness=True).to_json(include_timings=False)),
            ("gamma-oracle", lambda: gamma_prime(p4, method="oracle").to_json(include_timings=False)),
            ("gamma-dp", lambda: gamma_prime(p4, method="dp").to_json(include_timings=False)),
            ("gen", lambda: emit_graph(gen(GenSpec("gnp", 9, 0.4, 12345)))),
            ("selfcheck", lambda: selfcheck(count=5, nmax=6, seed=4).to_json()),
        ]:
            first = runner()
            second = runner()
            if first != second:
                problems.append(f"{label}: repeated runs differ")
        for spec, g in _random_corpus(30, base_seed=424242):
            a = solve(g, 2).to_json(include_timings=False)
            b = solve(g, 2).to_json(include_timings=False)
            if a != b:
                problems.append(f"{spec.instance_id}: solve not deterministic")
        _report("7 determinism", problems)
