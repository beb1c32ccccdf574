import json

import pytest
from hypothesis import given, settings

from ueds import decomposition
from ueds.decomposition import TreeDecomposition, td_greedy_path
from ueds.errors import WidthCapExceeded
from ueds.generate import GenSpec, gen
from ueds.graph import EdgeSet, Graph, is_minimal_eds, parse_graph
from ueds.oracle import upper_eds_exact
from ueds.pipeline import gamma_prime, solve

from conftest import graphs


class TestSolve:
    def test_p4_k2_matching_early_yes(self, p4):
        report = solve(p4, 2)
        assert report.decision is True
        assert report.stage == "matching-early-yes"
        assert report.witness == [(1, 2), (3, 4)]

    def test_p4_k3_no_via_dp(self, p4):
        report = solve(p4, 3)
        assert report.decision is False
        assert report.stage == "dp"
        assert report.gamma_prime == 2

    def test_k3_k2_no(self, k3):
        report = solve(k3, 2)
        assert report.decision is False and report.gamma_prime == 1

    def test_k_zero_trivially_yes(self, p4):
        report = solve(p4, 0)
        assert report.decision is True

    def test_kernel_decided_instance(self):
        # edge order steers the greedy matching to the single middle edge,
        # so the matching stage cannot decide but the kernel can (k blues)
        g = parse_graph("p gr 4 3\n2 3\n1 2\n3 4\n")
        report = solve(g, 2)
        assert report.stage == "kernel-decided"
        assert report.decision is True
        assert report.kernel["rule"] == 5
        assert report.witness is None

    def test_witness_falls_through_kernel_decision(self):
        g = parse_graph("p gr 4 3\n2 3\n1 2\n3 4\n")
        report = solve(g, 2, want_witness=True)
        assert report.stage == "dp"
        assert report.decision is True
        assert not report.witness_on_reduced
        witness = EdgeSet.from_ids(
            [next(e for e, (a, b) in enumerate(g.edges) if {a + 1, b + 1} == {u, v})
             for u, v in report.witness]
        )
        assert witness.size == 2 and is_minimal_eds(g, witness)

    def test_reduced_instance_flagged(self, k13):
        report = solve(k13, 2)
        assert report.decision is False
        assert report.stage == "dp"
        assert report.reduced_gamma_prime is not None
        assert report.reduced_k is not None
        assert report.gamma_prime is None  # value refers to the reduced graph

    def test_no_kernel_flag(self, k13):
        report = solve(k13, 2, use_kernel=False)
        assert report.kernel is None
        assert report.decision is False
        assert report.gamma_prime == 1

    def test_width_cap(self):
        g = gen(GenSpec("gnp", 16, 0.9, 5))
        with pytest.raises(WidthCapExceeded):
            solve(g, 50, max_width=6)

    def test_width_cap_message_names_the_decomposition(self, p4):
        g = gen(GenSpec("gnp", 16, 0.9, 5))
        with pytest.raises(WidthCapExceeded, match="the min-fill decomposition"):
            solve(g, 50, max_width=6)
        td = TreeDecomposition(n=4, bags=((0, 1, 2, 3),), tree_edges=())
        with pytest.raises(WidthCapExceeded, match="the given decomposition"):
            gamma_prime(p4, method="dp", max_width=3, td=td)

    @pytest.mark.parametrize("max_width", [11, 12, 14])
    def test_width_refusal_advises_a_raise_only_below_the_row_limit(self, max_width):
        # K16: the row holds 12 bag vertices for n = 16, so a cap of 12 or
        # more cannot be raised into a decomposition the DP can run
        k16 = gen(GenSpec("gnp", 16, 1.0, 1))
        with pytest.raises(WidthCapExceeded) as err:
            solve(k16, 9, max_width=max_width)
        if max_width < 12:
            advice = "raise --max-width to proceed"
        else:
            advice = "the DP's 64-bit row holds at most 12 bag vertices for n = 16"
        assert str(err.value).endswith(f"above the cap {max_width}; {advice}")
        td = TreeDecomposition(n=16, bags=(tuple(range(16)),), tree_edges=())
        with pytest.raises(WidthCapExceeded, match="holds at most 12 bag vertices"):
            gamma_prime(k16, method="dp", max_width=max_width, td=td)

    def test_decision_matches_gamma_when_present(self, p4, k3, c5):
        for g in (p4, k3, c5):
            for k in range(1, g.m + 2):
                report = solve(g, k)
                if report.gamma_prime is not None:
                    assert report.decision == (report.gamma_prime >= k)
                if report.reduced_gamma_prime is not None:
                    assert report.decision == (
                        report.reduced_gamma_prime >= report.reduced_k
                    )

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle_for_all_k(self, g):
        gamma = upper_eds_exact(g).gamma_prime
        for k in (1, gamma, gamma + 1):
            if k < 1:
                continue
            for use_kernel in (True, False):
                report = solve(g, k, use_kernel=use_kernel)
                assert report.decision == (gamma >= k), (g.edges, k, use_kernel)


class TestGamma:
    def test_methods_agree_on_named_graphs(self, c5, k13, p4):
        for g, want in ((c5, 2), (k13, 1), (p4, 2)):
            via_oracle = gamma_prime(g, method="oracle")
            via_dp = gamma_prime(g, method="dp")
            assert via_oracle.gamma_prime == via_dp.gamma_prime == want

    def test_twelve_vertex_fixture(self, twelve_vertex_all_colors):
        g = twelve_vertex_all_colors
        assert gamma_prime(g, method="oracle").gamma_prime == 5
        assert gamma_prime(g, method="dp").gamma_prime == 5

    def test_edgeless(self):
        report = gamma_prime(Graph(4, []))
        assert report.gamma_prime == 0

    def test_auto_picks_oracle_for_small(self, p4):
        assert gamma_prime(p4, method="auto").method == "oracle"

    def test_auto_picks_dp_above_limit(self, p4):
        report = gamma_prime(p4, method="auto", oracle_limit=2)
        assert report.method == "dp" and report.gamma_prime == 2

    def test_auto_picks_dp_above_the_mask_bits(self):
        # a limit above 64 does not stretch the oracle's 64-bit masks
        g = gen(GenSpec("tree", 66, seed=1))
        assert g.m == 65
        auto = gamma_prime(g, method="auto", oracle_limit=100)
        dp = gamma_prime(g, method="dp")
        assert auto.method == "dp"
        assert (auto.gamma_prime, auto.witness) == (dp.gamma_prime, dp.witness)

    def test_witness_reported(self, c5):
        report = gamma_prime(c5, method="dp")
        assert report.witness is not None and len(report.witness) == 2

    def test_only_a_given_decomposition_is_validated(self, monkeypatch):
        # the pipeline's own decompositions are valid by construction
        # (TestChooseDecomposition in test_decomposition.py checks that)
        checked = []
        validate = decomposition.validate_td
        monkeypatch.setattr(
            decomposition, "validate_td", lambda g, td: checked.append(td) or validate(g, td)
        )
        g = gen(GenSpec("cycle", 9))
        assert solve(g, 5).stage == "dp"
        assert gamma_prime(g, method="dp").gamma_prime == 4
        assert checked == []
        td = td_greedy_path(g)
        assert gamma_prime(g, td=td).gamma_prime == 4
        assert checked == [td]

    def test_the_dp_stage_builds_no_node_records(self, monkeypatch):
        # the builder writes the nice form's columns and run_dp and the
        # witness walk read them, so no NiceNode view is built on the way;
        # this graph has the size and density of the benchmark pools
        def refuse(*args):
            raise AssertionError("a NiceNode was built")

        monkeypatch.setattr(decomposition, "NiceNode", refuse)
        g = gen(GenSpec("gnp", 12, 0.3, 24))
        assert g.m == 20
        assert solve(g, 7).stage == "dp"
        assert solve(g, 7, want_witness=True, diagnostics=True).stage == "dp"
        report = gamma_prime(g, method="dp", diagnostics=True)
        assert report.gamma_prime == 6 and len(report.witness) == 6
        with pytest.raises(AssertionError, match="NiceNode"):
            decomposition.make_nice(g, td_greedy_path(g)).nodes


class TestReports:
    def test_json_round_trips(self, p4):
        report = solve(p4, 3)
        payload = json.loads(report.to_json())
        assert payload["decision"] is False
        assert payload["gamma_prime"] == 2
        assert "timings_ms" in payload

    def test_json_deterministic_modulo_timings(self, p4):
        a = solve(p4, 3).to_json(include_timings=False)
        b = solve(p4, 3).to_json(include_timings=False)
        assert a == b

    def test_timings_present(self, p4):
        report = solve(p4, 3)
        assert "total" in report.timings_ms
        assert "dp" in report.timings_ms
        # the witness walk is timed on its own, and only when it runs
        assert "witness" not in report.timings_ms
        report = solve(p4, 3, want_witness=True)
        assert report.stage == "dp" and report.witness is not None
        assert {"dp", "witness"} <= set(report.timings_ms)
        # gamma_prime times the stages it routes to
        for method, stages in (("oracle", {"oracle"}), ("dp", {"dp", "witness"})):
            report = gamma_prime(p4, method=method)
            assert set(report.timings_ms) == stages | {"total"}
            times = [report.timings_ms[stage] for stage in stages]
            assert min(times) >= 0 and sum(times) <= report.timings_ms["total"]
