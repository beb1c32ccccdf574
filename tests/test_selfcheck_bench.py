import dataclasses

import numpy as np
import pytest

import ueds.dp
import ueds.pipeline
import ueds.selfcheck
from ueds.cli import main
from ueds.decomposition import TreeDecomposition
from ueds.selfcheck import selfcheck, star_privacy_violations
from ueds.oracle import enumerate_minimal_eds


class TestSelfcheck:
    def test_small_run_passes(self):
        report = selfcheck(count=25, nmax=7, seed=1)
        assert report.passed
        assert report.instances == 25
        assert report.checks_run > 25

    def test_zero_count_trivially_passes(self):
        report = selfcheck(count=0, nmax=8, seed=1)
        assert report.passed and report.instances == 0

    def test_report_shapes(self):
        report = selfcheck(count=3, nmax=5, seed=9)
        payload = report.to_dict()
        assert payload["passed"] is True
        text = report.format_text()
        assert "3 instances" in text

    def test_injected_fault_is_caught_with_reproducer(self, monkeypatch):
        # break the certification step: an excluded red-black edge no longer
        # upgrades the red endpoint, so nothing red ever certifies
        build = ueds.dp._edge_rules

        def no_upgrade(rem_u, rem_v):
            rules = build(rem_u, rem_v)
            du, dv = rules.du.copy(), rules.dv.copy()
            du[0] = dv[0] = 0  # the excluded branch's increments
            return dataclasses.replace(rules, du=du, dv=dv)

        monkeypatch.setattr(ueds.dp, "_edge_rules", no_upgrade)
        report = selfcheck(count=25, nmax=7, seed=1)
        assert not report.passed
        failed_checks = {f.check for f in report.failures}
        assert "oracle-dp-equality" in failed_checks
        assert any("gen --family gnp" in f.reproducer() for f in report.failures)

    def test_invalid_decomposition_is_reported_with_reproducer(self, monkeypatch):
        # a path with no bags wins the width race and fails validation
        monkeypatch.setattr(
            ueds.pipeline,
            "td_greedy_path",
            lambda g, max_bag=None: TreeDecomposition(n=g.n, bags=(), tree_edges=()),
        )
        report = selfcheck(count=6, nmax=6, seed=1)
        assert {f.check for f in report.failures} == {"decomposition-valid"}
        assert all(f.reproducer().startswith("gen ") for f in report.failures)

    def test_privacy_helper_flags_broken_structure(self, k13):
        # two star edges of the claw: the leaves have no untouched neighbor
        from ueds.graph import EdgeSet

        problems = star_privacy_violations(k13, EdgeSet.from_ids([0, 1]))
        assert problems

    def test_privacy_helper_accepts_enumerated_solutions(self, c5):
        for solution in enumerate_minimal_eds(c5):
            assert star_privacy_violations(c5, solution) == []

    def test_a_fault_in_the_star_decomposition_is_not_a_failed_certificate(
        self, monkeypatch, capsys
    ):
        # only NotStarForest means "not a star forest"; any other error is a
        # fault that must reach the command line's exit 4, not exit 1
        def broken(g, solution):
            raise RuntimeError("injected")

        monkeypatch.setattr(ueds.selfcheck, "star_decomposition", broken)
        with pytest.raises(RuntimeError, match="injected"):
            selfcheck(count=3, nmax=5, seed=9)
        assert main(["selfcheck", "--count", "3", "--nmax", "5", "--seed", "9"]) == 4
        assert "internal: RuntimeError: injected" in capsys.readouterr().err
