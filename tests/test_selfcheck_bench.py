import numpy as np
import pytest

import ueds._fast_dp
import ueds.dp
from ueds.bench import FIELDS, bench, rows_to_csv
from ueds.generate import GenSpec, gen
from ueds.graph import emit_graph
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
        build = ueds._fast_dp._edge_rules

        def no_upgrade(rem_u, rem_v):
            rules = build(rem_u, rem_v)
            return rules._replace(
                ex_du=np.zeros_like(rules.ex_du), ex_dv=np.zeros_like(rules.ex_dv)
            )

        monkeypatch.setattr(ueds._fast_dp, "_edge_rules", no_upgrade)
        report = selfcheck(count=25, nmax=7, seed=1)
        assert not report.passed
        failed_checks = {f.check for f in report.failures}
        assert "oracle-dp-equality" in failed_checks
        assert any("gen --family gnp" in f.reproducer() for f in report.failures)

    def test_privacy_helper_flags_broken_structure(self, k13):
        # two star edges of the claw: the leaves have no untouched neighbor
        from ueds.graph import EdgeSet

        problems = star_privacy_violations(k13, EdgeSet.from_ids([0, 1]))
        assert problems

    def test_privacy_helper_accepts_enumerated_solutions(self, c5):
        for solution in enumerate_minimal_eds(c5):
            assert star_privacy_violations(c5, solution) == []


class TestBench:
    @pytest.fixture
    def corpus(self, tmp_path):
        for name, spec in [
            ("k2", GenSpec("path", 2)),
            ("p4", GenSpec("path", 4)),
            ("c4", GenSpec("cycle", 4)),
            ("c5", GenSpec("cycle", 5)),
            ("k13", GenSpec("star", 4)),
        ]:
            (tmp_path / f"{name}.gr").write_text(emit_graph(gen(spec)))
        return tmp_path

    def test_named_corpus_values(self, corpus, tmp_path):
        out = tmp_path / "results.csv"
        rows = bench(corpus, out=out)
        values = {row["instance"]: row["gamma_prime"] for row in rows}
        assert values == {
            "k2.gr": 1,
            "p4.gr": 2,
            "c4.gr": 2,
            "c5.gr": 2,
            "k13.gr": 1,
        }
        assert all(row["status"] == "ok" for row in rows)
        text = out.read_text()
        assert text.splitlines()[0] == ",".join(FIELDS)
        assert len(text.splitlines()) == 6

    def test_empty_corpus_header_only(self, tmp_path):
        rows = bench(tmp_path, out=tmp_path / "empty.csv")
        assert rows == []
        assert (tmp_path / "empty.csv").read_text().strip() == ",".join(FIELDS)

    def test_malformed_file_marked_error_others_succeed(self, corpus):
        (corpus / "broken.gr").write_text("not a graph\n")
        rows = bench(corpus)
        by_name = {row["instance"]: row for row in rows}
        assert by_name["broken.gr"]["status"] == "error"
        assert by_name["broken.gr"]["error"]
        assert by_name["p4.gr"]["status"] == "ok"

    def test_csv_field_order_stable(self):
        assert rows_to_csv([]) == ",".join(FIELDS) + "\n"
