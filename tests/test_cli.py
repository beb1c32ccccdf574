import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ueds.cli import main
from ueds.errors import InstanceTooLarge, ResourceCapExceeded, WidthCapExceeded
from ueds.generate import GenSpec, gen
from ueds.graph import EdgeSet, emit_graph, is_minimal_eds
from ueds.decomposition import (
    TreeDecomposition,
    emit_td,
    parse_td,
    td_from_vertex_cover,
    td_greedy_path,
    td_min_fill,
)
from ueds.oracle import upper_eds_exact
from ueds.pipeline import choose_decomposition

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.gr"
    path.write_text(emit_graph(gen(GenSpec("path", 4))))
    return str(path)


class TestSolveCommand:
    def test_yes_exits_zero(self, p4_file, capsys):
        assert main(["solve", p4_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "decision: yes" in out and "witness:" in out

    def test_no_exits_one(self, p4_file, capsys):
        assert main(["solve", p4_file, "-k", "3"]) == 1
        assert "decision: no" in capsys.readouterr().out

    def test_json_output(self, p4_file, capsys):
        assert main(["solve", p4_file, "-k", "3", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma_prime"] == 2 and payload["decision"] is False

    def test_parse_error_exits_two(self, tmp_path, monkeypatch, capsys):
        _check_failure(tmp_path, monkeypatch, capsys, *FAILURES["malformed-gr"])

    def test_missing_file_exits_two(self, tmp_path, monkeypatch, capsys):
        _check_failure(tmp_path, monkeypatch, capsys, *FAILURES["missing-file"])

    def test_width_cap_exits_three(self, tmp_path, monkeypatch, capsys):
        _check_failure(tmp_path, monkeypatch, capsys, *FAILURES["width-cap"])

    def test_memory_error_exits_three(self, tmp_path, monkeypatch, capsys):
        _check_failure(tmp_path, monkeypatch, capsys, *FAILURES["memory"])

    def test_unexpected_exception_exits_four(self, tmp_path, monkeypatch, capsys):
        _check_failure(tmp_path, monkeypatch, capsys, *FAILURES["internal"])

    def test_usage_error_exits_two(self, p4_file):
        with pytest.raises(SystemExit) as err:
            main(["solve", p4_file])  # -k missing
        assert err.value.code == 2


class TestOtherCommands:
    def test_gamma(self, p4_file, capsys):
        assert main(["gamma", p4_file]) == 0
        assert "gamma_prime: 2" in capsys.readouterr().out

    def test_gamma_json_methods_agree(self, p4_file, capsys):
        main(["gamma", p4_file, "--method", "oracle", "--json"])
        via_oracle = json.loads(capsys.readouterr().out)
        main(["gamma", p4_file, "--method", "dp", "--json"])
        via_dp = json.loads(capsys.readouterr().out)
        assert via_oracle["gamma_prime"] == via_dp["gamma_prime"] == 2

    def test_oracle(self, p4_file, capsys):
        assert main(["oracle", p4_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma_prime"] == 2
        assert payload["count_minimal"] == 2
        assert payload["witness"] == [[1, 2], [3, 4]]

    def test_oracle_reports_what_gamma_reports(self, tmp_path, capsys):
        path = _write_graph(tmp_path, GenSpec("gnp", 8, 0.4, seed=3))
        assert main(["oracle", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["gamma", path, "--method", "oracle", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert payload == {
            "gamma_prime": report["gamma_prime"],
            "witness": report["witness"],
            "count_minimal": report["oracle"]["count_minimal"],
        }

    def test_kernelize_trace_format(self, tmp_path, capsys):
        star = tmp_path / "k13.gr"
        star.write_text(emit_graph(gen(GenSpec("star", 4))))
        assert main(["kernelize", str(star), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "rule=3 action=delete-vertex" in out

    def test_gen_writes_parseable_graph(self, tmp_path, capsys):
        assert main(["gen", "--family", "gnp", "--n", "8", "--p", "0.3", "--seed", "42"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("p gr 8 ")
        # determinism: a second run emits identical bytes
        main(["gen", "--family", "gnp", "--n", "8", "--p", "0.3", "--seed", "42"])
        assert capsys.readouterr().out == text

    def test_gen_invalid_spec_exits_two(self, tmp_path, monkeypatch, capsys):
        _check_failure(tmp_path, monkeypatch, capsys, *FAILURES["bad-gen-spec"])

    def test_decomp_emits_valid_td(self, p4_file, tmp_path, capsys):
        out = tmp_path / "p4.td"
        assert main(["decomp", p4_file, "--emit-td", str(out)]) == 0
        td = parse_td(out.read_text())
        assert len(td.bags) >= 1
        assert "valid: True" in capsys.readouterr().out

    def test_selfcheck(self, capsys):
        assert main(["selfcheck", "--count", "4", "--nmax", "6", "--seed", "3"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command,defaults",
        [
            ("solve", ["14"]),
            ("gamma", ["14", "22"]),
            ("oracle", ["22"]),
            ("decomp", ["14"]),
            ("selfcheck", ["200", "8", "1"]),
        ],
    )
    def test_help_shows_the_limits_defaults(self, command, defaults, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        # the required -k has no default to show
        k_lines = [line for line in out.splitlines() if line.strip().startswith("-k")]
        assert all("(default" not in line for line in k_lines)
        out = " ".join(out.split())
        for default in defaults:
            assert f"(default: {default})" in out

    def test_max_width_caps_the_bag_size(self, p4_file, capsys):
        # P4's width-1 path has bags of two vertices
        assert main(["gamma", p4_file, "--method", "dp", "--max-width", "1"]) == 3
        assert "above the cap 1" in capsys.readouterr().err
        assert main(["gamma", p4_file, "--method", "dp", "--max-width", "2"]) == 0

    def test_auto_routes_past_the_mask_bits_to_the_dp(self, tmp_path, capsys):
        # 69 edges: --oracle-limit 100 does not stretch the 64-bit masks
        path = _write_graph(tmp_path, GenSpec("tree", 70, seed=3))
        assert main(["gamma", path, "--oracle-limit", "100"]) == 0
        out = capsys.readouterr().out
        assert "method: dp" in out and "gamma_prime: 31" in out
        assert main(["gamma", path, "--method", "oracle", "--oracle-limit", "100"]) == 3
        assert "m=69 exceeds the 64-bit enumeration masks" in capsys.readouterr().err


def _write_graph(tmp_path, spec):
    path = tmp_path / f"{spec.instance_id}.gr"
    path.write_text(emit_graph(gen(spec)))
    return str(path)


class TestDecompositionCommands:
    def test_decomp_reports_and_emits_the_pipeline_choice(self, tmp_path, capsys):
        spec = GenSpec("tree", 30)
        out = tmp_path / "tree.td"
        path = _write_graph(tmp_path, spec)
        assert main(["decomp", path, "--emit-td", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        td = td_min_fill(gen(spec))
        assert payload["width"] == td.width == 1 and payload["valid"] is True
        assert payload["source"] == "min-fill"
        assert parse_td(out.read_text()) == td

    def test_decomp_names_the_greedy_path(self, tmp_path, capsys):
        spec = GenSpec("cycle", 25)
        out = tmp_path / "cycle.td"
        path = _write_graph(tmp_path, spec)
        assert main(["decomp", path, "--emit-td", str(out)]) == 0
        text = capsys.readouterr().out
        assert "source: greedy-path\n" in text and "width: 2\n" in text
        assert parse_td(out.read_text()) == td_greedy_path(gen(spec))
        assert main(["gamma", path, "--method", "dp", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dp"]["source"] == "greedy-path"

    def test_decomp_refuses_above_the_cap_like_solve(self, tmp_path, capsys):
        path = _write_graph(tmp_path, GenSpec("gnp", 16, 0.9, 5))
        assert main(["solve", path, "-k", "50", "--max-width", "4"]) == 3
        refusal = capsys.readouterr().err
        assert main(["decomp", path, "--max-width", "4"]) == 3
        assert capsys.readouterr().err == refusal
        assert "min-fill" in refusal
        assert main(["decomp", path, "--max-width", "16"]) == 0
        assert "valid: True" in capsys.readouterr().out

    def test_gamma_over_a_given_td(self, tmp_path, capsys):
        spec = GenSpec("cycle", 9)
        g = gen(spec)
        path = _write_graph(tmp_path, spec)
        td_file = tmp_path / "cover.td"
        td_file.write_text(emit_td(td_from_vertex_cover(g, range(0, 9, 2))))
        assert main(["gamma", path, "--td", str(td_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "dp" and payload["dp"]["source"] == "given"
        assert payload["dp"]["width"] == 5
        assert payload["gamma_prime"] == upper_eds_exact(g).gamma_prime == 4

    @pytest.mark.parametrize(
        "td_text",
        [
            # valid format, but edge (9, 1) lies in no bag
            emit_td(TreeDecomposition(
                n=9, bags=tuple((v, v + 1) for v in range(8)),
                tree_edges=tuple((i, i + 1) for i in range(7)),
            )),
            "s td 1 2 9\nb 1 1 2 3\n",  # header width disagrees with the bag
            "s td 1 2 5\nb 1 1 2\n",  # decomposes another vertex count
            # another vertex count, and a bag above the width cap
            "s td 1 16 16\nb 1 " + " ".join(map(str, range(1, 17))) + "\n",
        ],
    )
    def test_gamma_rejects_a_bad_td(self, tmp_path, capsys, td_text):
        path = _write_graph(tmp_path, GenSpec("cycle", 9))
        td_file = tmp_path / "bad.td"
        td_file.write_text(td_text)
        assert main(["gamma", path, "--td", str(td_file)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gamma_refuses_a_bag_the_dp_cannot_pack(self, tmp_path, monkeypatch, capsys):
        _check_failure(tmp_path, monkeypatch, capsys, *FAILURES["row-packing"])

    def test_gamma_td_needs_the_dp(self, tmp_path, capsys):
        path = _write_graph(tmp_path, GenSpec("path", 4))
        td_file = tmp_path / "p4.td"
        td_file.write_text(emit_td(td_from_vertex_cover(gen(GenSpec("path", 4)), [1, 2])))
        assert main(["gamma", path, "--td", str(td_file), "--method", "oracle"]) == 2

    @pytest.mark.parametrize(
        "spec,oracle_checked",
        [
            (GenSpec("tree", 30), True),
            (GenSpec("path", 40), False),  # the oracle takes minutes here
            (GenSpec("cycle", 25), False),
            (GenSpec("path", 20), True),
            (GenSpec("cycle", 20), True),
        ],
    )
    def test_gamma_solves_low_treewidth_graphs(
        self, tmp_path, capsys, spec, oracle_checked
    ):
        g = gen(spec)
        path = _write_graph(tmp_path, spec)
        assert main(["gamma", path, "--method", "dp", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dp"]["width"] <= 2
        ids = {frozenset((u + 1, v + 1)): e for e, (u, v) in enumerate(g.edges)}
        witness = EdgeSet.from_ids(ids[frozenset(pair)] for pair in payload["witness"])
        assert witness.size == len(payload["witness"]) == payload["gamma_prime"]
        assert is_minimal_eds(g, witness)
        if oracle_checked:
            want = upper_eds_exact(g, limit=64).gamma_prime
            assert payload["gamma_prime"] == want


def _write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def _p4(tmp_path):
    return _write_graph(tmp_path, GenSpec("path", 4))


# K13 in one bag: 13 fields of 5 bits and 4 alpha bits exceed the 64 of a
# row, though 13 is within --max-width
K13_TD = "s td 1 13 13\nb 1 " + " ".join(map(str, range(1, 14))) + "\n"

# (expected exit code, argv for a scratch directory, exception the patched
# solve raises or None, text the error output must hold, with {tmp} standing
# for the scratch directory)
FAILURES = {
    "malformed-gr": (
        2,
        lambda t: ["solve", _write(t, "bad.gr", "not a graph\n"), "-k", "1"],
        None,
        "error: {tmp}/bad.gr: line 1: edge line before header",
    ),
    "malformed-td": (
        2,
        lambda t: ["gamma", _p4(t), "--td", _write(t, "bad.td", "b 1 1 2\n")],
        None,
        "error: {tmp}/bad.td: line 1: content before header",
    ),
    "bad-gen-spec": (
        2, lambda t: ["gen", "--family", "cycle", "--n", "2"], None, "error: "
    ),
    "missing-file": (
        2, lambda t: ["solve", str(t / "nope.gr"), "-k", "1"], None, "{tmp}/nope.gr"
    ),
    "directory-graph": (2, lambda t: ["solve", str(t), "-k", "1"], None, "error: "),
    "undecodable-graph": (
        2,
        lambda t: ["solve", _write(t, "bytes.gr", b"p gr \xff\xfe\x96\n"), "-k", "1"],
        None,
        "error: {tmp}/bytes.gr: 'utf-8' codec can't decode",
    ),
    "undecodable-td": (
        2,
        lambda t: ["gamma", _p4(t), "--td", _write(t, "bytes.td", b"s td \xff\x96\n")],
        None,
        "error: {tmp}/bytes.td: 'utf-8' codec can't decode",
    ),
    "directory-td": (2, lambda t: ["gamma", _p4(t), "--td", str(t)], None, "error: "),
    "directory-gen-out": (
        2,
        lambda t: ["gen", "--family", "path", "--n", "4", "--out", str(t)],
        None,
        "error: ",
    ),
    "directory-emit-td": (
        2, lambda t: ["decomp", _p4(t), "--emit-td", str(t)], None, "error: "
    ),
    "width-cap": (
        3,
        lambda t: [
            "solve", _write_graph(t, GenSpec("gnp", 16, 0.9, 5)), "-k", "50",
            "--max-width", "4",
        ],
        None,
        "above the cap 4",
    ),
    "row-packing": (
        3,
        lambda t: [
            "gamma", _write_graph(t, GenSpec("gnp", 13, 1.0, 1)),
            "--td", _write(t, "k13.td", K13_TD),
        ],
        None,
        "64",
    ),
    "oracle-limit": (3, lambda t: ["oracle", _p4(t), "--limit", "2"], None, "error: "),
    "memory": (
        3, lambda t: ["solve", _p4(t), "-k", "3"], MemoryError(), "error: out of memory"
    ),
    "internal": (
        4,
        lambda t: ["solve", _p4(t), "-k", "3"],
        RuntimeError("boom"),
        "error: internal: RuntimeError: boom",
    ),
}


def _check_failure(tmp_path, monkeypatch, capsys, code, argv, injected, message):
    if injected is not None:
        def failing(*args, **kwargs):
            raise injected

        monkeypatch.setattr("ueds.cli.solve", failing)
    assert main(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert ("Traceback" in err) == (code == 4)
    assert message.format(tmp=tmp_path) in err


class TestExitCodes:
    @pytest.mark.parametrize("code,argv,injected,message", FAILURES.values(), ids=FAILURES)
    def test_each_failure_kind_exits_its_code(
        self, tmp_path, monkeypatch, capsys, code, argv, injected, message
    ):
        _check_failure(tmp_path, monkeypatch, capsys, code, argv, injected, message)

    def test_resource_cap_exceeded_catches_both_subclasses(self):
        refusals = (
            lambda: choose_decomposition(gen(GenSpec("gnp", 16, 1.0, 1)), 4),
            lambda: upper_eds_exact(gen(GenSpec("path", 4)), limit=2),
        )
        caught = []
        for refuse in refusals:
            try:
                refuse()
            except ResourceCapExceeded as exc:
                caught.append(type(exc))
        assert caught == [WidthCapExceeded, InstanceTooLarge]

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "-k", "2", "--max-width", "-3"],
            ["gamma", "--method", "dp", "--max-width", "-3"],
            ["gamma", "--oracle-limit", "-1"],
            ["oracle", "--limit", "-1"],
            ["decomp", "--max-width", "-1"],
            ["selfcheck", "--count", "-5"],
            ["selfcheck", "--nmax", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_a_negative_limit_is_a_usage_error(self, p4_file, argv, capsys):
        if argv[0] != "selfcheck":
            argv = [argv[0], p4_file, *argv[1:]]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "not a nonnegative integer" in capsys.readouterr().err

    def test_a_zero_nmax_is_a_usage_error(self, capsys):
        # an instance has at least one vertex; --count 0 stays legal
        with pytest.raises(SystemExit) as err:
            main(["selfcheck", "--count", "3", "--nmax", "0", "--json"])
        assert err.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err
        assert main(["selfcheck", "--count", "0", "--nmax", "1", "--json"]) == 0


class TestEntryPoint:
    def test_module_invocation(self, p4_file):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ueds", "solve", p4_file, "-k", "2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "decision: yes" in proc.stdout
