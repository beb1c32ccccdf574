"""Command-line driver.

Exit codes: 0 = yes (or success for non-decision commands), 1 = no (or
selfcheck failures), 2 = usage or input error (any other UedsError, or a path
that cannot be read or written), 3 = a ResourceCapExceeded or out of memory,
4 = internal error (an unexpected exception, reported with its traceback).
main has one except clause per exit code; a failure never exits 1.  An input
file that is not UTF-8 or not in its format is named in front of the message.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path
from typing import Callable, TypeVar

from .decomposition import emit_td, make_nice, parse_td, validate_nice
from .errors import FormatError, ResourceCapExceeded, UedsError
from .generate import FAMILIES, GenSpec, gen
from .graph import emit_graph, parse_graph
from .kernel import kernelize
from .oracle import DEFAULT_EDGE_LIMIT, MASK_BITS
from .pipeline import DEFAULT_WIDTH_CAP, choose_decomposition, gamma_prime, solve
from .selfcheck import selfcheck

__all__ = ["main", "build_parser"]


T = TypeVar("T")


def _load(path: str, parse: Callable[[str], T]) -> T:
    """parse applied to the file's text.  A decoding or format error is
    raised again as a UedsError whose message starts with the path."""
    try:
        return parse(Path(path).read_text())
    except (UnicodeDecodeError, FormatError) as exc:
        raise UedsError(f"{path}: {exc}") from exc


def _nonnegative_int(text: str) -> int:
    """The argparse type of every limit and count flag: a negative value is a
    usage error (exit 2), not a cap that refuses the instance (exit 3)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """The argparse type of --nmax: an instance has at least one vertex."""
    value = _nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


_MAX_WIDTH_HELP = "the most vertices a bag may hold (width + 1)"


def _witness_text(witness: list[tuple[int, int]]) -> str:
    return " ".join(f"({u},{v})" for u, v in witness)


def _add_limit(p: argparse.ArgumentParser, flag: str, default: int, help: str) -> None:
    p.add_argument(flag, type=_nonnegative_int, default=default, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ueds",
        description=(
            "Exact solver for the upper edge dominating set problem: the "
            "largest inclusion-minimal edge dominating set."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(
        sub.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )

    p = add("solve", help="decide gamma'(G) >= k")
    p.add_argument("graph", help=".gr input file")
    # a required option has no default to show
    p.add_argument(
        "-k", type=int, required=True, default=argparse.SUPPRESS,
        help="target solution size",
    )
    p.add_argument("--no-kernel", action="store_true", help="skip kernelization")
    p.add_argument("--witness", action="store_true", help="always produce a witness")
    _add_limit(p, "--max-width", DEFAULT_WIDTH_CAP, _MAX_WIDTH_HELP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--verbose", action="store_true", help="print the kernel trace")

    p = add("gamma", help="compute gamma'(G) exactly")
    p.add_argument("graph")
    p.add_argument("--method", choices=("auto", "dp", "oracle"), default="auto")
    _add_limit(p, "--max-width", DEFAULT_WIDTH_CAP, _MAX_WIDTH_HELP)
    _add_limit(
        p,
        "--oracle-limit",
        DEFAULT_EDGE_LIMIT,
        f"the most edges the oracle takes, never above {MASK_BITS}; auto runs the "
        "DP above it",
    )
    p.add_argument(
        "--td", default=None, help="run the DP over this PACE .td decomposition"
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--verbose", action="store_true", help="print per-node DP diagnostics")

    p = add("kernelize", help="reduce an instance or decide it")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("oracle", help="brute-force enumeration on a small instance")
    p.add_argument("graph")
    _add_limit(
        p, "--limit", DEFAULT_EDGE_LIMIT, f"the most edges it takes, never above {MASK_BITS}"
    )
    p.add_argument("--json", action="store_true")

    p = add("gen", help="generate a deterministic instance")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write here instead of stdout")

    p = add(
        "decomp", help="build and validate the tree decomposition the DP would use"
    )
    p.add_argument("graph")
    p.add_argument("--emit-td", default=None, help="write the .td file here")
    _add_limit(p, "--max-width", DEFAULT_WIDTH_CAP, _MAX_WIDTH_HELP)
    p.add_argument("--json", action="store_true")

    p = add("selfcheck", help="randomized cross-validation suite")
    _add_limit(p, "--count", 200, "random instances to check")
    p.add_argument(
        "--nmax", type=_positive_int, default=8, help="the most vertices of an instance"
    )
    p.add_argument("--seed", type=int, default=1, help="seed of the instance sequence")
    p.add_argument("--json", action="store_true")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load(args.graph, parse_graph)
    report = solve(
        g,
        args.k,
        use_kernel=not args.no_kernel,
        want_witness=args.witness,
        max_width=args.max_width,
        instance=Path(args.graph).name,
        diagnostics=args.verbose,
    )
    if args.json:
        print(report.to_json())
    else:
        print(f"instance: {report.instance}")
        print(f"k: {args.k}")
        print(f"decision: {'yes' if report.decision else 'no'}")
        print(f"stage: {report.stage}")
        if report.gamma_prime is not None:
            print(f"gamma_prime: {report.gamma_prime}")
        if report.reduced_gamma_prime is not None:
            print(
                f"gamma_prime (reduced instance, k={report.reduced_k}): "
                f"{report.reduced_gamma_prime}"
            )
        if report.witness is not None:
            where = " (on reduced instance)" if report.witness_on_reduced else ""
            print(f"witness{where}: {_witness_text(report.witness)}")
        if args.verbose and report.kernel:
            for line in report.kernel.get("trace", []):
                print(line)
        if args.verbose and report.dp:
            for line in report.dp.get("diagnostics", []):
                print(line)
    return 0 if report.decision else 1


def _cmd_gamma(args: argparse.Namespace) -> int:
    g = _load(args.graph, parse_graph)
    td = _load(args.td, parse_td) if args.td else None
    report = gamma_prime(
        g,
        method=args.method,
        max_width=args.max_width,
        oracle_limit=args.oracle_limit,
        instance=Path(args.graph).name,
        diagnostics=args.verbose,
        td=td,
    )
    if args.json:
        print(report.to_json())
    else:
        print(f"instance: {report.instance}")
        print(f"method: {report.method}")
        print(f"gamma_prime: {report.gamma_prime}")
        if report.witness is not None:
            print(f"witness: {_witness_text(report.witness)}")
        if args.verbose and report.dp:
            for line in report.dp.get("diagnostics", []):
                print(line)
    return 0


def _cmd_kernelize(args: argparse.Namespace) -> int:
    g = _load(args.graph, parse_graph)
    outcome = kernelize(g, args.k)
    payload = outcome.summary()
    if not payload["decided"]:
        payload["graph"] = emit_graph(outcome.graph)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in payload["trace"]:
            print(line)
        if payload["decided"]:
            print(f"decided: yes (rule {payload['rule']}: {payload['hint']})")
        else:
            print(
                f"reduced: n={payload['n']} m={payload['m']} k={payload['k']}"
            )
            sys.stdout.write(payload["graph"])
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load(args.graph, parse_graph)
    report = gamma_prime(g, method="oracle", oracle_limit=args.limit)
    payload = {
        "gamma_prime": report.gamma_prime,
        "witness": report.witness,
        "count_minimal": report.oracle["count_minimal"],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"gamma_prime: {payload['gamma_prime']}")
        print(f"minimal solutions: {payload['count_minimal']}")
        print(f"witness: {_witness_text(payload['witness'])}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(family=args.family, n=args.n, p=args.p, seed=args.seed)
    text = emit_graph(gen(spec))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decomp(args: argparse.Namespace) -> int:
    g = _load(args.graph, parse_graph)
    source, td = choose_decomposition(g, args.max_width)
    nd = make_nice(g, td)  # raises on an invalid td
    if args.emit_td:
        Path(args.emit_td).write_text(emit_td(td))
    payload = {
        "n": g.n,
        "m": g.m,
        "source": source,
        "bags": len(td.bags),
        "width": td.width,
        "nice_nodes": len(nd.nodes),
        "valid": validate_nice(g, nd) == [],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key in ("n", "m", "source", "bags", "width", "nice_nodes", "valid"):
            print(f"{key}: {payload[key]}")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    report = selfcheck(count=args.count, nmax=args.nmax, seed=args.seed)
    if args.json:
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.passed else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "gamma": _cmd_gamma,
    "kernelize": _cmd_kernelize,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "decomp": _cmd_decomp,
    "selfcheck": _cmd_selfcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except (UedsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault, not an answer: never exit 1 ("no")
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
