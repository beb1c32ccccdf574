"""Workload definitions: instance pools, operation lists and answer checks.

Every workload draws its instances from a fixed pool of seeded GenSpec graphs
whose answers are committed in ``expected/<workload>.json`` (see
``make_expected.py``).  The pool is split into strata of fixed shape: a gnp
stratum keeps only graphs with exactly the stratum's edge count (gnp
conditioned on m, i.e. uniform G(n, m)), so the work per operation varies less
between runs than plain gnp would make it.  The run seed shuffles each stratum
and the operation list takes the strata in turn, so any prefix of the list has
the same mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ueds import (
    DecidedYes,
    EdgeSet,
    GenSpec,
    Graph,
    emit_graph,
    gamma_prime,
    gen,
    greedy_maximal_matching,
    is_minimal_eds,
    kernelize,
    parse_graph,
    solve,
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
INPUT_CACHE = Path(__file__).resolve().parent / "out" / "inputs"


@dataclass(frozen=True)
class Stratum:
    """``count`` graphs of one family and size.  A gnp stratum gives either m,
    the exact edge count (p is m / C(n, 2) and graphs with another edge count
    are skipped), or the average degree (p is degree / (n - 1))."""

    family: str
    n: int
    count: int
    m: int | None = None
    degree: float | None = None

    @property
    def p(self) -> float | None:
        if self.m is not None:
            return self.m / (self.n * (self.n - 1) / 2)
        return None if self.degree is None else self.degree / (self.n - 1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: tuple[Stratum, ...]
    traced_ops: int  # a traced run replays exactly this many operations


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gamma-auto",
            why=(
                "the default gamma command; the only workload where both the "
                "oracle and the kept-tables DP with witness extraction run"
            ),
            # m <= 22 routes to the oracle, m > 22 to the DP: five strata in
            # seven go to the oracle, so the median lies inside one of them.
            strata=(
                Stratum("gnp", 8, 40, m=14),
                Stratum("gnp", 9, 40, m=16),
                Stratum("gnp", 10, 40, m=18),
                Stratum("gnp", 10, 40, m=20),
                Stratum("gnp", 11, 40, m=22),
                Stratum("gnp", 10, 40, m=23),
                Stratum("gnp", 11, 40, m=23),
            ),
            traced_ops=84,
        ),
        Workload(
            name="solve-decide",
            why=(
                "the decision path: every k = gamma'+1 query is a no that must "
                "pass the DP with tables freed and no witness walk"
            ),
            # Every instance is asked twice, at k = gamma' and k = gamma' + 1.
            # Four light strata hold the median in a narrow band of cost; the
            # two heavy ones take most of the time.
            strata=(
                Stratum("gnp", 9, 30, m=12),
                Stratum("gnp", 10, 30, m=14),
                Stratum("gnp", 11, 30, m=14),
                Stratum("gnp", 12, 30, m=13),
                Stratum("gnp", 12, 30, m=20),
                Stratum("gnp", 11, 30, m=22),
            ),
            traced_ops=144,
        ),
        Workload(
            name="kernelize-sparse",
            why=(
                "the kernel does almost all the work and the DP none, on "
                "graphs about 100 times larger than in the other workloads"
            ),
            strata=(
                Stratum("tree", 250, 18),
                Stratum("tree", 500, 18),
                Stratum("gnp", 500, 18, degree=1.5),
                Stratum("gnp", 500, 18, degree=2.0),
                Stratum("tree", 1000, 18),
                Stratum("gnp", 1000, 18, degree=2.0),
                Stratum("gnp", 1000, 18, degree=3.0),
            ),
            traced_ops=56,
        ),
    )
}


class WrongAnswer(Exception):
    """An operation returned an answer that contradicts the expected file."""


def graph_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stratum_seeds(index: int, stratum: Stratum) -> list[int]:
    """GenSpec seeds of a stratum's pool: consecutive seeds from a fixed base,
    skipping those whose graph misses the stratum's exact edge count."""
    seeds: list[int] = []
    seed = (index + 1) * 1_000_000
    while len(seeds) < stratum.count:
        if stratum.m is None or gen(spec_of(stratum, seed)).m == stratum.m:
            seeds.append(seed)
        seed += 1
    return seeds


def spec_of(stratum: Stratum, seed: int) -> GenSpec:
    return GenSpec(stratum.family, stratum.n, stratum.p, seed)


@dataclass(frozen=True)
class Op:
    """One operation: the public call's input text plus the expected answer."""

    op_id: int
    text: str
    k: int | None
    expect: dict[str, Any]


def load_expected(workload: Workload) -> list[dict[str, Any]]:
    path = EXPECTED_DIR / f"{workload.name}.json"
    data = json.loads(path.read_text())
    strata = [Stratum(**s) for s in data["strata"]]
    if tuple(strata) != workload.strata:
        raise ValueError(f"{path.name} was made for other strata; remake it")
    return data["instances"]


def build_ops(workload: Workload, seed: int) -> list[Op]:
    """The seed's operation list: each stratum's items shuffled by the seed,
    then taken one stratum at a time in turn.  Inputs are regenerated from
    their GenSpecs and must hash to the recorded value."""
    rng = random.Random(f"{workload.name}:{seed}")
    per_stratum: list[list[tuple[dict[str, Any], int | None]]] = [
        [] for _ in workload.strata
    ]
    for inst in load_expected(workload):
        if workload.name == "solve-decide":
            for k in (inst["gamma"], inst["gamma"] + 1):
                per_stratum[inst["stratum"]].append((inst, k))
        elif workload.name == "kernelize-sparse":
            per_stratum[inst["stratum"]].append((inst, inst["k"]))
        else:
            per_stratum[inst["stratum"]].append((inst, None))
    for items in per_stratum:
        rng.shuffle(items)
    texts: dict[str, str] = {}
    ops: list[Op] = []
    for row in zip(*per_stratum):
        for inst, k in row:
            if inst["sha"] not in texts:
                texts[inst["sha"]] = instance_text(workload.strata[inst["stratum"]], inst)
            ops.append(Op(len(ops), texts[inst["sha"]], k, inst))
    return ops


def instance_text(stratum: Stratum, inst: dict[str, Any]) -> str:
    """The instance's graph text, regenerated from its GenSpec and checked
    against the recorded hash.  Texts are cached under out/inputs, because
    drawing a sparse gnp graph on 1,000 vertices takes half a second."""
    path = INPUT_CACHE / f"{inst['sha']}.gr"
    if path.is_file():
        text = path.read_text()
        if graph_sha(text) == inst["sha"]:
            return text
    text = emit_graph(gen(spec_of(stratum, inst["seed"])))
    if graph_sha(text) != inst["sha"]:
        raise ValueError(
            f"generator drift: {stratum} seed {inst['seed']} no longer gives "
            "the recorded graph"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return text


# -- untraced operations: exactly the public call a user makes ------------


def op_gamma(op: Op):
    return gamma_prime(parse_graph(op.text))


def op_solve(op: Op):
    return solve(parse_graph(op.text), op.k)


def op_kernelize(op: Op):
    g = parse_graph(op.text)
    k = greedy_maximal_matching(g).size + 1
    return k, kernelize(g, k)


OPERATIONS: dict[str, Callable[[Op], Any]] = {
    "gamma-auto": op_gamma,
    "solve-decide": op_solve,
    "kernelize-sparse": op_kernelize,
}


# -- answer checks -----------------------------------------------------------


def _valid_witness(g: Graph, pairs: list[tuple[int, int]], low: int, high: int) -> bool:
    """Distinct edges of g forming a minimal EDS of size between low and high."""
    ids = {frozenset(e): i for i, e in enumerate(g.edges)}
    keys = [frozenset((u - 1, v - 1)) for u, v in pairs]
    if not all(key in ids for key in keys):
        return False
    w = EdgeSet.from_ids(ids[key] for key in keys)
    return w.size == len(pairs) and low <= w.size <= high and is_minimal_eds(g, w)


def summary(workload: str, result: Any) -> dict[str, Any]:
    """The fields the drift guard compares between a pipeline call and its
    traced replay."""
    if workload == "kernelize-sparse":
        k, out = result
        if isinstance(out, DecidedYes):
            return {"k": k, "outcome": "yes", "rule": out.rule}
        return {"k": k, "outcome": "reduced", "reduced": [out.graph.n, out.graph.m, out.k]}
    return {
        "stage": result.stage,
        "decision": result.decision,
        "gamma_prime": result.gamma_prime,
        "reduced_gamma_prime": result.reduced_gamma_prime,
    }


def check(workload: str, op: Op, result: Any) -> None:
    """Raise WrongAnswer unless the result agrees with the expected file."""
    exp = op.expect
    if workload == "kernelize-sparse":
        _, out = result
        got = summary(workload, result)
        want = {key: exp.get(key) for key in got}
        if got != want:
            raise WrongAnswer(f"op {op.op_id}: kernel gave {got}, expected {want}")
        if got["outcome"] == "reduced":
            g = out.graph
            if out.k < 1 or g.n > 4 * out.k * out.k - 2:
                raise WrongAnswer(f"op {op.op_id}: kernel bound broken by {got}")
            if any(g.degree(v) == 0 for v in range(g.n)):
                raise WrongAnswer(f"op {op.op_id}: kernel left an isolated vertex")
        return
    gamma = exp["gamma"]
    if workload == "gamma-auto":
        if result.gamma_prime != gamma:
            raise WrongAnswer(f"op {op.op_id}: gamma' {result.gamma_prime}, expected {gamma}")
        need = gamma
    else:
        if result.decision != (gamma >= op.k):
            raise WrongAnswer(
                f"op {op.op_id}: decision {result.decision} for k={op.k}, gamma' {gamma}"
            )
        need = op.k
    if result.witness is not None and not result.witness_on_reduced:
        if not _valid_witness(parse_graph(op.text), result.witness, need, gamma):
            raise WrongAnswer(f"op {op.op_id}: witness {result.witness} is not valid")
    elif workload == "gamma-auto":
        raise WrongAnswer(f"op {op.op_id}: gamma without a witness")
