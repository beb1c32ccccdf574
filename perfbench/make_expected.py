"""Build ``expected/<workload>.json``: every pool instance with its answer.

    python3 perfbench/make_expected.py [workload ...]

gamma' comes from the enumeration oracle (edge limit 64) and from the DP; the
two must agree or nothing is written.  For kernelize-sparse the file records
k (greedy matching size + 1), the outcome class and the reduced (n, m, k).
Each instance also records a hash of its graph text, so a run notices when
the generator no longer reproduces it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ueds import DecidedYes, emit_graph, gamma_prime, gen, greedy_maximal_matching, kernelize  # noqa: E402
from ueds.oracle import upper_eds_exact  # noqa: E402

from workloads import EXPECTED_DIR, WORKLOADS, Workload, graph_sha, spec_of, stratum_seeds  # noqa: E402

ORACLE_LIMIT = 64


def answer(workload: Workload, g) -> dict:
    if workload.name == "kernelize-sparse":
        k = greedy_maximal_matching(g).size + 1
        out = kernelize(g, k)
        if isinstance(out, DecidedYes):
            return {"k": k, "outcome": "yes", "rule": out.rule}
        return {"k": k, "outcome": "reduced", "reduced": [out.graph.n, out.graph.m, out.k]}
    oracle = upper_eds_exact(g, limit=ORACLE_LIMIT).gamma_prime
    dp = gamma_prime(g, method="dp").gamma_prime
    if oracle != dp:
        raise SystemExit(f"oracle says {oracle} but the DP says {dp}")
    return {"gamma": oracle}


def make(workload: Workload) -> None:
    instances = []
    for index, stratum in enumerate(workload.strata):
        for seed in stratum_seeds(index, stratum):
            g = gen(spec_of(stratum, seed))
            instances.append({
                "stratum": index,
                "seed": seed,
                "sha": graph_sha(emit_graph(g)),
                **answer(workload, g),
            })
        print(f"{workload.name}: stratum {index} {stratum} done", flush=True)
    strata = ",\n".join("    " + json.dumps(asdict(s)) for s in workload.strata)
    rows = ",\n".join("    " + json.dumps(i) for i in instances)
    EXPECTED_DIR.mkdir(exist_ok=True)
    (EXPECTED_DIR / f"{workload.name}.json").write_text(
        f'{{\n  "workload": "{workload.name}",\n'
        f'  "strata": [\n{strata}\n  ],\n'
        f'  "instances": [\n{rows}\n  ]\n}}\n'
    )


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        make(WORKLOADS[name])
