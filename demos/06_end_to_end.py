"""
The full pipeline
=================

solve() chains three stages: a greedy maximal matching of size >= k settles
the question immediately; otherwise kernelization may decide or shrink the
instance; whatever remains goes to the decomposition dynamic program.  The
selfcheck harness replays the whole cross-validation suite on demand.
"""

from ueds import solve
from ueds.generate import GenSpec, gen
from ueds.graph import emit_graph
from ueds.selfcheck import selfcheck

g = gen(GenSpec("gnp", 10, 0.4, seed=11))
print(emit_graph(g))

for k in (2, 4, 6, 8):
    report = solve(g, k)
    value = report.gamma_prime if report.gamma_prime is not None else report.reduced_gamma_prime
    print(
        f"k={k}: {'YES' if report.decision else 'no '}  stage={report.stage:18s}"
        + (f" gamma'={value}" if value is not None else "")
    )

# Witnesses on demand; kernel-decided instances fall back to the DP on the
# original graph so the witness refers to it.
report = solve(g, 3, want_witness=True)
print(f"\nwitness for k=3: {report.witness} (stage {report.stage})")

# Reports serialize deterministically (timings aside), which the acceptance
# suite checks byte-for-byte.
print("\nJSON report:")
print(solve(g, 3).to_json(include_timings=False))

# A quick selfcheck: oracle vs DP, kernel safety, matching and star-structure
# invariants on a fresh seeded batch.
print(selfcheck(count=20, nmax=8, seed=5).format_text())
