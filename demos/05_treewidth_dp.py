"""
The five-color dynamic program
===============================

Sweeping a nice decomposition bottom-up, each bag vertex is classified by its
role in the partial solution: black (untouched), purple (single-edge star
endpoint), green (star center), red (star leaf, certified once a black
neighbor appears).  The root accepts states where every red is certified, no
black-black edge survives, and every vertex met its role; the answer is the
largest solution size among them.
"""

import time

from ueds import extract_witness, is_minimal_eds, make_nice, run_dp, star_decomposition, td_min_fill, upper_eds_exact
from ueds.generate import GenSpec, gen

g = gen(GenSpec("gnp", 9, 0.4, seed=3))
print(f"instance: n={g.n} m={g.m}")

# The decomposition the solver uses: min-fill elimination.
td = td_min_fill(g)
nd = make_nice(g, td)
result = run_dp(g, nd, keep_tables=True)

print(f"gamma' via DP = {result.gamma_prime}  (min-fill decomposition, width {result.width}, "
      f"{len(nd.nodes)} nodes, peak table {result.max_table_size})")

# Per-node table sizes, the real footprint of the run.
for line in result.diagnostics_lines()[:6]:
    print("  ", line)
print("   ...")

# The witness reconstructs by walking back-references; it is a genuine
# minimal edge dominating set shaped as a star forest.
witness = extract_witness(g, nd, result)
print("witness edges:", [tuple(v + 1 for v in g.edges[e]) for e in witness])
print("witness minimal:", is_minimal_eds(g, witness))
structure = star_decomposition(g, witness)
print("witness stars:", len(structure.stars))

# The enumeration oracle agrees, here and on every instance the test suite
# throws at both.
print("oracle agrees:", upper_eds_exact(g, limit=64).gamma_prime == result.gamma_prime)

# Each vertex keeps one slot of the packed row for its whole lifetime in the
# decomposition, so the width, not the vertex count, sets the row size: a
# 200-vertex random tree (width 1) is solved in a fraction of a second.
tree = gen(GenSpec("tree", 200, seed=1))
tree_nd = make_nice(tree, td_min_fill(tree))
t0 = time.perf_counter()
tree_result = run_dp(tree, tree_nd, keep_tables=True)
tree_witness = extract_witness(tree, tree_nd, tree_result)
t1 = time.perf_counter()
print(f"\ntree-200: gamma' = {tree_result.gamma_prime}, width {tree_result.width}, "
      f"peak table {tree_result.max_table_size}, {1000 * (t1 - t0):.0f} ms, "
      f"witness minimal: {is_minimal_eds(tree, tree_witness)}")
