"""
Tree decompositions
===================

A vertex cover C yields a path of bags C + {v}, one per vertex outside C, of
width at most |C|.  The min-fill elimination heuristic follows the graph's
treewidth instead, and it is the decomposition the solver runs on.
The nice form rewrites any valid decomposition into leaf, introduce,
introduce-edge, forget and join nodes with empty root and leaf bags,
introducing every edge exactly once.
"""

from ueds.generate import GenSpec, gen
from ueds import (
    emit_nice,
    emit_td,
    greedy_maximal_matching,
    make_nice,
    parse_graph,
    parse_td,
    td_from_vertex_cover,
    td_min_fill,
    validate_nice,
    validate_td,
    vertex_cover_from_matching,
)

p4 = parse_graph("p gr 4 3\n1 2\n2 3\n3 4\n")

# Matching endpoints always cover; here the cover is {2, 3}.
cover = vertex_cover_from_matching(p4, greedy_maximal_matching(p4))
td = td_from_vertex_cover(p4, [1, 2])  # the inner vertices, 0-indexed
print("bags:", [[v + 1 for v in bag] for bag in td.bags])
print("width:", td.width)
print("violations:", validate_td(p4, td))

# The exchange format round-trips.
text = emit_td(td)
print("\n.td serialization:\n" + text)
assert parse_td(text) == td

# Nice form: every edge introduced exactly once, as early as possible.
nd = make_nice(p4, td)
print("nice decomposition:")
print(emit_nice(nd))
print("violations:", validate_nice(p4, nd))

# Validation is data, not exceptions: breaking the decomposition names the
# failure.
broken = parse_td("s td 1 3 4\nb 1 1 2 3\n")
print("broken decomposition:", validate_td(p4, broken))

# On a tree the cover path is as wide as the cover, while the min-fill
# decomposition, the one the solver uses, has width 1.
tree = gen(GenSpec("tree", 30))
cover = vertex_cover_from_matching(tree, greedy_maximal_matching(tree))
td = td_min_fill(tree)
print("\ntree-30: cover path width", td_from_vertex_cover(tree, cover).width,
      "min-fill width", td.width, "with", make_nice(tree, td).count("join"), "join nodes")
