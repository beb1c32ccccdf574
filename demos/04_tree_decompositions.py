"""
Tree decompositions
===================

A vertex cover C yields a path of bags C + {v}, one per vertex outside C, of
width at most |C|.  The min-fill elimination heuristic and the greedy path
follow the graph's treewidth instead; the solver runs on the narrower of the
two, and a tie goes to the path, which has no join nodes.
The nice form rewrites any valid decomposition into leaf, introduce,
introduce-edge, forget and join nodes with empty root and leaf bags,
introducing every edge exactly once.
"""

from ueds.generate import GenSpec, gen
from ueds import (
    emit_td,
    greedy_maximal_matching,
    make_nice,
    parse_graph,
    parse_td,
    td_from_vertex_cover,
    td_greedy_path,
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
print("nice decomposition:", len(nd.nodes), "nodes")
for kind in ("leaf", "introduce", "introduce-edge", "forget", "join"):
    print(f"  {kind}: {nd.count(kind)}")
print("violations:", validate_nice(p4, nd))

# Validation is data, not exceptions: breaking the decomposition names the
# failure.
broken = parse_td("s td 1 3 4\nb 1 1 2 3\n")
print("broken decomposition:", validate_td(p4, broken))

# On a tree the cover path is as wide as the cover, and the greedy path is
# wider than min-fill, which has width 1: the solver picks min-fill.
tree = gen(GenSpec("tree", 30))
cover = vertex_cover_from_matching(tree, greedy_maximal_matching(tree))
td = td_min_fill(tree)
print("\ntree-30: cover path width", td_from_vertex_cover(tree, cover).width,
      "greedy path width", td_greedy_path(tree).width,
      "min-fill width", td.width, "with", make_nice(tree, td).count("join"), "join nodes")

# On this random graph the two tie at width 4, and the solver picks the
# path, whose nice form has no joins.
g = gen(GenSpec("gnp", 12, 0.3, 24))
for name, td in (("greedy path", td_greedy_path(g)), ("min-fill", td_min_fill(g))):
    print(f"gnp-12: {name} width", td.width, "with",
          make_nice(g, td).count("join"), "join nodes")
