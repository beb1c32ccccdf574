import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ueds.decomposition import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    LEAF,
    NiceDecomposition,
    NiceNode,
    TreeDecomposition,
    emit_td,
    make_nice,
    parse_td,
    td_from_vertex_cover,
    td_greedy_path,
    td_min_fill,
    validate_nice,
    validate_td,
)
from ueds.errors import (
    DecompositionFormatError,
    InvalidDecomposition,
    NotACover,
    WidthCapExceeded,
)
from ueds.generate import GenSpec, gen
from ueds.graph import Graph, greedy_maximal_matching, vertex_cover_from_matching
from ueds.pipeline import choose_decomposition

from conftest import graphs, minimum_vertex_cover
from decomposition_reference import (
    greedy_path_reference,
    min_fill_reference,
    validate_td_reference,
)

ROOT = Path(__file__).resolve().parent.parent


class TestFromCover:
    def test_p4(self, p4):
        td = td_from_vertex_cover(p4, [1, 2])
        assert td.bags == ((0, 1, 2), (1, 2, 3))
        assert td.tree_edges == ((0, 1),)
        assert td.width == 2
        assert validate_td(p4, td) == []

    def test_k2(self, k2):
        td = td_from_vertex_cover(k2, [0])
        assert td.bags == ((0, 1),) and td.width == 1

    def test_k3(self, k3):
        td = td_from_vertex_cover(k3, [0, 1])
        assert td.bags == ((0, 1, 2),) and td.width == 2

    def test_not_a_cover(self, p4):
        with pytest.raises(NotACover):
            td_from_vertex_cover(p4, [0])

    def test_edgeless(self):
        g = Graph(3, [])
        td = td_from_vertex_cover(g, [])
        assert len(td.bags) == 3 and td.width == 0
        assert validate_td(g, td) == []

    @given(graphs(max_n=7))
    @settings(max_examples=50)
    def test_width_at_most_cover_size(self, g):
        cover = vertex_cover_from_matching(g, greedy_maximal_matching(g))
        td = td_from_vertex_cover(g, cover)
        assert td.width <= len(cover)
        assert validate_td(g, td) == []


class TestMinFill:
    def test_p4_ties_go_to_degree_then_id(self, p4):
        # every fill is 0; vertices 1 and 4 have degree 1 and 1 goes first
        td = td_min_fill(p4)
        assert td.bags == ((0, 1), (1, 2), (2, 3))  # the bag {4} is dropped
        assert td.tree_edges == ((0, 1), (1, 2))

    def test_subset_bag_is_dropped(self, k13):
        # leaves 2 and 3 go first; then the center and leaf 4 tie on fill 0
        # and degree 1, and the center goes, leaving the bag {4}, which is a
        # subset of the center's bag {1, 4}
        td = td_min_fill(k13)
        assert td.bags == ((0, 1), (0, 2), (0, 3))
        assert td.tree_edges == ((0, 2), (1, 2))

    def test_fill_outranks_degree(self):
        # K4 on 0..3 with a pendant C4 on 4..7: vertices 0, 1, 2 have degree
        # 3 but fill 0, the cycle vertices degree 2 but fill 1
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4),
                      (4, 5), (5, 6), (6, 7), (7, 4)])
        td = td_min_fill(g)
        assert td.bags[0] == (0, 1, 2, 3)
        assert td.width == 3 and validate_td(g, td) == []

    def test_components_are_chained(self):
        g = Graph(5, [(0, 1), (3, 4)])
        td = td_min_fill(g)
        assert validate_td(g, td) == []
        assert len(td.tree_edges) == len(td.bags) - 1 and td.width == 1

    def test_low_treewidth_families(self):
        for spec, width in (
            (GenSpec("tree", 30), 1),
            (GenSpec("path", 40), 1),
            (GenSpec("cycle", 25), 2),
            (GenSpec("tree", 200, seed=3), 1),
        ):
            g = gen(spec)
            td = td_min_fill(g)
            assert td.width == width and validate_td(g, td) == []

    @given(graphs(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_valid_pruned_and_deterministic(self, g):
        td = td_min_fill(g)
        assert validate_td(g, td) == []
        adj = td.neighbors()
        for i, bag in enumerate(td.bags):
            assert all(not set(bag) <= set(td.bags[j]) for j in adj[i])
        assert td_min_fill(g) == td
        for placement in ("early", "late"):
            assert validate_nice(g, make_nice(g, td, edge_placement=placement)) == []

    def test_stops_at_the_cap(self):
        g = gen(GenSpec("gnp", 12, 0.3, 24))
        fill = td_min_fill(g)
        assert fill.width == 4
        assert td_min_fill(g, max_bag=5) == fill
        assert td_min_fill(g, max_bag=4) is None
        # on a sparse graph of high treewidth the elimination stops early
        big = gen(GenSpec("gnp", 1000, 3 / 999, 1))
        assert td_min_fill(big, max_bag=14) is None


def grid(rows: int, cols: int) -> Graph:
    return Graph(rows * cols, [
        (v, w)
        for v in range(rows * cols)
        for w in (v + 1 if (v + 1) % cols else -1, v + cols)
        if 0 <= w < rows * cols
    ])


# the empty graph, and graphs with isolated vertices and several components
any_graphs = st.one_of(st.just(Graph(0, [])), graphs(max_n=10))


def spider(legs: int, length: int) -> Graph:
    """A center (vertex 0) with ``legs`` paths of ``length`` edges each."""
    edges = []
    for leg in range(legs):
        prev = 0
        for step in range(length):
            v = 1 + leg * length + step
            edges.append((prev, v))
            prev = v
    return Graph(1 + legs * length, edges)


def pool_graphs(workload: str, per_stratum: int) -> list[Graph]:
    """The first graphs of each stratum of a benchmark pool, regenerated from
    the GenSpecs its expected-answers file records."""
    data = json.loads((ROOT / "perfbench" / "expected" / f"{workload}.json").read_text())
    strata = data["strata"]
    taken = [0] * len(strata)
    out = []
    for inst in data["instances"]:
        s = strata[inst["stratum"]]
        if taken[inst["stratum"]] == per_stratum:
            continue
        taken[inst["stratum"]] += 1
        n = s["n"]
        if s["m"] is not None:
            p = s["m"] / (n * (n - 1) / 2)
        else:
            p = None if s["degree"] is None else s["degree"] / (n - 1)
        out.append(gen(GenSpec(s["family"], n, p, inst["seed"])))
    return out


def assert_min_fill_matches_reference(g: Graph, max_bags) -> None:
    for max_bag in max_bags:
        assert td_min_fill(g, max_bag) == min_fill_reference(g, max_bag), max_bag


class TestMinFillAgainstReference:
    """td_min_fill keeps each vertex's fill up to date as neighborhoods
    change; the reference recounts it from scratch.  Bag for bag the same."""

    @given(st.one_of(st.just(Graph(0, [])), graphs(max_n=12)))
    @settings(max_examples=150, deadline=None)
    def test_small_graphs(self, g):
        assert_min_fill_matches_reference(g, [None, *range(g.n + 2)])

    @pytest.mark.parametrize(
        "g",
        [
            Graph(300, [(0, v) for v in range(1, 300)]),
            Graph(300, [(v, 299) for v in range(299)]),
            spider(100, 2),
            spider(30, 5),
            grid(3, 20),
            grid(4, 15),
            grid(6, 10),
        ],
        ids=["star", "star-high-center", "spider-100x2", "spider-30x5",
             "grid-3x20", "grid-4x15", "grid-6x10"],
    )
    def test_stars_spiders_and_grids(self, g):
        assert_min_fill_matches_reference(g, [None, *range(1, 9)])

    @pytest.mark.parametrize("workload", ["gamma-auto", "solve-decide"])
    def test_small_pool_graphs(self, workload):
        for g in pool_graphs(workload, per_stratum=10):
            assert_min_fill_matches_reference(g, [None, *range(1, g.n + 1)])

    def test_sparse_pool_graphs(self):
        # the reference takes seconds on the wide gnp graphs without a cap
        for g in pool_graphs("kernelize-sparse", per_stratum=1):
            assert_min_fill_matches_reference(g, (2, 5, 12) if g.m >= g.n else (None, 2))


class TestGreedyPath:
    @given(any_graphs)
    @settings(max_examples=150, deadline=None)
    def test_valid_and_equal_to_the_reference(self, g):
        td = td_greedy_path(g)
        assert td == greedy_path_reference(g)
        assert validate_td(g, td) == validate_td_reference(g, td) == []
        assert len(td.bags) == g.n
        for placement in ("early", "late"):
            nd = make_nice(g, td, edge_placement=placement)
            assert validate_nice(g, nd) == [] and nd.count(JOIN) == 0

    @given(any_graphs)
    @settings(max_examples=80, deadline=None)
    def test_stops_at_the_cap(self, g):
        full = td_greedy_path(g)
        for max_bag in range(g.n + 2):
            capped = td_greedy_path(g, max_bag=max_bag)
            assert (capped is None) == (full.width > max_bag - 1)
            assert capped in (None, full)

    def test_closing_outranks_fewer_unplaced_neighbors(self):
        # K(2,3) with sides {0, 4} and {1, 2, 3}: the order starts at 1, the
        # lowest id of the lowest degree, and 0 and 4 tie on the lower id.
        # Then 4 is the last unplaced neighbor of the active vertex 1, so it
        # goes before 2 and 3, which have fewer unplaced neighbors
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        td = td_greedy_path(g)
        assert td.bags == ((1,), (0, 1), (0, 1, 4), (0, 2, 4), (0, 3, 4))
        assert td.tree_edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_low_treewidth_families(self):
        star = Graph(2000, [(0, v) for v in range(1, 2000)])
        for g, width in (
            (star, 1),
            (gen(GenSpec("path", 40)), 1),
            (gen(GenSpec("cycle", 25)), 2),
            (grid(5, 40), 5),
            (grid(6, 30), 6),
        ):
            td = td_greedy_path(g)
            assert td.width == width and validate_td(g, td) == []
        # a grid of six rows is where it beats min-fill; a tree, where it loses
        assert td_min_fill(grid(6, 30)).width == 7
        tree = gen(GenSpec("tree", 200, seed=3))
        assert td_greedy_path(tree).width > td_min_fill(tree).width == 1


class TestChooseDecomposition:
    @given(any_graphs)
    @settings(max_examples=80, deadline=None)
    def test_the_narrower_wins_and_a_tie_goes_to_the_path(self, g):
        path, fill = td_greedy_path(g), td_min_fill(g)
        want = ("min-fill", fill) if fill.width < path.width else ("greedy-path", path)
        for max_width in range(g.n + 2):
            if min(path.width, fill.width) + 1 > max_width:
                with pytest.raises(WidthCapExceeded, match="min-fill"):
                    choose_decomposition(g, max_width)
            else:
                assert choose_decomposition(g, max_width) == want

    @pytest.mark.parametrize("workload", ["gamma-auto", "solve-decide"])
    def test_both_builders_are_valid_on_the_pools(self, workload):
        # the DP stage builds the nice form of the chosen decomposition
        # without validate_td, so both builders must give valid ones
        for g in pool_graphs(workload, per_stratum=10):
            for td in (td_greedy_path(g), td_min_fill(g)):
                assert validate_td(g, td) == []

    @pytest.mark.parametrize(
        "g",
        [Graph(300, [(0, v) for v in range(1, 300)]), spider(30, 5), grid(6, 30),
         gen(GenSpec("tree", 200, seed=3))],
        ids=["star", "spider-30x5", "grid-6x30", "tree-200"],
    )
    def test_both_builders_are_valid_on_wide_families(self, g):
        for td in (td_greedy_path(g), td_min_fill(g)):
            assert validate_td(g, td) == []

    def test_sources(self):
        tree = gen(GenSpec("tree", 30))
        assert choose_decomposition(tree)[0] == "min-fill"
        assert choose_decomposition(gen(GenSpec("cycle", 9)))[0] == "greedy-path"
        # one of the two is refused at the cap, the other fits
        tree = gen(GenSpec("tree", 200, seed=3))
        assert choose_decomposition(tree, 2) == ("min-fill", td_min_fill(tree))
        six = grid(6, 30)
        assert choose_decomposition(six, 7) == ("greedy-path", td_greedy_path(six))


class TestValidateTd:
    def test_missing_bag_reports_edge(self, p4):
        broken = TreeDecomposition(n=4, bags=((0, 1, 2),), tree_edges=())
        violations = validate_td(p4, broken)
        assert any("edge (3, 4)" in v for v in violations)
        assert any("vertex 4" in v for v in violations)

    def test_interpolation_violation_names_vertex(self, p4):
        broken = TreeDecomposition(
            n=4,
            bags=((0, 1), (1, 2), (0, 2, 3)),
            tree_edges=((0, 1), (1, 2)),
        )
        violations = validate_td(p4, broken)
        assert any("vertex 1" in v and "disconnected" in v for v in violations)

    def test_non_tree_detected(self, k3):
        broken = TreeDecomposition(
            n=3, bags=((0, 1, 2), (0, 1, 2)), tree_edges=()
        )
        assert any("tree" in v for v in validate_td(k3, broken))


@st.composite
def broken_decompositions(draw):
    """Hypothesis strategy: (graph, decomposition) from a valid min-fill or
    cover-path decomposition with up to three faults: a vertex dropped from
    every bag or from one, a vertex added to a bag (which may split its
    holders) or repeated in it, a new edge in the graph, a tree edge dropped
    or added, a vertex out of range and a tree edge to a missing bag."""
    g = draw(graphs(max_n=8))
    if draw(st.booleans()):
        td = td_min_fill(g)
    else:
        td = td_from_vertex_cover(g, minimum_vertex_cover(g))
    n, edges = g.n, list(g.edges)
    bags = [list(bag) for bag in td.bags]
    tree = list(td.tree_edges)
    kinds = [
        "drop-vertex", "drop-from-bag", "add-to-bag", "repeat", "add-edge",
        "drop-tree-edge", "add-tree-edge", "out-of-range", "missing-bag",
    ]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        v = draw(st.integers(0, n - 1))
        i = draw(st.integers(0, len(bags) - 1)) if bags else None
        if kind == "drop-vertex":
            bags = [[u for u in bag if u != v] for bag in bags]
        elif kind == "drop-from-bag" and i is not None and v in bags[i]:
            bags[i].remove(v)
        elif kind == "add-to-bag" and i is not None and v not in bags[i]:
            bags[i] = sorted(bags[i] + [v])
        elif kind == "repeat" and i is not None and bags[i]:
            bags[i].append(draw(st.sampled_from(bags[i])))
        elif kind == "add-edge":
            free = [
                (a, c) for a in range(n) for c in range(a + 1, n)
                if (a, c) not in edges
            ]
            if free:
                edges = sorted(edges + [draw(st.sampled_from(free))])
        elif kind == "drop-tree-edge" and tree:
            tree.pop(draw(st.integers(0, len(tree) - 1)))
        elif kind == "add-tree-edge" and i is not None:
            tree.append((i, draw(st.integers(0, len(bags) - 1))))
        elif kind == "out-of-range" and i is not None:
            bags[i].append(n + draw(st.integers(0, 1)))
        elif kind == "missing-bag":
            tree.append((len(bags), 0))
    broken = TreeDecomposition(
        n=n, bags=tuple(tuple(bag) for bag in bags), tree_edges=tuple(tree)
    )
    return Graph(n, edges), broken


class TestValidateTdReference:
    """validate_td against the per-vertex search it replaced, violation for
    violation in order."""

    @given(broken_decompositions())
    @settings(max_examples=300, deadline=None)
    def test_same_violations(self, case):
        g, td = case
        assert validate_td(g, td) == validate_td_reference(g, td)

    def test_split_holders_on_a_long_path(self):
        # vertex 0 also in the bag of vertices 198 and 199, at the far end
        # of the path of bags
        g = gen(GenSpec("path", 200))
        td = td_min_fill(g)
        far = td.bags.index((198, 199))
        bags = list(td.bags)
        bags[far] = tuple(sorted(bags[far] + (0,)))
        broken = TreeDecomposition(n=g.n, bags=tuple(bags), tree_edges=td.tree_edges)
        violations = validate_td(g, broken)
        assert violations == validate_td_reference(g, broken)
        assert violations == ["bags containing vertex 1 are disconnected in the tree"]


class TestMakeNice:
    def test_k2_node_sequence(self, k2):
        nd = make_nice(k2, td_from_vertex_cover(k2, [0]))
        kinds = [node.kind for node in nd.nodes]
        assert kinds == [LEAF, INTRODUCE, INTRODUCE, INTRODUCE_EDGE, FORGET, FORGET]
        assert nd.nodes[-1].bag == ()
        assert validate_nice(k2, nd) == []

    def test_p4_three_edge_introductions(self, p4):
        td = td_from_vertex_cover(p4, [1, 2])
        nd = make_nice(p4, td)
        assert nd.count(INTRODUCE_EDGE) == p4.m == 3
        assert nd.width == td.width
        assert validate_nice(p4, nd) == []

    def test_k3_single_bag(self, k3):
        nd = make_nice(k3, td_from_vertex_cover(k3, [0, 1]))
        assert nd.count(INTRODUCE_EDGE) == 3
        assert nd.width == 2
        assert validate_nice(k3, nd) == []

    def test_join_shape(self, p4):
        td = TreeDecomposition(
            n=4, bags=((1, 2), (0, 1, 2), (1, 2, 3)), tree_edges=((0, 1), (0, 2))
        )
        nd = make_nice(p4, td)
        assert nd.count(JOIN) == 1
        assert validate_nice(p4, nd) == []

    def test_invalid_input_rejected(self, p4):
        broken = TreeDecomposition(n=4, bags=((0, 1, 2),), tree_edges=())
        with pytest.raises(InvalidDecomposition):
            make_nice(p4, broken)

    def test_late_placement_also_valid(self, p4):
        td = td_from_vertex_cover(p4, [1, 2])
        nd = make_nice(p4, td, edge_placement="late")
        assert validate_nice(p4, nd) == []
        assert nd.width == td.width

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_properties_on_random_graphs(self, g):
        cover = minimum_vertex_cover(g)
        td = td_from_vertex_cover(g, cover)
        for placement in ("early", "late"):
            nd = make_nice(g, td, edge_placement=placement)
            assert validate_nice(g, nd) == []
            assert nd.width == td.width
            # node count stays linear in n * (width + 1) + m
            assert len(nd.nodes) <= 4 * (g.n * (td.width + 1) + g.m) + 4
            for node in nd.nodes:
                if node.kind == INTRODUCE_EDGE:
                    u, v = node.edge
                    assert u in node.bag and v in node.bag


class TestValidateNice:
    def _nice_p4(self, p4):
        return make_nice(p4, td_from_vertex_cover(p4, [1, 2]))

    def test_duplicate_edge_introduction(self, p4):
        nodes = list(self._nice_p4(p4).nodes)
        idx = next(
            i for i, node in enumerate(nodes) if node.kind == INTRODUCE_EDGE
        )
        dup = nodes[idx]
        parent = next(
            i for i, node in enumerate(nodes) if idx in node.children
        )
        nodes.insert(idx + 1, NiceNode(
            kind=INTRODUCE_EDGE,
            bag=dup.bag,
            children=(idx,),
            edge=dup.edge,
            edge_id=dup.edge_id,
        ))
        # shift references of everything after the insertion point
        fixed = []
        for i, node in enumerate(nodes):
            if i <= idx + 1:
                fixed.append(node)
                continue
            children = tuple(
                c + 1 if c > idx else (idx + 1 if i == parent + 1 and c == idx else c)
                for c in node.children
            )
            fixed.append(NiceNode(
                kind=node.kind, bag=node.bag, children=children,
                vertex=node.vertex, edge=node.edge, edge_id=node.edge_id,
            ))
        nd = NiceDecomposition(nodes=fixed)
        assert any("introduced 2 times" in v for v in validate_nice(p4, nd))

    def test_forget_of_absent_vertex(self, p4):
        nodes = list(self._nice_p4(p4).nodes)
        idx = next(i for i, node in enumerate(nodes) if node.kind == FORGET)
        old = nodes[idx]
        absent = next(v for v in range(4) if v not in nodes[old.children[0]].bag)
        nodes[idx] = NiceNode(
            kind=FORGET, bag=old.bag, children=old.children, vertex=absent
        )
        assert validate_nice(p4, NiceDecomposition(nodes=nodes))

    def test_root_must_be_empty(self, p4):
        nodes = self._nice_p4(p4).nodes[:-1]  # drop the last forget
        nd = NiceDecomposition(nodes=nodes)
        assert any("root" in v for v in validate_nice(p4, nd))


class TestTdFormat:
    def test_spec_example_string(self, p4):
        td = parse_td("s td 2 3 4\nb 1 1 2 3\nb 2 2 3 4\n1 2\n")
        assert td.bags == ((0, 1, 2), (1, 2, 3))
        assert td.tree_edges == ((0, 1),)
        assert validate_td(p4, td) == []

    def test_round_trip_k2(self, k2):
        td = td_from_vertex_cover(k2, [0])
        assert parse_td(emit_td(td)) == td

    def test_round_trip_join_shape(self):
        td = TreeDecomposition(
            n=4, bags=((1, 2), (0, 1, 2), (1, 2, 3)), tree_edges=((0, 1), (0, 2))
        )
        assert parse_td(emit_td(td)) == td

    def test_round_trip_without_bags(self):
        # a decomposition without bags declares bag size 0 (TestParse refuses 7)
        td = parse_td("s td 0 0 3\n")
        assert td == TreeDecomposition(n=3, bags=(), tree_edges=())
        assert emit_td(td) == "s td 0 0 3\n"

    def test_out_of_range_vertex(self):
        with pytest.raises(DecompositionFormatError) as err:
            parse_td("s td 1 3 4\nb 1 1 2 9\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text",
        [
            "b 1 1 2\n",  # content before header
            "s td 2 3 4\nb 1 1 2 3\n1 2\n",  # missing bag
            "s td 1 2 4\nb 1 1 2\nb 1 1 2\n",  # duplicate bag id
            "s td 1 2 4\nb 1 1 2\n1 5\n",  # tree edge out of range
            "s td 1 3 4\nb 1 1 2\n",  # header width disagrees with bags
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(DecompositionFormatError):
            parse_td(text)
