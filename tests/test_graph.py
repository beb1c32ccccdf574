import pytest
from hypothesis import given, settings

from ueds.errors import CoverViolation, GraphFormatError, NotStarForest
from ueds.graph import (
    EdgeSet,
    Graph,
    domination_count,
    emit_graph,
    greedy_maximal_matching,
    induced_subgraph,
    is_edge_dominating,
    is_minimal_eds,
    parse_graph,
    star_decomposition,
    vertex_cover_from_matching,
)

from conftest import graphs


class TestParse:
    def test_k2(self):
        g = parse_graph("p gr 2 1\n1 2\n")
        assert (g.n, g.m) == (2, 1)
        assert g.edges == ((0, 1),)

    def test_p4(self):
        g = parse_graph("p gr 4 3\n1 2\n2 3\n3 4\n")
        assert (g.n, g.m) == (4, 3)
        assert g.adj[1] == ((0, 0), (2, 1))

    def test_k3(self):
        g = parse_graph("p gr 3 3\n1 2\n2 3\n1 3\n")
        assert (g.n, g.m) == (3, 3)

    def test_comments_and_blank_lines(self):
        g = parse_graph("c hello\n\np gr 2 1\nc mid\n1 2\n")
        assert g.m == 1

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p gr x 1\n1 2\n", 1),
            ("p tw 2 1\n1 2\n", 1),
            ("p gr 2 1\n1 3\n", 2),
            ("p gr 2 1\n1 1\n", 2),
            ("p gr 3 2\n1 2\n1 2\n", 3),
            ("p gr 3 2\n1 2\n2 1\n", 3),
            ("1 2\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert err.value.line == line

    def test_declared_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p gr 3 2\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph("c only comments\n")

    def test_round_trip(self):
        g = parse_graph("p gr 4 3\n1 2\n2 3\n3 4\n")
        assert parse_graph(emit_graph(g)) == g


class TestEdgeSet:
    def test_iteration_ascending(self):
        s = EdgeSet.from_ids([5, 1, 3])
        assert list(s) == [1, 3, 5]
        assert len(s) == 3 and s.size == 3

    def test_membership_and_update(self):
        s = EdgeSet.from_ids([2])
        assert 2 in s and 1 not in s
        assert list(s.add(0)) == [0, 2]
        assert list(s.remove(2)) == []
        assert EdgeSet.from_ids([2]).issubset(EdgeSet.from_ids([1, 2]))


class TestDomination:
    def test_p4_middle_edge_dominates(self, p4):
        assert is_edge_dominating(p4, EdgeSet.from_ids([1]))

    def test_p4_end_edge_does_not(self, p4):
        assert not is_edge_dominating(p4, EdgeSet.from_ids([0]))

    def test_c4_perfect_matching(self, c4):
        assert is_edge_dominating(c4, EdgeSet.from_ids([0, 2]))

    def test_domination_count_examples(self, p4):
        m = EdgeSet.from_ids([0, 1])
        assert domination_count(p4, m, 2) == 1
        assert domination_count(p4, m, 0) == 2
        assert domination_count(p4, EdgeSet(), 1) == 0

    def test_domination_count_range_check(self, p4):
        with pytest.raises(ValueError):
            domination_count(p4, EdgeSet(), 3)

    @given(graphs(max_n=6))
    def test_dominating_iff_every_count_positive(self, g):
        # try the full edge set and the empty set plus a fixed slice
        for mask in {0, (1 << g.m) - 1, (1 << g.m) // 2}:
            m = EdgeSet(mask)
            counts_ok = all(
                domination_count(g, m, e) >= 1 for e in range(g.m)
            )
            assert counts_ok == is_edge_dominating(g, m)


class TestMinimal:
    def test_p4_cases(self, p4):
        assert is_minimal_eds(p4, EdgeSet.from_ids([0, 2]))
        assert not is_minimal_eds(p4, EdgeSet.from_ids([0, 1]))

    def test_k3_cases(self, k3):
        assert is_minimal_eds(k3, EdgeSet.from_ids([0]))
        assert not is_minimal_eds(k3, EdgeSet.from_ids([0, 1]))

    @given(graphs(max_n=5))
    @settings(max_examples=60)
    def test_minimal_means_no_proper_subset_dominates(self, g):
        for mask in range(1 << g.m):
            m = EdgeSet(mask)
            if not is_minimal_eds(g, m):
                continue
            sub = mask
            while True:
                sub = (sub - 1) & mask
                if sub == mask:
                    break
                assert not is_edge_dominating(g, EdgeSet(sub))
                if sub == 0:
                    break


class TestMatching:
    def test_p4_natural_order(self, p4):
        assert list(greedy_maximal_matching(p4)) == [0, 2]

    def test_star_any_order_single_edge(self, k13):
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            assert greedy_maximal_matching(k13, order).size == 1

    def test_empty_graph(self):
        assert greedy_maximal_matching(Graph(3, [])).size == 0

    def test_order_must_be_permutation(self, p4):
        with pytest.raises(ValueError):
            greedy_maximal_matching(p4, [0, 0, 1])

    @given(graphs(max_n=6))
    def test_greedy_matching_is_minimal_eds(self, g):
        m = greedy_maximal_matching(g)
        if g.m:
            assert is_minimal_eds(g, m)
        # maximality: no edge has both endpoints unmatched
        touched = set()
        for e in m:
            touched.update(g.edges[e])
        for u, v in g.edges:
            assert u in touched or v in touched


class TestStars:
    def test_p4_two_single_edge_stars(self, p4):
        s = star_decomposition(p4, EdgeSet.from_ids([0, 2]))
        assert len(s.stars) == 2
        assert all(star.center is None for star in s.stars)
        assert s.isolated == ()

    def test_star_with_center(self, k13):
        s = star_decomposition(k13, EdgeSet.from_ids([0, 1, 2]))
        assert len(s.stars) == 1
        assert s.stars[0].center == 0
        assert s.stars[0].leaves == (1, 2, 3)

    def test_three_edge_path_rejected(self, p4):
        with pytest.raises(NotStarForest):
            star_decomposition(p4, EdgeSet.from_ids([0, 1, 2]))

    def test_isolated_vertices_reported(self, p4):
        s = star_decomposition(p4, EdgeSet.from_ids([1]))
        assert s.isolated == (0, 3)

    @given(graphs(max_n=5))
    @settings(max_examples=60)
    def test_every_minimal_eds_is_a_star_forest(self, g):
        for mask in range(1 << g.m):
            m = EdgeSet(mask)
            if is_minimal_eds(g, m):
                structure = star_decomposition(g, m)
                covered = set()
                for star in structure.stars:
                    assert not covered & star.vertex_set
                    covered |= star.vertex_set
                assert sorted(
                    e for star in structure.stars for e in star.edge_ids
                ) == list(m)


class TestVertexCover:
    def test_p4(self, p4):
        assert vertex_cover_from_matching(p4, EdgeSet.from_ids([0, 2])) == (0, 1, 2, 3)

    def test_k2(self, k2):
        assert vertex_cover_from_matching(k2, EdgeSet.from_ids([0])) == (0, 1)

    def test_star_single_matched_edge(self, k13):
        assert vertex_cover_from_matching(k13, EdgeSet.from_ids([0])) == (0, 1)

    def test_non_maximal_matching_rejected(self, p4):
        with pytest.raises(CoverViolation):
            vertex_cover_from_matching(p4, EdgeSet.from_ids([0]))


class TestGraphBasics:
    def test_rejects_self_loop_and_parallel(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (1, 0)])

    def test_induced_subgraph_relabels(self, p4):
        h = induced_subgraph(p4, [1, 2, 3])
        assert h.n == 2 or h.n == 3
        assert h.edges == ((0, 1), (1, 2))

    @given(graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_unchecked_builds_match_the_checked_constructor(self, g):
        # parse_graph and induced_subgraph skip Graph's simplicity check
        even = [(u // 2, v // 2) for u, v in g.edges if u % 2 == 0 and v % 2 == 0]
        for built, want in (
            (parse_graph(emit_graph(g)), Graph(g.n, list(g.edges))),
            (induced_subgraph(g, range(0, g.n, 2)), Graph((g.n + 1) // 2, even)),
        ):
            assert (built.n, built.m, built.edges) == (want.n, want.m, want.edges)
            assert built.adj == want.adj

    def test_edge_neighborhood_masks(self, p4):
        masks = p4.edge_neighborhood_masks
        assert masks[0] == 0b011 and masks[1] == 0b111 and masks[2] == 0b110
