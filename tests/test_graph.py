import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ueds.decomposition import parse_td
from ueds.errors import (
    CoverViolation,
    DecompositionFormatError,
    GraphFormatError,
    NotStarForest,
)
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
from ueds.graph import _EMITTED, _parse_emitted, _parse_lines

from conftest import graphs


def _eager_adj(n, edges):
    """Each vertex's (neighbor, edge id) pairs in edge-id order, scanned
    from the edge list vertex by vertex."""
    return tuple(
        tuple((v if u == x else u, e) for e, (u, v) in enumerate(edges) if x in (u, v))
        for x in range(n)
    )


# the messages of test_errors_carry_line_numbers, without their line prefix
LINE_ERRORS = {
    "p gr x 1\n1 2\n": "non-integer header field in 'p gr x 1'",
    "p tw 2 1\n1 2\n": "malformed header 'p tw 2 1'",
    "p gr 2 1\n1 3\n": "vertex index out of range in '1 3'",
    "p gr 2 1\n1 1\n": "self-loop at vertex 1",
    "p gr 3 2\n1 2\n1 2\n": "duplicate edge (1, 2)",
    "p gr 3 2\n1 2\n2 1\n": "duplicate edge (2, 1)",
    "1 2\n": "edge line before header",
}

# header faults, which both PACE formats read by the same line conventions:
# (fault, format, text, line number or None, message without its line prefix)
HEADER_FAULTS = [
    ("duplicate", "gr", "p gr 2 1\nc\np gr 2 1\n", 3, "duplicate header"),
    ("duplicate", "td", "s td 1 1 1\nb 1 1\ns td 1 1 1\n", 3, "duplicate header"),
    ("malformed", "gr", "p gr 2\n", 1, "malformed header 'p gr 2'"),
    ("malformed", "td", "s gr 1 1 1\n", 1, "malformed header 's gr 1 1 1'"),
    ("non-integer", "gr", "p gr 2 1.0\n", 1, "non-integer header field in 'p gr 2 1.0'"),
    ("non-integer", "td", " s td 1 x 1\n", 1, "non-integer header field in 's td 1 x 1'"),
    ("negative", "gr", "p gr -2 1\n", 1, "negative counts in header"),
    ("negative", "td", "s td 0 -3 0\n", 1, "negative counts in header"),
    ("before-header", "gr", "c\n\n1 2\np gr 2 1\n", 3, "edge line before header"),
    ("before-header", "td", "c\nb 1 1\ns td 1 1 1\n", 2, "content before header"),
    ("missing", "gr", "c only comments\n", None, "missing header"),
    ("missing", "td", "\n  \n", None, "missing header"),
]
PARSERS = {"gr": (parse_graph, GraphFormatError), "td": (parse_td, DecompositionFormatError)}


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
        assert str(err.value) == f"line {line}: {LINE_ERRORS[text]}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p gr 2 1\np gr 2 1\n", "line 2: duplicate header"),
            ("  p\tgr 2  \r\n", "line 1: malformed header 'p\\tgr 2'"),
            ("p gr 2 -1\n", "line 1: negative counts in header"),
            ("p gr 3 1\n\t1 2 3 \n", "line 2: malformed edge line '1 2 3'"),
            ("p gr 3 1\n 1  x\n", "line 2: non-integer vertex in '1  x'"),
            ("p gr 3 1\n\n0 1\r\n", "line 3: vertex index out of range in '0 1'"),
            ("p gr 3 1\n1 2\n2 3\n", "line 3: more edge lines than declared"),
        ],
    )
    def test_error_messages(self, text, message):
        # a message quotes its line stripped of surrounding whitespace
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert str(err.value) == message

    def test_declared_count_mismatch(self):
        with pytest.raises(GraphFormatError, match=r"^declared 2 edges but found 1$"):
            parse_graph("p gr 3 2\n1 2\n")

    def test_missing_header(self):
        for text in ("c only comments\n", "", "\n  \n"):
            with pytest.raises(GraphFormatError, match=r"^missing header$"):
                parse_graph(text)

    @pytest.mark.parametrize(
        "fault,fmt,text,line,message",
        HEADER_FAULTS,
        ids=[f"{fmt}-{fault}" for fault, fmt, *_ in HEADER_FAULTS],
    )
    def test_header_faults_in_both_formats(self, fault, fmt, text, line, message):
        parse, error = PARSERS[fmt]
        with pytest.raises(error) as err:
            parse(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize(
        "text",
        [
            "p\tgr\t3\t2\n1\t2\n2 \t 3\n",
            "  c note\np gr 3 2\n\tc tabbed note\n1 2\n2 3\n",
            "cc not a header\nc\np gr 3 2\n1 2\ncomment 9 9\n2 3\n",
            "p gr 3 2\r\n1 2\r\n2 3\r\n",
            "p gr 3 2\n1 2\n2 3\n\n   \n\t\n",
            "\n \np gr 3 2\n  1 2  \n2 3",
        ],
    )
    def test_whitespace_comment_and_line_end_variants(self, text):
        assert parse_graph(text) == Graph(3, [(0, 1), (1, 2)])

    def test_round_trip(self):
        g = parse_graph("p gr 4 3\n1 2\n2 3\n3 4\n")
        assert parse_graph(emit_graph(g)) == g

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_edge_order(self, g, data):
        # edges in any order, either way round, keep their ids through text
        order = data.draw(st.permutations(range(g.m)))
        flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
        edges = [g.edges[e][::-1] if flip else g.edges[e] for e, flip in zip(order, flips)]
        h = Graph(g.n, edges)
        text = emit_graph(h)
        assert parse_graph(text) == h
        assert emit_graph(parse_graph(text)) == text


def _parsed(parse, text):
    """What a parser makes of text: its graph, or its error and line."""
    try:
        g = parse(text)
    except GraphFormatError as err:
        return ("error", str(err), err.line)
    return ("graph", g.n, g.edges)


FAULTS = (
    "one-token", "three-token", "out-of-range", "twenty-digits", "superscript-two",
    "plus-sign", "self-loop", "duplicate", "too-many-lines", "too-few-lines",
)


def _add_fault(lines: list[str], n: int, fault: str, data) -> None:
    """Edit the lines of a valid text, the header first, into one the line
    scan rejects, or reads although a field has an unusual form.  A line
    added as the fault is counted in the header, so that the bulk pass gets
    as far as its own check of that fault."""
    if fault in ("twenty-digits", "superscript-two", "plus-sign"):
        token = {
            "twenty-digits": data.draw(st.sampled_from(["0" * 19 + "1", "9" * 20])),
            "superscript-two": "\u00b2",  # str.isdigit accepts it, int does not
            "plus-sign": "+3",
        }[fault]
        i = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        fields[data.draw(st.integers(2 if i == 0 else 0, len(fields) - 1))] = token
        lines[i] = " ".join(fields)
    elif fault == "too-few-lines":
        lines[0] = f"p gr {n} {len(lines)}"
    elif fault == "too-many-lines":
        if len(lines) > 1:
            lines[0] = f"p gr {n} {len(lines) - 2}"
        else:
            lines.append("1 2")
    else:
        if fault == "out-of-range":
            line = data.draw(st.sampled_from([f"1 {n + 1}", f"0 {max(n, 1)}"]))
        elif fault == "duplicate":
            u, v = data.draw(st.sampled_from(lines[1:] or ["1 2"])).split()
            line = data.draw(st.sampled_from([f"{u} {v}", f"{v} {u}"]))
        else:
            line = {"one-token": "1", "three-token": "1 2 3", "self-loop": f"{n} {n}"}[fault]
        lines.append(line)
        lines[0] = f"p gr {n} {len(lines) - 1}"


class TestBulkParse:
    """parse_graph reads emit_graph's shape in bulk; every other text, and
    every text the bulk checks reject, takes the line scan.  Either way the
    result is the line scan's: the same graph, or the same error and line."""

    @given(st.one_of(st.just(Graph(0, [])), graphs(max_n=9)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_result_as_the_line_scan(self, g, data):
        order = data.draw(st.permutations(range(g.m)))
        flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
        lines = [f"p gr {g.n} {g.m}"] + [
            f"{u + 1} {v + 1}" if flip else f"{v + 1} {u + 1}"
            for (u, v), flip in zip((g.edges[e] for e in order), flips)
        ]
        fault = data.draw(st.sampled_from([None, *FAULTS]))
        if fault is not None:
            _add_fault(lines, g.n, fault, data)
        decorations = data.draw(st.sets(st.sampled_from(
            ["comments", "tabs", "trailing-spaces", "crlf", "no-final-newline"]
        ))) if data.draw(st.booleans()) else set()
        if "comments" in decorations:
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, len(lines)))
                lines.insert(at, data.draw(st.sampled_from(["c note", "", "  ", "c"])))
        if "tabs" in decorations:
            lines = [line.replace(" ", "\t") for line in lines]
        if "trailing-spaces" in decorations:
            lines = [line + "  " for line in lines]
        end = "\r\n" if "crlf" in decorations else "\n"
        text = end.join(lines) + ("" if "no-final-newline" in decorations else end)
        got = _parsed(parse_graph, text)
        assert got == _parsed(_parse_lines, text)
        # the bulk pass takes emit_graph's shape and never a text the scan rejects
        if fault is None and not decorations:
            assert _parse_emitted(text) == parse_graph(text)
        if got[0] == "error":
            assert _parse_emitted(text) is None

    def test_bulk_check_runs_in_constant_memory(self):
        # the possessive edge-line group keeps no backtracking state per line
        lines = 100_000
        text = f"p gr {lines + 1} {lines}\n" + "".join(
            f"{i} {i + 1}\n" for i in range(1, lines + 1)
        )
        tracemalloc.start()
        try:
            assert _EMITTED.fullmatch(text) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "text",
        [
            "p gr 3 1\n1 ²\n",
            "p gr ² 1\n1 2\n",
            "p gr 3 1\n1 +3\n",
            "p gr 3 1\n00000000000000000001 2\n",
            "p gr 3 1\n1 99999999999999999999\n",
            "p gr 3 1\n1 4\n",
            "p gr 3 2\n1 2\n2 1\n",
            "p gr 3 0\n",
            "p gr 0 0\n",
            "p gr 3 1\n1 2",
            "c first\np gr 3 1\n1 2\n",
        ],
    )
    def test_edge_cases(self, text):
        assert _parsed(parse_graph, text) == _parsed(_parse_lines, text)


class TestEdgeSet:
    def test_iteration_ascending(self):
        s = EdgeSet.from_ids([5, 1, 3])
        assert list(s) == [1, 3, 5]
        assert len(s) == 3 and s.size == 3

    def test_membership_and_update(self):
        s = EdgeSet.from_ids([2])
        assert 2 in s and 1 not in s


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

    @pytest.mark.parametrize("keep", [[-1], [0, 4], [4]])
    def test_induced_subgraph_rejects_a_vertex_out_of_range(self, p4, keep):
        with pytest.raises(ValueError, match=r"^kept vertices must lie in 0\.\.3$"):
            induced_subgraph(p4, keep)

    @given(graphs(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lazy_adj_matches_an_eager_build(self, g, data):
        order = data.draw(st.permutations(range(g.m)))
        edges = [g.edges[e] for e in order]
        keep = data.draw(st.sets(st.integers(0, g.n - 1)))
        for built in (
            Graph(g.n, edges),
            Graph._simple(g.n, edges),
            induced_subgraph(Graph(g.n, edges), keep),
        ):
            assert "adj" not in built.__dict__
            assert built.adj == _eager_adj(built.n, built.edges)
            assert built.adj is built.adj  # built once, then cached
            assert [built.degree(v) for v in range(built.n)] == [
                sum(v in e for e in built.edges) for v in range(built.n)
            ]

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
