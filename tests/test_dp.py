import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ueds.dp
from ueds.decomposition import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    NiceDecomposition,
    TreeDecomposition,
    make_nice,
    td_from_vertex_cover,
    td_greedy_path,
    td_min_fill,
    validate_nice,
)
from ueds.dp import (
    BLACK,
    GREEN,
    PURPLE,
    RED0,
    RED1,
    assign_slots,
    extract_witness,
    run_dp,
    state_space_bound,
)
from ueds.errors import InvalidDecomposition, WidthCapExceeded
from ueds.generate import GenSpec, gen
from ueds.graph import (
    Graph,
    greedy_maximal_matching,
    is_minimal_eds,
    star_decomposition,
    vertex_cover_from_matching,
)
from ueds.oracle import upper_eds_exact
from ueds.pipeline import gamma_prime

from conftest import all_graphs_on, graphs, minimum_vertex_cover
from dp_reference import (
    NodeTable,
    Table,
    dp_forget,
    dp_introduce_edge,
    dp_introduce_vertex,
    dp_join,
    dp_leaf,
    eager_witness,
    introduce_kept,
    join_kept,
    packed_introduce_edge,
    reference_witness,
    remaining_above,
    run_eager,
    run_reference,
)


def nice_for(g, placement="early", cover=None):
    cover = minimum_vertex_cover(g) if cover is None else cover
    return make_nice(g, td_from_vertex_cover(g, cover), edge_placement=placement)


# The widest nice form the hypothesis tests on 8-vertex graphs hand to the
# tuple reference; run_dp meets the oracle on every form.  The
# reference's worst time on one nice form of such a graph was 0.05, 0.24,
# 1.1, 2.6 and 12 s at widths 3 to 7 (2 vCPU x86_64), and an example solves
# up to four nice forms.
REFERENCE_WIDTH_CAP = 5


def solved_by_both(g, nd, reference_width_cap=None):
    """(gamma', witness) from run_dp and from the reference; the reference
    leg is skipped when nd is wider than reference_width_cap."""
    result = run_dp(g, nd, keep_tables=True)
    solved = [(result.gamma_prime, extract_witness(g, nd, result))]
    if reference_width_cap is None or nd.width <= reference_width_cap:
        ref = run_reference(g, nd)
        solved.append((ref.gamma_prime, reference_witness(nd, ref)))
    return solved


def rooted_at(td, root):
    """The same decomposition with bag `root` first, where make_nice roots it."""
    order = [root] + [i for i in range(len(td.bags)) if i != root]
    index = {old: new for new, old in enumerate(order)}
    return TreeDecomposition(
        n=td.n,
        bags=tuple(td.bags[i] for i in order),
        tree_edges=tuple((index[a], index[b]) for a, b in td.tree_edges),
    )


class TestLeaf:
    def test_single_empty_state(self):
        table = dp_leaf()
        assert table.bag == ()
        assert set(table.states) == {((), (), 0, 0, 0, 0, 0)}
        assert len(table) == 1

    def test_idempotent(self):
        assert dp_leaf() == dp_leaf()


class TestIntroduceVertex:
    def test_four_colors_never_r1(self):
        table = dp_introduce_vertex(dp_leaf(), 0)
        assert len(table) == 4
        colors = {state[0][0] for state in table.states}
        assert colors == {BLACK, PURPLE, GREEN, RED0}
        for state in table.states:
            f, y, n_r, n_r1, n_c, alpha, beta = state
            assert y == (0,)
            assert n_r == (1 if f[0] == RED0 else 0)
            assert (n_r1, n_c, alpha, beta) == (0, 0, 0, 0)

    def test_size_exactly_four_times_child(self):
        child = dp_introduce_vertex(dp_leaf(), 1)
        table = dp_introduce_vertex(child, 3)
        assert len(table) == 4 * len(child)
        assert table.bag == (1, 3)

    def test_rejects_vertex_already_present(self):
        child = dp_introduce_vertex(dp_leaf(), 1)
        with pytest.raises(ValueError):
            dp_introduce_vertex(child, 1)


def table_over(bag, rows):
    """Hand-build a NodeTable; rows are (f, y, n_r, n_r1, n_c, alpha, beta)."""
    return NodeTable(bag, {tuple(row): ("leaf",) for row in rows})


class TestIntroduceEdge:
    def test_purple_pair_include_branch(self):
        child = table_over((0, 1), [((PURPLE, PURPLE), (0, 0), 0, 0, 0, 0, 0)])
        out = dp_introduce_edge(child, 0, 1)
        included = [s for s in out.states if s[5] == 1]
        assert included == [((PURPLE, PURPLE), (1, 1), 0, 0, 0, 1, 0)]
        excluded = [s for s in out.states if s[5] == 0]
        assert excluded == [((PURPLE, PURPLE), (0, 0), 0, 0, 0, 0, 0)]

    def test_red_upgrade_on_excluded_black_edge(self):
        child = table_over((0, 1), [((RED0, BLACK), (0, 0), 1, 0, 0, 0, 0)])
        out = dp_introduce_edge(child, 0, 1)
        assert set(out.states) == {((RED1, BLACK), (0, 0), 1, 1, 0, 0, 0)}

    def test_black_black_bumps_beta_without_pruning(self):
        child = table_over((0, 1), [((BLACK, BLACK), (0, 0), 0, 0, 0, 0, 0)])
        out = dp_introduce_edge(child, 0, 1, prune=False)
        assert set(out.states) == {((BLACK, BLACK), (0, 0), 0, 0, 0, 0, 1)}
        assert len(dp_introduce_edge(child, 0, 1, prune=True)) == 0

    def test_black_endpoint_never_included(self):
        child = table_over((0, 1), [((BLACK, PURPLE), (0, 0), 0, 0, 0, 0, 0)])
        out = dp_introduce_edge(child, 0, 1)
        assert all(state[5] == 0 for state in out.states)

    def test_green_red_include(self):
        child = table_over((0, 1), [((GREEN, RED0), (0, 0), 1, 0, 0, 0, 0)])
        out = dp_introduce_edge(child, 0, 1)
        included = [s for s in out.states if s[5] == 1]
        assert included == [((GREEN, RED0), (1, 1), 1, 0, 0, 1, 0)]

    def test_purple_overflow_pruned(self):
        child = table_over((0, 1), [((PURPLE, PURPLE), (1, 1), 0, 0, 0, 1, 0)])
        pruned = dp_introduce_edge(child, 0, 1, prune=True)
        assert all(state[5] == 1 for state in pruned.states)  # no second include
        kept = dp_introduce_edge(child, 0, 1, prune=False)
        assert any(state[5] == 2 for state in kept.states)


class TestForget:
    def test_satisfied_purple_counts(self):
        child = table_over((0, 1), [((PURPLE, PURPLE), (1, 1), 0, 0, 0, 1, 0)])
        out = dp_forget(child, 0)
        assert set(out.states) == {((PURPLE,), (1,), 0, 0, 1, 1, 0)}

    def test_unsatisfied_green_dropped(self):
        child = table_over((0,), [((GREEN,), (1,), 0, 0, 0, 1, 0)])
        assert len(dp_forget(child, 0)) == 0

    def test_idle_black_counts(self):
        child = table_over((0,), [((BLACK,), (0,), 0, 0, 0, 0, 0)])
        out = dp_forget(child, 0)
        assert set(out.states) == {((), (), 0, 0, 1, 0, 0)}

    def test_uncertified_red_pruned_but_kept_without_pruning(self):
        child = table_over((0,), [((RED0,), (1,), 1, 0, 0, 1, 0)])
        assert len(dp_forget(child, 0, prune=True)) == 0
        assert len(dp_forget(child, 0, prune=False)) == 1


class TestJoin:
    def test_zero_case_double_counts_nothing(self):
        left = table_over((0,), [((PURPLE,), (0,), 0, 0, 0, 0, 0)])
        out = dp_join(left, left)
        assert set(out.states) == {((PURPLE,), (0,), 0, 0, 0, 0, 0)}

    def test_incidence_and_alpha_add(self):
        left = table_over((0,), [((PURPLE,), (1,), 0, 0, 1, 1, 0)])
        right = table_over((0,), [((PURPLE,), (0,), 0, 0, 0, 0, 0)])
        out = dp_join(left, right)
        assert set(out.states) == {((PURPLE,), (1,), 0, 0, 1, 1, 0)}

    def test_red_flavor_merges_disjunctively(self):
        left = table_over((0,), [((RED1,), (1,), 1, 1, 0, 1, 0)])
        right = table_over((0,), [((RED0,), (0,), 1, 0, 0, 0, 0)])
        out = dp_join(left, right)
        assert set(out.states) == {((RED1,), (1,), 1, 1, 0, 1, 0)}

    def test_colors_must_agree_outside_red(self):
        left = table_over((0,), [((PURPLE,), (0,), 0, 0, 0, 0, 0)])
        right = table_over((0,), [((GREEN,), (0,), 0, 0, 0, 0, 0)])
        assert len(dp_join(left, right)) == 0

    def test_bag_mismatch(self):
        left = table_over((0,), [((PURPLE,), (0,), 0, 0, 0, 0, 0)])
        right = table_over((1,), [((PURPLE,), (0,), 0, 0, 0, 0, 0)])
        with pytest.raises(InvalidDecomposition):
            dp_join(left, right)


class TestRunDp:
    @pytest.mark.parametrize(
        "fixture,want",
        [("k2", 1), ("p4", 2), ("k3", 1), ("c4", 2), ("c5", 2), ("k13", 1)],
    )
    def test_named_values_both_engines(self, fixture, want, request):
        g = request.getfixturevalue(fixture)
        nd = nice_for(g)
        assert run_dp(g, nd).gamma_prime == want
        assert run_reference(g, nd).gamma_prime == want

    def test_edgeless_graph(self):
        g = Graph(4, [])
        assert run_dp(g, nice_for(g)).gamma_prime == 0

    def test_single_vertex(self):
        g = Graph(1, [])
        assert run_dp(g, nice_for(g)).gamma_prime == 0

    def test_table_sizes_within_bound(self, c5):
        nd = nice_for(c5)
        result = run_dp(c5, nd)
        assert result.max_table_size <= state_space_bound(nd.width)

    def test_decomposition_invariance(self, p4):
        path_nd = nice_for(p4, cover=(1, 2))
        join_td = TreeDecomposition(
            n=4, bags=((1, 2), (0, 1, 2), (1, 2, 3)), tree_edges=((0, 1), (0, 2))
        )
        join_nd = make_nice(p4, join_td)
        values = {
            run(p4, nd).gamma_prime
            for nd in (path_nd, join_nd)
            for run in (run_dp, run_reference)
        }
        assert values == {2}

    def test_diagnostics_format(self, k2):
        result = run_dp(k2, nice_for(k2))
        lines = result.diagnostics_lines()
        assert lines[-1] == "gamma_prime=1"
        assert all(
            line.startswith("node=") and " type=" in line and " tuples=" in line
            for line in lines[:-1]
        )

    def test_exhaustive_n4_all_engines_and_pruning(self):
        for g in all_graphs_on(4):
            nd = nice_for(g)
            want = upper_eds_exact(g).gamma_prime
            assert run_dp(g, nd).gamma_prime == want
            assert run_reference(g, nd, prune=True).gamma_prime == want
            assert run_reference(g, nd, prune=False).gamma_prime == want

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_random(self, g):
        want = upper_eds_exact(g).gamma_prime
        nd = nice_for(g)
        result = run_dp(g, nd)
        assert result.gamma_prime == want
        assert result.max_table_size <= state_space_bound(nd.width)

    @given(graphs(max_n=6))
    @settings(max_examples=25, deadline=None)
    def test_join_decompositions_agree(self, g):
        # a decomposition with a genuine join: two bags around a shared core
        cover = minimum_vertex_cover(g)
        rest = [v for v in range(g.n) if v not in cover]
        if len(rest) < 2:
            return
        core = tuple(sorted(cover))
        b1 = tuple(sorted(set(core) | {rest[0]}))
        b2 = tuple(sorted(set(core) | set(rest[1:])))
        td = TreeDecomposition(
            n=g.n, bags=(core, b1, b2), tree_edges=((0, 1), (0, 2))
        )
        nd = make_nice(g, td)
        want = upper_eds_exact(g).gamma_prime
        assert run_dp(g, nd).gamma_prime == want
        assert run_reference(g, nd).gamma_prime == want

    def test_bound_counts_the_codes_a_join_makes(self):
        # A join adds incidences, so a purple or red vertex could reach
        # incidence 2 there; the join drops such pairs, so every field keeps
        # to the 10 codes the other nodes use.  On this tree rooted at bag
        # 33, a join over a two-vertex bag would otherwise hold 143 rows,
        # above 10^2; with the pruning no table exceeds 38.
        g = gen(GenSpec("tree", 47, seed=1027834953))
        nd = make_nice(g, rooted_at(td_min_fill(g), 33))
        result = run_dp(g, nd)
        assert nd.width == 1 and result.max_table_size == 38
        assert result.max_table_size <= state_space_bound(nd.width)
        assert result.gamma_prime == run_reference(g, nd).gamma_prime


class TestPackingBoundary:
    """With n = 12 a row has 4 alpha bits, and a bag of 12 vertices puts the
    top slot's field at bits 59-63: a row fills all 64 bits of a uint64.  A
    13th vertex in the bag does not fit."""

    def _check(self, g, td):
        """Check run_dp against the oracle on the paths over a minimum cover
        and over the pipeline's matching cover, both edge placements, and on
        td with early placement (late placement on a bag of 12 builds
        millions of rows), with and without kept tables."""
        want = upper_eds_exact(g).gamma_prime
        nds = [make_nice(g, td)] + [
            make_nice(g, td_from_vertex_cover(g, cover), edge_placement=placement)
            for cover in (
                minimum_vertex_cover(g),
                vertex_cover_from_matching(g, greedy_maximal_matching(g)),
            )
            for placement in ("early", "late")
        ]
        for nd in nds:
            for keep in (False, True):
                result = run_dp(g, nd, keep_tables=keep)
                assert result.gamma_prime == want
                if keep:
                    witness = extract_witness(g, nd, result)
                    assert witness.size == want and is_minimal_eds(g, witness)

    def test_star_centered_on_the_highest_vertex(self, monkeypatch):
        # a star on center 11 with legs i-11 and i-(i+5) for i < 5 and a
        # leaf 10: a red leg i is certified by a black i + 5, so the center
        # can be green with incidence 2 in a solution (K1,11 has no such
        # solution, and the DP drops that state there)
        n = 12
        edges = [(i, 11) for i in range(5)] + [(i, i + 5) for i in range(5)]
        g = Graph(n, sorted(edges + [(10, 11)]))
        assert upper_eds_exact(g).gamma_prime == 6
        # the center is forgotten first, below the bag of all other
        # vertices, so it takes the top slot
        td = TreeDecomposition(
            n=n, bags=(tuple(range(n - 1)), tuple(range(n))), tree_edges=((0, 1),)
        )
        assert assign_slots(make_nice(g, td), n)[n - 1] == n - 1
        # incidences grow at introduce-edge nodes only (these decompositions
        # have no joins), so record the tables those nodes build, with or
        # without the introduce below folded in
        tables = []

        def recorded(*args, _build=ueds.dp._apply):
            tables.append(_build(*args))
            return tables[-1]

        monkeypatch.setattr(ueds.dp, "_apply", recorded)
        self._check(g, td)
        # some row holds the center green with incidence 2 in the top field
        code = GREEN | 2 << 3
        assert any(((t >> 59) == code).any() for t in tables)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_gnp_at_max_n(self, seed):
        g = gen(GenSpec("gnp", 12, 0.2, seed))
        self._check(g, TreeDecomposition(n=12, bags=(tuple(range(12)),), tree_edges=()))

    def test_a_thirteenth_bag_vertex_is_refused(self):
        # n = 13 keeps 4 alpha bits; K13 in one bag needs 65 + 4 bits
        g = gen(GenSpec("gnp", 13, 1.0, 1))
        td = TreeDecomposition(n=13, bags=(tuple(range(13)),), tree_edges=())
        with pytest.raises(WidthCapExceeded, match="64"):
            run_dp(g, make_nice(g, td))


class TestAlphaSaturation:
    """A row whose partial solution is no star forest can have more than
    n - 1 edges, which would overflow the a alpha bits into the fields.  No
    node keeps such a row, so alpha needs no saturation.  Here n = 8, so
    a = 3 (TestStarForestTables checks every table)."""

    AMASK = np.uint64(7)

    def test_at_a_join(self):
        # one bag vertex in slot 0, purple with one edge on each side, and
        # partial solutions of 5 and 4 edges: 9 edges on 8 vertices, and
        # the join drops the pair
        purple1 = PURPLE | 1 << 3
        left = np.array([purple1 << 3 | 7 - 5], dtype=np.uint64)
        right = np.array([purple1 << 3 | 7 - 4], dtype=np.uint64)
        ones = np.uint64(1 << 3)
        none = np.uint64(0)
        out = ueds.dp._join(left, right, ones, none, none, none, self.AMASK)
        assert out.tolist() == []


def assert_join_producers(got, left, right, *masks):
    """_join's rows equal join_kept's, and _join_producer gives each row's
    first producer as join_kept's back-references have it.  masks are
    (ones, rem0, rem1, solo, amask)."""
    want = join_kept(Table(left, {}), Table(right, {}), *masks)
    assert got.tolist() == want.rows.tolist()
    for row, back, back2 in zip(got.tolist(), want.extras["back"], want.extras["back2"]):
        assert ueds.dp._join_producer(row, left, right, *masks) == (back, back2)


def join_one_slot(color, yl, yr, rem, alphas=(0, 0), right_color=None):
    """_join on one-row tables over a single bag vertex in slot 0 (n = 8,
    three alpha bits) with rem edges left above the join; the merged rows,
    each checked against its first producer.  The right side takes color
    too unless right_color is given."""
    def table(c, y, alpha):
        return np.array([(c | y << 3) << 3 | 7 - alpha], dtype=np.uint64)

    ones = np.uint64(1 << 3)
    rem0 = ones if rem == 0 else np.uint64(0)
    rem1 = ones if rem == 1 else np.uint64(0)
    rc = color if right_color is None else right_color
    sides = table(color, yl, alphas[0]), table(rc, yr, alphas[1])
    masks = ones, rem0, rem1, np.uint64(0), np.uint64(7)
    out = ueds.dp._join(*sides, *masks)
    assert_join_producers(out, *sides, *masks)
    return out.tolist()


class TestPackedJoin:
    """_join keeps only pairs that can still be accepted."""

    @pytest.mark.parametrize("color", [PURPLE, RED0, RED1])
    @pytest.mark.parametrize("rem", [0, 1, 2])
    def test_a_dead_pair_is_dropped(self, color, rem):
        assert join_one_slot(color, 1, 1, rem, alphas=(1, 1)) == []

    @pytest.mark.parametrize("color", [PURPLE, RED0, RED1])
    @pytest.mark.parametrize("yl,yr,sums_to_one", [
        (0, 0, False), (1, 1, False), (1, 0, True), (0, 1, True),
    ])
    def test_a_tight_slot_sums_to_one(self, color, yl, yr, sums_to_one):
        # r0 on both sides has no edge left to a black neighbor to certify it
        rows = join_one_slot(color, yl, yr, rem=0, alphas=(yl, yr))
        kept = sums_to_one and color != RED0
        assert rows == ([(color | 1 << 3) << 3 | 7 - 1] if kept else [])

    @pytest.mark.parametrize("yl,yr", [(1, 0), (0, 1)])
    def test_one_certified_side_makes_r1(self, yl, yr):
        rows = join_one_slot(RED0, yl, yr, rem=0, right_color=RED1)
        assert rows == [(RED1 | 1 << 3) << 3 | 7]

    @pytest.mark.parametrize("yl,yr,rem,kept", [
        (0, 0, 1, False), (1, 0, 1, True), (0, 1, 1, True), (0, 0, 2, True),
    ])
    def test_r0_on_both_sides_needs_an_edge_left(self, yl, yr, rem, kept):
        rows = join_one_slot(RED0, yl, yr, rem)
        assert rows == ([(RED0 | (yl + yr) << 3) << 3 | 7] if kept else [])

    @pytest.mark.parametrize("rem", [1, 2])
    def test_a_slot_with_edges_left_keeps_zero_zero(self, rem):
        # join_one_slot checks that the row's producer is the pair (0, 0)
        assert join_one_slot(PURPLE, 0, 0, rem) == [PURPLE << 3 | 7]

    @pytest.mark.parametrize("yl,yr,rem,kept", [
        (1, 0, 0, False), (1, 1, 0, True), (2, 0, 0, True),
        (0, 0, 1, False), (1, 0, 1, True), (0, 0, 2, True),
    ])
    def test_green_needs_two_with_the_edges_left(self, yl, yr, rem, kept):
        rows = join_one_slot(GREEN, yl, yr, rem)
        assert bool(rows) == kept
        if kept:
            assert rows == [(GREEN | min(yl + yr, 2) << 3) << 3 | 7]

    def test_the_first_pair_is_by_key_then_left_row(self):
        # slot 0 (bit 3) is a tight purple slot and slot 1 (bit 8) a green
        # one with two edges left.  Two pairs merge into (purple 1, green 1):
        # left (P1, G0) with right (P0, G1), and left (P0, G1) with right
        # (P1, G0).  The lower left row holds the tight incidence bit, which
        # puts it under the higher key, so the join emits the other first.
        def row(y0, y1):
            return (PURPLE | y0 << 3) << 3 | (GREEN | y1 << 3) << 8 | 7

        left = np.array([row(1, 0), row(0, 1)], dtype=np.uint64)
        right = np.array([row(0, 1), row(1, 0)], dtype=np.uint64)
        masks = np.uint64(1 << 3 | 1 << 8), np.uint64(1 << 3), *np.zeros(2, np.uint64), np.uint64(7)
        out = ueds.dp._join(left, right, *masks)
        assert out.tolist() == [row(1, 1)]
        assert ueds.dp._join_producer(row(1, 1), left, right, *masks) == (1, 1)
        assert_join_producers(out, left, right, *masks)


# the ten codes a field can take (see state_space_bound)
CODES = [BLACK] + [c | y << 3 for c in (PURPLE, RED0, RED1) for y in (0, 1)]
CODES += [GREEN | y << 3 for y in (0, 1, 2)]


@st.composite
def packed_tables(draw, fields):
    """Hypothesis strategy: a table over n = 8 (three alpha bits) with a
    field at every slot of `fields`, a code drawn from fields[slot], and
    alpha 0 or 1; unique by fields and in any order, like a child table."""
    slots = sorted(fields)
    drawn = draw(st.lists(
        st.tuples(st.integers(0, 1), *[st.sampled_from(fields[s]) for s in slots]),
        min_size=1, max_size=12,
    ))
    rows = {}
    for alpha, *codes in drawn:
        key = sum(code << 3 + 5 * s for s, code in zip(slots, codes))
        rows.setdefault(key, key | 7 - alpha)
    order = draw(st.permutations(list(rows.values())))
    return np.array(order, dtype=np.uint64)


AMASK8 = np.uint64(7)
SHIFT8 = [np.uint64(3 + 5 * s) for s in range(3)]


class TestFusedIntroduceEdge:
    """_apply against the mask-based reference node of dp_reference, and
    _edge_producer against its back-references.  The plain lookup reads the
    codes of u at slot 0 and v at slot 1.  The folded one is an introduce of
    x at slot 1 with its first edge xw, w at slot 0, and runs on the
    introduce's child against introduce_kept followed by the reference
    node.  A bystander holds slot 2.  _apply takes the child in any order;
    the producers are checked on the child sorted, as run_dp keeps it."""

    @staticmethod
    def _assert_same(got, want, child, lookup, colors):
        """got's rows are want's, and _edge_producer gives each row's first
        producer as want's back-references into child have it: the child
        row's position, and whether its outcome took the edge."""
        assert got.tolist() == want.rows.tolist()
        index = {row: at for at, row in enumerate(child.tolist())}
        for row, back, took in zip(got.tolist(), want.extras["back"], want.extras["took"]):
            outcome, producer = ueds.dp._edge_producer(
                row, lookup, colors, int(AMASK8), index.__contains__
            )
            assert (index[producer], lookup.took[outcome]) == (back, took)

    @given(packed_tables({0: CODES, 1: CODES, 2: CODES}))
    @settings(max_examples=25, deadline=None)
    def test_plain_matches_the_reference_node(self, child):
        su, sv = SHIFT8[0], SHIFT8[1]
        key = ((child >> su) & 31).astype(np.int64) << 5 | ((child >> sv) & 31).astype(np.int64)
        kept = np.sort(child)
        for rem_u, rem_v in itertools.product(range(3), repeat=2):
            rules = ueds.dp._edge_rules(rem_u, rem_v)
            lookup = ueds.dp._edge_lookup(rules, su, sv)
            want = packed_introduce_edge(Table(kept, {}), su, sv, rules, AMASK8)
            got = ueds.dp._apply(child, key, lookup, AMASK8)
            self._assert_same(got, want, kept, lookup, None)

    @given(packed_tables({0: CODES, 2: CODES}))
    @settings(max_examples=25, deadline=None)
    def test_matches_the_separate_nodes(self, child):
        sw, sx = SHIFT8[0], SHIFT8[1]
        key = ((child >> sw) & 31).astype(np.int64)
        kept = np.sort(child)
        for rem_x, rem_u, rem_v in itertools.product(range(3), repeat=3):
            rules = ueds.dp._edge_rules(rem_u, rem_v)
            intro = introduce_kept(Table(kept, {}), sx, rem_x)
            for x_as_v in (False, True):
                su, sv = (sw, sx) if x_as_v else (sx, sw)
                # _plan names the ends so that x is v: with x as u, the
                # rules and the shifts swap
                swapped = rules if x_as_v else ueds.dp._edge_rules(rem_v, rem_u)
                lookup = ueds.dp._fused_lookup(swapped, rem_x, sw, sx)
                want = packed_introduce_edge(intro, su, sv, rules, AMASK8)
                # the separate nodes' back-references, through the introduce
                back = intro.extras["back"][want.extras["back"]]
                want = Table(want.rows, {**want.extras, "back": back})
                got = ueds.dp._apply(child, key, lookup, AMASK8)
                self._assert_same(got, want, kept, lookup, ueds.dp._live_colors(rem_x))

    def test_the_lookup_follows_the_rules_object(self):
        # equal remaining counts and shifts, another rules object: the
        # cached lookup must not be reused
        rules = ueds.dp._edge_rules(2, 2)
        ok = rules.ok.copy()
        ok[0] = False  # no row survives the excluded branch
        broken = dataclasses.replace(rules, ok=ok)
        args = (2, SHIFT8[0], SHIFT8[1])
        lookup = ueds.dp._fused_lookup(rules, *args)
        excluded = ~lookup.took
        assert lookup.ok[excluded].any()
        assert not ueds.dp._fused_lookup(broken, *args).ok[excluded].any()
        assert ueds.dp._fused_lookup(rules, *args) is lookup


# the shared vertices hold slots 0 and 2 and the one-sided vertex v slot 1
SV8 = SHIFT8[1]
SOLO8 = np.uint64(31 << 8)


def join_masks(rems, rem_v=None):
    """(ones, rem0, rem1) over the shared slots, with v's slot too when
    rem_v is given; rems are the shared slots' edges left."""
    bits = [(1 << 3, rems[0]), (1 << 13, rems[1])]
    if rem_v is not None:
        bits.append((1 << 8, rem_v))
    return tuple(
        np.uint64(sum(bit for bit, rem in bits if rem in want))
        for want in ((0, 1, 2), (0,), (1,))
    )


class TestOneSidedJoin:
    """_join with v's slot one-sided against join_kept after an explicit
    introduce of v on the side without it, rows and first producers."""

    @staticmethod
    def _assert_producers(got, sides, masks, back, back2):
        for row, want in zip(got.tolist(), zip(back, back2)):
            assert ueds.dp._join_producer(row, *sides, *masks) == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_explicit_introduce(self, data):
        rems = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        # v has no edge below the folded introduce, so it has at least as
        # many edges left there as at the join
        rem_v = data.draw(st.integers(0, 2))
        rem_intro = data.draw(st.integers(rem_v, 2))
        # the holding side's rows passed _alive with the join's count, and
        # their colors are live at the introduce (r1 pairs with r0)
        live = ueds.dp._live_colors(rem_intro)
        held_codes = [
            c for c in CODES
            if ueds.dp._alive(np.array(c & 7), np.array(c >> 3), rem_v)
            and (RED0 if c & 7 == RED1 else c & 7) in live
        ]
        held = data.draw(packed_tables({0: CODES, 1: held_codes, 2: CODES}))
        other = data.draw(packed_tables({0: CODES, 2: CODES}))
        held_left = data.draw(st.booleans())

        intro = introduce_kept(Table(other, {}), SV8, rem_intro)
        sides = (Table(held, {}), intro) if held_left else (intro, Table(held, {}))
        want = join_kept(*sides, *join_masks(rems, rem_v), np.uint64(0), AMASK8)
        sides = (held, other) if held_left else (other, held)
        masks = (*join_masks(rems), SOLO8, AMASK8)
        got = ueds.dp._join(*sides, *masks)
        assert got.tolist() == want.rows.tolist()
        back, back2 = want.extras["back"], want.extras["back2"]
        if held_left:
            back2 = intro.extras["back"][back2]
        else:
            back = intro.extras["back"][back]
        self._assert_producers(got, sides, masks, back, back2)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_vertex_introduced_on_both_sides(self, data):
        # v has no edge below the join on either side; run_dp builds its
        # introduce on the right and folds the left one
        rems = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        rem_v = data.draw(st.integers(0, 2))
        left = data.draw(packed_tables({0: CODES, 2: CODES}))
        right = data.draw(packed_tables({0: CODES, 2: CODES}))
        left_intro = introduce_kept(Table(left, {}), SV8, rem_v)
        right_intro = introduce_kept(Table(right, {}), SV8, rem_v)
        want = join_kept(
            left_intro, right_intro, *join_masks(rems, rem_v), np.uint64(0), AMASK8
        )
        sides = (left, right_intro.rows)
        masks = (*join_masks(rems), SOLO8, AMASK8)
        got = ueds.dp._join(*sides, *masks)
        assert got.tolist() == want.rows.tolist()
        back = left_intro.extras["back"][want.extras["back"]]
        self._assert_producers(got, sides, masks, back, want.extras["back2"])


class TestLiveness:
    """_alive and _live_colors on hand-built fields."""

    @pytest.mark.parametrize("y,rem,alive", [
        (0, 0, False), (0, 1, False), (0, 2, True),
        (1, 0, False), (1, 1, True), (1, 2, True),
    ])
    def test_r0_needs_an_edge_left_for_its_certificate(self, y, rem, alive):
        assert bool(ueds.dp._alive(np.array(RED0), np.array(y), rem)) == alive

    @pytest.mark.parametrize("color", [PURPLE, RED1])
    @pytest.mark.parametrize("y,rem,alive", [
        (0, 0, False), (0, 1, True), (1, 0, True), (1, 1, True),
    ])
    def test_purple_and_r1_need_one_edge(self, color, y, rem, alive):
        assert bool(ueds.dp._alive(np.array(color), np.array(y), rem)) == alive

    @pytest.mark.parametrize("rem,colors", [
        (0, (BLACK,)),
        (1, (BLACK, PURPLE)),
        (2, (BLACK, PURPLE, GREEN, RED0)),
    ])
    def test_introduced_colors(self, rem, colors):
        # r0 and green need two edges at incidence 0, purple one
        assert ueds.dp._live_colors(rem) == colors


class TestSlots:
    """assign_slots gives the vertices of every bag distinct slots below
    width + 1, on every kind of decomposition the solver or a user makes."""

    @staticmethod
    def _assert_slots(g, nd):
        slot = assign_slots(nd, g.n)
        width = nd.width
        for node in nd.nodes:
            held = [slot[v] for v in node.bag]
            assert len(set(held)) == len(held)
            assert all(0 <= s <= width for s in held)

    @given(graphs(max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_distinct_per_bag(self, g):
        td = td_min_fill(g)
        cover = vertex_cover_from_matching(g, greedy_maximal_matching(g))
        for tree in [td, td_from_vertex_cover(g, cover)] + [
            rooted_at(td, root) for root in range(len(td.bags))
        ]:
            for placement in ("early", "late"):
                self._assert_slots(g, make_nice(g, tree, edge_placement=placement))

    def test_distinct_per_bag_on_a_large_tree(self):
        g = gen(GenSpec("tree", 300, seed=2))
        td = td_min_fill(g)
        for root in (0, len(td.bags) // 2, len(td.bags) - 1):
            self._assert_slots(g, make_nice(g, rooted_at(td, root)))


@st.composite
def sparse_graphs(draw, min_n: int = 13, max_n: int = 20, extra: int = 5) -> Graph:
    """Hypothesis strategy: a random forest on min_n..max_n vertices plus up
    to `extra` more edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=v - 1))
        if parent >= 0:
            edges.add((parent, v))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pairs, max_size=extra)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


class TestAboveTwelveVertices:
    """Graphs beyond the 4 alpha bits of n <= 16 and beyond 12 vertex ids,
    against the reference and the oracle."""

    @given(sparse_graphs())
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_on_min_fill(self, g):
        td = td_min_fill(g)
        assume(td.width <= 3)
        nd = make_nice(g, td)
        ref = run_reference(g, nd)
        result = run_dp(g, nd, keep_tables=True)
        assert result.gamma_prime == ref.gamma_prime
        assert result.max_table_size <= state_space_bound(nd.width)
        witness = extract_witness(g, nd, result)
        assert witness.size == result.gamma_prime
        if g.m:
            assert is_minimal_eds(g, witness)

    def test_path40_matches_reference(self):
        # gamma' = 20 needs 5 bits; n = 40 gives the rows 6
        g = gen(GenSpec("path", 40))
        nd = make_nice(g, td_min_fill(g))
        ref = run_reference(g, nd)
        result = run_dp(g, nd, keep_tables=True)
        assert result.gamma_prime == ref.gamma_prime == 20
        witness = extract_witness(g, nd, result)
        assert witness.size == 20 and is_minimal_eds(g, witness)
        assert reference_witness(nd, ref).size == 20

    @pytest.mark.parametrize("spec", [GenSpec("tree", 30), GenSpec("path", 24)])
    def test_matches_oracle(self, spec):
        g = gen(spec)
        want = upper_eds_exact(g, limit=64).gamma_prime
        report = gamma_prime(g, method="dp")
        assert report.gamma_prime == want

    @pytest.mark.parametrize(
        "spec,gamma",
        [(GenSpec("tree", 200, seed=1), 86), (GenSpec("path", 1000), 500)],
    )
    def test_pinned_large(self, spec, gamma):
        g = gen(spec)
        nd = make_nice(g, td_min_fill(g))
        result = run_dp(g, nd, keep_tables=True)
        assert result.gamma_prime == gamma
        witness = extract_witness(g, nd, result)
        assert witness.size == gamma and is_minimal_eds(g, witness)


def edges_left(g, nd, idx):
    """Per vertex, its edges introduced outside node idx's subtree."""
    left = [g.degree(v) for v in range(g.n)]
    stack = [idx]
    while stack:
        node = nd.nodes[stack.pop()]
        if node.edge is not None:
            for v in node.edge:
                left[v] -= 1
        stack.extend(node.children)
    return left


class TestRemainingAbove:
    """Edges left above each node against a direct count of each vertex's
    edges introduced outside the node's subtree: remaining_above, the
    reference's per-node counts, holds exactly its bag's counts, and run_dp's
    plan, which hands one dict from child to parent, reads the clamped count
    of an introduce's vertex, of an edge node's endpoints and of a join's
    bag."""

    @given(st.one_of(graphs(max_n=8), sparse_graphs(min_n=6, max_n=16, extra=4)))
    @settings(max_examples=40, deadline=None)
    def test_matches_a_direct_count(self, g):
        td = td_min_fill(g)
        degree = [len(adj) for adj in td.neighbors()]
        hub = degree.index(max(degree, default=0)) if td.bags else 0
        alpha_bits = (g.n - 1).bit_length()
        for tree in (td, rooted_at(td, hub)):
            for placement in ("early", "late"):
                nd = make_nice(g, tree, edge_placement=placement)
                remaining = remaining_above(g, nd)
                plan = ueds.dp._plan(g, nd, alpha_bits)
                shift = [np.uint64(5 * s + alpha_bits) for s in assign_slots(nd, g.n)]
                for idx, node in enumerate(nd.nodes):
                    left = edges_left(g, nd, idx)
                    assert remaining[idx] == {v: left[v] for v in node.bag}
                    clamped = {v: min(left[v], 2) for v in node.bag}
                    self._assert_plan_reads(g, nd, plan[idx], node, clamped, shift)

    @staticmethod
    def _assert_plan_reads(g, nd, step, node, clamped, shift):
        dp = ueds.dp
        if node.kind == INTRODUCE:
            assert step[3] == clamped[node.vertex]
        elif node.kind == INTRODUCE_EDGE:
            lookup = step[5]
            if lookup.step is not None:  # an introduce of x folded in
                x = nd.nodes[node.children[0]].vertex
                w = sum(node.edge) - x
                rules = dp._edge_rules(clamped[w], clamped[x])
                assert lookup is dp._fused_lookup(
                    rules, min(g.degree(x), 2), shift[w], shift[x]
                )
            else:
                hi, lo = sorted(node.edge, key=lambda v: shift[v], reverse=True)
                assert lookup.rules is dp._edge_rules(clamped[hi], clamped[lo])
                assert (lookup.su, lookup.sv) == (shift[hi], shift[lo])
        elif node.kind == JOIN:
            solo = int(step[6])
            masks = [0, 0, 0]
            for v in node.bag:
                if not solo >> int(shift[v]) & 1:
                    masks[clamped[v]] |= 1 << int(shift[v])
            assert [int(m) for m in step[3:6]] == [sum(masks), masks[0], masks[1]]


class TestStarForestTables:
    """Every table of run_dp, on min-fill and re-rooted decompositions with
    both edge placements: each field holds one of the 10 codes with purple
    and red at incidence 1 or below, alpha <= n - 1, at most 10^(w+1) rows,
    and after a join every bag vertex can still reach its target with the
    edges introduced outside the join's subtree."""

    @staticmethod
    def _folded(nd):
        """The introduces that build no table: below an introduce-edge on
        their vertex, or in the chain of introduces right below a join,
        except on the right for a vertex in the left chain too."""
        folded = set()
        for node in nd.nodes:
            below = [nd.nodes[c] for c in node.children]
            if node.kind == INTRODUCE_EDGE and below[0].kind == INTRODUCE:
                if below[0].vertex in node.edge:
                    folded.add(node.children[0])
            if node.kind != JOIN:
                continue
            chains = []
            for c in node.children:
                chain = []
                while nd.nodes[c].kind == INTRODUCE:
                    chain.append(c)
                    c = nd.nodes[c].children[0]
                chains.append(chain)
            on_left = {nd.nodes[c].vertex for c in chains[0]}
            folded.update(chains[0])
            folded.update(c for c in chains[1] if nd.nodes[c].vertex not in on_left)
        return folded

    def _check(self, g, nd):
        """Check every table that run_dp(g, nd) builds and return its
        gamma'.  A folded introduce builds none; the introduce-edge or join
        above it builds its table from the introduce's child."""
        built = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            for name in ("_introduce", "_apply", "_forget", "_join"):
                def recorded(*args, _build=getattr(ueds.dp, name)):
                    built.append(_build(*args))
                    return built[-1]

                monkeypatch.setattr(ueds.dp, name, recorded)
            result = run_dp(g, nd)

        a = (g.n - 1).bit_length()
        amask = (1 << a) - 1
        slot = assign_slots(nd, g.n)
        codes = {BLACK} | {c | y << 3 for c in (PURPLE, RED0, RED1) for y in (0, 1)}
        codes |= {GREEN | y << 3 for y in (0, 1, 2)}
        folded = self._folded(nd)
        inner = [
            (idx, node) for idx, node in enumerate(nd.nodes)
            if node.children and idx not in folded
        ]
        assert len(built) == len(inner)
        for (idx, node), table in zip(inner, built):
            rows = [int(r) for r in table]
            assert len(rows) <= state_space_bound(nd.width)
            assert len(set(rows)) == len(rows)
            left = edges_left(g, nd, idx) if node.kind == JOIN else None
            for row in rows:
                assert amask - (row & amask) <= g.n - 1
                fields = row >> a
                for v in node.bag:
                    code = fields >> 5 * slot[v] & 31
                    fields &= ~(31 << 5 * slot[v])
                    assert code in codes, (node.kind, v, code)
                    if left is not None:
                        color, y = code & 7, code >> 3
                        if color == GREEN:
                            assert y + left[v] >= 2
                        elif color != BLACK:
                            assert y == 1 or left[v] >= 1
                assert fields == 0  # no field outside the bag
        return result.gamma_prime

    @given(st.one_of(graphs(max_n=8), sparse_graphs(min_n=6, max_n=12, extra=4)))
    @settings(max_examples=40, deadline=None)
    def test_every_table(self, g):
        want = upper_eds_exact(g, limit=28).gamma_prime
        td = td_min_fill(g)
        degree = [len(adj) for adj in td.neighbors()]
        hub = degree.index(max(degree, default=0)) if td.bags else 0
        for tree in (td, rooted_at(td, hub)):
            for placement in ("early", "late"):
                nd = make_nice(g, tree, edge_placement=placement)
                assert self._check(g, nd) == want


PINNED_IDS = ["cycle-n9", "tree-n11-s5", "gnp-n12-p0.3-s24"]


class TestPinnedOutput:
    """Table sizes and witnesses of the DP on fixed graphs.  Pruning or
    tie-breaking changes show up here even when gamma' does not move."""

    @pytest.mark.parametrize(
        "spec,m,gamma,nodes,rows_sum,rows_max,witness",
        [
            (GenSpec("cycle", 9), 9, 4, 28, 1140, 228,
             [(1, 2), (2, 3), (5, 6), (7, 8)]),
            (GenSpec("tree", 11, seed=5), 10, 4, 33, 2484, 528,
             [(6, 1), (10, 2), (9, 8), (5, 11)]),
            (GenSpec("gnp", 12, 0.3, 24), 20, 6, 45, 215145, 49672,
             [(3, 9), (4, 7), (4, 10), (5, 9), (6, 9), (8, 9)]),
        ],
        ids=PINNED_IDS,
    )
    def test_sizes_and_witness(
        self, spec, m, gamma, nodes, rows_sum, rows_max, witness
    ):
        # the engine on the path over the greedy-matching cover
        g = gen(spec)
        assert g.m == m
        cover = vertex_cover_from_matching(g, greedy_maximal_matching(g))
        nd = nice_for(g, cover=cover)
        result = run_dp(g, nd, keep_tables=True)
        sizes = [size for _, _, size in result.node_stats]
        assert result.gamma_prime == gamma
        assert (len(sizes), sum(sizes), max(sizes)) == (nodes, rows_sum, rows_max)
        edges = [g.edges[e] for e in extract_witness(g, nd, result)]
        assert [(u + 1, v + 1) for u, v in edges] == witness

    @pytest.mark.parametrize(
        "spec,joins,gamma,nodes,rows_sum,rows_max,witness",
        [(GenSpec("gnp", 8, 0.3, 1), 2, 3, 34, 692, 96, [(2, 4), (3, 6), (5, 7)])],
        ids=["gnp-n8-p0.3-s1"],
    )
    def test_min_fill_late(self, spec, joins, gamma, nodes, rows_sum, rows_max, witness):
        # late placement gives this form a one-sided join slot and a built
        # introduce on a join's right side, whose rows the walk reads in
        # block order
        g = gen(spec)
        nd = make_nice(g, td_min_fill(g), edge_placement="late")
        result = run_dp(g, nd, keep_tables=True)
        sizes = [size for _, _, size in result.node_stats]
        assert (nd.count(JOIN), result.gamma_prime) == (joins, gamma)
        assert (len(sizes), sum(sizes), max(sizes)) == (nodes, rows_sum, rows_max)
        edges = [g.edges[e] for e in extract_witness(g, nd, result)]
        assert [(u + 1, v + 1) for u, v in edges] == witness

    @staticmethod
    def _assert_pinned(report, joins, gamma, nodes, rows_sum, rows_max, witness):
        lines = [line for line in report.dp["diagnostics"] if "tuples=" in line]
        sizes = [int(line.rsplit("tuples=", 1)[1]) for line in lines]
        assert sum(" type=join " in line for line in lines) == joins
        assert report.gamma_prime == gamma
        assert (len(sizes), sum(sizes), max(sizes)) == (nodes, rows_sum, rows_max)
        assert report.witness == witness

    @pytest.mark.parametrize(
        "spec,joins,gamma,nodes,rows_sum,rows_max,witness",
        [
            (GenSpec("cycle", 9), 0, 4, 28, 937, 132,
             [(1, 2), (3, 4), (6, 7), (7, 8)]),
            (GenSpec("tree", 11, seed=5), 2, 4, 41, 269, 20,
             [(7, 6), (1, 5), (10, 2), (9, 8)]),
            (GenSpec("gnp", 12, 0.3, 24), 2, 6, 59, 22574, 2865,
             [(1, 4), (2, 3), (2, 8), (5, 6), (6, 12), (7, 11)]),
        ],
        ids=PINNED_IDS,
    )
    def test_min_fill(self, spec, joins, gamma, nodes, rows_sum, rows_max, witness):
        g = gen(spec)
        report = gamma_prime(g, method="dp", diagnostics=True, td=td_min_fill(g))
        self._assert_pinned(report, joins, gamma, nodes, rows_sum, rows_max, witness)

    @pytest.mark.parametrize(
        "spec,source,joins,gamma,nodes,rows_sum,rows_max,witness",
        [
            (GenSpec("cycle", 9), "greedy-path", 0, 4, 28, 992, 132,
             [(2, 3), (4, 5), (7, 8), (8, 9)]),
            (GenSpec("tree", 11, seed=5), "greedy-path", 0, 4, 33, 241, 20,
             [(7, 6), (1, 5), (10, 2), (9, 8)]),
            (GenSpec("gnp", 12, 0.3, 24), "greedy-path", 0, 6, 45, 37333, 5296,
             [(2, 3), (2, 4), (2, 8), (5, 6), (7, 11), (10, 12)]),
        ],
        ids=PINNED_IDS,
    )
    def test_pipeline_choice(
        self, spec, source, joins, gamma, nodes, rows_sum, rows_max, witness
    ):
        report = gamma_prime(gen(spec), method="dp", diagnostics=True)
        assert report.dp["source"] == source
        self._assert_pinned(report, joins, gamma, nodes, rows_sum, rows_max, witness)


class TestMinFillDecompositions:
    """The DP, the reference and the oracle on min-fill elimination
    decompositions, which bring join nodes that the cover paths never have."""

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_oracle_fast_and_tuple_agree(self, g):
        want = upper_eds_exact(g, limit=28).gamma_prime  # every pair at n = 8
        td = td_min_fill(g)
        # make_nice roots at bag 0; rooted at a bag of the highest tree
        # degree instead, every decomposition of three or more bags has a join
        degree = [len(adj) for adj in td.neighbors()]
        rerooted = rooted_at(td, degree.index(max(degree, default=0)) if td.bags else 0)
        for tree in (td, rerooted):
            for placement in ("early", "late"):
                nd = make_nice(g, tree, edge_placement=placement)
                if len(td.bags) >= 3 and tree is rerooted:
                    assert nd.count(JOIN) > 0
                for gamma, witness in solved_by_both(g, nd, REFERENCE_WIDTH_CAP):
                    assert gamma == witness.size == want, placement
                    if g.m:
                        assert is_minimal_eds(g, witness)

    def test_corpus_has_joins(self):
        # the hypothesis graphs above need not bring joins; these gnp graphs
        # (the seeds up to 11 whose decompositions branch) all do
        for seed in (1, 3, 4, 5, 7, 8, 9, 11):
            g = gen(GenSpec("gnp", 8, 0.3, seed))
            td = td_min_fill(g)
            want = upper_eds_exact(g).gamma_prime
            for placement in ("early", "late"):
                nd = make_nice(g, td, edge_placement=placement)
                assert nd.count(JOIN) > 0
                for gamma, witness in solved_by_both(g, nd):
                    assert gamma == witness.size == want
                    assert is_minimal_eds(g, witness)


class TestGreedyPathDecompositions:
    """The DP, the reference and the oracle on the greedy path, the
    pipeline's other decomposition, with both edge placements."""

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_oracle_fast_and_tuple_agree(self, g):
        want = upper_eds_exact(g, limit=28).gamma_prime  # every pair at n = 8
        td = td_greedy_path(g)
        for placement in ("early", "late"):
            nd = make_nice(g, td, edge_placement=placement)
            for gamma, witness in solved_by_both(g, nd, REFERENCE_WIDTH_CAP):
                assert gamma == witness.size == want, placement
                if g.m:
                    assert is_minimal_eds(g, witness)


class TestFoldedIntroduces:
    """run_dp folds introduces into the node above; run_eager builds every
    table of the nice form.  Both must give the same node_stats, gamma' and
    witness: extract_witness recovers each row's first producer from kept
    rows, and eager_witness follows the back-references run_eager stores
    (dp_reference's executable spec)."""

    @staticmethod
    def _assert_same(g, nd):
        for keep in (False, True):
            got = run_dp(g, nd, keep_tables=keep)
            want = run_eager(g, nd, keep_tables=keep)
            assert got.node_stats == want.node_stats
            assert got.gamma_prime == want.gamma_prime
            assert got.max_table_size == want.max_table_size
            if keep:
                assert extract_witness(g, nd, got) == eager_witness(nd, want)

    @given(st.one_of(graphs(max_n=8), sparse_graphs(min_n=6, max_n=16, extra=4)))
    @settings(max_examples=40, deadline=None)
    def test_same_as_the_eager_driver(self, g):
        td = td_min_fill(g)
        degree = [len(adj) for adj in td.neighbors()]
        hub = degree.index(max(degree, default=0)) if td.bags else 0
        trees = [td, rooted_at(td, hub), td_greedy_path(g)]
        # the matching-cover path is as wide as the cover, so only narrow ones
        cover = vertex_cover_from_matching(g, greedy_maximal_matching(g))
        path = td_from_vertex_cover(g, cover)
        if path.width <= REFERENCE_WIDTH_CAP:
            trees.append(path)
        for tree in trees:
            for placement in ("early", "late"):
                self._assert_same(g, make_nice(g, tree, edge_placement=placement))

    def test_both_folds_and_a_vertex_on_both_sides(self):
        # with late placement, a join of this graph's min-fill decomposition
        # has a vertex introduced in both chains, and the right chain builds
        # its introduce above a folded one
        g = gen(GenSpec("gnp", 8, 0.3, 1))
        nd = make_nice(g, td_min_fill(g), edge_placement="late")
        plan = ueds.dp._plan(g, nd, (g.n - 1).bit_length())
        folded = [step[0] == ueds.dp._FOLDED for step in plan]
        one_sided = [step[6] for step in plan if step[0] == ueds.dp._JOIN]
        under_edge = [
            c for node in nd.nodes if node.kind == INTRODUCE_EDGE
            for c in node.children if folded[c]
        ]
        right_chains = []
        for node in nd.nodes:
            if node.kind == JOIN:
                c, chain = node.children[1], []
                while nd.nodes[c].kind == INTRODUCE:
                    chain.append(folded[c])
                    c = nd.nodes[c].children[0]
                right_chains.append(chain)
        assert under_edge and any(one_sided) and [False, True] in right_chains
        self._assert_same(g, nd)


class TestConstructionRoutes:
    """A nice form made by the builder and the same form rebuilt by hand
    from its NiceNode view, NiceDecomposition(nodes), have equal columns
    and give run_dp the same gamma', node_stats and witness.  The builder's
    output is valid: the pipeline does not validate it when it runs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_builder_and_node_list_agree(self, seed):
        rng = random.Random(seed)
        g = gen(GenSpec("gnp", rng.randint(7, 12), rng.choice([0.25, 0.35, 0.5]), seed))
        td = td_min_fill(g)
        degree = [len(adj) for adj in td.neighbors()]
        hub = degree.index(max(degree, default=0)) if td.bags else 0
        for tree in (td, rooted_at(td, hub), td_greedy_path(g)):
            for placement in ("early", "late"):
                nd = make_nice(g, tree, edge_placement=placement)
                assert validate_nice(g, nd) == []
                rebuilt = NiceDecomposition(nodes=list(nd.nodes))
                for column in ("kind", "bag", "children", "vertex", "edge", "edge_id"):
                    assert getattr(rebuilt, column) == getattr(nd, column)
                for keep in (False, True):
                    got = run_dp(g, nd, keep_tables=keep, check=False)
                    want = run_dp(g, rebuilt, keep_tables=keep, check=False)
                    assert got.gamma_prime == want.gamma_prime
                    assert got.node_stats == want.node_stats
                    if keep:
                        assert extract_witness(g, nd, got) == extract_witness(
                            g, rebuilt, want
                        )


class TestWitness:
    def test_p4_unique_maximum(self, p4):
        nd = nice_for(p4)
        result = run_dp(p4, nd, keep_tables=True)
        assert list(extract_witness(p4, nd, result)) == [0, 2]

    def test_k2(self, k2):
        nd = nice_for(k2)
        result = run_dp(k2, nd, keep_tables=True)
        assert list(extract_witness(k2, nd, result)) == [0]

    def test_c4_maximum_witness(self, c4):
        nd = nice_for(c4)
        result = run_dp(c4, nd, keep_tables=True)
        witness = extract_witness(c4, nd, result)
        assert witness.size == 2
        assert is_minimal_eds(c4, witness)

    def test_rows_are_kept_where_the_walk_cannot_derive_them(self):
        # an introduce's rows follow from its child's, and so do a forget's
        # unless its child's rows are a forget's; the root's are always kept
        g = gen(GenSpec("gnp", 8, 0.3, 1))
        nd = make_nice(g, td_min_fill(g), edge_placement="late")
        result = run_dp(g, nd, keep_tables=True)
        over_forget = []
        for idx, kind in enumerate(nd.kind):
            below = nd.children[idx][0] if nd.children[idx] else None
            while below is not None and nd.kind[below] == INTRODUCE:
                below = nd.children[below][0]
            if kind == FORGET:
                over_forget.append(nd.kind[below] == FORGET)
            derived = kind == INTRODUCE or kind == FORGET and nd.kind[below] != FORGET
            assert (result.rows[idx] is None) == (derived and idx != nd.root)
        assert sorted(over_forget) == [False] * 5 + [True] * 3

    def test_requires_kept_tables(self, k2):
        nd = nice_for(k2)
        result = run_dp(k2, nd, keep_tables=False)
        with pytest.raises(ValueError):
            extract_witness(k2, nd, result)

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_witness_valid_and_structured(self, g):
        nd = nice_for(g)
        for gamma, witness in solved_by_both(g, nd):
            assert witness.size == gamma
            if g.m:
                assert is_minimal_eds(g, witness)
            structure = star_decomposition(g, witness)
            touched = {v for e in witness for v in g.edges[e]}
            for star in structure.stars:
                if star.center is not None:
                    for leaf in star.leaves:
                        assert any(
                            w not in touched for w, _ in g.adj[leaf]
                        ), "star leaf lacks its untouched-neighbor certificate"


class TestCounterMonotonicity:
    def test_beta_never_decreases_and_accepting_paths_avoid_red_forgets(self, c5):
        nd = nice_for(c5)
        result = run_reference(c5, nd, prune=False)
        tables = result.tables
        # beta monotone along every back-reference
        for idx, node in enumerate(nd.nodes):
            for state, back in tables[idx].states.items():
                if back[0] in ("iv", "ie", "fg"):
                    assert state[6] >= back[1][6]
        # walk the accepting state: no forget of an uncertified red on it
        stack = [(nd.root, result.accepting_state)]
        while stack:
            idx, state = stack.pop()
            node = nd.nodes[idx]
            back = tables[idx].states[state]
            if back[0] == "leaf":
                continue
            if back[0] == "fg":
                child_state = back[1]
                child_bag = nd.nodes[node.children[0]].bag
                pos = child_bag.index(node.vertex)
                assert child_state[0][pos] != RED0
            if back[0] == "jn":
                stack.append((node.children[0], back[1]))
                stack.append((node.children[1], back[2]))
            else:
                stack.append((node.children[0], back[1]))
