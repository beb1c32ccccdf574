import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ueds import oracle
from ueds.errors import InstanceTooLarge
from ueds.generate import GenSpec, gen
from ueds.graph import Graph, greedy_maximal_matching, is_minimal_eds
from ueds.oracle import enumerate_minimal_eds, upper_eds_exact

from conftest import all_graphs_on, graphs
from oracle_reference import (
    BITFORCE_EDGE_LIMIT,
    bitforce_minimal_masks,
    minimal_masks_reference,
)

K8_PAIRS = list(itertools.combinations(range(8), 2))


@st.composite
def dense_graphs(draw) -> Graph:
    """An 8-vertex graph with 23 to 28 edges: above the default limit, where
    only the reference can check the enumerator."""
    pairs = draw(st.sets(st.sampled_from(K8_PAIRS), min_size=23, max_size=28))
    return Graph(8, sorted(pairs))


def _masks(g: Graph) -> list[int]:
    return [s.mask for s in enumerate_minimal_eds(g, limit=g.m)]


def _check_against_references(g: Graph) -> None:
    got = _masks(g)
    assert got == minimal_masks_reference(g)
    if g.m <= BITFORCE_EDGE_LIMIT:
        assert got == bitforce_minimal_masks(g)


class TestEnumeration:
    def test_k2_single_solution(self, k2):
        assert [s.mask for s in enumerate_minimal_eds(k2)] == [1]

    def test_k3_exactly_the_singletons(self, k3):
        assert [s.mask for s in enumerate_minimal_eds(k3)] == [1, 2, 4]

    def test_p4_exactly_two(self, p4):
        # the middle edge alone, and the two end edges together
        assert [s.mask for s in enumerate_minimal_eds(p4)] == [0b010, 0b101]

    def test_edgeless_graph_has_the_empty_solution(self):
        assert [s.mask for s in enumerate_minimal_eds(Graph(3, []))] == [0]

    def test_instance_limit(self):
        g = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
        with pytest.raises(InstanceTooLarge):
            list(enumerate_minimal_eds(g, limit=22))

    def test_the_limit_is_checked_at_the_call(self):
        # before the first next(): a caller's try around the call catches it
        g = gen(GenSpec("path", 24))
        with pytest.raises(InstanceTooLarge, match="enumeration limit 22"):
            enumerate_minimal_eds(g, limit=22)
        with pytest.raises(InstanceTooLarge, match="64-bit"):
            enumerate_minimal_eds(gen(GenSpec("star", 66)), limit=100)

    @pytest.mark.parametrize(
        "m,limit,want", [(22, 22, True), (23, 22, False), (64, 100, True), (65, 100, False)]
    )
    def test_fits_at_the_boundaries(self, m, limit, want):
        assert oracle.fits(m, limit) is want

    def test_every_enumerated_set_is_minimal(self, c5):
        for s in enumerate_minimal_eds(c5):
            assert is_minimal_eds(c5, s)

    # the numpy enumerator against the pure-Python branching search it
    # replaced and, where m allows, the full subset scan
    def test_matches_references_on_all_n5_graphs(self):
        for g in all_graphs_on(5):
            _check_against_references(g)

    @given(st.one_of(graphs(max_n=6), dense_graphs()))
    @settings(max_examples=40, deadline=None)
    def test_matches_references_random_and_dense(self, g):
        _check_against_references(g)

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("path", 20),
            GenSpec("cycle", 12),
            GenSpec("gnp", 9, 0.5, seed=3),
            GenSpec("gnp", 10, 0.4, seed=8),
        ],
        ids=lambda spec: spec.instance_id,
    )
    def test_tiny_blocks(self, spec, monkeypatch):
        # every step splits its frontier, so each block seam is crossed
        g = gen(spec)
        monkeypatch.setattr(oracle, "BLOCK_ROWS", 3)
        assert _masks(g) == minimal_masks_reference(g)

    def test_star_uses_the_top_mask_bit(self):
        g = gen(GenSpec("star", 65))
        assert _masks(g) == [1 << e for e in range(64)]
        r = upper_eds_exact(g, limit=64)
        assert (r.gamma_prime, r.count_minimal, r.witness.mask) == (1, 64, 1)

    def test_more_than_64_edges_is_refused_at_any_limit(self):
        with pytest.raises(InstanceTooLarge, match="64-bit"):
            upper_eds_exact(gen(GenSpec("star", 66)), limit=100)


class TestExactValue:
    @pytest.mark.parametrize(
        "fixture,want",
        [("k2", 1), ("k3", 1), ("p4", 2), ("c4", 2), ("c5", 2), ("k13", 1)],
    )
    def test_named_values(self, fixture, want, request):
        g = request.getfixturevalue(fixture)
        assert upper_eds_exact(g).gamma_prime == want

    def test_p4_witness(self, p4):
        r = upper_eds_exact(p4)
        assert r.witness.mask == 0b101 and r.gamma_prime == 2

    def test_edgeless(self):
        r = upper_eds_exact(Graph(5, []))
        assert r.gamma_prime == 0 and r.witness.mask == 0 and r.count_minimal == 1

    def test_c4_count_and_witness_tiebreak(self, c4):
        r = upper_eds_exact(c4)
        # all six 2-subsets minus nothing: the 4 adjacent pairs and 2 matchings
        assert r.count_minimal == 6
        assert r.witness.mask == 0b0011  # lexicographically smallest maximum

    @pytest.mark.parametrize(
        "spec,limit,want",
        [
            # the top oracle stratum of the gamma-auto benchmark (n 11, m 22)
            (GenSpec("gnp", 11, 0.4, seed=5_000_007), 22, (6, 1444, 0xE7)),
            (GenSpec("gnp", 11, 0.4, seed=5_000_016), 22, (6, 1293, 0x407C)),
            (GenSpec("tree", 30), 64, (12, 11352, 0x426B1F)),
            (GenSpec("cycle", 20), 22, (10, 851, 0x33333)),
            # sparse graphs with deep branches whose chosen edges lose their
            # private edges long before the leaves
            (GenSpec("path", 24), 64, (12, 2029, 0x555555)),
            (GenSpec("tree", 36, seed=2), 64, (16, 63743, 0x8AA2B2AF)),
        ],
        ids=[
            "gnp-n11-m22-a",
            "gnp-n11-m22-b",
            "tree-n30",
            "cycle-n20",
            "path-n24",
            "tree-n36-s2",
        ],
    )
    def test_pinned_output(self, spec, limit, want):
        r = upper_eds_exact(gen(spec), limit=limit)
        assert (r.gamma_prime, r.count_minimal, r.witness.mask) == want

    def test_witness_always_minimal(self, c5):
        r = upper_eds_exact(c5)
        assert is_minimal_eds(c5, r.witness)
        assert r.witness.size == r.gamma_prime

    @given(graphs(max_n=6))
    @settings(max_examples=40)
    def test_gamma_at_least_any_maximal_matching(self, g):
        r = upper_eds_exact(g)
        assert r.gamma_prime >= greedy_maximal_matching(g).size

