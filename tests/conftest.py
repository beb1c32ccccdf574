"""Shared fixtures: the named small graphs and corpus helpers."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ueds.generate import GenSpec
from ueds.graph import Graph

ROOT = Path(__file__).resolve().parent.parent


def pool_specs(workload: str) -> list[tuple[int, GenSpec, str]]:
    """(stratum, GenSpec, recorded hash) of each graph of a benchmark pool,
    from the expected-answers file perfbench keeps for the workload."""
    data = json.loads((ROOT / "perfbench" / "expected" / f"{workload}.json").read_text())
    out = []
    for inst in data["instances"]:
        s = data["strata"][inst["stratum"]]
        n = s["n"]
        if s["m"] is not None:
            p = s["m"] / (n * (n - 1) / 2)
        else:
            p = None if s["degree"] is None else s["degree"] / (n - 1)
        out.append((inst["stratum"], GenSpec(s["family"], n, p, inst["seed"]), inst["sha"]))
    return out


def graph_from_pairs(n: int, pairs: list[tuple[int, int]]) -> Graph:
    """Build from 1-indexed vertex pairs, as they appear in .gr files."""
    return Graph(n, [(u - 1, v - 1) for u, v in pairs])


@pytest.fixture
def k2() -> Graph:
    return graph_from_pairs(2, [(1, 2)])


@pytest.fixture
def p4() -> Graph:
    return graph_from_pairs(4, [(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def k3() -> Graph:
    return graph_from_pairs(3, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def c4() -> Graph:
    return graph_from_pairs(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


@pytest.fixture
def c5() -> Graph:
    return graph_from_pairs(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])


@pytest.fixture
def k13() -> Graph:
    return graph_from_pairs(4, [(1, 2), (1, 3), (1, 4)])


def four_color_graph() -> Graph:
    """A 12-vertex graph whose coloring uses all four kernelizer classes:
    vertices 1-3 are pendant (blue), 4-6 their neighbors (purple), 7-8 have
    purple-only neighborhoods (red), 9-12 form the green core."""
    return graph_from_pairs(
        12,
        [
            (1, 4),
            (2, 5),
            (3, 6),
            (4, 12),
            (5, 7),
            (6, 8),
            (4, 11),
            (11, 10),
            (11, 9),
            (9, 10),
            (11, 12),
            (4, 7),
            (5, 8),
            (5, 11),
            (5, 12),
        ],
    )


@pytest.fixture
def twelve_vertex_all_colors() -> Graph:
    return four_color_graph()


def all_graphs_on(n: int):
    """Every labeled graph on exactly n vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def minimum_vertex_cover(g: Graph) -> tuple[int, ...]:
    """Smallest cover by brute force; for building narrow decompositions in
    tests (n must stay small)."""
    for size in range(g.n + 1):
        for cand in itertools.combinations(range(g.n), size):
            chosen = set(cand)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return tuple(cand)
    return tuple(range(g.n))


@st.composite
def graphs(draw, max_n: int = 6) -> Graph:
    """Hypothesis strategy: a labeled graph with up to max_n vertices,
    shrinking toward fewer vertices and edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
