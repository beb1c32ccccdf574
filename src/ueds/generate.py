"""Deterministic instance generation.

Randomness comes from splitmix64 so any implementation can reproduce the
stream: the state advances by 0x9E3779B97F4A7C15 per draw and each output is
the advanced state mixed by two xor-shift-multiply rounds
(0xBF58476D1CE4E5B9 after a 30-bit shift, 0x94D049BB133111EB after 27) and a
final 31-bit xor-shift.  The seed is the initial state, used as-is.

gnp graphs draw one value per vertex pair (u, v), u < v, in lexicographic
order, and keep the edge iff the draw is below floor(p * 2^64).  Random trees
decode a uniform-ish sequence (each entry one draw modulo n) through the
standard sequence-to-tree bijection.  Identical GenSpecs therefore yield
byte-identical serialized graphs.

The i-th output (from 0) is the mix of seed + (i + 1) * 0x9E3779B97F4A7C15
mod 2^64, so ``gen`` computes the stream in numpy uint64 blocks, whose
arithmetic wraps as the generator's does; ``SplitMix64`` draws the same
values one at a time.  A block holds at most 2^14 draws: with 2^16, making
the benchmark's kernelize-sparse pool raised a process's peak RSS by 1 MB,
with 2^14 by nothing measurable, and it runs faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GenSpecError
from .graph import Graph

__all__ = ["SplitMix64", "GenSpec", "gen"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK = 1 << 14  # the most draws held at once


class SplitMix64:
    """The splitmix64 generator; deterministic 64-bit stream for a seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK


def _draws(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start .. start + count - 1 of SplitMix64(seed), as uint64.
    Every step is an array operation: numpy wraps those silently, where a
    scalar that overflows warns."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _blocks(seed: int, count: int) -> Iterator[tuple[int, np.ndarray]]:
    """The first count outputs of SplitMix64(seed) in blocks of at most
    _BLOCK, each with the index of its first output."""
    for start in range(0, count, _BLOCK):
        yield start, _draws(seed, start, min(_BLOCK, count - start))


def _gnp_edges(n: int, p: float, seed: int) -> np.ndarray:
    """The (m, 2) int64 array of the pairs whose draws fall below
    floor(p * 2^64), in lexicographic order."""
    threshold = int(p * 2**64)
    pairs = n * (n - 1) // 2
    if threshold == 0 or pairs == 0:
        return np.zeros((0, 2), dtype=np.int64)
    below = np.uint64(min(threshold - 1, _MASK))  # draw < threshold
    # row u's pairs (u, u + 1), ..., (u, n - 1) start at first[u]
    rows = np.arange(n, dtype=np.int64)
    first = rows * (n - 1) - rows * (rows - 1) // 2
    hits = np.concatenate(
        [(draws <= below).nonzero()[0] + start for start, draws in _blocks(seed, pairs)]
    )
    u = first.searchsorted(hits, side="right") - 1
    return np.stack([u, hits - first[u] + u + 1], axis=1)


FAMILIES = ("gnp", "path", "cycle", "star", "tree")


@dataclass(frozen=True)
class GenSpec:
    """What to generate; equal specs generate identical graphs."""

    family: str
    n: int
    p: float | None = None
    seed: int = 0

    @property
    def instance_id(self) -> str:
        if self.family == "gnp":
            return f"gnp-n{self.n}-p{self.p}-s{self.seed}"
        if self.family == "tree":
            return f"tree-n{self.n}-s{self.seed}"
        return f"{self.family}-n{self.n}"


def _decode_tree(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Standard linear decoding of a length n-2 vertex sequence into the
    edge list of a labeled tree on n vertices."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def gen(spec: GenSpec) -> Graph:
    """Build the graph a GenSpec describes.  Raises GenSpecError on invalid
    parameters (unknown family, n < 1, cycle below 3 vertices, p outside
    [0, 1])."""
    if spec.family not in FAMILIES:
        raise GenSpecError(f"unknown family {spec.family!r}")
    if spec.n < 1:
        raise GenSpecError(f"n must be >= 1, got {spec.n}")
    n = spec.n
    if spec.family == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if spec.family == "cycle":
        if n < 3:
            raise GenSpecError("a cycle needs at least 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if spec.family == "star":
        return Graph(n, [(0, i) for i in range(1, n)])
    if spec.family == "tree":
        if n <= 2:
            return Graph(n, [(0, 1)] if n == 2 else [])
        seq = []
        for _, draws in _blocks(spec.seed, n - 2):
            seq += (draws % np.uint64(n)).tolist()
        return Graph(n, _decode_tree(seq, n))
    # gnp
    if spec.p is None or not 0.0 <= spec.p <= 1.0:
        raise GenSpecError(f"gnp needs an edge probability in [0, 1], got {spec.p}")
    return Graph._simple(n, _gnp_edges(n, spec.p, spec.seed))
