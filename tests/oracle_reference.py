"""Reference enumerator for tests: the one-set-at-a-time branching DFS over
Python-int bitmasks, with each leaf checked by the pure-Python minimality test.
``ueds.oracle`` must list exactly the same masks on every input; unlike it,
this reference has no 64-edge ceiling.
"""

from __future__ import annotations

from ueds.graph import Graph, _is_minimal_eds_mask


def minimal_masks_reference(g: Graph) -> list[int]:
    """All minimal-EDS bitmasks, ascending."""
    nbr = g.edge_neighborhood_masks
    m = g.m
    out: list[int] = []

    # Iterative DFS over (chosen, banned) pairs; each minimal hitting set is
    # reached along exactly one branch, so no dedup is needed.  Dominated-ness
    # only grows along a branch, so children resume the scan where the parent
    # stopped.
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        mask, banned, start = stack.pop()
        for e in range(start, m):
            if not nbr[e] & mask:
                cand = nbr[e] & ~banned
                ban = banned
                while cand:
                    low = cand & -cand
                    cand ^= low
                    stack.append((mask | low, ban, e))
                    ban |= low
                break
        else:
            if _is_minimal_eds_mask(g, mask):
                out.append(mask)
    out.sort()
    return out
