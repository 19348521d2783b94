"""Pattern-vertex orderings for the monomorphism search.

A good static ordering is the main lever for search performance in
RI / VF3-style matchers: placing highly connected vertices early maximises
the pruning obtained from the adjacency checks. Two orderings are provided;
the mapper uses :func:`most_constrained_first_order` by default and
:func:`degree_order` is kept for ablation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set


def degree_order(vertices: Sequence[int], adjacency: Dict[int, Set[int]]) -> List[int]:
    """Vertices sorted by decreasing degree (ties by vertex id)."""
    return sorted(vertices, key=lambda v: (-len(adjacency.get(v, ())), v))


def most_constrained_first_order(
    vertices: Sequence[int], adjacency: Dict[int, Set[int]]
) -> List[int]:
    """GreatestConstrainedFirst ordering (RI-style).

    Start from the highest-degree vertex; repeatedly append the vertex with
    the most neighbours already in the ordering (so every new vertex is
    maximally constrained when the search reaches it), breaking ties by the
    number of neighbours adjacent to the ordered set's frontier and then by
    total degree. Disconnected components are started again from their
    highest-degree vertex.
    """
    # Incremental bookkeeping, equal to recomputing every key at each step:
    # ``touching[v]`` = |N(v) & ordered| and ``frontier[v]`` = number of
    # unordered neighbours of v that touch the ordered set.
    remaining: Set[int] = set(vertices)
    empty: Set[int] = set()
    touching: Dict[int, int] = dict.fromkeys(remaining, 0)
    frontier: Dict[int, int] = dict.fromkeys(remaining, 0)
    order: List[int] = []

    while remaining:
        best = None
        best_key = None
        for v in remaining:
            if touching[v] == 0:
                continue
            key = (touching[v], frontier[v], len(adjacency.get(v, empty)), -v)
            if best_key is None or key > best_key:
                best_key = key
                best = v
        if best is None:
            # first vertex, or a new connected component
            best = max(remaining, key=lambda v: (len(adjacency.get(v, ())), -v))
        order.append(best)
        remaining.discard(best)
        neighbors = adjacency.get(best, empty)
        if touching[best]:
            # no longer an unordered neighbour of anyone
            for u in neighbors:
                if u in frontier:
                    frontier[u] -= 1
        for u in neighbors:
            if u not in touching:
                continue
            touching[u] += 1
            if touching[u] == 1 and u in remaining:
                for x in adjacency.get(u, empty):
                    if x in frontier:
                        frontier[x] += 1
    return order
