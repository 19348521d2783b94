"""VF2-style subgraph monomorphism search.

The searched function ``f`` must satisfy the paper's three properties:

* **mono1** -- ``f`` is injective (one operation per PE per time step),
* **mono2** -- labels are preserved (``l_G(v) == l_M(f(v))``),
* **mono3** -- every pattern edge maps onto a target edge.

The search is generic over the target graph: it only needs, per label, the
candidate target vertices, and an adjacency oracle. The MRRG adapter in
:mod:`repro.core.space_solver` provides both implicitly, so even a 20x20 CGRA
with II = 16 (6400 target vertices) is handled without materialising the
target graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Dict, Hashable, Iterable, List, Optional, Protocol, Sequence, Set, Tuple,
)

from repro.matching.ordering import most_constrained_first_order


class TargetGraph(Protocol):
    """Adjacency/candidate oracle the search runs against."""

    def candidates(self, label: Hashable) -> Iterable[int]:
        """All target vertices carrying ``label``."""
        ...

    def are_adjacent(self, a: int, b: int) -> bool:
        """Whether two distinct target vertices are connected."""
        ...

    def neighbors_with_label(self, vertex: int, label: Hashable) -> Iterable[int]:
        """Target neighbours of ``vertex`` carrying ``label``."""
        ...

    def seed_candidates(self, label: Hashable) -> Iterable[int]:
        """Candidates for the very first placed vertex.

        Targets with symmetries (e.g. a torus CGRA, which is
        vertex-transitive within a time step) may return a reduced set here
        to prune equivalent branches; returning ``candidates(label)`` is
        always correct.
        """
        ...


@dataclass
class PatternGraph:
    """The labelled undirected pattern (the scheduled DFG).

    Attributes:
        vertices: pattern vertex ids.
        labels: vertex -> label (the kernel slot in the mapper's use).
        adjacency: vertex -> set of adjacent vertices (undirected).
    """

    vertices: List[int]
    labels: Dict[int, Hashable]
    adjacency: Dict[int, Set[int]]

    @classmethod
    def from_edges(
        cls, labels: Dict[int, Hashable], edges: Iterable[Sequence[int]]
    ) -> "PatternGraph":
        vertices = sorted(labels)
        adjacency: Dict[int, Set[int]] = {v: set() for v in vertices}
        for a, b in edges:
            if a == b:
                continue
            if a not in adjacency or b not in adjacency:
                raise ValueError(f"edge ({a}, {b}) references unknown vertices")
            adjacency[a].add(b)
            adjacency[b].add(a)
        return cls(vertices=vertices, labels=dict(labels), adjacency=adjacency)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(len(adj) for adj in self.adjacency.values()) // 2

    def degree(self, vertex: int) -> int:
        return len(self.adjacency[vertex])


class ExplicitTargetGraph:
    """A target backed by explicit adjacency sets (tests, small examples)."""

    def __init__(self, labels: Dict[int, Hashable],
                 edges: Iterable[Sequence[int]]) -> None:
        self._labels = dict(labels)
        self._adjacency: Dict[int, Set[int]] = {v: set() for v in self._labels}
        for a, b in edges:
            if a == b:
                continue
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._by_label: Dict[Hashable, List[int]] = {}
        for v, label in self._labels.items():
            self._by_label.setdefault(label, []).append(v)

    def candidates(self, label: Hashable) -> Iterable[int]:
        return list(self._by_label.get(label, ()))

    def seed_candidates(self, label: Hashable) -> Iterable[int]:
        return self.candidates(label)

    def are_adjacent(self, a: int, b: int) -> bool:
        return b in self._adjacency.get(a, ())

    def neighbors_with_label(self, vertex: int, label: Hashable) -> Iterable[int]:
        return [u for u in self._adjacency.get(vertex, ())
                if self._labels.get(u) == label]

    def label(self, vertex: int) -> Hashable:
        return self._labels[vertex]


@dataclass
class SearchStats:
    """Counters describing one monomorphism search."""

    nodes_explored: int = 0
    backtracks: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False


@dataclass
class SearchOutcome:
    """Result of :meth:`MonomorphismSearch.search`."""

    mapping: Optional[Dict[int, int]]
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.mapping is not None

    @property
    def timed_out(self) -> bool:
        return self.stats.timed_out


class MonomorphismSearch:
    """Depth-first monomorphism search with most-constrained-first ordering."""

    def __init__(
        self,
        pattern: PatternGraph,
        target: TargetGraph,
        timeout_seconds: Optional[float] = None,
        use_seed_candidates: bool = True,
        order: Optional[Sequence[int]] = None,
    ) -> None:
        self.pattern = pattern
        self.target = target
        self.timeout_seconds = timeout_seconds
        self.use_seed_candidates = use_seed_candidates
        self.order = (
            list(order)
            if order is not None
            else most_constrained_first_order(pattern.vertices, pattern.adjacency)
        )
        if (
            len(self.order) != len(pattern.vertices)
            or set(self.order) != set(pattern.vertices)
        ):
            raise ValueError("ordering must be a permutation of the pattern vertices")

    # ------------------------------------------------------------------ #
    def search(self) -> SearchOutcome:
        """Find one monomorphism, or report failure / timeout."""
        stats = SearchStats()
        start = time.monotonic()
        deadline = start + self.timeout_seconds if self.timeout_seconds else None
        mapping: Dict[int, int] = {}
        used: Set[int] = set()
        target = self.target
        labels = self.pattern.labels
        plan = self._plan()

        def candidates_for(vertex: int, depth: int) -> List[int]:
            label = labels[vertex]
            anchor, others = plan[depth]
            if anchor is None:
                if depth == 0 and self.use_seed_candidates:
                    pool = target.seed_candidates(label)
                else:
                    pool = target.candidates(label)
                return [c for c in pool if c not in used]
            # start from the neighbourhood of the most recently mapped
            # pattern neighbour and filter by the remaining ones
            pool = target.neighbors_with_label(mapping[anchor], label)
            images = [mapping[other] for other in others]
            are_adjacent = target.are_adjacent
            result = []
            for candidate in pool:
                if candidate in used:
                    continue
                for image in images:
                    if not are_adjacent(image, candidate):
                        break
                else:
                    result.append(candidate)
            return result

        def extend(depth: int) -> bool:
            if depth == len(self.order):
                return True
            if deadline is not None and stats.nodes_explored % 256 == 0:
                if time.monotonic() > deadline:
                    stats.timed_out = True
                    return False
            vertex = self.order[depth]
            for candidate in candidates_for(vertex, depth):
                stats.nodes_explored += 1
                mapping[vertex] = candidate
                used.add(candidate)
                if extend(depth + 1):
                    return True
                if stats.timed_out:
                    return False
                del mapping[vertex]
                used.discard(candidate)
                stats.backtracks += 1
            return False

        found = extend(0)
        stats.elapsed_seconds = time.monotonic() - start
        return SearchOutcome(mapping=dict(mapping) if found else None, stats=stats)

    def _plan(self) -> List[Tuple[Optional[int], Tuple[int, ...]]]:
        """Per depth: the anchor and the other already-mapped neighbours.

        The order is static, so the vertex at depth ``d`` always finds
        exactly ``order[:d]`` mapped; its mapped neighbours are fixed
        before the search starts. The anchor is the last of them in the
        adjacency set's iteration order, the rest are filtered against.
        """
        position = {vertex: depth for depth, vertex in enumerate(self.order)}
        plan: List[Tuple[Optional[int], Tuple[int, ...]]] = []
        for depth, vertex in enumerate(self.order):
            mapped = [u for u in self.pattern.adjacency[vertex]
                      if position[u] < depth]
            if not mapped:
                plan.append((None, ()))
            else:
                plan.append((mapped[-1], tuple(mapped[:-1])))
        return plan

    # ------------------------------------------------------------------ #
    def verify(self, mapping: Dict[int, int]) -> List[str]:
        """Check mono1/mono2/mono3 for a given mapping; return violations."""
        violations: List[str] = []
        if set(mapping) != set(self.pattern.vertices):
            violations.append("mapping does not cover all pattern vertices")
        images = list(mapping.values())
        if len(set(images)) != len(images):
            violations.append("mono1 violated: mapping is not injective")
        for vertex, image in mapping.items():
            label = self.pattern.labels[vertex]
            if image not in set(self.target.candidates(label)):
                violations.append(
                    f"mono2 violated: vertex {vertex} (label {label}) "
                    f"mapped to {image}"
                )
        for vertex in self.pattern.vertices:
            for other in self.pattern.adjacency[vertex]:
                if vertex < other and vertex in mapping and other in mapping:
                    if not self.target.are_adjacent(mapping[vertex], mapping[other]):
                        violations.append(
                            f"mono3 violated: edge ({vertex}, {other}) not preserved"
                        )
        return violations


def find_monomorphism(
    pattern: PatternGraph,
    target: TargetGraph,
    timeout_seconds: Optional[float] = None,
    use_seed_candidates: bool = True,
) -> SearchOutcome:
    """Convenience wrapper: build a search object and run it."""
    search = MonomorphismSearch(
        pattern,
        target,
        timeout_seconds=timeout_seconds,
        use_seed_candidates=use_seed_candidates,
    )
    return search.search()
