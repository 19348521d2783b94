"""Space phase: place the scheduled DFG onto the CGRA via monomorphism.

Given a time solution, every DFG node carries a kernel-slot label and the
placement problem becomes: find an injective, label- and edge-preserving map
from the labelled DFG into the MRRG (paper Sec. IV-C). The MRRG is exposed to
the generic monomorphism search through :class:`MRRGTarget`, which computes
candidates and adjacency on the fly (no explicit graph is built even for
20x20 CGRAs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.arch.cgra import CGRA
from repro.arch.mrrg import MRRG, TimeAdjacency
from repro.arch.topology import Topology
from repro.core.config import MapperConfig
from repro.core.time_solver import Schedule
from repro.graphs.dfg import DFG
from repro.matching.monomorphism import (
    MonomorphismSearch,
    PatternGraph,
    SearchStats,
)
from repro.matching.ordering import most_constrained_first_order


class MRRGTarget:
    """Adapter exposing an :class:`~repro.arch.mrrg.MRRG` to the matcher.

    Pattern labels are ``(slot, opcode)`` pairs (see :func:`build_pattern`):
    the slot half carries the paper's ``l_G``/``l_M`` label-preservation
    property, the opcode half restricts candidates to op-compatible MRRG
    vertices on heterogeneous fabrics. On a homogeneous array every PE is
    compatible and the opcode half is inert.

    Adjacency is answered from the CGRA's flat per-PE reach tables
    (:meth:`~repro.arch.cgra.CGRA.reach_table`), built once per CGRA.
    """

    def __init__(self, mrrg: MRRG, pin_first_placement: bool = True) -> None:
        self.mrrg = mrrg
        self.pin_first_placement = pin_first_placement
        cgra = mrrg.cgra
        self._homogeneous = cgra.is_homogeneous
        self._num_pes = cgra.num_pes
        self._consecutive = mrrg.time_adjacency is TimeAdjacency.CONSECUTIVE
        self._reach = cgra.reach_table()

    @staticmethod
    def _split(label: Hashable):
        """Split a ``(slot, opcode)`` label; plain slot labels still work."""
        if isinstance(label, tuple):
            return int(label[0]), label[1]
        return int(label), None

    # -- TargetGraph protocol ------------------------------------------- #
    def candidates(self, label: Hashable) -> Iterable[int]:
        slot, opcode = self._split(label)
        if self._homogeneous or opcode is None:
            return self.mrrg.vertices_with_label(slot)
        return self.mrrg.compatible_vertices(slot, opcode)

    def seed_candidates(self, label: Hashable) -> Iterable[int]:
        """Candidates for the first placed node.

        A *homogeneous* torus CGRA is vertex-transitive inside a time step,
        so the first node can be pinned to PE 0 of its slot without losing
        completeness. Heterogeneity breaks the symmetry (translating a
        mapping can move some op onto a PE that does not support it), so
        the pin only applies to homogeneous tori.
        """
        if (
            self.pin_first_placement
            and self._homogeneous
            and self.mrrg.cgra.topology is Topology.TORUS
        ):
            slot, _opcode = self._split(label)
            return [self.mrrg.vertex(0, slot)]
        return self.candidates(label)

    def are_adjacent(self, a: int, b: int) -> bool:
        return self.mrrg.has_edge(a, b)

    def neighbors_with_label(self, vertex: int, label: Hashable) -> Iterable[int]:
        if isinstance(label, tuple):
            slot, opcode = label
        else:
            slot, opcode = label, None
        vertex_slot, pe = divmod(vertex, self._num_pes)
        if self._consecutive and not self.mrrg.slots_adjacent(vertex_slot, slot):
            return []
        if self._homogeneous or opcode is None:
            reachable = self._reach[pe]
        else:
            reachable = self.mrrg.cgra.reach_table(opcode)[pe]
        base = slot * self._num_pes
        if vertex_slot == slot:
            return [base + other for other in reachable if other != pe]
        return [base + other for other in reachable]


@dataclass
class SpaceResult:
    """Outcome of the space phase for one schedule."""

    placement: Optional[Dict[int, int]]  # node -> PE index
    mrrg_assignment: Optional[Dict[int, int]]  # node -> MRRG vertex
    stats: SearchStats = field(default_factory=SearchStats)
    elapsed_seconds: float = 0.0

    @property
    def found(self) -> bool:
        return self.placement is not None

    @property
    def timed_out(self) -> bool:
        return self.stats.timed_out


@dataclass(frozen=True)
class PatternShape:
    """The label-free half of the space problem for one DFG.

    The pattern's vertices, its undirected adjacency and the search order
    (:func:`~repro.matching.ordering.most_constrained_first_order`) depend
    on the DFG alone, not on the schedule, so the mapper builds one shape
    per ``map()`` call and every space search of that call shares it.
    """

    vertices: List[int]
    adjacency: Dict[int, Set[int]]
    order: List[int]

    @classmethod
    def of(cls, dfg: DFG) -> "PatternShape":
        unlabelled = PatternGraph.from_edges(
            dict.fromkeys(dfg.node_ids()), dfg.undirected_edges()
        )
        return cls(
            vertices=unlabelled.vertices,
            adjacency=unlabelled.adjacency,
            order=most_constrained_first_order(
                unlabelled.vertices, unlabelled.adjacency
            ),
        )


def build_pattern(
    schedule: Schedule, shape: Optional[PatternShape] = None
) -> PatternGraph:
    """The labelled undirected DFG the monomorphism search runs on.

    Each node is labelled ``(kernel slot, opcode)``: the slot drives the
    paper's label-preservation property, the opcode lets
    :class:`MRRGTarget` restrict candidates to op-compatible PEs on
    heterogeneous fabrics. ``shape`` (built from ``schedule.dfg`` when
    omitted) supplies the vertices and adjacency.
    """
    if shape is None:
        shape = PatternShape.of(schedule.dfg)
    dfg = schedule.dfg
    labels = {
        node_id: (schedule.slot(node_id), dfg.node(node_id).opcode)
        for node_id in schedule.start_times
    }
    return PatternGraph(
        vertices=shape.vertices, labels=labels, adjacency=shape.adjacency
    )


def labelling_key(schedule: Schedule, time_adjacency: TimeAdjacency) -> Hashable:
    """Everything about ``schedule`` that decides whether it can be placed.

    For a fixed DFG and CGRA the space problem is fixed by the pattern's
    labels ``(slot, opcode)`` and the MRRG of the II. Opcodes are fixed
    per node, so the slots of the nodes, in node-id order, are the key.

    Under ``TimeAdjacency.ALL_PAIRS`` every slot is adjacent to every
    other, so the MRRG looks the same from each slot and any renaming of
    the slots gives the same problem, at any II: the key renumbers the
    slots by first appearance. Under ``CONSECUTIVE`` adjacency depends on
    the cyclic distance between slots, so the key is the exact labelling
    plus the II.
    """
    slots = [schedule.slot(node_id) for node_id in sorted(schedule.start_times)]
    if time_adjacency is TimeAdjacency.CONSECUTIVE:
        return (schedule.ii, tuple(slots))
    renumbered: Dict[int, int] = {}
    return tuple(renumbered.setdefault(slot, len(renumbered)) for slot in slots)


class SpaceSolver:
    """Runs the monomorphism search for one schedule."""

    def __init__(self, cgra: CGRA, config: Optional[MapperConfig] = None) -> None:
        self.cgra = cgra
        self.config = config if config is not None else MapperConfig()

    def build_mrrg(self, ii: int) -> MRRG:
        return MRRG(self.cgra, ii, time_adjacency=self.config.time_adjacency)

    def solve(
        self,
        schedule: Schedule,
        timeout_seconds: Optional[float] = None,
        shape: Optional[PatternShape] = None,
    ) -> SpaceResult:
        """Attempt to place ``schedule``; never raises on plain failure.

        ``shape`` is the DFG's :class:`PatternShape`; callers placing many
        schedules of one DFG pass it in so it is built once.
        """
        budget = (
            timeout_seconds
            if timeout_seconds is not None
            else self.config.space_timeout_seconds
        )
        start = time.monotonic()
        if shape is None:
            shape = PatternShape.of(schedule.dfg)
        mrrg = self.build_mrrg(schedule.ii)
        target = MRRGTarget(mrrg, pin_first_placement=self.config.pin_first_placement)
        pattern = build_pattern(schedule, shape)
        search = MonomorphismSearch(
            pattern, target, timeout_seconds=budget, order=shape.order
        )
        outcome = search.search()
        elapsed = time.monotonic() - start
        if outcome.mapping is None:
            return SpaceResult(
                placement=None,
                mrrg_assignment=None,
                stats=outcome.stats,
                elapsed_seconds=elapsed,
            )
        placement = {
            node: mrrg.pe_of(vertex) for node, vertex in outcome.mapping.items()
        }
        return SpaceResult(
            placement=placement,
            mrrg_assignment=dict(outcome.mapping),
            stats=outcome.stats,
            elapsed_seconds=elapsed,
        )
