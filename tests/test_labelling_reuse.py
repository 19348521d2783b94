"""Soundness of the mapper's per-call set of refuted slot labellings.

A schedule whose labelling key (``space_solver.labelling_key``) was already
refuted in the same ``map()`` call is answered without a space search. These
tests run every skipped search anyway and check it is refuted, and check
that under CONSECUTIVE time adjacency only exact repeats are skipped.
"""

import random

import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.arch.mrrg import TimeAdjacency
from repro.core import mapper as mapper_module
from repro.core.config import MapperConfig
from repro.core.mapper import MonomorphismMapper
from repro.core.space_solver import SpaceResult, SpaceSolver, labelling_key
from repro.core.time_solver import IncrementalTimeSolver, Schedule
from repro.core.validation import validate_mapping
from repro.frontend import EXAMPLE_KERNELS, extract_dfg
from repro.graphs.dfg import DFG
from repro.graphs.generators import random_dfg
from repro.matching.monomorphism import SearchStats


def _kernel(name: str) -> DFG:
    return extract_dfg(EXAMPLE_KERNELS[name], name=name).dfg


@pytest.mark.parametrize("name,expected_ii,min_ratio", [
    ("stencil3", 2, 10),
    ("fir3", 2, 10),
    # its 16 schedules at II=2 carry 16 distinct labellings, each a
    # different space problem: only the II=1 repeats can be skipped
    ("bitcount4", 3, 1.5),
])
def test_every_skipped_schedule_is_refuted(monkeypatch, name, expected_ii,
                                           min_ratio):
    keyed, searched = [], []
    real_key, real_solve = labelling_key, SpaceSolver.solve

    def recording_key(schedule, time_adjacency):
        keyed.append(schedule)
        return real_key(schedule, time_adjacency)

    def recording_solve(self, schedule, *args, **kwargs):
        searched.append(schedule)
        return real_solve(self, schedule, *args, **kwargs)

    monkeypatch.setattr(mapper_module, "labelling_key", recording_key)
    monkeypatch.setattr(SpaceSolver, "solve", recording_solve)
    cgra = CGRA(10, 10)
    result = MonomorphismMapper(cgra, MapperConfig(opt_level=2)).map(
        _kernel(name))

    assert result.success and result.ii == expected_ii
    assert validate_mapping(result.mapping) == []
    space = result.stats["space"]
    assert len(keyed) == result.schedules_tried
    assert space["calls"] == len(searched)
    assert space["calls"] + space["reused"] == result.schedules_tried
    assert result.schedules_tried >= min_ratio * space["calls"]

    searched_ids = {id(schedule) for schedule in searched}
    skipped = [s for s in keyed if id(s) not in searched_ids]
    assert len(skipped) == space["reused"] > 0
    direct = SpaceSolver(cgra, MapperConfig())
    for schedule in skipped:
        outcome = real_solve(direct, schedule, timeout_seconds=60.0)
        assert not outcome.found and not outcome.timed_out


def _pair_dfg() -> DFG:
    dfg = DFG("pair")
    dfg.add_node(0, Opcode.INPUT, value=1)
    dfg.add_node(1, Opcode.ADD)
    dfg.add_data_edge(0, 1, 0)
    dfg.add_data_edge(0, 1, 1)
    return dfg


def test_consecutive_key_keeps_non_rotations_apart():
    dfg = _pair_dfg()
    refuted = Schedule(dfg, 4, {0: 0, 1: 2})  # slots 0 and 2: not adjacent
    swapped = Schedule(dfg, 4, {0: 0, 1: 1})  # slots 1 <-> 2 swapped
    rotated = Schedule(dfg, 4, {0: 1, 1: 3})
    consecutive = TimeAdjacency.CONSECUTIVE
    all_pairs = TimeAdjacency.ALL_PAIRS
    assert labelling_key(refuted, all_pairs) == labelling_key(swapped, all_pairs)
    assert labelling_key(refuted, consecutive) != labelling_key(
        swapped, consecutive)
    assert labelling_key(refuted, consecutive) != labelling_key(
        rotated, consecutive)

    solver = SpaceSolver(CGRA(2, 2), MapperConfig(time_adjacency=consecutive))
    assert not solver.solve(refuted).found
    assert solver.solve(swapped).found


def test_consecutive_permutation_of_refuted_labelling_is_searched(monkeypatch):
    dfg = _pair_dfg()
    schedules = [Schedule(dfg, 4, {0: 0, 1: 2}), Schedule(dfg, 4, {0: 0, 1: 1})]

    def scripted(self, ii, slack=None, limit=None, timeout_seconds=None):
        return iter(schedules if ii == 4 else [])

    monkeypatch.setattr(IncrementalTimeSolver, "iter_schedules", scripted)
    config = MapperConfig(time_adjacency=TimeAdjacency.CONSECUTIVE, max_ii=4)
    result = MonomorphismMapper(CGRA(2, 2), config).map(dfg)

    assert result.success and result.ii == 4
    assert result.mapping.schedule is schedules[1]
    assert result.stats["space"]["calls"] == 2
    assert result.stats["space"]["reused"] == 0


def test_equal_all_pairs_keys_have_equal_space_outcomes():
    # random slot labellings of small DFGs on a 2x2 torus, across IIs 2-4:
    # whatever shares a canonical key must share the search outcome
    rng = random.Random(7)
    solver = SpaceSolver(CGRA(2, 2), MapperConfig())
    shared = mixed = 0
    for seed in range(6):
        dfg = random_dfg(6, edge_probability=0.35, seed=seed)
        outcome_of_key = {}
        for _ in range(40):
            ii = rng.randint(2, 4)
            schedule = Schedule(dfg, ii, {n: rng.randrange(ii)
                                          for n in dfg.node_ids()})
            result = solver.solve(schedule, timeout_seconds=60.0)
            assert not result.timed_out
            key = labelling_key(schedule, TimeAdjacency.ALL_PAIRS)
            shared += key in outcome_of_key
            assert outcome_of_key.setdefault(key, result.found) == result.found
        mixed += len(set(outcome_of_key.values())) > 1
    assert shared and mixed  # keys did repeat, and both outcomes occurred


def test_timed_out_search_is_not_recorded(monkeypatch):
    dfg = _pair_dfg()
    # one canonical ALL_PAIRS labelling, offered at II=2 and again at II=3
    schedules = {2: [Schedule(dfg, 2, {0: 0, 1: 1})],
                 3: [Schedule(dfg, 3, {0: 0, 1: 2})]}
    real_solve = SpaceSolver.solve
    calls = []

    def scripted(self, ii, slack=None, limit=None, timeout_seconds=None):
        return iter(schedules.get(ii, []))

    def first_times_out(self, schedule, *args, **kwargs):
        calls.append(schedule)
        if len(calls) == 1:
            return SpaceResult(None, None, SearchStats(timed_out=True))
        return real_solve(self, schedule, *args, **kwargs)

    monkeypatch.setattr(IncrementalTimeSolver, "iter_schedules", scripted)
    monkeypatch.setattr(SpaceSolver, "solve", first_times_out)
    result = MonomorphismMapper(CGRA(2, 2), MapperConfig(max_ii=3)).map(dfg)

    assert result.success and result.ii == 3
    assert calls == [schedules[2][0], schedules[3][0]]
    assert result.stats["space"]["reused"] == 0
