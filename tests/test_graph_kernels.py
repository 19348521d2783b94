"""Differential checks of the stdlib graph kernels against networkx.

``rec_ii`` (Bellman-Ford over a flat arc list) is checked against the
simple-cycle enumeration, and ``DFG.topological_order`` (Kahn's algorithm,
behind ASAP/ALAP/MobS and the critical path) against
``nx.topological_sort``: both must be valid orders, not the same one, and
the schedules built from either must agree.
"""

import networkx as nx
import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.frontend import EXAMPLE_KERNELS, extract_dfg
from repro.graphs.analysis import (
    _alap,
    _asap,
    alap_schedule,
    asap_schedule,
    rec_ii,
    rec_ii_by_cycle_enumeration,
)
from repro.graphs.dfg import DFG, DependenceKind
from repro.graphs.generators import executable_random_dfg
from repro.opt.pipeline import optimize_dfg
from repro.workloads.suite import benchmark_names, load_benchmark


def _kernel(name: str, opt_level: int) -> DFG:
    dfg = extract_dfg(EXAMPLE_KERNELS[name], name=name).dfg
    if not opt_level:
        return dfg
    return optimize_dfg(dfg, opt_level=opt_level, target=CGRA(4, 4),
                        verify=False).optimized


def _parallel_arcs_dfg() -> DFG:
    # 0 -> 1 both within the iteration and two iterations later: only the
    # distance-0 arc constrains the recurrence through 1 -> 0 (RecII 2)
    dfg = DFG("parallel")
    dfg.add_node(0, Opcode.ADD)
    dfg.add_node(1, Opcode.ADD)
    dfg.add_edge(0, 1, DependenceKind.LOOP_CARRIED, distance=2)
    dfg.add_data_edge(0, 1)
    dfg.add_edge(1, 0, DependenceKind.LOOP_CARRIED, distance=1)
    return dfg


def _cases():
    yield pytest.param(_parallel_arcs_dfg, id="parallel-arcs")
    for name in benchmark_names():
        yield pytest.param(lambda name=name: load_benchmark(name),
                           id=f"table3-{name}")
    for name in sorted(EXAMPLE_KERNELS):
        for level in (0, 2):
            yield pytest.param(lambda name=name, level=level:
                               _kernel(name, level), id=f"{name}-O{level}")
    for seed in range(12):
        yield pytest.param(
            lambda seed=seed: executable_random_dfg(8 + seed, seed=seed),
            id=f"random-{seed}")


@pytest.mark.parametrize("build", _cases())
def test_rec_ii_matches_cycle_enumeration(build):
    dfg = build()
    assert rec_ii(dfg) == rec_ii_by_cycle_enumeration(dfg)


@pytest.mark.parametrize("build", _cases())
def test_topological_order_is_valid_and_agrees_with_networkx(build):
    dfg = build()
    order = dfg.topological_order()
    assert sorted(order) == dfg.node_ids()
    position = {node_id: i for i, node_id in enumerate(order)}
    for edge in dfg.data_edges():
        assert position[edge.src] < position[edge.dst]
    reference = list(nx.topological_sort(dfg.data_dag()))
    asap = asap_schedule(dfg)
    assert _asap(dfg, reference) == asap
    horizon = max(asap[n] + dfg.node(n).latency for n in dfg.node_ids())
    assert _alap(dfg, reference, horizon) == alap_schedule(dfg)


def test_parallel_arcs_keep_the_most_constraining_one():
    assert rec_ii(_parallel_arcs_dfg()) == 2


def test_random_cases_carry_recurrences():
    assert all(executable_random_dfg(8 + seed, seed=seed).loop_carried_edges()
               for seed in range(12))


def _cyclic_dfg() -> DFG:
    # a data cycle 0 -> 1 -> 0 next to a genuine recurrence 2 -> 2
    dfg = DFG("cyclic")
    for node_id in range(3):
        dfg.add_node(node_id, Opcode.ADD)
    dfg.add_data_edge(0, 1)
    dfg.add_data_edge(1, 0)
    dfg.add_edge(2, 2, DependenceKind.LOOP_CARRIED, distance=1)
    return dfg


def test_zero_distance_cycle_still_raises():
    dfg = _cyclic_dfg()
    with pytest.raises(ValueError, match="zero total distance"):
        rec_ii(dfg)
    with pytest.raises(ValueError, match="zero total distance"):
        rec_ii_by_cycle_enumeration(dfg)


def test_data_cycle_is_rejected_by_topological_order_and_validate():
    dfg = _cyclic_dfg()
    with pytest.raises(ValueError, match="has a cycle"):
        dfg.topological_order()
    with pytest.raises(ValueError, match="has a cycle"):
        dfg.validate()
