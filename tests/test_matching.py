"""Unit and property tests for the monomorphism search engine."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.cgra import CGRA
from repro.arch.mrrg import MRRG
from repro.core.space_solver import MRRGTarget
from repro.matching.monomorphism import (
    ExplicitTargetGraph,
    MonomorphismSearch,
    PatternGraph,
    find_monomorphism,
)
from repro.matching.nx_backend import networkx_monomorphism
from repro.matching.ordering import degree_order, most_constrained_first_order


def _pattern(labels, edges):
    return PatternGraph.from_edges(labels, edges)


class TestPatternGraph:
    def test_from_edges(self):
        pattern = _pattern({0: "a", 1: "a", 2: "b"}, [(0, 1), (1, 2)])
        assert pattern.num_vertices == 3
        assert pattern.num_edges == 2
        assert pattern.degree(1) == 2

    def test_self_loops_ignored(self):
        pattern = _pattern({0: "a"}, [(0, 0)])
        assert pattern.num_edges == 0

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            _pattern({0: "a"}, [(0, 1)])


class TestOrdering:
    def test_degree_order(self):
        adjacency = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
        assert degree_order([0, 1, 2, 3], adjacency)[0] == 0

    def test_most_constrained_first_starts_at_max_degree(self):
        adjacency = {0: {1}, 1: {0, 2, 3}, 2: {1}, 3: {1}}
        order = most_constrained_first_order([0, 1, 2, 3], adjacency)
        assert order[0] == 1
        assert set(order) == {0, 1, 2, 3}

    def test_handles_disconnected_components(self):
        adjacency = {0: {1}, 1: {0}, 2: set(), 3: {4}, 4: {3}}
        order = most_constrained_first_order([0, 1, 2, 3, 4], adjacency)
        assert sorted(order) == [0, 1, 2, 3, 4]


def _greatest_constrained_first(vertices, adjacency):
    """The ordering rule restated directly: every key recomputed per step."""
    remaining, order, ordered = set(vertices), [], set()
    while remaining:
        touching = [v for v in remaining if adjacency[v] & ordered]
        if not touching:
            best = max(remaining, key=lambda v: (len(adjacency[v]), -v))
        else:
            best = max(touching, key=lambda v: (
                len(adjacency[v] & ordered),
                sum(1 for u in adjacency[v] - ordered if adjacency[u] & ordered),
                len(adjacency[v]),
                -v,
            ))
        order.append(best)
        ordered.add(best)
        remaining.discard(best)
    return order


@pytest.mark.parametrize("seed", range(40))
def test_most_constrained_first_matches_its_rule(seed):
    rng = random.Random(seed)
    vertices = rng.sample(range(60), rng.randint(1, 25))
    adjacency = {v: set() for v in vertices}
    for _ in range(rng.randint(0, 3 * len(vertices))):
        a, b = rng.choice(vertices), rng.choice(vertices)
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    assert most_constrained_first_order(vertices, adjacency) == \
        _greatest_constrained_first(vertices, adjacency)


class TestExplicitSearch:
    def test_finds_triangle_in_labelled_square_with_diagonal(self):
        target = ExplicitTargetGraph(
            {0: "x", 1: "x", 2: "x", 3: "x"},
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
        pattern = _pattern({10: "x", 11: "x", 12: "x"},
                           [(10, 11), (11, 12), (12, 10)])
        outcome = find_monomorphism(pattern, target)
        assert outcome.found
        search = MonomorphismSearch(pattern, target)
        assert search.verify(outcome.mapping) == []

    def test_respects_labels(self):
        target = ExplicitTargetGraph({0: "a", 1: "b"}, [(0, 1)])
        pattern = _pattern({5: "a", 6: "a"}, [(5, 6)])
        assert not find_monomorphism(pattern, target).found

    def test_injectivity_required(self):
        # two pattern vertices with the same label but only one target vertex
        target = ExplicitTargetGraph({0: "a", 1: "b"}, [(0, 1)])
        pattern = _pattern({5: "a", 6: "a"}, [])
        assert not find_monomorphism(pattern, target).found

    def test_monomorphism_is_not_induced(self):
        # the pattern misses an edge present between the chosen target
        # vertices -- a monomorphism (unlike an induced isomorphism) allows it
        target = ExplicitTargetGraph({0: "x", 1: "x", 2: "x"},
                                     [(0, 1), (1, 2), (0, 2)])
        pattern = _pattern({7: "x", 8: "x", 9: "x"}, [(7, 8), (8, 9)])
        assert find_monomorphism(pattern, target).found

    def test_impossible_edge(self):
        target = ExplicitTargetGraph({0: "a", 1: "b", 2: "c"}, [(0, 1)])
        pattern = _pattern({5: "a", 6: "c"}, [(5, 6)])
        assert not find_monomorphism(pattern, target).found

    def test_custom_order_must_be_permutation(self):
        target = ExplicitTargetGraph({0: "a"}, [])
        pattern = _pattern({5: "a"}, [])
        with pytest.raises(ValueError):
            MonomorphismSearch(pattern, target, order=[5, 5])

    def test_verify_reports_violations(self):
        target = ExplicitTargetGraph({0: "a", 1: "a", 2: "b"}, [(0, 2)])
        pattern = _pattern({5: "a", 6: "a"}, [(5, 6)])
        search = MonomorphismSearch(pattern, target)
        violations = search.verify({5: 0, 6: 0})
        assert any("mono1" in v for v in violations)
        violations = search.verify({5: 0, 6: 2})
        assert any("mono2" in v for v in violations)
        violations = search.verify({5: 0, 6: 1})
        assert any("mono3" in v for v in violations)


class TestAgainstNetworkx:
    @settings(max_examples=40, deadline=None)
    @given(
        target_nodes=st.integers(min_value=4, max_value=9),
        pattern_nodes=st.integers(min_value=2, max_value=4),
        edge_prob=st.floats(min_value=0.2, max_value=0.7),
        num_labels=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_agreement_with_networkx(self, target_nodes, pattern_nodes,
                                     edge_prob, num_labels, seed):
        rng = random.Random(seed)
        target_nx = nx.gnp_random_graph(target_nodes, edge_prob, seed=seed)
        labels = {n: rng.randrange(num_labels) for n in target_nx.nodes}
        nx.set_node_attributes(target_nx, labels, "label")

        pattern_nx = nx.gnp_random_graph(pattern_nodes, edge_prob, seed=seed + 1)
        pattern_labels = {n: rng.randrange(num_labels) for n in pattern_nx.nodes}
        pattern = PatternGraph.from_edges(pattern_labels, list(pattern_nx.edges))

        target = ExplicitTargetGraph(labels, list(target_nx.edges))
        ours = find_monomorphism(pattern, target)
        reference = networkx_monomorphism(pattern, target_nx)
        assert ours.found == (reference is not None)
        if ours.found:
            search = MonomorphismSearch(pattern, target)
            assert search.verify(ours.mapping) == []


class TestMRRGTarget:
    def test_pattern_fits_into_mrrg(self):
        cgra = CGRA(2, 2)
        mrrg = MRRG(cgra, ii=2)
        target = MRRGTarget(mrrg, pin_first_placement=False)
        # 4 operations per slot (full capacity), chain-connected
        labels = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1}
        edges = [(i, i + 1) for i in range(7)]
        outcome = find_monomorphism(PatternGraph.from_edges(labels, edges), target)
        assert outcome.found
        # all MRRG vertices distinct and labels respected
        assert len(set(outcome.mapping.values())) == 8
        for node, vertex in outcome.mapping.items():
            assert mrrg.label(vertex) == labels[node]

    def test_seed_candidates_pin_on_torus(self):
        mrrg = MRRG(CGRA(3, 3), ii=2)
        target = MRRGTarget(mrrg, pin_first_placement=True)
        assert list(target.seed_candidates(1)) == [mrrg.vertex(0, 1)]
        unpinned = MRRGTarget(mrrg, pin_first_placement=False)
        assert len(list(unpinned.seed_candidates(1))) == 9

    def test_neighbors_with_label_matches_adjacency(self):
        mrrg = MRRG(CGRA(2, 2), ii=3)
        target = MRRGTarget(mrrg)
        vertex = mrrg.vertex(0, 0)
        for label in range(3):
            neighbors = set(target.neighbors_with_label(vertex, label))
            expected = {u for u in mrrg.neighbors(vertex)
                        if mrrg.label(u) == label}
            assert neighbors == expected

    def test_timeout_reported(self):
        # An impossible, moderately large instance with a tiny timeout either
        # finishes (reporting failure) or reports a timeout -- never hangs.
        cgra = CGRA(2, 2)
        mrrg = MRRG(cgra, ii=1)
        target = MRRGTarget(mrrg, pin_first_placement=False)
        labels = {i: 0 for i in range(4)}
        edges = [(0, 1), (0, 2), (0, 3)]  # needs degree 3 at one vertex
        outcome = find_monomorphism(PatternGraph.from_edges(labels, edges),
                                    target, timeout_seconds=0.05)
        assert not outcome.found
