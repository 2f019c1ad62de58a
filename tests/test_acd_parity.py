"""Parity of the numpy ACD and clique-check kernels with the pure-Python
references in :mod:`tests.legacy_acd`.

Both kernels must reproduce the reference exactly: the same cliques in
the same order, the same sparse set, clique index and meta, and the same
error type and message (which names the smallest offending vertex).
"""

from __future__ import annotations

import json
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acd import compute_acd, distributed_acd
from repro.errors import GraphStructureError, InvariantViolation, ReproError
from repro.graphs import (
    assert_no_delta_plus_one_clique,
    hard_clique_graph,
    heterogeneous_hard_cliques,
    mixed_dense_graph,
    sparse_dense_mix,
)
from repro.graphs.adversarial import brooks_obstruction
from repro.graphs import csr as csr_module
from repro.graphs.csr import CHUNK_BYTES, common_neighbor_counts, csr, upper_edges
from repro.local import Network
from tests import legacy_acd
from tests.conftest import random_network


def outcome(decompose, network, *args, **kwargs):
    try:
        acd = decompose(network, *args, **kwargs)
    except ReproError as error:
        return type(error), str(error)
    return acd.cliques, acd.sparse, acd.clique_index, acd.meta


def clique_check_outcome(check, network):
    try:
        check(network)
    except ReproError as error:
        return type(error), str(error)
    return None


def assert_acd_parity(network, *args, **kwargs):
    expected = outcome(legacy_acd.compute_acd, network, *args, **kwargs)
    assert outcome(compute_acd, network, *args, **kwargs) == expected
    return expected


def assert_clique_check_parity(network):
    expected = clique_check_outcome(legacy_acd.assert_no_delta_plus_one_clique, network)
    assert clique_check_outcome(assert_no_delta_plus_one_clique, network) == expected
    return expected


def complete_graph(n: int) -> Network:
    return Network.from_edges(n, list(combinations(range(n), 2)))


FAMILIES = {
    "hard-16": lambda: hard_clique_graph(34, 16, seed=11),
    "hard-32": lambda: hard_clique_graph(64, 32, seed=1000),
    "hard-8-defect": lambda: hard_clique_graph(24, 8, seed=100011),
    "hard-8": lambda: hard_clique_graph(16, 8, seed=8),
    "hard-8-k2": lambda: hard_clique_graph(40, 8, external_per_vertex=2, seed=3),
    "mixed-16": lambda: mixed_dense_graph(34, 16, easy_fraction=0.3, seed=2),
    "mixed-32": lambda: mixed_dense_graph(68, 32, easy_fraction=0.5, seed=1001),
    "mixed-8": lambda: mixed_dense_graph(24, 8, easy_fraction=0.5, seed=5),
    "sparse-mix": lambda: sparse_dense_mix(34, 16, seed=1),
    "heterogeneous": lambda: heterogeneous_hard_cliques(1, 8, seed=4),
}


class TestGeneratorFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("epsilon", [1 / 63, 1 / 8, 0.25])
    def test_acd_matches_reference(self, family, epsilon):
        assert_acd_parity(FAMILIES[family]().network, epsilon)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_clique_check_matches_reference(self, family):
        assert assert_clique_check_parity(FAMILIES[family]().network) is None

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.3, 0.55, 1.0])
    @pytest.mark.parametrize("strict", [True, False])
    def test_eta_and_strict_variants(self, eta, strict):
        for family in ("hard-8-defect", "mixed-16", "sparse-mix"):
            network = FAMILIES[family]().network
            assert_acd_parity(network, 0.25, eta=eta, strict=strict)

    def test_outputs_are_plain_ints(self):
        acd = compute_acd(FAMILIES["sparse-mix"]().network, 0.25)
        assert acd.cliques and acd.sparse
        json.dumps([acd.cliques, acd.sparse, acd.clique_index, acd.meta])
        assert all(type(v) is int for v in acd.clique_index + acd.sparse)

    @pytest.mark.parametrize("family", ["hard-16", "mixed-16", "sparse-mix"])
    def test_distributed_acd_agrees(self, family):
        network = FAMILIES[family]().network
        central = compute_acd(network, 0.25)
        local = distributed_acd(network, 0.25)
        assert sorted(map(tuple, local.cliques)) == sorted(map(tuple, central.cliques))
        assert local.sparse == central.sparse


class TestSmallDegrees:
    @pytest.mark.parametrize(
        "network",
        [
            Network.from_edges(1, []),
            Network.from_edges(5, []),
            Network.from_edges(6, [(0, 1), (2, 3)]),
            Network.from_edges(5, [(0, 1), (1, 2), (2, 3)]),
            Network.from_edges(4, [(0, 1), (1, 2), (2, 0)]),
            Network.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]),
            complete_graph(2),
            complete_graph(3),
        ],
        ids=["n1", "isolated", "matching", "path", "triangle+isolated",
             "cycle+isolated", "k2", "k3"],
    )
    @pytest.mark.parametrize("epsilon", [1 / 63, 0.25, 0.7])
    def test_delta_at_most_two(self, network, epsilon):
        assert network.max_degree <= 2
        assert_acd_parity(network, epsilon)
        assert_acd_parity(network, epsilon, eta=0.0, strict=False)
        assert_clique_check_parity(network)


def outsider_graph() -> Network:
    """Two K_20 and two sparse outsiders with 14 neighbors in one each.

    Under epsilon = 0.7 (bound 13) and eta = 0.3 an outsider shares only
    13 < 14 neighbors with each clique member, so it has no friends,
    stays sparse, and breaks property (iii) for its clique.
    """
    edges = [(a, b) for base in (0, 20) for a, b in combinations(range(base, base + 20), 2)]
    edges += [(41, u) for u in range(20, 34)] + [(40, u) for u in range(14)]
    return Network.from_edges(42, edges)


class TestPropertyThree:
    def test_violation_raises_the_reference_message(self):
        kind, message = assert_acd_parity(outsider_graph(), 0.7)
        assert kind is InvariantViolation
        assert "vertex 40 has 14 neighbors in foreign almost-clique 0" in message

    def test_not_strict_skips_the_check(self):
        cliques, sparse, _, _ = assert_acd_parity(outsider_graph(), 0.7, strict=False)
        assert cliques == [list(range(20)), list(range(20, 40))]
        assert sparse == [40, 41]


class TestCliqueCheck:
    @pytest.mark.parametrize("delta", [2, 3, 8])
    def test_brooks_obstruction(self, delta):
        kind, message = assert_clique_check_parity(brooks_obstruction(delta))
        assert kind is GraphStructureError and "around vertex 0" in message

    def test_smallest_vertex_is_named(self):
        # A K_5 on vertices 10..14 beside a K_4-with-pendants whose
        # degree-4 vertices are not in a K_5.
        edges = list(combinations(range(10, 15), 2))
        edges += list(combinations(range(4), 2)) + [(0, 4), (1, 5), (2, 6), (3, 7)]
        network = Network.from_edges(15, edges)
        _, message = assert_clique_check_parity(network)
        assert "around vertex 10" in message

    def test_completed_hard_clique(self):
        # Join one planted clique of a hard instance to an outside vertex
        # with no other edges: the clique plus it is a K_{Delta+1}.
        instance = hard_clique_graph(16, 8, seed=2)
        members = instance.cliques[3]
        edges = [
            (u, v) for u, v in instance.network.edges()
            if u in members and v in members
        ]
        edges += [(m, instance.network.n) for m in members]
        network = Network.from_edges(instance.network.n + 1, edges)
        kind, _ = assert_clique_check_parity(network)
        assert kind is GraphStructureError


@st.composite
def planted_graphs(draw):
    """Random graphs of planted near-cliques: disjoint cliques of similar
    size, a few edges between them, some deleted clique edges, and
    outsiders wired to part of a clique.  Degrees stay close to the
    clique size, so components, peeling, the size window and property
    (iii) all come into play."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = draw(st.integers(min_value=2, max_value=16))
    count = draw(st.integers(min_value=1, max_value=4))
    outsiders = draw(st.integers(min_value=0, max_value=3))
    n = count * (size + 1) + outsiders
    edges: set[tuple[int, int]] = set()
    blocks = []
    start = 0
    for _ in range(count):
        members = list(range(start, start + size + rng.randint(-1, 1)))
        start = members[-1] + 1
        blocks.append(members)
        edges.update(combinations(members, 2))
    for v in range(start, n):
        if rng.random() < 0.7:
            block = rng.choice(blocks)
            edges.update((u, v) for u in rng.sample(block, rng.randint(1, len(block))))
    crossing = draw(st.integers(min_value=0, max_value=n // 3))
    for _ in range(crossing):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    dropped = draw(st.sampled_from([0.0, 0.0, 0.03, 0.1]))
    kept = [pair for pair in sorted(edges) if rng.random() >= dropped]
    rng.shuffle(kept)
    return Network.from_edges(n, kept)


class TestSampledGraphs:
    @settings(max_examples=200, deadline=None)
    @given(
        planted_graphs(),
        st.sampled_from([1 / 63, 0.125, 0.25, 0.5, 0.7]),
        st.sampled_from([0.1, 0.3, 0.5]),
        st.booleans(),
    )
    def test_acd_matches_reference(self, network, epsilon, eta, strict):
        assert_acd_parity(network, epsilon, eta=eta, strict=strict)

    @settings(max_examples=200, deadline=None)
    @given(planted_graphs())
    def test_clique_check_matches_reference(self, network):
        assert_clique_check_parity(network)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([8, 256, csr_module.CHUNK_BYTES]),
    )
    def test_common_counts_match_set_intersections(self, seed, chunk_bytes):
        # Small budgets split the fill and the gathers into many blocks.
        network = random_network(150, 900, seed=seed)
        indptr, indices = csr(network)
        src, dst = upper_edges(indptr, indices)
        expected = [
            len(network.neighbor_set(u) & network.neighbor_set(v))
            for u, v in zip(src.tolist(), dst.tolist())
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csr_module, "CHUNK_BYTES", chunk_bytes)
            counts = common_neighbor_counts(indptr, indices, src, dst)
        assert counts.tolist() == expected


def test_common_neighbor_temporaries_stay_chunked():
    """At n = 8704, Delta = 32 one unchunked gather of bitset rows would
    take m * ceil(n / 64) * 8 bytes (about 150 MB); the kernel's
    temporaries beyond the bitset and its result stay within a few
    times CHUNK_BYTES."""
    network = hard_clique_graph(272, 32, seed=1).network
    indptr, indices = csr(network)
    src, dst = upper_edges(indptr, indices)
    words = (network.n + 63) // 64
    held = network.n * words * 8 + src.size * 8  # the bitset and the result
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        common_neighbor_counts(indptr, indices, src, dst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert src.size * words * 8 > 100 * CHUNK_BYTES
    assert peak - held < 6 * CHUNK_BYTES
