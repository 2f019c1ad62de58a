"""Structural validation helpers for generated instances."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.errors import GraphStructureError
from repro.graphs.csr import common_neighbor_counts, csr, upper_edges
from repro.graphs.instance import DenseInstance
from repro.local.network import Network

__all__ = [
    "assert_no_delta_plus_one_clique",
    "assert_regular",
    "check_instance",
    "count_inter_clique_multiplicity",
]


def assert_regular(network: Network, degree: int) -> None:
    """Raise unless every vertex has exactly the given degree."""
    for v in range(network.n):
        if network.degree(v) != degree:
            raise GraphStructureError(
                f"vertex {v} has degree {network.degree(v)}, expected {degree}"
            )


def assert_no_delta_plus_one_clique(network: Network) -> None:
    """Raise if the graph contains a (Delta+1)-clique.

    Brooks' theorem makes the (Delta+1)-clique the only dense obstruction
    to Delta-colorability (besides odd cycles, which have Delta = 2).  A
    (Delta+1)-clique forces each member's entire neighborhood inside the
    clique, so a vertex ``v`` of degree Delta lies in one iff every
    neighbor ``u`` has degree Delta and shares Delta - 1 neighbors with
    it, that is, iff ``N[u] = N[v]`` for the closed neighborhoods.  Equal
    closed-neighborhood sums are therefore necessary, and only the edges
    that pass this filter need the exact common-neighbor counts of
    :mod:`repro.graphs.csr`.  The error names the smallest such vertex.
    """
    delta = network.max_degree
    if delta <= 1:
        return
    n = network.n
    indptr, indices = csr(network)
    src, dst = upper_edges(indptr, indices)
    full = np.diff(indptr) == delta
    prefix = np.concatenate(([0], np.cumsum(indices)))
    closed_sums = prefix[indptr[1:]] - prefix[indptr[:-1]] + np.arange(n)
    tight = full[src] & full[dst] & (closed_sums[src] == closed_sums[dst])
    tight[tight] = (
        common_neighbor_counts(indptr, indices, src[tight], dst[tight]) == delta - 1
    )
    blocked = np.bincount(src[~tight], minlength=n) + np.bincount(
        dst[~tight], minlength=n
    )
    found = np.flatnonzero(full & (blocked == 0))
    if found.size:
        raise GraphStructureError(
            f"(Delta+1)-clique found around vertex {int(found[0])}; "
            "Delta-coloring is impossible (Brooks' theorem)"
        )


def count_inter_clique_multiplicity(instance: DenseInstance) -> int:
    """Maximum number of edges between any pair of planted cliques.

    Hard instances require multiplicity 1: two edges between the same
    clique pair close a non-clique 4-cycle (a loophole).
    """
    owner = instance.clique_of()
    counts: dict[tuple[int, int], int] = {}
    for u, v in instance.network.edges():
        cu, cv = owner[u], owner[v]
        if cu != cv:
            key = (min(cu, cv), max(cu, cv))
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values(), default=0)


def check_instance(
    instance: DenseInstance,
    *,
    expect_regular: bool = True,
    expect_cover: bool = True,
) -> None:
    """Validate the planted structure of a generated instance.

    Checks that the planted cliques partition the vertex set (unless
    ``expect_cover`` is False — sparse-mix instances deliberately leave
    blob vertices outside every clique) and are actual cliques, that the
    graph has no (Delta+1)-clique, and (for hard instances) that every
    vertex has degree exactly Delta.
    """
    network = instance.network
    seen: set[int] = set()
    for index, members in enumerate(instance.cliques):
        for v in members:
            if v in seen:
                raise GraphStructureError(f"vertex {v} in two planted cliques")
            seen.add(v)
        for a, b in combinations(members, 2):
            if b not in network.neighbor_set(a):
                if (min(a, b), max(a, b)) in _removed_edges(instance):
                    continue
                raise GraphStructureError(
                    f"planted clique {index} is missing edge ({a}, {b})"
                )
    if expect_cover and len(seen) != network.n:
        raise GraphStructureError("planted cliques do not cover the vertex set")
    if expect_regular:
        assert_regular(network, instance.delta)
    assert_no_delta_plus_one_clique(network)


def _removed_edges(instance: DenseInstance) -> set[tuple[int, int]]:
    """Edges intentionally removed by the mixed generator (easy cliques)."""
    easy = instance.meta.get("easy_cliques", [])
    removed = set()
    for index in easy:
        members = instance.cliques[index]
        removed.add((min(members[0], members[1]), max(members[0], members[1])))
    return removed
