"""Pure-Python reference kernels, frozen as parity oracles.

:func:`compute_acd` is the almost-clique decomposition as it was before
the numpy kernel in :mod:`repro.acd.decomposition` (Python-int bitsets,
a union-find over friend edges, a per-component peel), and
:func:`assert_no_delta_plus_one_clique` is the per-vertex set test the
CSR version in :mod:`repro.graphs.validation` replaced.  The parity
tests assert the production kernels match them output for output and
error for error.
"""

from __future__ import annotations

from repro.acd.decomposition import ACD, DEFAULT_ETA
from repro.constants import EPSILON
from repro.errors import GraphStructureError, InvariantViolation
from repro.local.network import Network


def compute_acd(
    network: Network,
    epsilon: float = EPSILON,
    *,
    eta: float = DEFAULT_ETA,
    strict: bool = True,
) -> ACD:
    delta = network.max_degree
    n = network.n
    friend_threshold = (1.0 - eta) * delta

    masks = [0] * n
    for v in range(n):
        mask = 0
        for u in network.adjacency[v]:
            mask |= 1 << u
        masks[v] = mask
    is_friend_edge: dict[tuple[int, int], bool] = {}
    friend_counts = [0] * n
    for v in range(n):
        mask_v = masks[v]
        for u in network.adjacency[v]:
            if u < v:
                continue
            friendly = (mask_v & masks[u]).bit_count() >= friend_threshold
            is_friend_edge[(v, u)] = friendly
            if friendly:
                friend_counts[v] += 1
                friend_counts[u] += 1
    density_threshold = (1.0 - eta) * delta
    dense = [friend_counts[v] >= density_threshold for v in range(n)]

    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (v, u), friendly in is_friend_edge.items():
        if friendly and dense[v] and dense[u]:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

    components: dict[int, list[int]] = {}
    for v in range(n):
        if dense[v]:
            components.setdefault(find(v), []).append(v)

    lower = (1.0 - epsilon / 4.0) * delta
    upper = (1.0 + epsilon) * delta
    inside_threshold = (1.0 - epsilon) * delta

    cliques: list[list[int]] = []
    clique_index = [-1] * n
    for members in components.values():
        keep = set(members)
        changed = True
        while changed:
            changed = False
            for v in list(keep):
                inside = sum(1 for u in network.adjacency[v] if u in keep)
                if inside < inside_threshold:
                    keep.discard(v)
                    changed = True
        if not keep or not lower <= len(keep) <= upper:
            continue
        index = len(cliques)
        clique = sorted(keep)
        cliques.append(clique)
        for v in clique:
            clique_index[v] = index

    sparse = [v for v in range(n) if clique_index[v] == -1]

    if strict:
        bound = (1.0 - epsilon / 2.0) * delta
        for v in range(network.n):
            counts: dict[int, int] = {}
            own = clique_index[v]
            for u in network.adjacency[v]:
                index = clique_index[u]
                if index != -1 and index != own:
                    counts[index] = counts.get(index, 0) + 1
            for index, count in counts.items():
                if count > bound:
                    raise InvariantViolation(
                        f"ACD property (iii) violated: vertex {v} has {count} "
                        f"neighbors in foreign almost-clique {index} "
                        f"(bound {bound:.1f}); the input is outside the regime "
                        "the Lemma 2 postprocessing handles"
                    )

    return ACD(
        epsilon=epsilon,
        cliques=cliques,
        sparse=sparse,
        clique_index=clique_index,
        meta={"eta": eta, "delta": delta},
    )


def assert_no_delta_plus_one_clique(network: Network) -> None:
    delta = network.max_degree
    if delta <= 1:
        return
    adjacency = network.adjacency
    for v in range(network.n):
        neighbors = adjacency[v]
        if len(neighbors) != delta:
            continue
        closed = network.neighbor_set(v) | {v}
        if all(
            len(network.neighbor_set(u) & closed) == delta for u in neighbors
        ):
            raise GraphStructureError(
                f"(Delta+1)-clique found around vertex {v}; "
                "Delta-coloring is impossible (Brooks' theorem)"
            )
