"""Almost-clique decomposition (ACD) — Lemma 2 of the paper.

The decomposition partitions the vertex set into sparse vertices and
almost-cliques ``C_1 .. C_t`` with, for epsilon = 1/63:

(i)   ``(1 - eps/4) * Delta <= |C_i| <= (1 + eps) * Delta``,
(ii)  every ``v in C_i`` has ``|N(v) ∩ C_i| >= (1 - eps) * Delta``,
(iii) every ``u not in C_i`` has ``|N(u) ∩ C_i| <= (1 - eps/2) * Delta``.

Construction follows the [HSS18]/[ACK19] recipe with the deterministic
postprocessing of [FHM23, HM24]: connected components of the friend graph
restricted to eta-dense vertices form candidate almost-cliques, then
components violating the size bound are dissolved and vertices violating
(ii) are peeled off into the sparse set until a fixpoint.

In the LOCAL model all of this is O(1) rounds — friendship and density
are 2-hop information and components of the friend graph have diameter 2
— so :func:`compute_acd` charges a small constant (:data:`ACD_ROUNDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import EPSILON
from repro.errors import InvariantViolation, NotDenseError
from repro.graphs.csr import common_neighbor_counts, csr, upper_edges
from repro.local.network import Network

#: LOCAL round cost of the O(1)-round ACD computation: 2 rounds to learn
#: the 2-hop ball (friendship + density), 2 rounds to agree on components
#: (diameter-2 friend components), and 2 postprocessing rounds.
ACD_ROUNDS = 6

#: Default friendship parameter.  The basic decomposition of [HSS18]
#: classifies with a moderate constant eta and postprocessing restores
#: the epsilon guarantees; eta must satisfy eta * Delta >= 2 for
#: clique-mates in a blown-up Delta-clique to count as friends.
DEFAULT_ETA = 0.3

__all__ = ["ACD", "ACD_ROUNDS", "DEFAULT_ETA", "compute_acd"]


@dataclass
class ACD:
    """Result of the almost-clique decomposition.

    ``clique_index[v]`` is the almost-clique of ``v`` or ``-1`` for
    sparse vertices.
    """

    epsilon: float
    cliques: list[list[int]]
    sparse: list[int]
    clique_index: list[int]
    rounds: int = ACD_ROUNDS
    meta: dict = field(default_factory=dict)

    @property
    def num_cliques(self) -> int:
        return len(self.cliques)

    @property
    def is_dense(self) -> bool:
        """Definition 4: the graph is dense iff no vertex is sparse."""
        return not self.sparse

    def require_dense(self) -> None:
        if not self.is_dense:
            raise NotDenseError(
                f"graph is not dense: {len(self.sparse)} sparse vertices "
                f"(Definition 4 requires none for the Theorem 1/2 algorithms)"
            )

    def external_neighbors(self, network: Network, v: int) -> list[int]:
        """Neighbors of ``v`` outside its almost-clique."""
        own = self.clique_index[v]
        return [u for u in network.adjacency[v] if self.clique_index[u] != own]


def compute_acd(
    network: Network,
    epsilon: float = EPSILON,
    *,
    eta: float = DEFAULT_ETA,
    strict: bool = True,
) -> ACD:
    """Compute an almost-clique decomposition per Lemma 2.

    Parameters
    ----------
    network: the input graph.
    epsilon: the ACD accuracy parameter (paper: 1/63).
    eta: friendship parameter of the basic decomposition.
    strict:
        When True, property (iii) is verified and a violation raises
        :class:`InvariantViolation`; the paper's postprocessing
        guarantees (iii) holds, so a violation indicates an input far
        outside the dense regime.
    """
    delta = network.max_degree
    n = network.n
    friend_threshold = (1.0 - eta) * delta

    # Shared-neighbor counts per edge, computed once over a CSR snapshot
    # (repro.graphs.csr) — the friendship relation and the density
    # classification both read them.
    indptr, indices = csr(network)
    src, dst = upper_edges(indptr, indices)
    friendly = common_neighbor_counts(indptr, indices, src, dst) >= friend_threshold
    friend_counts = np.bincount(src[friendly], minlength=n) + np.bincount(
        dst[friendly], minlength=n
    )
    density_threshold = (1.0 - eta) * delta
    dense = friend_counts >= density_threshold

    joined = friendly & dense[src] & dense[dst]
    labels = _component_labels(n, src[joined], dst[joined])

    lower = (1.0 - epsilon / 4.0) * delta
    upper = (1.0 + epsilon) * delta
    inside_threshold = (1.0 - epsilon) * delta

    # Peel vertices violating property (ii) until a fixpoint; peeled
    # vertices become sparse.  What survives in a component is its
    # unique k-core, so all components peel at once, in any order.
    keep = dense.copy()
    inner = dense[src] & dense[dst] & (labels[src] == labels[dst])
    a, b = src[inner], dst[inner]
    while True:
        inside = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        peeled = keep & (inside < inside_threshold)
        if not peeled.any():
            break
        keep &= ~peeled
        kept = keep[a] & keep[b]
        a, b = a[kept], b[kept]

    # Cliques in order of their component's smallest vertex.
    members = np.flatnonzero(keep)
    members = members[np.argsort(labels[members], kind="stable")]
    _, starts, sizes = np.unique(
        labels[members], return_index=True, return_counts=True
    )
    cliques: list[list[int]] = []
    clique_index = np.full(n, -1, dtype=np.int64)
    for start, size in zip(starts.tolist(), sizes.tolist()):
        if lower <= size <= upper:
            clique = members[start:start + size]
            clique_index[clique] = len(cliques)
            cliques.append(clique.tolist())

    if strict:
        _check_outsider_bound(network, indptr, indices, clique_index, epsilon, delta)

    return ACD(
        epsilon=epsilon,
        cliques=cliques,
        sparse=np.flatnonzero(clique_index == -1).tolist(),
        clique_index=clique_index.tolist(),
        meta={"eta": eta, "delta": delta},
    )


def _component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of the graph on ``range(n)`` with edges ``(a[i], b[i])``.

    Returns each vertex's component label, the component's smallest
    vertex.  Label propagation by hooking and pointer jumping: labels
    form stars, every root hooks to the smallest root an edge joins it
    to, and jumping flattens the trees back into stars.
    """
    labels = np.arange(n, dtype=np.int64)
    while a.size:
        root_a, root_b = labels[a], labels[b]
        low = np.minimum(root_a, root_b)
        np.minimum.at(labels, root_a, low)
        np.minimum.at(labels, root_b, low)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        split = labels[a] != labels[b]
        a, b = a[split], b[split]
    return labels


def _check_outsider_bound(
    network: Network,
    indptr: np.ndarray,
    indices: np.ndarray,
    clique_index: np.ndarray,
    epsilon: float,
    delta: int,
) -> None:
    """Verify ACD property (iii)."""
    bound = (1.0 - epsilon / 2.0) * delta
    n = network.n
    owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    foreign = clique_index[indices]
    outside = (foreign != -1) & (foreign != clique_index[owners])
    pairs, counts = np.unique(
        owners[outside] * n + foreign[outside], return_counts=True
    )
    over = pairs[counts > bound]
    if not over.size:
        return
    # The smallest offending vertex, and its first offending clique in
    # adjacency order.
    v = int(over[0]) // n
    own = clique_index[v]
    per_clique: dict[int, int] = {}
    for u in network.adjacency[v]:
        index = int(clique_index[u])
        if index != -1 and index != own:
            per_clique[index] = per_clique.get(index, 0) + 1
    index, count = next(
        (index, count) for index, count in per_clique.items() if count > bound
    )
    raise InvariantViolation(
        f"ACD property (iii) violated: vertex {v} has {count} "
        f"neighbors in foreign almost-clique {index} "
        f"(bound {bound:.1f}); the input is outside the regime "
        "the Lemma 2 postprocessing handles"
    )
