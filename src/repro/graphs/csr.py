"""CSR snapshot of a network and per-edge common-neighbor counts.

The almost-clique decomposition reads ``|N(u) ∩ N(v)|`` for every edge
``{u, v}``, and the (Delta+1)-clique precondition reads it for the edges
its cheaper filter leaves.  This module computes those counts with
numpy: each vertex's neighborhood becomes a row of packed ``uint64``
bitset words, and an edge's count is the popcount of the AND of its two
rows.  The bitset is filled a block of rows at a time and rows are
gathered a chunk of edges at a time, so the temporaries stay within a
small multiple of :data:`CHUNK_BYTES` whatever the graph size; the
bitset itself takes ``n * ceil(n / 64)`` words, as many bits as the
adjacency matrix.

Nothing is cached on the network: every call builds its arrays afresh.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.local.network import Network

__all__ = ["CHUNK_BYTES", "common_neighbor_counts", "csr", "upper_edges"]

#: Byte budget of one block of bitset-fill entries or gathered rows.
CHUNK_BYTES = 1 << 18


def csr(network: Network) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the adjacency.

    The neighbors of ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, in
    adjacency order.
    """
    adjacency = network.adjacency
    indptr = np.zeros(network.n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, adjacency), dtype=np.int64, count=network.n),
        out=indptr[1:],
    )
    indices = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, indices


def upper_edges(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every edge once as ``(src[e], dst[e])`` with ``src[e] < dst[e]``.

    Edges come in CSR order: by ``src``, then in ``src``'s adjacency
    order.
    """
    owners = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    upper = owners < indices
    return owners[upper], indices[upper]


def common_neighbor_counts(
    indptr: np.ndarray, indices: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """``|N(src[e]) ∩ N(dst[e])|`` for every given vertex pair ``e``."""
    common = np.zeros(src.size, dtype=np.int64)
    if not src.size:
        return common
    n = indptr.size - 1
    degrees = np.diff(indptr)
    words = (n + 63) // 64
    bits = np.zeros((n, words), dtype=np.uint64)
    flat = bits.reshape(-1)
    # Set bit u of row v for every neighbor u of v.
    rows_per_block = max(1, CHUNK_BYTES // (8 * max(1, int(degrees.max()))))
    for first in range(0, n, rows_per_block):
        last = min(n, first + rows_per_block)
        rows = np.repeat(np.arange(first, last, dtype=np.int64), degrees[first:last])
        cols = indices[indptr[first]:indptr[last]]
        np.bitwise_or.at(
            flat,
            rows * words + (cols >> 6),
            np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64)),
        )
    step = max(1, CHUNK_BYTES // (8 * words))
    for start in range(0, src.size, step):
        stop = start + step
        block = bits[src[start:stop]]
        block &= bits[dst[start:stop]]
        common[start:stop] = np.bitwise_count(block).sum(axis=1)
    return common
