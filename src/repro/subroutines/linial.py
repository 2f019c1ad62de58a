"""Linial's color reduction: an O(Delta^2)-coloring in O(log* n) rounds.

This is the deterministic symmetry-breaking workhorse [Lin92]: starting
from the unique identifiers (an ``m``-coloring for ``m`` = ID-space
size), each round reduces the number of colors using polynomial set
systems until O(Delta^2) colors remain.  Every color-class *sweep*
subroutine in this package (list coloring, MIS, maximal matching) runs
Linial first and then processes classes in order.

Reduction step.  With current palette ``[m]`` and a prime ``q > k *
Delta`` such that ``q^(k+1) >= m``, interpret a color as a polynomial of
degree <= k over ``F_q`` (its base-q digits).  Two distinct polynomials
agree on at most ``k`` points, so among ``q > k * Delta`` evaluation
points each node ``v`` finds an ``x`` with ``p_v(x) != p_u(x)`` for all
neighbors ``u``; the new color ``(x, p_v(x))`` lives in ``[q^2]``.  All
nodes recolor simultaneously and properness is preserved.  Iterating
reaches a fixpoint of at most ``(2 * Delta + 2)^2`` colors after
O(log* m) rounds.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SubroutineError
from repro.local.algorithm import Api, DistributedAlgorithm
from repro.local.network import Network
from repro.local.node import Node
from repro.local.result import RunResult

__all__ = ["LinialColoring", "linial_coloring", "linial_palette_bound", "next_prime"]


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def next_prime(x: int) -> int:
    """Smallest prime strictly greater than ``x``."""
    candidate = x + 1
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def _digits(value: int, base: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        out.append(value % base)
        value //= base
    return out


def _reduction_schedule(m: int, delta: int) -> list[tuple[int, int]]:
    """Sequence of ``(q, k)`` reduction steps from palette ``m``.

    Each step maps ``[m]`` into ``[q**2]`` with ``q`` prime, ``q > k *
    delta`` and ``q**(k+1) >= m``; the main loop stops when no step
    shrinks the palette bound (``q**2 >= m``), which happens at
    ``m = O(delta**2)``.

    A final *compaction* step is appended whenever the residual palette
    exceeds a few multiples of ``q = next_prime(2 * delta)``: the step
    is proper-preserving for any such ``q`` (``q > 2 * delta``
    evaluation points versus at most ``2 * delta`` forbidden values),
    and although its worst case is still ``q**2`` colors, the
    greedy-first evaluation point concentrates the *realized* colors
    near ``O(delta)`` — which is what the color-class sweeps downstream
    actually pay for.
    """
    degree = max(delta, 1)
    schedule: list[tuple[int, int]] = []
    guard = 0
    while True:
        guard += 1
        if guard > 64:  # log* of anything practical is < 10
            raise SubroutineError("Linial reduction schedule failed to converge")
        best: tuple[int, int] | None = None
        k = 1
        while True:
            q = next_prime(k * degree)
            if q ** (k + 1) >= m:
                if q * q < m:
                    best = (q, k)
                break
            k += 1
        if best is None:
            break
        schedule.append(best)
        m = best[0] ** 2
    # Compaction applies only when no reduction step ran at all (the
    # classes would otherwise be raw identifiers): a genuine reduction
    # step already concentrates its output near O(delta), and re-mapping
    # an already-compact coloring spreads it out again.
    q2 = next_prime(2 * degree)
    if not schedule and m > 6 * q2 and q2 ** 3 >= m:
        schedule.append((q2, 2))
    return schedule


def linial_palette_bound(delta: int) -> int:
    """Upper bound on the final palette size.

    The reduction stops at palette ``m`` once no ``(q, k)`` step makes
    progress.  A ``k = 2`` step with ``q = next_prime(2 * delta)`` makes
    progress whenever ``q**2 < m`` (since ``q**3 >= m`` holds long before
    that), so the fixpoint is at most ``next_prime(2 * delta)**2``.
    """
    return next_prime(2 * max(delta, 1)) ** 2


class LinialColoring(DistributedAlgorithm):
    """Message-passing implementation of iterated Linial reduction.

    Parameters
    ----------
    id_space:
        A known upper bound on ``uid + 1`` over all nodes (in the LOCAL
        model, ``n`` — or the ID space — is global knowledge).
    delta:
        Maximum degree of the network the schedule is planned for.
    """

    name = "linial"

    def __init__(self, id_space: int, delta: int):
        if id_space < 1:
            raise SubroutineError("id_space must be positive")
        self.schedule = _reduction_schedule(id_space, delta)

    def on_start(self, node: Node, api: Api) -> None:
        node.state["color"] = node.uid
        node.state["step"] = 0
        if not self.schedule:
            api.halt(node.state["color"])
            return
        api.broadcast(node.uid)
        if not node.neighbors:
            self._finish_isolated(node, api)

    def _finish_isolated(self, node: Node, api: Api) -> None:
        # No neighbors: every reduction step may pick x = 0 immediately.
        color = node.state["color"]
        for q, k in self.schedule:
            color = _digits(color, q, k + 1)[0]  # evaluate at x = 0
        node.state["color"] = color
        api.halt(color)

    def on_round(self, node: Node, api: Api, inbox: Sequence[tuple[int, int]]) -> None:
        step = node.state["step"]
        q, k = self.schedule[step]
        point = _evaluation_point(node.state["color"], [c for _, c in inbox], q, k)
        if point is None:
            raise SubroutineError(
                f"Linial step found no evaluation point (q={q}, k={k}); "
                "the input coloring was not proper"
            )
        chosen_x, value = point
        node.state["color"] = chosen_x * q + value
        node.state["step"] = step + 1
        if node.state["step"] == len(self.schedule):
            api.halt(node.state["color"])
        else:
            api.broadcast(node.state["color"])


def _evaluation_point(
    color: int, neighbor_colors: list[int], q: int, k: int
) -> tuple[int, int] | None:
    """First ``x`` in ``range(q)`` where ``color``'s polynomial differs
    from every neighbor's, with its value there; None if there is none.

    Colors are read as polynomials of degree <= ``k`` over ``F_q``
    whose coefficients are their ``k + 1`` low base-``q`` digits.
    """
    if k > 2:
        own = _digits(color, q, k + 1)
        polys = [_digits(c, q, k + 1) for c in neighbor_colors]
        for x in range(q):
            own_val = _eval_poly(own, x, q)
            if all(_eval_poly(p, x, q) != own_val for p in polys):
                return x, own_val
        return None
    # k <= 2: p(x) = a + x * (b + x * c), evaluated inline.  p(0) is the
    # low digit and nearly every search ends at x = 0, so the other
    # digits are decoded only when x = 0 is taken.
    a = color % q
    if a not in [u % q for u in neighbor_colors]:
        return 0, a
    square = q * q if k == 2 else 0
    b, c = color // q % q, color // square % q if square else 0
    polys = [
        (u % q, u // q % q, u // square % q if square else 0)
        for u in neighbor_colors
    ]
    for x in range(1, q):
        own_val = (a + x * (b + x * c)) % q
        for a_u, b_u, c_u in polys:
            if (a_u + x * (b_u + x * c_u)) % q == own_val:
                break
        else:
            return x, own_val
    return None


def _eval_poly(coeffs: list[int], x: int, q: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % q
    return value


def linial_coloring(
    network: Network, *, id_space: int | None = None, delta: int | None = None
) -> tuple[list[int], RunResult]:
    """Compute an O(Delta^2)-coloring of the network.

    Returns the colors (proper, in ``range(linial_palette_bound(delta))``)
    and the simulator result carrying the round/message cost.
    """
    if id_space is None:
        id_space = max(network.uids) + 1
    if delta is None:
        delta = network.max_degree
    algorithm = LinialColoring(id_space, delta)
    result = network.run(algorithm)
    colors = [node.state["color"] for node in network.nodes]
    return colors, result
