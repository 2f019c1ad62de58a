"""Tests for Linial's color reduction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.local import Network
from repro.subroutines import linial_coloring, linial_palette_bound, next_prime
from repro.subroutines.linial import LinialColoring
from tests.conftest import random_network


class TestPrimes:
    @pytest.mark.parametrize(
        "x, expected", [(1, 2), (2, 3), (3, 5), (10, 11), (13, 17), (100, 101)]
    )
    def test_next_prime(self, x, expected):
        assert next_prime(x) == expected


class TestLinial:
    def test_proper_on_random_graph(self):
        net = random_network(200, 600, seed=1)
        colors, result = linial_coloring(net)
        for u, v in net.edges():
            assert colors[u] != colors[v]

    def test_palette_bound_respected(self):
        net = random_network(150, 450, seed=2)
        colors, _ = linial_coloring(net)
        assert max(colors) < linial_palette_bound(net.max_degree)

    def test_large_id_space_reduced(self):
        # uids spread over a huge space force genuine reduction rounds.
        net = Network.from_edges(
            8,
            [(i, (i + 1) % 8) for i in range(8)],
            uids=[i * 10 ** 6 + 17 for i in range(8)],
        )
        colors, result = linial_coloring(net, id_space=10 ** 7)
        assert max(colors) < linial_palette_bound(2)
        assert result.rounds >= 2  # several reduction steps happened
        for u, v in net.edges():
            assert colors[u] != colors[v]

    def test_rounds_grow_very_slowly(self):
        """log* behavior: huge ID spaces only add a couple of rounds."""
        cycle = [(i, (i + 1) % 20) for i in range(20)]
        rounds = []
        for exponent in (3, 6, 12):
            uids = [i * 10 ** exponent + 7 for i in range(20)]
            net = Network.from_edges(20, cycle, uids=uids)
            _, result = linial_coloring(net, id_space=10 ** (exponent + 2))
            rounds.append(result.rounds)
        assert rounds[-1] - rounds[0] <= 3

    def test_isolated_vertices(self):
        net = Network.from_edges(3, [])
        colors, result = linial_coloring(net)
        assert len(colors) == 3
        assert result.rounds == 0

    def test_single_edge(self):
        net = Network.from_edges(2, [(0, 1)])
        colors, _ = linial_coloring(net)
        assert colors[0] != colors[1]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_property_proper_on_random_graphs(self, seed):
        net = random_network(40, 100, seed=seed)
        colors, _ = linial_coloring(net)
        assert all(colors[u] != colors[v] for u, v in net.edges())
        assert max(colors) < linial_palette_bound(net.max_degree)


def reference_point(color, neighbor_colors, q, k):
    """The evaluation-point search over ``_digits`` + ``_eval_poly``."""
    from repro.subroutines.linial import _digits, _eval_poly

    own = _digits(color, q, k + 1)
    polys = [_digits(c, q, k + 1) for c in neighbor_colors]
    for x in range(q):
        own_val = _eval_poly(own, x, q)
        if all(_eval_poly(p, x, q) != own_val for p in polys):
            return x, own_val
    return None


class ReferenceLinial(LinialColoring):
    """Linial with the search above, for whole-run comparisons."""

    def on_round(self, node, api, inbox):
        step = node.state["step"]
        q, k = self.schedule[step]
        point = reference_point(node.state["color"], [c for _, c in inbox], q, k)
        assert point is not None
        node.state["color"] = point[0] * q + point[1]
        node.state["step"] = step + 1
        if node.state["step"] == len(self.schedule):
            api.halt(node.state["color"])
        else:
            api.broadcast(node.state["color"])


class TestClosedFormSearch:
    """The inline k <= 2 search (and the generic k >= 3 one) pick the
    same evaluation point and new color as the digit-list reference."""

    @pytest.mark.parametrize("q, k", [(2, 1), (5, 1), (37, 1), (5, 2), (13, 2),
                                      (67, 2), (7, 3), (13, 6)])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_point_as_reference(self, q, k, data):
        from repro.subroutines.linial import _evaluation_point

        # Colors past q**(k+1) too: only the k + 1 low digits count.
        palette = q ** (k + 1) * data.draw(st.sampled_from([1, 3]))
        color = data.draw(st.integers(0, palette - 1))
        # A proper coloring: neighbors' polynomials differ from the
        # node's (not necessarily from each other); degree up to the
        # schedule's bound (q > k * degree) and beyond it, where no point
        # may exist.
        span = q ** (k + 1)
        others = st.integers(0, palette - 1).filter(lambda c: (c - color) % span)
        neighbors = data.draw(st.lists(others, max_size=(q - 1) // k + 4))
        expected = reference_point(color, neighbors, q, k)
        assert _evaluation_point(color, neighbors, q, k) == expected
        if len(neighbors) * k < q:
            assert expected is not None
        # An improper input (a neighbor with the same low digits) has no
        # evaluation point on either path.
        clash = color % span + palette
        assert _evaluation_point(color, neighbors + [clash], q, k) is None
        assert reference_point(color, neighbors + [clash], q, k) is None

    @pytest.mark.parametrize(
        "id_space, delta, schedule, steps",
        [
            (10 ** 7, 2, None, [6, 3, 2]),
            (10 ** 4, 3, None, [3, 2]),
            (200, 4, None, [2]),
            # The planner never emits k = 1 (a k = 1 step that fits
            # q**2 >= m cannot shrink the palette), so set one directly.
            (49, 4, [(7, 1), (11, 2)], [1, 2]),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_runs_match_reference(self, id_space, delta, schedule, steps, seed):
        import random

        rng = random.Random(seed)
        degree = [0] * 32
        edges = set()
        for _ in range(400):  # vertices 30 and 31 stay isolated
            u, v = sorted(rng.sample(range(30), 2))
            if (u, v) not in edges and max(degree[u], degree[v]) < delta:
                edges.add((u, v))
                degree[u] += 1
                degree[v] += 1
        net = Network.from_edges(32, sorted(edges), uids=rng.sample(range(id_space), 32))
        runs = []
        for algorithm_type in (LinialColoring, ReferenceLinial):
            algorithm = algorithm_type(id_space, delta)
            if schedule is not None:
                algorithm.schedule = schedule
            assert [k for _, k in algorithm.schedule] == steps
            result = net.run(algorithm)
            runs.append(([n.state["color"] for n in net.nodes], result.rounds,
                         result.messages, result.outputs))
        assert runs[0] == runs[1]
        assert runs[0][1] == len(steps)

    def test_finish_isolated_unchanged(self):
        from repro.subroutines.linial import _digits

        uids = [3, 999_983, 5_000_011, 9_999_999]
        net = Network.from_edges(4, [], uids=uids)
        algorithm = LinialColoring(10 ** 7, 2)
        net.run(algorithm)
        for node in net.nodes:
            color = node.uid
            for q, k in algorithm.schedule:
                color = _digits(color, q, k + 1)[0]
            assert node.state["color"] == color
