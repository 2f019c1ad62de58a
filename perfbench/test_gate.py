"""The output-correctness gate counts every kind of bad op.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/test_gate.py

Each test feeds one deliberately wrong outcome through the code path the
benchmark uses for real ops (a flipped color, a wrong served digest, a
raised ``ReproError``, a campaign row that differs from ``run_cell``)
and checks that it lands in the failure count, so ``fail_ratio`` can
never read 0 on a run that produced one.  The last test checks that the
traced run's coverage can fail: core time outside every ``repro.obs``
phase is credited to no layer.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import campaign  # noqa: E402
import pipeline  # noqa: E402
import serving  # noqa: E402
from harness import Ledger, colors_digest  # noqa: E402

from repro import delta_color, generators  # noqa: E402
from repro.errors import ReproError  # noqa: E402


def serve_instance():
    return generators.hard_clique_graph(
        serving.CLIQUES, serving.DELTA, seed=serving.GRAPH_SEED
    )


def small_member() -> tuple[pipeline.Member, object]:
    instance = serve_instance()
    network = instance.network
    member = pipeline.Member(network, network.edges(), instance.delta, None)
    return member, instance


def valid_result(instance, seed: int | None = None):
    return delta_color(
        instance.network,
        method="deterministic" if seed is None else "randomized",
        epsilon=0.25, seed=seed,
    )


def test_flipped_color_is_counted():
    member, instance = small_member()
    result = valid_result(instance)
    u, v = member.edges[0]
    colors = list(result.colors)
    colors[u] = colors[v]
    flipped = SimpleNamespace(
        colors=colors, num_colors=result.num_colors,
        rounds=result.rounds, messages=result.messages,
    )
    ledger = Ledger()
    pipeline._check(member, result, ledger, "op")
    pipeline._check(member, flipped, ledger, "op")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "monochromatic" in ledger.reasons[0]


def test_raised_repro_error_is_counted():
    member, _ = small_member()

    def broken(_member):
        raise ReproError("injected")

    ledger = Ledger()
    assert pipeline.timed_op(broken, member, ledger, "op") is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "ReproError: injected" in ledger.reasons[0]


def served(instance, seed: int, digest: str | None = None) -> dict:
    result = valid_result(instance, seed)
    return {
        "ok": True, "seed": seed, "colors": result.colors,
        "num_colors": result.num_colors,
        "digest": digest or colors_digest(result.colors),
        "rounds": result.rounds, "messages": result.messages,
    }


def test_wrong_served_digest_is_counted():
    instance = serve_instance()
    good = served(instance, 5)
    # A response whose colors are proper and hash to the digest it
    # carries, but not to the in-process result for its seed.
    other = served(instance, 6)
    wrong = dict(other, seed=5)
    ledger = Ledger()
    ledger.ok()
    ledger.ok()
    serving._verify(instance, [good, wrong], ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "differs from the in-process result" in ledger.reasons[0]


def test_differing_campaign_row_is_counted():
    from repro.runner import run_cell

    cell = campaign.make_cell(1, 0)
    row = run_cell(cell)
    tampered = dict(row, rounds=row["rounds"] + 1)
    batch = {
        "cells": [cell, cell],
        "result": SimpleNamespace(rows=[row, tampered], failures=[]),
    }
    ledger = Ledger()
    campaign._verify([batch], ledger, run_cell)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "differs from run_cell" in ledger.reasons[0]


def test_core_time_outside_obs_phases_is_unattributed():
    from tracing import Tracer, central_seconds

    class Phase:
        def __init__(self, wall_seconds, children=()):
            self.label, self.wall_seconds = "phase", wall_seconds
            self.rounds = self.messages = self.executed_rounds = 0
            self.children = list(children)

    tracer = Tracer()
    with tracer.op("op"):
        with tracer.span("core.delta_color") as core:
            pass
    core["start"], core["end"] = 0.0, 1.0
    engine = tracer.add("local.run", 0.1, 0.4, core)
    engine["in_phase"] = True
    tracer.add("local.run", 0.5, 0.6, core)
    # Phases cover 0.7 s of the 1 s call, 0.3 s of it in an engine run;
    # the 0.3 s outside every phase is credited to no layer.
    tracer.join_phases(core, Phase(0.0, [Phase(0.7)]))
    assert abs(central_seconds(tracer.spans) - 0.4) < 1e-9
