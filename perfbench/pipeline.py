"""The pipeline workloads: ``repro.delta_color`` called in process.

``det-hard`` runs Theorem 1 (Algorithms 1-3) on hard-clique graphs and
``rand-mixed`` runs Theorem 2 (Algorithm 4, shattering) on graphs where
half the cliques are easy.  Each run builds a fixed pool of distinct
inputs from the seed, then calls ``delta_color`` in a closed loop over
the pool until the measuring window has passed and every input ran at
least once.  The LOCAL-model totals are summed over the pool, so they
repeat exactly for a seed.

Untraced ops time the public front door with its defaults (input
validation and the built-in verification on).  The host-speed reference
loop runs right before each one, and the reported times are scaled to
the calibrated speed (``harness.HostSpeed``); the wall times are kept in
the result's ``info``.  A traced run alternates
untraced and traced ops; a traced op makes the same calls one layer at a
time (the clique check, ``compute_acd``, ``delta_color`` with ``acd=``
and validation/verification off, ``verify_coloring``) so each layer gets
its own span, joins the ``repro.obs`` phase tree, and wraps
``Network.run``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from harness import (
    REFERENCE_S,
    HostSpeed,
    Ledger,
    brooks_precondition,
    coloring_problem,
    colors_digest,
    median,
    quantile,
)
from tracing import (
    PhaseTotals,
    Tracer,
    central_seconds,
    engine_wrapper,
    patched,
    self_times,
)

EPSILON = 1.0 / 8.0
DELTA = 32
#: Distinct graphs per run, and distinct seeds per graph for the
#: randomized pipeline (its rounds and time vary widely with the seed, so
#: more inputs steady the medians and the LOCAL totals).
GRAPHS = 8
SEEDS_PER_GRAPH = {"det-hard": 1, "rand-mixed": 4}
#: Input set-ups per run; ``setup_s`` is their median plus the warm-up.
SETUP_REPEATS = 3

@dataclass
class Member:
    """One pool input and what its first run produced."""

    network: Any
    edges: list[tuple[int, int]]
    delta: int
    seed: int | None
    digest: str | None = None
    rounds: int = 0
    messages: int = 0


def _build_pool(
    workload: str, seed: int
) -> tuple[list[Member], list[tuple[float, float]]]:
    from repro import generators

    graphs = []
    generated: list[tuple[float, float]] = []
    for index in range(GRAPHS):
        graph_seed = seed * 1000 + index
        started = time.perf_counter()
        if workload == "det-hard":
            instance = generators.hard_clique_graph(
                64 + 2 * (index % 3), DELTA, seed=graph_seed
            )
        else:
            instance = generators.mixed_dense_graph(
                68, DELTA, easy_fraction=0.5, seed=graph_seed
            )
        generated.append((started, time.perf_counter()))
        edges = instance.network.edges()
        problem = brooks_precondition(instance.n, edges, DELTA)
        if problem is not None:
            raise RuntimeError(f"generated input {index} is invalid: {problem}")
        graphs.append((instance.network, edges))
    members = []
    for round_index in range(SEEDS_PER_GRAPH[workload]):
        for index, (network, edges) in enumerate(graphs):
            op_seed = (
                None if workload == "det-hard"
                else seed * 1000 + 500 + round_index * GRAPHS + index
            )
            members.append(Member(network, edges, DELTA, op_seed))
    return members, generated


def _check(member: Member, result: Any, ledger: Ledger, where: str) -> None:
    """Oracle + determinism check of one op's result; records the op."""
    problem = coloring_problem(
        member.edges, member.network.n, result.colors, member.delta,
        result.num_colors,
    )
    if problem is not None:
        ledger.fail(f"{where}: {problem}")
        return
    digest = colors_digest(result.colors)
    if member.digest is None:
        member.digest = digest
        member.rounds, member.messages = result.rounds, result.messages
    elif (digest, result.rounds, result.messages) != (
        member.digest, member.rounds, member.messages
    ):
        ledger.fail(f"{where}: result differs from an earlier run of this input")
        return
    ledger.ok()


def timed_op(call: Any, member: Member, ledger: Ledger, where: str) -> float | None:
    """Run one op; return its seconds, or None when it failed.

    The op boundary keeps the run going: any exception the program
    raises is recorded as a failed op, never a crashed benchmark.
    """
    started = time.perf_counter()
    try:
        result = call(member)
    except Exception as error:
        ledger.fail(f"{where}: {type(error).__name__}: {error}")
        return None
    elapsed = time.perf_counter() - started
    _check(member, result, ledger, where)
    return elapsed


def run(workload: str, seed: int, seconds: float, trace: bool, tail_q: float) -> dict[str, Any]:
    import repro
    from repro import obs
    from repro.acd import compute_acd
    from repro.constants import AlgorithmParameters
    from repro.graphs.validation import assert_no_delta_plus_one_clique
    from repro.local.network import Network
    from repro.verify.coloring import verify_coloring

    method = "deterministic" if workload == "det-hard" else "randomized"
    params = AlgorithmParameters(epsilon=EPSILON)
    ledger = Ledger()
    speed = HostSpeed()

    setups: list[float] = []
    generated: list[tuple[float, float]] = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        pool, intervals = _build_pool(workload, seed)
        setups.append(time.perf_counter() - started)
        generated.extend(intervals)

    def untraced(member: Member) -> Any:
        return repro.delta_color(
            member.network, method=method, epsilon=EPSILON, seed=member.seed
        )

    started = time.perf_counter()
    timed_op(untraced, pool[0], ledger, "warm-up")
    setup_s = median(setups) + time.perf_counter() - started

    tracer = Tracer()
    counts: dict[str, float] = {}
    phases = PhaseTotals()

    def traced(member: Member) -> Any:
        network = member.network
        with tracer.op("op"):
            with tracer.span("graphs.clique_check"):
                assert_no_delta_plus_one_clique(network)
            with tracer.span("acd.compute"):
                acd = compute_acd(network, EPSILON)
            with tracer.span("core.delta_color") as core:
                with obs.observed() as collector:
                    if method == "deterministic":
                        result = repro.delta_color_deterministic(
                            network, params=params, acd=acd,
                            validate_input=False, verify=False,
                        )
                    else:
                        result = repro.delta_color_randomized(
                            network, params=params, seed=member.seed, acd=acd,
                            validate_input=False, verify=False,
                        )
            with tracer.span("verify.check"):
                verify_coloring(network, result.colors, result.num_colors)
        tracer.join_phases(core, collector.root)
        phases.add(collector.root)
        return result

    plain: list[float] = []
    scaled: list[float] = []
    observed: list[float] = []
    window_start = time.perf_counter()
    with patched(Network, "run", engine_wrapper(tracer, counts)) if trace else nullcontext():
        index = 0
        while index < len(pool) or time.perf_counter() - window_start < seconds:
            cycle, position = divmod(index, len(pool))
            member = pool[position]
            # Alternate traced and untraced ops, swapping parity every
            # cycle so each input is timed both ways.
            if trace and (position + cycle) % 2:
                elapsed = timed_op(traced, member, ledger, "traced op")
                if elapsed is not None:
                    observed.append(elapsed)
            else:
                # The reference runs right before the op it scales.
                reference = speed.sample()
                elapsed = timed_op(untraced, member, ledger, "op")
                if elapsed is not None:
                    plain.append(elapsed)
                    scaled.append(elapsed * REFERENCE_S / reference)
            index += 1

    metrics: dict[str, Any] = {
        "setup_s": setup_s * speed.scale(),
        "op_ms_p50": median(scaled) * 1e3,
        "op_ms_tail": quantile(scaled, tail_q) * 1e3,
        "ops_per_s": len(scaled) / sum(scaled),
        "local_rounds": sum(member.rounds for member in pool),
        "local_messages": sum(member.messages for member in pool),
    }
    info = {
        "ops": len(plain) + len(observed),
        "latency_samples": len(plain),
        "host_speed": speed.info(),
        "wall": {
            "setup_s": setup_s,
            "op_ms_p50": median(plain) * 1e3,
            "op_ms_tail": quantile(plain, tail_q) * 1e3,
            "ops_per_s": len(plain) / sum(plain),
        },
    }
    if trace:
        metrics.update(_layers(tracer, counts, phases, observed, plain, generated))
    return {"ledger": ledger, "metrics": metrics, "info": info, "tracer": tracer}


def _layers(
    tracer: Tracer,
    counts: dict[str, float],
    phases: PhaseTotals,
    observed: list[float],
    plain: list[float],
    generated: list[tuple[float, float]],
) -> dict[str, float]:
    op_spans = [s["end"] - s["start"] for s in tracer.spans if s["name"] == "op"]
    ops = max(len(op_spans), 1)
    own = self_times(tracer.spans)
    op_total = sum(op_spans) or 1.0
    # The core layer is credited only with its obs phases' own time, so
    # ``delta_color`` time outside every phase (and the gaps between the
    # op's calls) stays unattributed and the coverage check can fail.
    attributed = {
        "graphs.clique_check": own.get("graphs.clique_check", 0.0),
        "acd.compute": own.get("acd.compute", 0.0),
        "core.central": central_seconds(tracer.spans),
        "local.run": own.get("local.run", 0.0),
        "verify.check": own.get("verify.check", 0.0),
    }
    out = {
        "graphs.generate_ms": tracer.roots("graphs.generate", generated) * 1e3,
        "graphs.clique_check_ms": attributed["graphs.clique_check"] / ops * 1e3,
        "acd.compute_ms": attributed["acd.compute"] / ops * 1e3,
        "acd.share": attributed["acd.compute"] / op_total,
        "core.central_ms": attributed["core.central"] / ops * 1e3,
        "local.run_ms": attributed["local.run"] / ops * 1e3,
        "local.runs": counts.get("runs", 0) / ops,
        "local.messages": counts.get("messages", 0) / ops,
        "local.us_per_message": (
            attributed["local.run"] * 1e6 / counts["messages"]
            if counts.get("messages") else 0.0
        ),
        "verify.check_ms": attributed["verify.check"] / ops * 1e3,
        "trace.overhead_ratio": median(observed) / median(plain),
        "trace.coverage": sum(attributed.values()) / op_total,
        "unattributed_ms": (op_total - sum(attributed.values())) / ops * 1e3,
    }
    out.update(phases.metrics())
    return out

