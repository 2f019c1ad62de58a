"""The campaign-remote workload: ``run_campaign(executor="remote")``.

Two fresh ``repro serve -j 1`` backends take campaign cells over the
``cell`` op.  The benchmark runs campaigns of :data:`BATCH` distinct
cells back to back (closed loop) until the window has passed.  Cells are
small hard-clique graphs in three sizes, each on a fresh graph seed (so
every cell registers its graph, then references it by hash, and misses
the result cache), alternating the deterministic and randomized
methods.

Per-cell latency is the client call of the ``cell`` op, measured by a
wrapper around :meth:`repro.serve.ResilientClient.call` (the executor's
protocol client).  After the window every remote row is compared byte
for byte with the row the inline executor's ``run_cell`` produces for
the same cell.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from harness import (
    HostSpeed,
    Ledger,
    brooks_precondition,
    mean,
    median,
    quantile,
    row_bytes,
)
from serving import (
    BootError,
    Server,
    counter_delta,
    histogram_mean,
    instance_payload,
    metrics_snapshot,
    peak_servers_mb,
    replay_batches,
)
from tracing import Tracer, covered_time, patched

BACKENDS = 2
BATCH = 40
#: Cells whose LOCAL totals are reported: the first two campaigns,
#: which every run executes.
FIXED_CELLS = 2 * BATCH
#: (cliques, Delta) of the cells.  Delta >= 9: at Delta = 8 the
#: pipelines raise InvariantViolation (Lemma 16) on a few percent of
#: graphs, a program defect; 1500 graphs of each size here colored
#: correctly with both methods.
SIZES = ((18, 9), (20, 10), (22, 10))
METHODS = ("randomized", "deterministic")
EPSILON = 0.25
SETUP_REPEATS = 3
#: Warm-up campaign size (spawns each backend's worker, pays first ACDs).
WARM_CELLS = 8
#: Cells replayed in process by a traced run.
REPLAYS = 24


def make_cell(seed: int, index: int) -> Any:
    from repro.runner import CampaignCell

    cliques, delta = SIZES[index % len(SIZES)]
    method = METHODS[index % len(METHODS)]
    return CampaignCell(
        label=f"c{index}", workload="hard", num_cliques=cliques, delta=delta,
        graph_seed=seed * 100_000 + index, epsilon=EPSILON, method=method,
        seed=None if method == "deterministic" else index + 1,
    )


class CallLog:
    """Wraps ``ResilientClient.call`` to time every protocol call.

    ``enabled`` lets a traced run switch the timing off for alternate
    campaigns, which measures what the log itself costs.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[str, float, float, dict[str, Any]]] = []
        self.enabled = True

    def make(self, original: Any) -> Any:
        log = self

        async def call(client: Any, body: dict[str, Any], **kwargs: Any) -> Any:
            if not log.enabled:
                return await original(client, body, **kwargs)
            started = time.perf_counter()
            outcome = await original(client, body, **kwargs)
            log.calls.append(
                (body.get("op"), started, time.perf_counter(), outcome.body)
            )
            return outcome

        return call


def run(seed: int, seconds: float, trace: bool, tail_q: float) -> dict[str, Any]:
    from repro.runner import run_campaign, run_cell
    from repro.serve import ResilientClient

    ledger = Ledger()
    speed = HostSpeed()
    invalid: list[str] = []
    servers: list[Server] = []
    setups: list[float] = []
    boots: list[float] = []
    log = CallLog()
    batches: list[dict[str, Any]] = []
    info: dict[str, Any] = {}

    def boot_and_warm(repeat: int) -> list[Server]:
        started = time.perf_counter()
        fleet = [Server(f"campaign-{repeat}-{i}") for i in range(BACKENDS)]
        servers.extend(fleet)
        for server in fleet:
            server.start()
        for server in fleet:
            server.ready()
            boots.append(server.boot_s)
        warm = [make_cell(seed, -1 - i) for i in range(WARM_CELLS)]
        result = run_campaign(
            warm, executor="remote", backends=endpoints(fleet), strict=False
        )
        if result.failures:
            invalid.append(f"warm-up cells failed: {result.failures[:2]}")
        setups.append(time.perf_counter() - started)
        return fleet

    try:
        with patched(ResilientClient, "call", log.make):
            for repeat in range(SETUP_REPEATS - 1):
                for server in boot_and_warm(repeat):
                    server.stop()
            fleet = boot_and_warm(SETUP_REPEATS - 1)
            log.calls.clear()
            before = asyncio.run(_snapshots(fleet))
            window_start = time.perf_counter()
            index = 0
            while (len(batches) < FIXED_CELLS // BATCH
                   or time.perf_counter() - window_start < seconds):
                cells = [make_cell(seed, index + j) for j in range(BATCH)]
                index += BATCH
                log.enabled = not trace or len(batches) % 2 == 0
                # Between campaigns, while the backends are idle.
                speed.sample()
                started = time.perf_counter()
                result = run_campaign(
                    cells, executor="remote", backends=endpoints(fleet),
                    strict=False,
                )
                batches.append({"cells": cells, "result": result,
                                "start": started, "end": time.perf_counter(),
                                "logged": log.enabled})
            after = asyncio.run(_snapshots(fleet))
            for server in fleet:
                server.stop()
    except BootError as error:
        for _ in range(BATCH):
            ledger.fail(f"boot: {error}")
        return {"ledger": ledger, "metrics": {}, "info": info,
                "invalid": [str(error)], "tracer": Tracer()}
    finally:
        for server in servers:
            server.stop()

    inline = _verify(batches, ledger, run_cell)
    calls = [c for c in log.calls if c[0] == "cell"]
    latencies = [end - start for _, start, end, _ in calls]
    wall = _wall(batches)
    cells_run = sum(len(batch["cells"]) for batch in batches)
    fixed_rows = [
        row for batch in batches for row in batch["result"].rows
    ][:FIXED_CELLS]
    scale = speed.scale()
    metrics: dict[str, Any] = {
        "setup_s": median(setups) * scale,
        "op_ms_p50": median(latencies) * scale * 1e3,
        "op_ms_tail": quantile(latencies, tail_q) * scale * 1e3,
        "ops_per_s": cells_run / wall / scale,
        "local_rounds": sum(row.get("rounds", 0) for row in fixed_rows),
        "local_messages": sum(row.get("messages", 0) for row in fixed_rows),
    }
    info.update(
        cells=cells_run, campaigns=len(batches), latency_samples=len(latencies),
        op_ms_quantiles={
            str(q): quantile(latencies, q) * 1e3 for q in (0.5, 0.9, 0.95, 0.98, 0.99)
        },
        host_speed=speed.info(),
        wall={
            "setup_s": median(setups),
            "op_ms_p50": median(latencies) * 1e3,
            "op_ms_tail": quantile(latencies, tail_q) * 1e3,
            "ops_per_s": cells_run / wall,
        },
    )
    tracer = Tracer()
    if trace:
        metrics.update(_layers(
            tracer, batches, log.calls, before, after, boots, inline, wall,
            cells_run,
        ))
    return {"ledger": ledger, "metrics": metrics, "info": info,
            "invalid": invalid, "tracer": tracer,
            "children_peak_mb": peak_servers_mb(servers)}


def endpoints(fleet: list[Server]) -> list[str]:
    return [f"{server.host}:{server.port}" for server in fleet]


async def _snapshots(fleet: list[Server]) -> list[dict[str, Any]]:
    from repro.serve import ServeClient

    out = []
    for server in fleet:
        client = ServeClient(host=server.host, port=server.port)
        await client.connect()
        try:
            out.append(await metrics_snapshot(client))
        finally:
            await client.close()
    return out


def _verify(
    batches: list[dict[str, Any]], ledger: Ledger, run_cell: Any
) -> list[tuple[float, float]]:
    """Record every cell: ok only if its remote row is byte-identical to
    the inline ``run_cell`` row.  Returns the inline calls' intervals."""
    from repro.bench.workloads import hard_workload

    inline: list[tuple[float, float]] = []
    checked_graphs: set[tuple[int, int, int]] = set()
    for batch in batches:
        result = batch["result"]
        failed = {failure["label"]: failure for failure in result.failures}
        for cell, row in zip(batch["cells"], result.rows):
            if cell.label in failed:
                ledger.fail(f"cell {cell.label}: {failed[cell.label]['error']}")
                continue
            key = (cell.num_cliques, cell.delta, cell.graph_seed)
            if key not in checked_graphs:
                checked_graphs.add(key)
                instance = hard_workload(*key)
                problem = brooks_precondition(
                    instance.n, instance.network.edges(), cell.delta
                )
                if problem is not None:
                    ledger.fail(f"cell {cell.label}: invalid input: {problem}")
                    continue
            started = time.perf_counter()
            expected = run_cell(cell)
            inline.append((started, time.perf_counter()))
            if row_bytes(row) != row_bytes(expected):
                ledger.fail(f"cell {cell.label}: remote row differs from run_cell")
            else:
                ledger.ok()
    return inline


def _wall(batches: list[dict[str, Any]]) -> float:
    return sum(batch["end"] - batch["start"] for batch in batches)


def _per_cell_s(batches: list[dict[str, Any]]) -> float:
    return _wall(batches) / sum(len(batch["cells"]) for batch in batches)


def _layers(
    tracer: Tracer,
    batches: list[dict[str, Any]],
    calls: list[tuple[str, float, float, dict[str, Any]]],
    before: list[dict],
    after: list[dict],
    boots: list[float],
    inline: list[tuple[float, float]],
    wall: float,
    cells_run: int,
) -> dict[str, float]:
    """Per-layer numbers of a traced campaign-remote run."""
    from repro import generators
    from repro.bench.workloads import hard_workload
    from repro.runner import cell_to_json
    from repro.serve import make_cell_cache_key, normalize_instance_payload

    # Spans: each logged campaign is an op; its protocol calls are children.
    logged = [batch for batch in batches if batch["logged"]]
    unlogged = [batch for batch in batches if not batch["logged"]]
    uncovered = 0.0
    for batch in logged:
        root = tracer.root("campaign", batch["start"], batch["end"])
        inside = [c for c in calls if batch["start"] <= c[1] < batch["end"]]
        for op, start, end, _ in inside:
            tracer.add(f"serve.client.{op}", start, end, root)
        cell_calls = [(s, e) for op, s, e, _ in inside if op == "cell"]
        uncovered += (batch["end"] - batch["start"]) - covered_time(
            cell_calls, batch["start"], batch["end"]
        )

    cell_rtt = [end - start for op, start, end, _ in calls if op == "cell"]
    registers = [end - start for op, start, end, _ in calls if op == "register"]
    refused = sum(
        1 for op, _, _, body in calls
        if op == "cell" and (body.get("error") or {}).get("code") in ("shed", "draining")
    )
    server_cell = histogram_mean(before, after, "serve.latency_ms") / 1e3
    hits = counter_delta(before, after, "serve.cache_hit")
    misses = counter_delta(before, after, "serve.cache_miss")

    stats = [batch["result"].remote_stats or {} for batch in batches]
    dispatched = sum(s.get("dispatched", 0) for s in stats)
    completed = sum(s.get("completed", 0) for s in stats)

    sample = [cell for batch in batches for cell in batch["cells"]][:REPLAYS]
    generated = []
    jobs = []
    for cell in sample:
        started = time.perf_counter()
        generators.hard_clique_graph(cell.num_cliques, cell.delta, seed=cell.graph_seed)
        generated.append((started, time.perf_counter()))
        instance = hard_workload(cell.num_cliques, cell.delta, cell.graph_seed)
        instance_hash, payload = normalize_instance_payload(instance_payload(instance))
        wire = cell_to_json(cell)
        jobs.append(({
            "kind": "cell", "cell": wire, "instance_hash": instance_hash,
            "key": make_cell_cache_key(instance_hash, wire),
        }, {instance_hash: payload}))
    replay = replay_batches(tracer, jobs)
    compute = mean(replay["compute"])
    inline_mean = tracer.roots("runner.run_cell", inline)
    out = {
        "graphs.generate_ms": tracer.roots("graphs.generate", generated) * 1e3,
        "acd.share": replay["acd_s"] / compute,
        "serve.boot_s": median(boots),
        "serve.register_ms": median(registers) * 1e3 if registers else 0.0,
        "serve.compute_ms_p50": median(replay["compute"]) * 1e3,
        "serve.server_miss_ms_mean": server_cell * 1e3,
        "serve.transport_ms_mean": (mean(cell_rtt) - server_cell) * 1e3,
        "serve.overhead_ms_mean": (server_cell - compute) * 1e3,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.batch_size_mean": histogram_mean(before, after, "serve.batch_size"),
        "serve.refused": refused,
        "runner.inline_cell_ms_p50": median([e - s for s, e in inline]) * 1e3,
        "runner.dispatched": dispatched,
        "runner.redispatched": sum(s.get("redispatched", 0) for s in stats),
        "runner.requeued": sum(s.get("requeued", 0) for s in stats),
        "runner.useful_ratio": completed / dispatched if dispatched else 0.0,
        "runner.remote_over_inline": (wall / cells_run) / inline_mean,
        # Spans and replays are built after the window; inside it, tracing
        # is the call log, on for alternate campaigns.
        "trace.overhead_ratio": _per_cell_s(logged) / _per_cell_s(unlogged),
        "trace.coverage": 1.0 - uncovered / _wall(logged),
        "unattributed_ms": uncovered / sum(len(b["cells"]) for b in logged) * 1e3,
    }
    out.update(replay["layers"])
    return out
