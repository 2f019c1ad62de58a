"""Served requests: ``repro serve`` subprocesses and the serve-zipf workload.

:class:`Server` boots ``python -m repro serve`` with its default settings
on an ephemeral localhost port and bounds the boot by a timeout.  Every
server a run boots is drained with SIGTERM in a ``finally`` block, so it
is stopped on every exit path (a SIGTERM to the benchmark unwinds too).

serve-zipf sends ``color`` requests open loop: request ``i`` is due at
``t0 + i / RATE`` whatever happened to earlier ones, it is timed from
that due time, and the generator's own lateness is reported.  Seeds are
Zipf draws from a key pool larger than the server's default result
cache, so once warm-up has filled the cache the stream mixes hits with
misses that compute, insert and evict.  Every served digest is checked
after the window against an in-process ``delta_color`` of the same
instance, seed and epsilon.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import random
import signal
import subprocess
import sys
import time
from bisect import bisect
from pathlib import Path
from typing import Any

from harness import (
    OUT,
    SRC,
    Ledger,
    brooks_precondition,
    coloring_problem,
    colors_digest,
    mean,
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
    span_wrapper,
)

#: Seconds a server may take to print its address and answer ``health``.
BOOT_TIMEOUT_S = 60.0
#: Seconds a server may take to drain after SIGTERM before it is killed.
DRAIN_TIMEOUT_S = 30.0
#: Seconds to wait for the last responses of a window.
RESPONSE_TIMEOUT_S = 60.0

#: The one registered instance, the same in every run (the seed picks the
#: request stream).  Delta = 10 rather than 8: at Delta = 8 and this
#: epsilon the pipelines raise InvariantViolation (Lemma 16) on a few
#: percent of inputs, a program defect; every key of this instance's
#: pool colors correctly.
CLIQUES, DELTA, GRAPH_SEED, EPSILON = 20, 10, 7, 0.25
#: Open-loop arrival rate (requests per second), well below the
#: server's capacity on this instance: 600-930 req/s closed loop with 8
#: requests in flight at this key mix, on a 2-vCPU VM.
RATE = 200.0
CONNECTIONS = 2
#: Zipf key pool (distinct seeds) and exponent; the pool exceeds the
#: server's default 1024-entry result cache.  The exponent is the one
#: of the repository's fleet-scaling Zipf experiment.
KEYS, ZIPF_S = 2048, 1.0
SETUP_REPEATS = 3
#: Warm-up: requests in flight and the hit-ratio window.  The cache
#: counts as warm once it is full and evicting and the hit ratio changed
#: by less than the tolerance from the previous window; the minimum
#: keeps a noisy early window pair from ending it before then.
WARM_CONCURRENCY, WARM_WINDOW, WARM_TOLERANCE = 8, 500, 0.03
WARM_MIN_WINDOWS, WARM_MAX_WINDOWS = 10, 24
#: The run is invalid (not fast) when the generator sends this late ...
LATE_LIMIT_MS = 50.0
#: ... or when requests in flight grow by more than this from the
#: first quarter of the window to the last.
BACKLOG_GROWTH = 5.0
#: Distinct requests replayed in process by a traced run.
REPLAYS = 40


class BootError(RuntimeError):
    """A server did not come up within :data:`BOOT_TIMEOUT_S`."""


class Server:
    """One ``repro serve`` subprocess; :meth:`stop` drains it."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.log = OUT / f"{name}.log"
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.boot_s = 0.0
        self.peak_kb = 0
        self._started = 0.0

    def start(self) -> None:
        """Launch the process (several servers can boot concurrently)."""
        self._started = time.perf_counter()
        OUT.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "-j", "1"],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=OUT,
            )

    def ready(self) -> None:
        """Wait for the address and a healthy answer; stop on failure."""
        try:
            self._await_address(self._started)
            asyncio.run(self._await_health(self._started))
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - self._started

    def _await_address(self, started: float) -> None:
        assert self.process is not None
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            for line in self.log.read_text().splitlines():
                if line.startswith("serving on "):
                    address = line.split()[2]
                    self.host, port = address.rsplit(":", 1)
                    self.port = int(port)
                    return
            if self.process.poll() is not None:
                raise BootError(f"{self.name} exited during boot")
            time.sleep(0.02)
        raise BootError(f"{self.name} printed no address in {BOOT_TIMEOUT_S}s")

    async def _await_health(self, started: float) -> None:
        from repro.serve import ServeClient

        client = ServeClient(host=self.host, port=self.port)
        remaining = BOOT_TIMEOUT_S - (time.perf_counter() - started)
        try:
            await asyncio.wait_for(client.connect(), remaining)
            body = await asyncio.wait_for(client.request({"op": "health"}), remaining)
        except (OSError, asyncio.TimeoutError) as error:
            raise BootError(f"{self.name} did not answer health: {error}") from error
        finally:
            await client.close()
        if not body.get("ok"):
            raise BootError(f"{self.name} health failed: {body}")

    def _tree_peak_kb(self) -> int:
        """Peak RSS (VmHWM) of the server and its worker processes."""
        assert self.process is not None
        peak = 0
        for pid in [self.process.pid, *self.children()]:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak

    def children(self) -> list[int]:
        """Process ids of the server's children (its pool workers)."""
        assert self.process is not None
        pids: list[int] = []
        try:
            for task in Path(f"/proc/{self.process.pid}/task").iterdir():
                pids.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            pass
        return pids

    def stop(self) -> None:
        """SIGTERM, wait for the drain (kill past the bound), and wait for
        the worker processes the server started to end too."""
        process = self.process
        if process is None or process.returncode is not None:
            return
        self.peak_kb = max(self.peak_kb, self._tree_peak_kb())
        workers = self.children()
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        for pid in workers:
            while Path(f"/proc/{pid}").exists() and time.perf_counter() < deadline:
                time.sleep(0.01)


def peak_servers_mb(servers: list[Server]) -> float:
    return max((server.peak_kb for server in servers), default=0) / 1024.0


def zipf_sampler(seed: int, stream: str) -> Any:
    """Seed drawer: key ``r`` of the pool has weight ``r^-s``.

    The popularity ranking is the same in every run, so each run asks
    for the expensive keys (the ~0.5% whose shattered components take
    the deterministic fallback, ~40x the rounds) at the same rates;
    the seed and the stream name pick the draws.
    """
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(KEYS)
    ))
    total = cumulative[-1]
    rng = random.Random(f"{stream}:{seed}")

    def draw() -> int:
        return 1 + min(bisect(cumulative, rng.random() * total), KEYS - 1)

    return draw


def instance_payload(instance: Any) -> dict[str, Any]:
    return {
        "n": instance.n,
        "edges": [list(edge) for edge in instance.network.edges()],
        "delta": instance.delta,
        "uids": list(instance.network.uids),
    }


async def metrics_snapshot(client: Any) -> dict[str, Any]:
    body = await client.request({"op": "metrics"})
    if not body.get("ok"):
        raise RuntimeError(f"metrics op failed: {body}")
    return body


def histogram_mean(before: list[dict], after: list[dict], name: str) -> float:
    """Mean of a server histogram over the observations made between two
    rounds of ``metrics`` snapshots (one snapshot per server)."""
    empty = {"count": 0, "total": 0.0}
    count = total = 0.0
    for first, last in zip(before, after):
        low = first["metrics"]["histograms"].get(name, empty)
        high = last["metrics"]["histograms"].get(name, empty)
        count += high["count"] - low["count"]
        total += high["total"] - low["total"]
    return total / count if count else 0.0


def counter_delta(before: list[dict], after: list[dict], name: str) -> float:
    """Growth of a server counter between two rounds of snapshots."""
    return sum(
        high["metrics"]["counters"].get(name, 0) - low["metrics"]["counters"].get(name, 0)
        for low, high in zip(before, after)
    )


def run(seed: int, seconds: float, trace: bool, tail_q: float) -> dict[str, Any]:
    from repro import generators

    ledger = Ledger()
    invalid: list[str] = []
    instance = None
    setups: list[float] = []
    generated: list[tuple[float, float]] = []
    boots: list[float] = []
    registers: list[float] = []
    servers: list[Server] = []
    info: dict[str, Any] = {}

    def boot_and_register() -> tuple[Server, str]:
        nonlocal instance
        started = time.perf_counter()
        instance = generators.hard_clique_graph(CLIQUES, DELTA, seed=GRAPH_SEED)
        generated.append((started, time.perf_counter()))
        problem = brooks_precondition(instance.n, instance.network.edges(), DELTA)
        if problem is not None:
            raise RuntimeError(f"generated instance is invalid: {problem}")
        server = Server(f"serve-zipf-{len(servers)}")
        servers.append(server)
        server.start()
        server.ready()
        boots.append(server.boot_s)
        instance_hash = asyncio.run(_register_and_prime(server, instance, registers))
        setups.append(time.perf_counter() - started)
        return server, instance_hash

    try:
        for _ in range(SETUP_REPEATS - 1):
            boot_and_register()[0].stop()
        server, instance_hash = boot_and_register()
        window = asyncio.run(_drive(
            server, instance_hash, seed, seconds, trace, ledger, invalid, info
        ))
        server.stop()
    except BootError as error:
        # A failed boot fails the ops it would have served.
        for _ in range(int(RATE * seconds)):
            ledger.fail(f"boot: {error}")
        return {"ledger": ledger, "metrics": {}, "info": info,
                "invalid": [str(error)], "tracer": Tracer()}
    finally:
        for each in servers:
            each.stop()

    setup_s = median(setups) + window["warmup_s"]
    responses = window["responses"]
    _verify(instance, responses, ledger)
    rounds = {r["seed"]: (r["rounds"], r["messages"]) for r in responses if r["ok"]}
    latencies = [r["op_s"] for r in responses if r["ok"]]
    misses = [r["op_s"] for r in responses if r["ok"] and not r["cached"]]
    metrics: dict[str, Any] = {
        "setup_s": setup_s,
        "op_ms_p50": median(latencies) * 1e3,
        "op_ms_tail": quantile(latencies, tail_q) * 1e3,
        # Pinned to RATE unless the server falls behind: the server's
        # closed-loop capacity spread 15-25% across seeds on a 2-vCPU VM,
        # too close to the largest allowed bound to be the metric.
        "ops_per_s": len(latencies) / window["elapsed_s"],
        "local_rounds": sum(value[0] for value in rounds.values()),
        "local_messages": sum(value[1] for value in rounds.values()),
    }
    late = [r["late_s"] for r in responses]
    late_p99 = quantile(late, 0.99) * 1e3
    if late_p99 > LATE_LIMIT_MS:
        invalid.append(
            f"generator fell behind: p99 send lateness {late_p99:.1f} ms "
            f"> {LATE_LIMIT_MS} ms"
        )
    info.update(
        distinct_seeds=len(rounds), requests=len(responses),
        hit_ratio=(len(latencies) - len(misses)) / max(len(latencies), 1),
        latency_samples=len(latencies),
        warmup_s=window["warmup_s"],
        op_ms_quantiles=_quantiles_ms(latencies),
        miss_ms_quantiles=_quantiles_ms(misses),
    )
    tracer = Tracer()
    if trace:
        metrics.update(_layers(
            tracer, instance, responses, window, generated, boots,
            registers, late_p99,
        ))
    return {"ledger": ledger, "metrics": metrics, "info": info,
            "invalid": invalid, "tracer": tracer,
            "children_peak_mb": peak_servers_mb(servers)}


def _quantiles_ms(values: list[float]) -> dict[str, float]:
    if not values:
        return {}
    return {str(q): round(quantile(values, q) * 1e3, 3)
            for q in (0.5, 0.9, 0.95, 0.99, 1.0)}


async def _register_and_prime(
    server: Server, instance: Any, registers: list[float]
) -> str:
    """Register the instance and serve one (uncached) request."""
    from repro.serve import ServeClient

    client = ServeClient(host=server.host, port=server.port)
    await client.connect()
    try:
        started = time.perf_counter()
        body = await client.request(
            {"op": "register", "instance": instance_payload(instance)}
        )
        registers.append(time.perf_counter() - started)
        if not body.get("ok"):
            raise RuntimeError(f"register failed: {body}")
        primed = await client.request({
            "op": "color", "method": "randomized", "seed": 0,
            "epsilon": EPSILON, "instance_hash": body["instance_hash"],
            "no_cache": True,
        })
        if not primed.get("ok"):
            raise RuntimeError(f"priming request failed: {primed}")
        return body["instance_hash"]
    finally:
        await client.close()


def _color(instance_hash: str, request_seed: int) -> dict[str, Any]:
    return {
        "op": "color", "method": "randomized", "seed": request_seed,
        "epsilon": EPSILON, "instance_hash": instance_hash,
    }


async def _drive(
    server: Server,
    instance_hash: str,
    seed: int,
    seconds: float,
    trace: bool,
    ledger: Ledger,
    invalid: list[str],
    info: dict[str, Any],
) -> dict[str, Any]:
    from repro.serve import ServeClient

    clients = [ServeClient(host=server.host, port=server.port)
               for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    try:
        warmup_s = await _warm_up(clients, instance_hash, seed, invalid, info)
        before = await metrics_snapshot(clients[0])
        window = await _open_loop(clients, instance_hash, seed, seconds, trace,
                                  ledger, invalid)
        after = await metrics_snapshot(clients[0])
    finally:
        for client in clients:
            await client.close()
    window["warmup_s"] = warmup_s
    window["server_miss_s"] = histogram_mean([before], [after], "serve.latency_ms") / 1e3
    window["batch_size_mean"] = histogram_mean([before], [after], "serve.batch_size")
    return window


async def _warm_up(
    clients: list[Any], instance_hash: str, seed: int, invalid: list[str],
    info: dict[str, Any],
) -> float:
    """Closed-loop Zipf traffic until the cache is full and its hit ratio
    steadies."""
    draw = zipf_sampler(seed, "warm-up")
    started = time.perf_counter()
    hits: list[int] = []
    ratios: list[float] = []
    errors = 0

    async def lane(index: int, count: int) -> None:
        nonlocal errors
        client = clients[index % len(clients)]
        for _ in range(count):
            body = await client.request(_color(instance_hash, draw()))
            if not body.get("ok"):
                errors += 1
            hits.append(1 if body.get("cached") else 0)

    while len(ratios) < WARM_MAX_WINDOWS:
        share = WARM_WINDOW // WARM_CONCURRENCY
        await asyncio.gather(*(lane(i, share) for i in range(WARM_CONCURRENCY)))
        ratios.append(mean(hits[-share * WARM_CONCURRENCY:]))
        if (len(ratios) >= WARM_MIN_WINDOWS
                and abs(ratios[-1] - ratios[-2]) < WARM_TOLERANCE):
            status = await clients[0].request({"op": "status"})
            if status.get("cache", {}).get("evictions", 0) > 0:
                break
    else:
        invalid.append(f"cache hit ratio never steadied: {ratios}")
    if errors:
        invalid.append(f"{errors} warm-up requests failed")
    info["warmup_hit_ratios"] = [round(r, 3) for r in ratios]
    return time.perf_counter() - started


async def _open_loop(
    clients: list[Any],
    instance_hash: str,
    seed: int,
    seconds: float,
    trace: bool,
    ledger: Ledger,
    invalid: list[str],
) -> dict[str, Any]:
    draw = zipf_sampler(seed, "window")
    total = int(RATE * seconds)
    loop = asyncio.get_running_loop()
    responses: list[dict[str, Any]] = []
    in_flight = 0
    depth_samples: list[tuple[int, int]] = []
    depth_max = 0
    stop_polling = asyncio.Event()

    async def one(index: int, due: float, request_seed: int) -> None:
        nonlocal in_flight
        sent = time.perf_counter()
        in_flight += 1
        depth_samples.append((index, in_flight))
        record = {"seed": request_seed, "due": due, "sent": sent,
                  "late_s": sent - due, "ok": False}
        try:
            body = await asyncio.wait_for(
                clients[index % len(clients)].request(_color(instance_hash, request_seed)),
                RESPONSE_TIMEOUT_S,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError) as error:
            ledger.fail(f"request {index}: {type(error).__name__}: {error}")
            body = None
        finally:
            in_flight -= 1
        done = time.perf_counter()
        record.update(done=done, op_s=done - due, rtt_s=done - sent)
        if body is not None:
            if body.get("ok"):
                result = body["result"]
                record.update(
                    ok=True, cached=bool(body.get("cached")),
                    digest=result.get("colors_sha256"), colors=result.get("colors"),
                    num_colors=result.get("num_colors"),
                    rounds=result.get("rounds"), messages=result.get("messages"),
                )
                ledger.ok()
            else:
                error = body.get("error") or {}
                record["refused"] = error.get("code") in ("shed", "draining")
                ledger.fail(f"request {index}: {error.get('code')}: {error.get('message')}")
        responses.append(record)

    async def poll_depth() -> None:
        nonlocal depth_max
        while not stop_polling.is_set():
            body = await clients[0].request({"op": "status"})
            depth_max = max(depth_max, body.get("depth", 0))
            try:
                await asyncio.wait_for(stop_polling.wait(), 0.25)
            except asyncio.TimeoutError:
                pass

    # A traced run polls the server's queue depth during the second half
    # of the window only; the first half is its untraced baseline.
    poller = None
    tasks = []
    start = time.perf_counter() + 0.05
    for index in range(total):
        if trace and poller is None and index >= total // 2:
            poller = loop.create_task(poll_depth())
        due = start + index / RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(index, due, draw())))
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - start
    if poller is not None:
        stop_polling.set()
        await poller

    quarter = max(1, total // 4)
    first = mean([depth for index, depth in depth_samples if index < quarter])
    last = mean([depth for index, depth in depth_samples if index >= total - quarter])
    if last - first > BACKLOG_GROWTH:
        invalid.append(
            f"backlog grew: {first:.1f} requests in flight in the first quarter, "
            f"{last:.1f} in the last"
        )
    responses.sort(key=lambda record: record["due"])
    return {"responses": responses, "elapsed_s": elapsed, "depth_max": depth_max}


def _verify(instance: Any, responses: list[dict[str, Any]], ledger: Ledger) -> None:
    """Check every served response against an in-process run.

    Runs after the window.  Each distinct seed is recomputed once with
    ``repro.delta_color`` on the same instance, seed and epsilon; every
    response for it must carry that result's digest, its own colors must
    hash to the digest, and the coloring must pass the oracle.
    """
    import repro

    network = instance.network
    edges = network.edges()
    expected: dict[int, dict[str, Any]] = {}
    for record in responses:
        if not record["ok"]:
            continue
        request_seed = record["seed"]
        if request_seed not in expected:
            result = repro.delta_color(
                network, method="randomized", epsilon=EPSILON, seed=request_seed
            )
            expected[request_seed] = {
                "digest": colors_digest(result.colors),
                "rounds": result.rounds, "messages": result.messages,
            }
        want = expected[request_seed]
        problem = coloring_problem(
            edges, network.n, record["colors"], instance.delta,
            record["num_colors"],
        )
        if problem is None and colors_digest(record["colors"]) != record["digest"]:
            problem = "served colors do not hash to the served colors_sha256"
        if problem is None and record["digest"] != want["digest"]:
            problem = "served colors_sha256 differs from the in-process result"
        if problem is None and (record["rounds"], record["messages"]) != (
            want["rounds"], want["messages"]
        ):
            problem = "served rounds/messages differ from the in-process result"
        if problem is not None:
            ledger.refute(f"seed {request_seed}: {problem}")


def _layers(
    tracer: Tracer,
    instance: Any,
    responses: list[dict[str, Any]],
    window: dict[str, Any],
    generated: list[tuple[float, float]],
    boots: list[float],
    registers: list[float],
    late_p99: float,
) -> dict[str, float]:
    """Per-layer numbers of a traced serve-zipf run.

    Client spans: each request is an op from its due time, with a
    ``serve.request`` child from the actual send.  Server-side layers are
    replayed in process: :func:`repro.serve.execute_batch` on a sample of
    the window's distinct misses, with wrappers around the clique check,
    ``compute_acd``, ``verify_coloring`` and ``Network.run`` and the
    ``repro.obs`` phase tree joined.
    """
    ok = [r for r in responses if r["ok"]]
    for record in responses:
        root = tracer.root("op", record["due"], record["done"])
        tracer.add("serve.request", record["sent"], record["done"], root)
    hits = [r for r in ok if r["cached"]]
    misses = [r for r in ok if not r["cached"]]
    replay = _replay(tracer, instance, [r["seed"] for r in misses])

    transport = mean([r["rtt_s"] for r in hits])
    server_miss = window["server_miss_s"]
    compute = mean(replay["compute"])
    miss_rtt = mean([r["rtt_s"] for r in misses])
    op_total = sum(r["op_s"] for r in ok)
    half = len(responses) // 2
    plain_ops = [r["op_s"] for r in responses[:half] if r["ok"]]
    traced_ops = [r["op_s"] for r in responses[half:] if r["ok"]]
    out = {
        "graphs.generate_ms": tracer.roots("graphs.generate", generated) * 1e3,
        "serve.boot_s": median(boots),
        "serve.register_ms": median(registers) * 1e3,
        "serve.compute_ms_p50": median(replay["compute"]) * 1e3,
        "serve.server_miss_ms_mean": server_miss * 1e3,
        "serve.transport_ms_mean": transport * 1e3,
        "serve.overhead_ms_mean": (server_miss - compute) * 1e3,
        "serve.cache_hit_ratio": len(hits) / len(ok),
        "serve.batch_size_mean": window["batch_size_mean"],
        "serve.queue_depth_max": window["depth_max"],
        "serve.refused": sum(1 for r in responses if r.get("refused")),
        "loadgen.late_ms_p99": late_p99,
        "trace.overhead_ratio": median(traced_ops) / median(plain_ops),
        "trace.coverage": (transport + server_miss) / miss_rtt,
        "unattributed_ms": (miss_rtt - transport - server_miss) * 1e3,
        "acd.share": replay["acd_s"] * len(misses) / op_total,
    }
    out.update(replay["layers"])
    return out


def _replay(tracer: Tracer, instance: Any, seeds: list[int]) -> dict[str, Any]:
    """Replay up to :data:`REPLAYS` distinct misses in process."""
    from repro.serve import make_cache_key, normalize_instance_payload

    instance_hash, payload = normalize_instance_payload(instance_payload(instance))
    jobs = [
        ({"key": make_cache_key(instance_hash, "randomized", request_seed, EPSILON),
          "instance_hash": instance_hash, "method": "randomized",
          "seed": request_seed, "epsilon": EPSILON, "options": {}},
         {instance_hash: payload})
        for request_seed in list(dict.fromkeys(seeds))[:REPLAYS]
    ]
    return replay_batches(tracer, jobs)


def replay_batches(
    tracer: Tracer, jobs: list[tuple[dict[str, Any], dict[str, Any]]]
) -> dict[str, Any]:
    """Time :func:`repro.serve.execute_batch` in process, one spec a batch.

    This is the server's compute step without the server: each call is
    an op with a ``serve.execute_batch`` span, wrapped layer calls
    (clique check, ``compute_acd``, ``verify_coloring``,
    ``Network.run``) inside it, and the ``repro.obs`` phase tree joined.
    The wrappers are installed where the serve and core modules look the
    functions up.
    """
    import repro.acd.decomposition as acd_module
    import repro.core.deterministic as deterministic_module
    import repro.core.randomized as randomized_module
    import repro.graphs.validation as validation_module
    from repro import obs
    from repro.local.network import Network
    from repro.serve import execute_batch

    counts: dict[str, float] = {}
    compute: list[float] = []
    phases = PhaseTotals()
    clique_check = span_wrapper(tracer, "graphs.clique_check")
    verify = span_wrapper(tracer, "verify.check")
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(Network, "run", engine_wrapper(tracer, counts)))
        stack.enter_context(patched(
            acd_module, "compute_acd", span_wrapper(tracer, "acd.compute")
        ))
        stack.enter_context(patched(
            validation_module, "assert_no_delta_plus_one_clique", clique_check
        ))
        for module in (deterministic_module, randomized_module):
            stack.enter_context(patched(
                module, "assert_no_delta_plus_one_clique", clique_check
            ))
            stack.enter_context(patched(module, "verify_coloring", verify))
        for spec, instances in jobs:
            with tracer.op("replay") as op:
                with tracer.span("serve.execute_batch") as batch:
                    with obs.observed() as collector:
                        out = execute_batch([spec], instances)
            if "error" in out[0]:
                raise RuntimeError(f"in-process replay failed: {out[0]['error']}")
            tracer.join_phases(batch, collector.root)
            compute.append(op["end"] - op["start"])
            phases.add(collector.root)
    own = self_times([s for s in tracer.spans if s["name"] != "op"])
    count = len(jobs)
    local_s = own.get("local.run", 0.0)
    layers = {
        "graphs.clique_check_ms": own.get("graphs.clique_check", 0.0) / count * 1e3,
        "acd.compute_ms": own.get("acd.compute", 0.0) / count * 1e3,
        "core.central_ms": central_seconds(tracer.spans) / count * 1e3,
        "local.run_ms": local_s / count * 1e3,
        "local.runs": counts.get("runs", 0) / count,
        "local.messages": counts.get("messages", 0) / count,
        "local.us_per_message": (
            local_s * 1e6 / counts["messages"] if counts.get("messages") else 0.0
        ),
        "verify.check_ms": own.get("verify.check", 0.0) / count * 1e3,
    }
    layers.update(phases.metrics())
    return {"compute": compute, "layers": layers,
            "acd_s": own.get("acd.compute", 0.0) / count}
