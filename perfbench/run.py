"""The repository benchmark: one command, four workloads, every output checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload det-hard --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics.  Every metric of the chosen kind is printed by name and unit;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records
provenance: the machine fingerprint, the workload's reason and its
layer -> metric predictions.  Spans (traced runs) and the full result go
to ``.perfbench/`` in the checkout.

The exit code is 0 only when every op succeeded and passed the output
check (and, for traced runs, the attribution check); any failure exits
1 after printing the result, and a checkout without ``src/repro`` exits
2 without printing one.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Any

from harness import (
    OUT,
    ROOT,
    SRC,
    coloring_problem,
    fingerprint,
    peak_rss_mb,
    samples_beyond,
)

#: Workload -> tail quantile of ``op_ms_tail``, and the layer ->
#: end-to-end metric predictions the benchmark was designed to check.
#: The tail is the highest quantile with at least ten samples beyond it
#: in a run of ``run_seconds``, except serve-zipf, which reports p95:
#: its p99 spread 11% across ten seeds on a 2-vCPU VM and its p90 11%
#: (p90 falls where cache hits give way to misses, so it moves with the
#: hit ratio), against 6% for p95.  Each workload's reason is its
#: ``why`` in BENCHMARK.json.
WORKLOADS: dict[str, dict[str, Any]] = {
    "det-hard": {
        "tail_q": 0.75,
        "predictions": {
            "graphs": ["setup_s", "op_ms_p50"],
            "acd": ["op_ms_p50", "ops_per_s"],
            "core.hard": ["op_ms_p50", "op_ms_tail"],
            "local": ["op_ms_p50"],
            "verify": ["op_ms_p50"],
            "benchmark": ["validity of every other number"],
        },
    },
    "rand-mixed": {
        "tail_q": 0.8,
        "predictions": {
            "graphs": ["setup_s", "op_ms_p50"],
            "acd": ["op_ms_p50", "ops_per_s"],
            "core.easy, core.shatter": ["op_ms_p50", "op_ms_tail"],
            "local": ["op_ms_p50"],
            "verify": ["op_ms_p50"],
            "benchmark": ["validity of every other number"],
        },
    },
    "serve-zipf": {
        "tail_q": 0.95,
        "predictions": {
            "graphs": ["setup_s"],
            "acd": ["op_ms_p50 (far less than on the pipelines)"],
            "serve": ["op_ms_p50", "op_ms_tail", "failed/attempted"],
            "benchmark": ["validity of every other number"],
        },
    },
    "campaign-remote": {
        "tail_q": 0.98,
        "predictions": {
            "graphs": ["setup_s"],
            "serve": ["ops_per_s"],
            "runner": ["ops_per_s"],
            "benchmark": ["validity of every other number"],
        },
    },
}

#: The benchmark's definition: workloads, and the end-to-end
#: (``--trace 0``) and per-layer (``--trace 1``) metrics with their
#: units.  The per-layer ones are the layers every workload runs.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Per-layer metrics of layers that only some workloads run.  A traced
#: run reports the ones its workload measured in its provenance record
#: (``layers``), never as a zero for a layer that did not run.
LAYER_DETAIL = {
    "core.hard.phase1_ms": "ms",
    "core.hard.phase2_ms": "ms",
    "core.hard.phase4a_ms": "ms",
    "core.hard.phase4b_ms": "ms",
    "core.shatter.preshatter_ms": "ms",
    "core.shatter.postprocess_ms": "ms",
    "serve.boot_s": "s",
    "serve.register_ms": "ms",
    "serve.compute_ms_p50": "ms",
    "serve.server_miss_ms_mean": "ms",
    "serve.transport_ms_mean": "ms",
    "serve.overhead_ms_mean": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.batch_size_mean": "count",
    "serve.queue_depth_max": "count",
    "serve.refused": "count",
    "runner.inline_cell_ms_p50": "ms",
    "runner.dispatched": "count",
    "runner.redispatched": "count",
    "runner.requeued": "count",
    "runner.useful_ratio": "ratio",
    "runner.remote_over_inline": "ratio",
    "loadgen.late_ms_p99": "ms",
}

#: Traced pipeline runs must attribute at least this share of op time
#: to layer self times.
MIN_COVERAGE = 0.9

#: Inputs the program is known to fail on: at Delta = 8 both pipelines
#: raise InvariantViolation (Lemma 16) on a few percent of hard-clique
#: graphs, which is why the served and campaign workloads use
#: Delta >= 9.  Every run retries these untimed after its window and
#: records the outcome, so a fix shows.  (method, cliques, Delta, graph
#: seed, seed) at epsilon 1/4.
DEFECT_PROBES = (
    ("deterministic", 24, 8, 100011, None),
    ("randomized", 16, 8, 8, 3),
)


def probe_known_defects() -> list[dict[str, str]]:
    """Run :data:`DEFECT_PROBES` and describe what each one did."""
    from repro import delta_color, generators

    found = []
    for method, cliques, delta, graph_seed, seed in DEFECT_PROBES:
        instance = generators.hard_clique_graph(cliques, delta, seed=graph_seed)
        case = (
            f"delta_color(hard_clique_graph({cliques}, {delta}, "
            f"seed={graph_seed}).network, method={method!r}, "
            f"epsilon=0.25, seed={seed})"
        )
        try:
            result = delta_color(
                instance.network, method=method, epsilon=0.25, seed=seed
            )
        except Exception as error:
            outcome = f"raises {type(error).__name__}: {error}"
        else:
            problem = coloring_problem(
                instance.network.edges(), instance.n, result.colors, delta,
                result.num_colors,
            )
            outcome = "passes the output check" if problem is None else problem
        found.append({"case": case, "outcome": outcome})
    return found


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[workload["name"] for workload in SPEC["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated benchmark unwinds normally, so the ``finally`` blocks
    # drain every server it booted.
    signal.signal(signal.SIGTERM, _terminate)

    spec = WORKLOADS[args.workload]
    reasons = {workload["name"]: workload["why"] for workload in SPEC["workloads"]}
    trace = bool(args.trace)
    started = time.perf_counter()
    if args.workload in ("det-hard", "rand-mixed"):
        import pipeline

        outcome = pipeline.run(
            args.workload, args.seed, args.seconds, trace, spec["tail_q"]
        )
    elif args.workload == "serve-zipf":
        import serving

        outcome = serving.run(args.seed, args.seconds, trace, spec["tail_q"])
    else:
        import campaign

        outcome = campaign.run(args.seed, args.seconds, trace, spec["tail_q"])
    ledger = outcome["ledger"]
    known_defects = probe_known_defects()
    measured = dict(outcome["metrics"])
    measured["peak_rss_mb"] = max(peak_rss_mb(), outcome.get("children_peak_mb", 0.0))

    info = outcome.get("info", {})
    if info.get("latency_samples"):
        info["tail_samples_beyond"] = samples_beyond(
            info["latency_samples"], spec["tail_q"]
        )
    problems = list(ledger.reasons)
    problems.extend(outcome.get("invalid", []))
    if trace and args.workload in ("det-hard", "rand-mixed"):
        if measured["trace.coverage"] < MIN_COVERAGE:
            problems.append(
                f"layer self times cover {measured['trace.coverage']:.3f} "
                f"of traced op time, below {MIN_COVERAGE}"
            )
    names = PER_LAYER if trace else END_TO_END
    missing = [name for name in names if name not in measured]
    if missing and not ledger.failed:
        problems.append(f"not measured: {', '.join(missing)}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    layers = {
        name: {"value": float(measured[name]), "unit": unit}
        for name, unit in LAYER_DETAIL.items() if trace and name in measured
    }
    correct = ledger.failed == 0 and not problems

    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": reasons[args.workload],
        "tail_quantile": spec["tail_q"],
        "predictions": spec["predictions"],
        "machine": fingerprint(),
        "layers": layers,
        "info": info,
        "problems": problems,
        "known_defects": known_defects,
        "wall_s": time.perf_counter() - started,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        outcome["tracer"].write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=1)
    )
    for name, metric in {**metrics, **layers}.items():
        print(f"{name:32s} {metric['value']:14.4f} {metric['unit']}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for defect in known_defects:
        print(f"KNOWN DEFECT: {defect['case']}: {defect['outcome']}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
