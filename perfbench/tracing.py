"""Benchmark-side spans: recorded around calls into ``repro``'s layers.

The program itself is not instrumented for this benchmark.  Spans come
from two sources, both outside ``src/``:

* :class:`Tracer` spans opened by the benchmark around public calls
  (generators, ``compute_acd``, ``delta_color``, ``verify_coloring``,
  ``execute_batch``, ``run_cell``, the protocol client), plus wrappers
  the benchmark installs for the duration of a traced run
  (:func:`patched`) around ``Network.run`` and a few module-level
  functions the serve and runner layers look up at call time;
* the program's own ``repro.obs`` phase tree, joined under the span
  that was open when it was collected (:meth:`Tracer.join_phases`).

Each op gets one trace id; every span carries its parent's id.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span recorder with per-op trace ids."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._next_id = 0
        self._trace = 0

    @property
    def active(self) -> bool:
        """Whether an op is open (wrappers record nothing outside ops)."""
        return bool(self._stack)

    def _new_span(self, name: str, parent: dict[str, Any] | None) -> dict[str, Any]:
        self._next_id += 1
        record = {
            "trace": self._trace,
            "id": self._next_id,
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def op(self, name: str) -> Iterator[dict[str, Any]]:
        """Open a root span with a fresh trace id."""
        self._trace += 1
        with self.span(name) as record:
            yield record

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        record = self._new_span(name, parent)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def root(self, name: str, start: float, end: float) -> dict[str, Any]:
        """Record a finished root span measured elsewhere (an open-loop
        request is timed from its due time, a concurrent call by its own
        clock reads)."""
        self._trace += 1
        record = self._new_span(name, None)
        record["start"], record["end"] = start, end
        return record

    def roots(self, name: str, intervals: list[tuple[float, float]]) -> float:
        """Record one root span per ``(start, end)``; their mean seconds."""
        for start, end in intervals:
            self.root(name, start, end)
        return sum(end - start for start, end in intervals) / max(len(intervals), 1)

    def add(self, name: str, start: float, end: float, parent: dict[str, Any]) -> dict[str, Any]:
        """Record a finished span measured elsewhere (concurrent calls)."""
        record = self._new_span(name, parent)
        record["trace"] = parent["trace"]
        record["start"], record["end"] = start, end
        return record

    def join_phases(self, parent: dict[str, Any], root: Any) -> None:
        """Attach a ``repro.obs`` span tree under ``parent``.

        The collector aggregates wall time per phase label (no start
        times), so joined records carry a duration only and are marked
        ``"phase": true``; they break a layer span down but take no part
        in self-time accounting, which would double-count the engine
        runs the phases contain.  ``parent`` gets ``phase_s``, the wall
        time of the top-level phases, for :func:`central_seconds`.
        """
        parent["phase_s"] = sum(child.wall_seconds for child in root.children)

        def walk(record: Any, into: dict[str, Any]) -> None:
            for child in record.children:
                self._next_id += 1
                joined = {
                    "trace": parent["trace"],
                    "id": self._next_id,
                    "parent": into["id"],
                    "name": f"core.phase:{child.label}",
                    "phase": True,
                    "duration": child.wall_seconds,
                    "rounds": child.rounds,
                    "messages": child.messages,
                    "executed_rounds": child.executed_rounds,
                }
                self.spans.append(joined)
                walk(child, joined)

        walk(root, parent)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Total self time (seconds) per span name, phase records excluded.

    A span's self time is its duration minus the union of the intervals
    its children cover (children of concurrent client calls overlap, so
    a plain sum would over-subtract).
    """
    timed = [record for record in spans if not record.get("phase")]
    children: dict[int, list[dict[str, Any]]] = {}
    for record in timed:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    totals: dict[str, float] = {}
    for record in timed:
        covered = covered_time(
            [(c["start"], c["end"]) for c in children.get(record["id"], ())],
            record["start"], record["end"],
        )
        own = record["end"] - record["start"] - covered
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def central_seconds(spans: list[dict[str, Any]]) -> float:
    """Time in the ``repro.obs`` phases not spent in benchmark spans.

    This is the core layer's own time: the wall time of the top-level
    phases joined by :meth:`Tracer.join_phases`, minus the outermost
    wrapped calls (``Network.run``, ``compute_acd``, ...) made while a
    phase was open.  Whatever ``delta_color`` does outside every phase is
    left out, so it shows as unattributed time.
    """
    timed = {record["id"]: record for record in spans if not record.get("phase")}
    phases = sum(record.get("phase_s", 0.0) for record in timed.values())
    inner = sum(
        record["end"] - record["start"]
        for record in timed.values()
        if record.get("in_phase")
        and not timed.get(record["parent"], {}).get("in_phase")
    )
    return phases - inner


def in_phase_check() -> Callable[[], bool]:
    """Build a test for whether a ``repro.obs`` phase is open now."""
    from repro.obs import active_collector

    def check() -> bool:
        collector = active_collector()
        return collector is not None and collector.current_span is not collector.root

    return check


def covered_time(
    intervals: list[tuple[float, float]], low: float, high: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


#: Per-layer core metrics and the obs phase labels they sum.  A workload
#: reports the ones whose phases ran in it.
CORE_PHASES = {
    "core.hard.phase1_ms": "hard/phase1",
    "core.hard.phase2_ms": "hard/phase2",
    "core.hard.phase4a_ms": "hard/phase4a",
    "core.hard.phase4b_ms": "hard/phase4b",
    "core.shatter.preshatter_ms": "preshatter",
    "core.shatter.postprocess_ms": "postprocess",
}


def phase_seconds(root: Any, prefix: str) -> float | None:
    """Wall seconds of the outermost obs spans labelled ``prefix`` or
    below it (nested matches are not counted twice); None if none ran."""
    total = None
    for child in root.children:
        label = child.label
        if label == prefix or label.startswith(prefix + "/"):
            inner = child.wall_seconds
        else:
            inner = phase_seconds(child, prefix)
        if inner is not None:
            total = (total or 0.0) + inner
    return total


class PhaseTotals:
    """Mean per-op wall time of the :data:`CORE_PHASES` (plus classify
    and easy), over the obs trees of a run's traced ops."""

    PHASES = {"core.classify_ms": "classify", "core.easy_ms": "easy", **CORE_PHASES}

    def __init__(self) -> None:
        self.ops = 0
        self.seconds: dict[str, float] = {}
        self.executed_rounds = 0

    def add(self, root: Any) -> None:
        self.ops += 1
        self.executed_rounds += executed_rounds(root)
        for name, label in self.PHASES.items():
            seconds = phase_seconds(root, label)
            if seconds is not None:
                self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        out = {name: total / ops * 1e3 for name, total in self.seconds.items()}
        out["local.executed_rounds"] = self.executed_rounds / ops
        return out


def executed_rounds(root: Any) -> int:
    return sum(
        child.executed_rounds + executed_rounds(child) for child in root.children
    )


@contextmanager
def patched(owner: Any, name: str, make: Callable[[Any], Any]) -> Iterator[None]:
    """Replace ``owner.name`` by ``make(original)`` for the block."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def engine_wrapper(tracer: Tracer, counts: dict[str, float]) -> Callable[[Any], Any]:
    """Build a ``Network.run`` replacement that records a ``local.run``
    span and counts runs, simulated rounds and messages."""

    def make(original: Any) -> Any:
        in_phase = in_phase_check()

        def run(network: Any, algorithm: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(network, algorithm, **kwargs)
            with tracer.span("local.run") as record:
                record["in_phase"] = in_phase()
                result = original(network, algorithm, **kwargs)
            counts["runs"] = counts.get("runs", 0) + 1
            counts["messages"] = counts.get("messages", 0) + result.messages
            counts["rounds"] = counts.get("rounds", 0) + result.rounds
            return result

        return run

    return make


def span_wrapper(tracer: Tracer, name: str) -> Callable[[Any], Any]:
    """Build a replacement that runs the original inside a span."""

    def make(original: Any) -> Any:
        in_phase = in_phase_check()

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(name) as record:
                record["in_phase"] = in_phase()
                return original(*args, **kwargs)

        return wrapped

    return make
