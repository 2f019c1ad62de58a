"""Shared pieces of the benchmark: statistics, the output oracle, the
failure ledger, host speed, memory and provenance.

Nothing here imports ``repro``: the output oracle is deliberately
independent of the program it checks.  Brooks' theorem guarantees that
every input the workloads generate (connected, Delta >= 3, no
(Delta+1)-clique) has a proper Delta-coloring, so the oracle needs no
knowledge of the algorithm: it checks properness and the palette.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Sequence

#: Root of the checkout the benchmark runs from; ``src/`` holds the
#: program, ``.perfbench/`` receives span files and full results.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q`` quantile."""
    return count - 1 - int(q * (count - 1))


# ----------------------------------------------------------------------
# The output oracle.
# ----------------------------------------------------------------------


def coloring_problem(
    edges: Iterable[tuple[int, int]], n: int, colors: Any, delta: int,
    num_colors: Any,
) -> str | None:
    """Why ``colors`` is not a proper Delta-coloring, or None when it is.

    Checks exactly what Brooks' theorem promises for these inputs: one
    color per vertex, every color in ``range(delta)``, the result claims
    exactly ``delta`` colors, and no edge is monochromatic.
    """
    if num_colors != delta:
        return f"result claims {num_colors} colors, Delta is {delta}"
    if not isinstance(colors, list) or len(colors) != n:
        return f"expected {n} colors"
    for vertex, color in enumerate(colors):
        if type(color) is not int or not 0 <= color < delta:
            return f"vertex {vertex} has color {color!r} outside [0, {delta})"
    for u, v in edges:
        if colors[u] == colors[v]:
            return f"edge ({u}, {v}) is monochromatic (color {colors[u]})"
    return None


def connected(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the graph on ``range(n)`` is connected (breadth-first)."""
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        for w in neighbors[queue.popleft()]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                queue.append(w)
    return reached == n


def brooks_precondition(n: int, edges: list[tuple[int, int]], delta: int) -> str | None:
    """Why Brooks' theorem does not promise a Delta-coloring, or None.

    The promise needs a connected graph with maximum degree ``delta``
    >= 3 and no (Delta+1)-clique.  A (Delta+1)-clique is the closed
    neighborhood of any of its members, so checking each degree-Delta
    vertex's closed neighborhood finds one.
    """
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    if delta < 3 or max(len(s) for s in neighbors) != delta:
        return f"maximum degree is not Delta = {delta} >= 3"
    if not connected(n, edges):
        return "graph is not connected"
    for v in range(n):
        if len(neighbors[v]) != delta:
            continue
        closed = neighbors[v] | {v}
        if all(len(neighbors[u] & closed) == delta for u in neighbors[v]):
            return f"(Delta+1)-clique around vertex {v}"
    return None


def colors_digest(colors: list[int]) -> str:
    """The served ``colors_sha256`` of a coloring (the protocol's digest)."""
    return hashlib.sha256(
        json.dumps(colors, separators=(",", ":")).encode()
    ).hexdigest()


def row_bytes(row: dict[str, Any]) -> bytes:
    """Canonical bytes of a campaign row, for byte-identity checks."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")).encode()


class Ledger:
    """Counts attempted and failed ops and keeps the first failures.

    Every op the benchmark times is recorded here exactly once: either
    :meth:`ok` or :meth:`fail`.  A failure is any of an exception, an
    error or refused response, a timeout, or an output the oracle
    rejects; the run is correct only with no failures.
    """

    def __init__(self, keep: int = 20) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._keep = keep

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < self._keep:
            self.reasons.append(reason)

    def refute(self, reason: str) -> None:
        """Turn an op already counted as ok into a failure (late checks)."""
        self.failed += 1
        if len(self.reasons) < self._keep:
            self.reasons.append(reason)


# ----------------------------------------------------------------------
# Host speed.
# ----------------------------------------------------------------------

#: Iterations of the reference loop, and its median wall seconds on the
#: 2-vCPU Intel Xeon (2.1 GHz) VM with Python 3.11 the benchmark was
#: calibrated on.
REFERENCE_ITERATIONS = 300_000
REFERENCE_S = 0.0245


def reference_seconds() -> float:
    """Wall seconds of one run of a fixed pure-Python loop.

    The loop is the benchmark's own code, so only the host's speed moves
    it, never a change to the program.
    """
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


class HostSpeed:
    """Reference-loop samples taken during one run.

    On a shared host the speed a process gets drifts by 20-30% over
    minutes, and a ``delta_color`` op slows down with the reference loop
    when it does.  A timing multiplied by :meth:`scale` reads as it would
    at the calibrated speed, which takes that drift out of the
    comparison between runs made minutes apart.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> float:
        """Run the reference ``count`` times; return the last sample."""
        for _ in range(count):
            self.samples.append(reference_seconds())
        return self.samples[-1]

    def scale(self) -> float:
        return REFERENCE_S / median(self.samples)

    def info(self) -> dict[str, float]:
        return {
            "reference_ms_p50": median(self.samples) * 1e3,
            "reference_samples": len(self.samples),
            "scale": self.scale(),
        }


# ----------------------------------------------------------------------
# Memory and provenance.
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children.

    ``RUSAGE_CHILDREN`` covers every descendant that has been waited for
    (a server reports its pool workers when it drains), so call this
    after the servers have exited.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over every ``src/`` Python file (path and bytes).

    Identifies the code measured when the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> dict[str, Any]:
    """Machine and code fingerprint recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": _git_commit() or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
    }
