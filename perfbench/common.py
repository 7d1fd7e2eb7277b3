"""Shared helpers: statistics, speed calibration, memory, inputs and
the result line.

Every timing the benchmark reports is summarized the same way: the
median and a *tail*, the highest percentile that still has at least
ten samples beyond it at the run's fixed sample count (so a run of 200
samples reports p95, a run of 40 reports p75).

The end-to-end times are *speed-normalized*.  On a shared host the
CPU speed a process gets drifts by a fifth or more over tens of
seconds, which moves every wall-clock median with it.  Each run
therefore pins itself and every process it starts to one CPU, times a
fixed calibration job (plain Python and NumPy work, none of the
program's code) on that CPU between its operations, and scales its
times by ``REFERENCE_CALIBRATION_S / median(calibration samples)``: a
time reads as it would on a CPU running the calibration job at the
reference speed.  The raw times and the factor are printed beside
them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Samples that must lie beyond a reported tail value.
TAIL_BEYOND = 10


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    Exits with status 2 when the sources are missing (a directory that
    holds only the benchmark), before any result line is printed."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no sources at {SRC}; run it from the "
                         "root of a repository checkout\n")
        raise SystemExit(2)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def pin_to_one_cpu() -> "int | None":
    """Pin this process, and so every process it starts, to the
    highest-numbered CPU it may use; None where that is not allowed."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> "tuple[float, float]":
    """``(value, percentile)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` samples above it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, "
                         f"got {len(ordered)}")
    index = len(ordered) - TAIL_BEYOND - 1
    return float(ordered[index]), 100.0 * (index + 1) / len(ordered)


def chunked_tail(values, chunk: int) -> "tuple[float, float]":
    """:func:`tail` of each consecutive *chunk* samples, median over the
    chunks: a high percentile of a long stream that one stall does not
    move.  Returns ``(value, percentile)``."""
    tails = [tail(values[first:first + chunk])
             for first in range(0, len(values) - chunk + 1, chunk)]
    return median(value for value, _pct in tails), tails[0][1]


#: Median calibration-job time on the 2-vCPU Linux host the benchmark
#: was tuned on; normalized times read as on a host this fast.
REFERENCE_CALIBRATION_S = 0.024


def calibration_sample() -> float:
    """Seconds one fixed job takes now: dict and integer work in the
    interpreter, then sorting and de-duplicating NumPy arrays."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(25000):
        total += i * i
        table[i & 1023] = (total, i)
    values = np.arange(40000)[::-1].copy()
    for _ in range(6):
        np.unique(np.sort(values) % 4000)
    return time.perf_counter() - start


class SpeedGauge:
    """Calibration samples taken through a run, and the factor that
    scales the run's times to the reference speed."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self) -> None:
        self.samples.append(calibration_sample())

    def factor(self) -> float:
        return REFERENCE_CALIBRATION_S / median(self.samples)


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS mark to its current RSS (Linux
    ``clear_refs``); returns False where the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set size in MiB (``VmHWM``) of *pid* or of this
    process."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is not None:
        raise RuntimeError(f"cannot read the peak RSS of process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def node_name(node) -> str:
    """Edge-list name of a generated node: ``(copy, id)`` becomes
    ``"copy_id"`` — never integer-looking, so the loader keeps it a
    string, as ``serve --graph`` users' node names are."""
    if isinstance(node, tuple):
        return "_".join(str(part) for part in node)
    return f"n{node}"


def write_edge_list(graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for source, label, target in graph.edges():
            handle.write(f"{node_name(source)} {label} "
                         f"{node_name(target)}\n")


def pair_digest(pairs) -> str:
    """Order-independent SHA-256 of a node-pair set."""
    lines = sorted(f"{source!r}\t{target!r}" for source, target in pairs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class CheckFailed(Exception):
    """An output of the program did not match its expected value."""


class Result:
    """What one run measured: end-to-end metrics, per-layer metrics,
    operation counts, and the text lines printed before the result."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.end_to_end: dict = {}
        self.per_layer: dict = {}
        self.attempted = 0
        self.failed = 0
        self.info: list = []

    def e2e(self, name: str, value: float, unit: str) -> None:
        self.end_to_end[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.per_layer[name] = (float(value), unit)

    def note(self, name: str, value, unit: str = "") -> None:
        """A figure printed for the reader but not part of the result
        line (the workload's own op latencies, sample counts, rates)."""
        self.info.append((name, value, unit))

    def render(self, trace: bool, correct: bool = True) -> str:
        metrics = self.per_layer if trace else self.end_to_end
        return json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        })

    def text_lines(self, trace: bool) -> "list[str]":
        lines = [f"{self.workload} {name} {value} {unit}".rstrip()
                 for name, value, unit in self.info]
        metrics = self.per_layer if trace else self.end_to_end
        lines += [f"{self.workload} {name} {value:.6g} {unit}"
                  for name, (value, unit) in metrics.items()]
        return lines
