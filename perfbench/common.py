"""What every workload returns, and the statistics the report uses."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(data: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted ``data``."""
    rank = max(1, math.ceil(pct / 100.0 * len(data)))
    return data[rank - 1]


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """``(percentile, value, samples)`` at the highest percentile that still
    has at least ten samples beyond it, or ``None`` below 40 samples."""
    data = sorted(samples)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * len(data)))
        if len(data) - rank >= 10:
            return pct, data[rank - 1], len(data)
    return None


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


#: Time of :func:`reference_s` on an undisturbed host (2-vCPU VM, Python 3.11).
REFERENCE_S = 0.0065


def reference_s() -> float:
    """Fastest of three runs of a fixed pure-Python loop: the host's speed now."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


class HostWatch:
    """How much slower than undisturbed the host ran over a block.

    The reference loop runs right before and right after the block;
    ``slowdown`` is their mean over :data:`REFERENCE_S`.  Dividing a wall
    time by it gives the time at reference host speed.
    """

    def __enter__(self) -> HostWatch:
        self.before = reference_s()
        return self

    def __exit__(self, *_exc) -> None:
        self.after = reference_s()

    @property
    def slowdown(self) -> float:
        return (self.before + self.after) / 2 / REFERENCE_S


class Deadline:
    """A measuring window: work units start only while it is open."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def open(self) -> bool:
        return time.perf_counter() < self.end


@dataclass
class Measurement:
    """One measuring window of one workload.

    ``units`` counts the workload's unit of work (a decided value, a
    correct-process decision, a client operation, a campaign job) and
    ``busy_s`` the wall time spent producing them.  ``rates`` holds one
    throughput sample per repetition (stream, instance pair, cluster
    session, campaign) at reference host speed (see :class:`HostWatch`);
    the reported throughput is their median.  ``setup_s`` samples are at
    reference host speed too.  ``attempted``/``failed`` count units, a
    failed output check charging every unit it covered.
    """

    units: int = 0
    busy_s: float = 0.0
    rates: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Issue-named figures for the human-readable report: name -> (value, unit).
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer figures the workload measures itself: name -> value.
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return median(self.rates)

    def fail(self, units: int, why: str) -> None:
        self.failed += units
        self.problems.append(why)

    def report_tail(self, name: str, samples: list[float], unit: str) -> float:
        """Record the p50 and the supported tail of ``samples`` under ``name``."""
        data = sorted(samples)
        self.report[f"{name}_p50"] = (percentile(data, 50.0) if data else 0.0, unit)
        found = tail(data)
        if found is None:
            self.report[f"{name}_tail"] = (0.0, f"{unit} (n={len(data)}: too few for a tail)")
            return 0.0
        pct, value, count = found
        self.report[f"{name}_tail"] = (value, f"{unit} (p{pct:g}, n={count})")
        return value
