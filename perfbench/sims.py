"""The two simulation workloads: ``gla-soak`` and ``la-wide``.

Both run on the ``turbo`` engine under its default delay model (uniform
random per-message delay in simulated time units, drawn from the engine
seed), so every decision, message count and simulated latency is a pure
function of the seed; only wall time varies between runs.
"""

from __future__ import annotations

import contextlib
import gc
import time
from functools import partial

from common import Deadline, HostWatch, Measurement, median, own_peak_rss_mb
from layers import state_sizes, trace_broadcast, trace_cores, trace_crypto, trace_engine, trace_lattice
from spans import Tracer

#: One long open-loop GWTS stream: a new distinct value every ``interval``
#: simulated time units, round-robin over the proposers.
GLA_SOAK = {"n": 4, "f": 1, "values": 100, "interval": 5.0}
#: One-shot LA at the widest size the paper's bound allows for n = 40.
LA_WIDE = {"n": 40, "f": 13}

#: Build-only repetitions per run that feed ``setup_s`` besides the real units.
SETUP_PROBES = 25


class _Built(Exception):
    """Raised by a probing engine once the scenario is built."""


class SetupClock:
    """Timestamp every entry into ``TurboEngine.run``.

    A scenario builder constructs the engine and the cores, then calls
    ``run``: the time from the builder call to that entry is the set-up
    time.  While probing, entry raises instead, so a scenario can be built
    without being run.
    """

    def __init__(self) -> None:
        self.entries: list[float] = []
        self.probing = False

    def __enter__(self) -> SetupClock:
        from repro.engine.turbo_backend import TurboEngine

        self._engine_cls = TurboEngine
        self._original = original = TurboEngine.__dict__["run"]

        def run(engine, *args, **kwargs):
            self.entries.append(time.perf_counter())
            if self.probing:
                raise _Built
            return original(engine, *args, **kwargs)

        TurboEngine.run = run
        return self

    def __exit__(self, *_exc) -> None:
        self._engine_cls.run = self._original

    def timed(self, builder, **kwargs):
        """``(result, setup_s, wall_s)`` of one builder call."""
        start = time.perf_counter()
        result = builder(**kwargs)
        wall = time.perf_counter() - start
        return result, self.entries[-1] - start, wall

    def probe(self, builder, **kwargs) -> float:
        """Set-up time of one build that is not run."""
        self.probing = True
        start = time.perf_counter()
        try:
            builder(**kwargs)
        except _Built:
            pass
        finally:
            self.probing = False
        return self.entries[-1] - start


def _simulate(
    m: Measurement,
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    builders: list,
    core_classes: list,
    core_after,
    on_unit,
) -> None:
    """Probe set-up, then run ``builders`` in turn until the window closes.

    Units of work start only while the window is open, and each builder
    runs at least once.  Every repetition runs with engine seed ``seed``,
    so repetitions of one builder are identical work.  ``on_unit(index, result, wall)`` checks
    one finished scenario; ``wall`` is at reference host speed.
    """
    with SetupClock() as clock:
        with HostWatch() as host:
            probes = [clock.probe(builders[probe % len(builders)], seed=seed) for probe in range(SETUP_PROBES)]
        m.setup_s += [probe / host.slowdown for probe in probes]
        if tracer is not None:
            trace_lattice(tracer)
            trace_cores(tracer, core_classes, after=core_after)
            trace_broadcast(tracer)
            trace_crypto(tracer)
            trace_engine(tracer)
        try:
            deadline = Deadline(seconds)
            index = 0
            while index < len(builders) or deadline.open():
                # Every unit starts from a collected heap: otherwise when the
                # cyclic collector fires depends on the units before, which
                # moved identical WTS instances by +-20%.
                gc.collect()
                with HostWatch() as host:
                    result, setup, wall = clock.timed(builders[index % len(builders)], seed=seed)
                m.setup_s.append(setup / host.slowdown)
                m.busy_s += wall
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    on_unit(index, result, wall / host.slowdown)
                history, instances = state_sizes(result.nodes.values())
                m.layers["core.ack_history_len"] = history
                m.layers["broadcast.instances"] = instances
                index += 1
        finally:
            if tracer is not None:
                tracer.restore()
    m.peak_rss_mb = own_peak_rss_mb()


def gla_soak(seed: int, seconds: float, tracer: Tracer | None) -> Measurement:
    from repro.core.gwts import GWTSProcess
    from repro.harness import run_open_loop_scenario

    m = Measurement()
    stream = partial(run_open_loop_scenario, backend="turbo", **GLA_SOAK)
    rounds: dict[int, float] = {}
    firsts: list[float] = []
    lasts: list[float] = []

    def on_stream(index: int, result, wall: float) -> None:
        report = result.extras["open_loop"]
        check = result.check_gla()
        m.attempted += report.offered
        if not check.ok:
            m.fail(report.offered, f"stream {index}: check_gla failed: {check}")
            m.rates.append(0.0)
        else:
            m.units += report.decided
            m.rates.append(report.decided / wall)
            if report.decided < report.offered:
                m.fail(report.offered - report.decided, f"stream {index}: undecided values")
        if index == 0:
            m.layers["gla.decide_latency_tail"] = m.report_tail("gla.decide_latency", _decide_latencies(result), "sim-t")
            m.layers["gla.decide_latency_p50"] = m.report["gla.decide_latency_p50"][0]
            decisions = len(result.metrics.decisions)
            m.layers["engine.msgs_per_decision"] = result.metrics.total_sent / max(1, decisions)
        if rounds:
            first, last = _round_ms(rounds)
            firsts.append(first)
            lasts.append(last)
            rounds.clear()

    after = _round_clock(rounds) if tracer is not None else None
    _simulate(m, seed, seconds, tracer, [stream], [GWTSProcess], after, on_stream)
    m.layers["core.round_ms.first"] = median(firsts)
    m.layers["core.round_ms.last"] = median(lasts)
    m.report["gla.values_per_s"] = (m.units / m.busy_s, "values/s (wall clock, not host-adjusted)")
    return m


def _round_clock(rounds: dict[int, float]):
    """Core-hook callback recording when any core first reached each round."""
    clock = time.perf_counter

    def after(args, _result) -> None:
        round_no = args[0].round
        if round_no not in rounds:
            rounds[round_no] = clock()

    return after


def _round_ms(rounds: dict[int, float]) -> tuple[float, float]:
    """Mean wall ms per round over the first and the last tenth of rounds."""
    stamps = [rounds[key] for key in sorted(rounds) if key >= 0]
    gaps = [(later - earlier) * 1000.0 for earlier, later in zip(stamps, stamps[1:])]
    if not gaps:
        return 0.0, 0.0
    tenth = max(1, len(gaps) // 10)
    return sum(gaps[:tenth]) / tenth, sum(gaps[-tenth:]) / tenth


def _decide_latencies(result) -> list[float]:
    """Per-value decide latency of one open-loop stream, in simulated time.

    The open-loop report keeps only a summary, so the samples are rebuilt
    with its rule: value ``i`` (``"load-i"``) arrives at ``(i + 1) *
    interval`` at proposer ``i mod n``, and is decided by that proposer's
    first decision at or after the arrival that includes it.
    """
    report = result.extras["open_loop"]
    lattice = result.lattice
    pids = list(result.nodes)
    records = sorted(result.metrics.decisions, key=lambda record: record.time)
    samples = []
    for index in range(report.offered):
        pid = pids[index % len(pids)]
        arrived = (index + 1) * report.interval
        element = lattice.lift(f"load-{index}")
        for record in records:
            if record.pid == pid and record.time >= arrived and lattice.leq(element, record.value):
                samples.append(record.time - arrived)
                break
    return samples


def la_wide(seed: int, seconds: float, tracer: Tracer | None) -> Measurement:
    from repro.core.sbs import SbSProcess
    from repro.core.wts import WTSProcess
    from repro.harness import run_sbs_scenario, run_wts_scenario

    m = Measurement()
    kinds = ("wts", "sbs")
    builders = [partial(builder, backend="turbo", **LA_WIDE) for builder in (run_wts_scenario, run_sbs_scenario)]
    walls: dict[str, list[float]] = {kind: [] for kind in kinds}
    first_pair = {"sent": 0, "decisions": 0}

    def on_instance(index: int, result, wall: float) -> None:
        kind = kinds[index % 2]
        walls[kind].append(wall)
        correct = result.correct_pids
        decisions = result.decisions()
        decided = sum(1 for pid in correct if decisions[pid])
        check = result.check_la()
        m.attempted += len(correct)
        if not check.ok:
            m.fail(len(correct), f"{kind} instance {index}: check_la failed: {check}")
        else:
            m.units += decided
            if decided < len(correct):
                m.fail(len(correct) - decided, f"{kind} instance {index}: undecided processes")
        if index < 2:
            first_pair["sent"] += result.metrics.total_sent
            first_pair["decisions"] += len(result.metrics.decisions)

    _simulate(m, seed, seconds, tracer, builders, [WTSProcess, SbSProcess], None, on_instance)
    # One pair's throughput from the median WTS and the median SbS
    # instance: the two halves differ twofold in cost, so they are not pooled.
    per_pair = 2 * LA_WIDE["n"] if not m.failed else 0
    m.rates.append(per_pair / (median(walls["wts"]) + median(walls["sbs"])))
    m.layers["engine.msgs_per_decision"] = first_pair["sent"] / max(1, first_pair["decisions"])
    m.report["la.decisions_per_s"] = (m.units / m.busy_s, "decisions/s (wall clock, not host-adjusted)")
    for kind, samples in walls.items():
        m.report[f"la.{kind}_instance_s"] = (median(samples), f"s at reference host speed (median of {len(samples)})")
    return m
