"""End-to-end benchmark of the BGLA reproduction, with a per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload gla-soak --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``gla-soak``    long-lived GLA (GWTS, n=4, f=1) under one open-loop stream;
* ``la-wide``     one-shot LA at n=40, f=13, WTS and SbS instances in turn;
* ``rsm-cluster`` the RSM on a fresh 4-process cluster over localhost TCP;
* ``campaign``    a coverage-guided ``repro explore`` campaign finishing.

With ``--trace 0`` the run measures untraced for ``--seconds`` and reports
the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` it
measures the same inputs untraced for half the window, then traced for the
other half, and reports the per-layer metrics (``trace.overhead`` is the
traced throughput over the untraced one).  Every run checks its outputs;
the last line of standard output is one JSON object, and the exit code is
1 when an output check failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"


def _workloads() -> dict:
    """Workload name -> ``f(seed, seconds, tracer) -> Measurement``."""
    from campaign import campaign
    from rsm_cluster import rsm_cluster
    from sims import gla_soak, la_wide

    return {
        "gla-soak": gla_soak,
        "la-wide": la_wide,
        "rsm-cluster": partial(rsm_cluster, workdir=WORKDIR),
        "campaign": partial(campaign, workdir=WORKDIR),
    }


def end_to_end(m) -> dict[str, float]:
    from common import median

    return {"throughput": m.throughput, "setup_s": median(m.setup_s), "peak_rss_mb": m.peak_rss_mb}


def per_layer(tracer, traced, plain) -> dict[str, float]:
    """Per-layer figures: span aggregates of the traced half, per unit of work.

    Latencies of the RSM and the open-loop stream and the set-up time come
    from the untraced half; everything else from the traced half.
    """
    from common import median

    units = max(1, traced.units)
    calls = tracer.calls
    counters = tracer.counters
    values = {
        "lattice.calls": tracer.layer_calls("lattice") / units,
        "core.calls": tracer.layer_calls("core") / units,
        "broadcast.calls": tracer.layer_calls("broadcast") / units,
        "crypto.sign_calls": calls["crypto.sign"] / units,
        "crypto.verify_calls": calls["crypto.verify"] / units,
        "engine.events": counters["engine.events"] / units,
        "engine.stop_checks": counters["engine.stop_checks"] / units,
        "wire.frames": counters["wire.frames"] / units,
        "wire.bytes": counters["wire.bytes"] / units,
        "cluster.link_backlog_bytes": tracer.maxima.get("cluster.link_backlog_bytes", 0),
        "harness.build_s": median(plain.setup_s),
        "trace.overhead": traced.throughput / plain.throughput if plain.throughput else 0.0,
    }
    for layer in ("lattice", "core", "broadcast", "crypto", "engine", "wire"):
        values[f"{layer}.self_s"] = tracer.self_s[layer] / units
    values.update(traced.layers)
    values.update({key: value for key, value in plain.layers.items() if key.startswith(("rsm.", "gla."))})
    return values


def measure(name: str, seed: int, seconds: float, trace: int):
    """``(measurement, metric values)`` of one run of workload ``name``."""
    from spans import Tracer

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    workload = _workloads()[name]
    if not trace:
        measured = workload(seed, seconds, None)
        return measured, end_to_end(measured)
    plain = workload(seed, seconds / 2, None)
    tracer = Tracer()
    measured = workload(seed, seconds / 2, tracer)
    values = per_layer(tracer, measured, plain)
    measured.attempted += plain.attempted
    measured.failed += plain.failed
    measured.problems += plain.problems
    return measured, values


def _print_report(name: str, m) -> None:
    share = m.failed / m.attempted if m.attempted else 1.0
    print(f"workload {name}: {m.units} units in {m.busy_s:.2f}s, attempted {m.attempted}, failed {m.failed}")
    print(f"  throughput samples = {', '.join(f'{rate:.4g}' for rate in m.rates)} 1/s")
    print(f"  failed_share = {share:.6g} ratio")
    for key, (value, unit) in m.report.items():
        print(f"  {key} = {value:.6g} {unit}")
    for problem in m.problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as failure:
        print(f"cannot import the program from {ROOT / 'src'}: {failure}", file=sys.stderr)
        return 2
    from rsm_cluster import BenchError

    try:
        measured, values = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as failure:
        print(f"benchmark cannot run: {failure}", file=sys.stderr)
        return 2
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    _print_report(args.workload, measured)
    correct = measured.failed == 0 and not measured.problems
    result = {
        "correct": correct,
        "attempted": max(1, measured.attempted),
        "failed": measured.failed if measured.attempted else 1,
        "metrics": {
            metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
            for metric in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _interrupted(signum, _frame):
    # Unwind through every ``finally`` so clusters and worker pools stop.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _interrupted)
    sys.exit(main())
