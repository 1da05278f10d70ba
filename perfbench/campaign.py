"""The ``campaign`` workload: a coverage-guided ``repro explore`` finishing.

Each campaign is ``repro explore --campaign perfbench/campaign.toml
--budget 80 --workers 2`` (coverage-guided, quick mode, explorer seed 0),
run in-process through the CLI entry point, so it writes and rolls up its
JSONL shard exactly as a user's campaign does.  Campaigns repeat until the
window closes.  The explorer seed is pinned, not taken from ``--seed``:
coverage-guided sampling at a fixed seed must find the same number of
distinct outcome signatures at any worker count, and that count is one of
the workload's output checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter
from pathlib import Path

from common import Deadline, HostWatch, Measurement, children_peak_rss_mb, median, own_peak_rss_mb
from spans import Tracer

CAMPAIGN_FILE = Path(__file__).resolve().parent / "campaign.toml"
#: ``signatures`` is what the explorer finds with this file and budget.
CAMPAIGN = {"budget": 80, "workers": 2, "signatures": 55}


class _PoolWatch:
    """Wraps the explorer's ``iter_job_results`` to time the pool from outside.

    Records when the first result of a campaign arrived, how long the
    explorer sat blocked waiting for results, and worker respawns.
    """

    def __init__(self) -> None:
        self.first_result: tuple[float, float] | None = None
        self.blocked_s = 0.0
        self.respawns = 0

    def __enter__(self) -> _PoolWatch:
        import repro.explore.explorer as explorer
        from repro.orchestrator.pool import PoolStats

        self._module = explorer
        self._original = original = explorer.iter_job_results

        def iter_job_results(jobs, workers=1, stats=None):
            stats = stats if stats is not None else PoolStats()
            results = original(jobs, workers=workers, stats=stats)
            while True:
                waited = time.perf_counter()
                try:
                    item = next(results)
                except StopIteration:
                    break
                now = time.perf_counter()
                self.blocked_s += now - waited
                if self.first_result is None:
                    self.first_result = (now, item[1].payload["wall_time_s"])
                yield item
            self.respawns += stats.workers_respawned

        explorer.iter_job_results = iter_job_results
        return self

    def __exit__(self, *_exc) -> None:
        self._module.iter_job_results = self._original


def campaign(seed: int, seconds: float, tracer: Tracer | None, workdir: Path) -> Measurement:
    from repro.orchestrator.cli import main as repro_main
    from repro.orchestrator.results import ShardWriter, shard_path_for

    del seed  # pinned explorer seed, see the module docstring
    size = CAMPAIGN
    m = Measurement()
    job_walls: list[float] = []
    supervisor_s = 0.0
    signatures = 0
    respawns = 0
    if tracer is not None:
        tracer.patch(ShardWriter, "append", "orchestrator")
    try:
        deadline = Deadline(seconds)
        index = 0
        while index == 0 or deadline.open():
            out = workdir / f"campaign-{index}.json"
            out.unlink(missing_ok=True)
            shard_path_for(out).unlink(missing_ok=True)
            argv = [
                "explore", "--campaign", str(CAMPAIGN_FILE), "--budget", str(size["budget"]),
                "--workers", str(size["workers"]), "--out", str(out),
            ]  # fmt: skip
            with HostWatch() as host, _PoolWatch() as watch, contextlib.redirect_stdout(io.StringIO()):
                started = time.perf_counter()
                code = repro_main(argv)
                wall = time.perf_counter() - started
            artifact = json.loads(out.read_text())
            jobs = artifact["jobs"]
            statuses = Counter(job["status"] for job in jobs)
            found = artifact["config"]["explore"]["coverage"]["signatures"]
            m.attempted += len(jobs)
            m.busy_s += wall
            bad = len(jobs) - statuses["ok"]
            if code != 0 or bad:
                m.fail(max(bad, 1), f"campaign {index}: exit {code}, job statuses {dict(statuses)}")
            if found != size["signatures"]:
                m.fail(len(jobs) - bad, f"campaign {index}: {found} signatures, expected {size['signatures']}")
            ok_jobs = statuses["ok"] if found == size["signatures"] else 0
            m.units += ok_jobs
            m.rates.append(ok_jobs / wall * host.slowdown)
            if watch.first_result is not None:
                arrived, job_wall = watch.first_result
                m.setup_s.append((arrived - job_wall - started) / host.slowdown)
            job_walls += [job["wall_time_s"] for job in jobs]
            supervisor_s += wall - watch.blocked_s
            respawns += watch.respawns
            signatures = found
            index += 1
    finally:
        if tracer is not None:
            tracer.restore()
    total_jobs = max(1, len(job_walls))
    worker_s = size["workers"] * m.busy_s
    m.layers.update(
        {
            "explore.signatures": signatures,
            "explore.supervisor_s": supervisor_s / total_jobs,
            "explore.job_s_p50": median(job_walls),
            "orchestrator.busy_share": sum(job_walls) / worker_s if worker_s else 0.0,
            "orchestrator.dispatch_gap_s": (worker_s - sum(job_walls)) / total_jobs,
            "orchestrator.respawns": respawns,
        }
    )
    if tracer is not None:
        m.layers["orchestrator.shard_write_s"] = tracer.self_s["orchestrator"] / total_jobs
    m.report["campaign.jobs_per_s"] = (m.units / m.busy_s, "jobs/s (wall clock, not host-adjusted)")
    m.report["explore.signatures"] = (signatures, f"count (expected {size['signatures']})")
    m.peak_rss_mb = max(own_peak_rss_mb(), children_peak_rss_mb())
    return m
