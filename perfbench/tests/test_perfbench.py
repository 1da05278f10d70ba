"""Self-tests of the benchmark at toy size.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import campaign
import pytest
import rsm_cluster
import run
import sims

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Coverage signatures the explorer finds at seed 0 with the toy budget.
TOY_SIGNATURES = 8


def _toy(patch: pytest.MonkeyPatch) -> None:
    patch.setitem(sims.GLA_SOAK, "values", 12)
    patch.setitem(sims.LA_WIDE, "n", 7)
    patch.setitem(sims.LA_WIDE, "f", 2)
    patch.setattr(sims, "SETUP_PROBES", 2)
    patch.setitem(rsm_cluster.RSM_CLUSTER, "ops", 6)
    patch.setitem(rsm_cluster.RSM_CLUSTER, "idle_window_s", 0.2)
    patch.setitem(campaign.CAMPAIGN, "budget", 8)
    patch.setitem(campaign.CAMPAIGN, "signatures", TOY_SIGNATURES)


@pytest.fixture
def toy(monkeypatch):
    _toy(monkeypatch)
    return monkeypatch


def bench(*argv: str) -> tuple[int, dict | None]:
    """Run the benchmark command in-process; ``(exit code, result line)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return code, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(toy, workload, trace):
    code, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace))
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in section]
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_every_per_layer_metric_is_measured_by_some_workload(toy):
    measured: set[str] = set()
    for workload in WORKLOADS:
        _measurement, values = run.measure(workload, 3, 0.1, trace=1)
        measured |= set(values)
    assert measured == {metric["name"] for metric in SPEC["per_layer"]}


class _Failed:
    ok = False

    def __str__(self) -> str:
        return "scripted failure"


@pytest.mark.parametrize(
    "workload, target, attr",
    [
        ("la-wide", "repro.harness.workloads.ScenarioResult", "check_la"),
        ("gla-soak", "repro.harness.workloads.ScenarioResult", "check_gla"),
        ("rsm-cluster", "repro.cluster.client.ServiceClient", "audit"),
    ],
)
def test_a_failed_check_fails_the_run(toy, workload, target, attr):
    toy.setattr(f"{target}.{attr}", lambda *_args, **_kwargs: _Failed())
    code, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_a_wrong_signature_count_fails_the_campaign(toy):
    toy.setitem(campaign.CAMPAIGN, "signatures", TOY_SIGNATURES + 1)
    code, result = bench("--workload", "campaign", "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


@pytest.mark.parametrize("workload", ["gla-soak", "la-wide"])
def test_deterministic_figures_repeat_for_a_fixed_seed(toy, workload):
    keys = ("gla.decide_latency_p50", "gla.decide_latency_tail", "engine.msgs_per_decision")
    first, _ = run.measure(workload, 5, 0.1, trace=0)
    second, _ = run.measure(workload, 5, 0.1, trace=1)
    figures = [{key: m.layers.get(key) for key in keys} for m in (first, second)]
    assert figures[0] == figures[1]
    assert figures[0]["engine.msgs_per_decision"] > 0


def test_a_stale_cluster_node_blocks_the_cluster_workload(toy):
    impostor = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)", "repro", "cluster", "node"]
    )
    try:
        code, result = bench("--workload", "rsm-cluster", "--seed", "3", "--seconds", "0.1", "--trace", "0")
    finally:
        impostor.kill()
        impostor.wait(timeout=10)
    assert code == 2 and result is None


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
