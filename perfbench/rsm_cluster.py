"""The ``rsm-cluster`` workload: the RSM as an operator runs it.

Every session boots a fresh 4-node cluster (one replica per OS process, on
ports the OS hands out for this session), waits until every node probes
ready, drives one closed-loop ``ServiceClient`` over real localhost TCP,
audits the client's history against the six RSM properties and tears the
cluster down.  Sessions repeat until the window closes, so no session
inherits uptime from the one before.

Nothing injects message delay: latency is processor time plus the
localhost stack, and the client's retry timer (``client_retry`` protocol
units at the spec's ``time_scale``).  The host-speed reference runs before
the cluster starts and after it stopped, never beside its nodes.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import Deadline, HostWatch, Measurement, median, own_peak_rss_mb
from layers import trace_cores, trace_lattice, trace_links, trace_wire
from spans import Tracer

#: n = 3f + 1 replicas, 2 virtual clients each keeping one op in flight.
#: ``drain_max_s`` caps a node's drain after SIGTERM: idle replicas keep
#: running empty rounds, so they never go quiet and always wait the cap out.
RSM_CLUSTER = {
    "nodes": 4, "f": 1, "clients": 2, "ops": 30, "op_deadline_s": 60.0, "idle_window_s": 1.0, "drain_max_s": 0.5,
}  # fmt: skip

NODE_SCRIPT = Path(__file__).resolve().parent / "traced_node.py"


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed output check)."""


def stale_node_pids() -> list[int]:
    """Pids of live ``cluster node`` processes on this machine.

    An orphaned node free-runs rounds and takes CPU from every later
    measurement, so the workload refuses to start while one is alive.
    """
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if (b"repro" in argv and b"cluster" in argv and b"node" in argv) or any(
            arg.endswith(NODE_SCRIPT.name.encode()) for arg in argv
        ):
            found.append(int(entry.name))
    return sorted(found)


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def scripts_for(seed: int, clients: int, ops: int) -> list[list[tuple]]:
    """The ``counter_workload`` mix (every third op a read, the last op a
    read) with increment amounts drawn from ``seed``."""
    from repro.cluster.client import COUNTER_NAME
    from repro.rsm.crdt import GCounterObject

    counter = GCounterObject(COUNTER_NAME)
    rng = random.Random(seed)
    scripts: list[list[tuple]] = [[] for _ in range(clients)]
    for index in range(ops):
        if index % 3 == 2 or index == ops - 1:
            op: tuple = ("read",)
        else:
            op = ("update", counter.op_inc(rng.randint(1, 9)))
        scripts[index % clients].append(op)
    return scripts


def _cluster_class(tracer: Tracer | None):
    from repro.cluster.supervisor import Cluster

    if tracer is None:
        return Cluster

    class TracedCluster(Cluster):
        """Starts each node through ``traced_node.py`` instead of ``repro cluster node``."""

        def _spawn(self, name: str) -> None:
            env = os.environ.copy()
            src = str(Path(sys.modules["repro"].__file__).resolve().parent.parent)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            env["REPRO_CLUSTER_SUPERVISOR_PID"] = str(os.getpid())
            prefix = self.state_dir / f"{name}.trace"
            with open(self.state_dir / "logs" / f"{name}.log", "ab") as log:
                self.procs[name] = subprocess.Popen(
                    [self.python, str(NODE_SCRIPT), str(self._spec_path), name, str(prefix)],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=env,
                )

    return TracedCluster


async def _traffic(spec, scripts, deadline_s: float, tracer: Tracer | None) -> dict:
    from repro.cluster.client import ServiceClient

    async with ServiceClient(spec, clients=len(scripts)) as service:
        start = time.perf_counter()
        submitted = service.submit(scripts)
        finished = await service.wait_all(deadline_s)
        wall = time.perf_counter() - start
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            audit = service.audit(require_liveness=finished)
        return {
            "submitted": submitted,
            "completed": service.completed_count,
            "retries": service.retries,
            "wall": wall,
            "finished": finished,
            "audit": audit,
            "records": [record for history in service.histories() for record in history if record.completed],
        }


def _node_snapshots(cluster, index: int) -> dict[str, dict]:
    """Ask every traced node for snapshot ``index`` and read them all."""
    paths = {}
    for name, proc in cluster.procs.items():
        os.kill(proc.pid, signal.SIGUSR2)
        paths[name] = cluster.state_dir / f"{name}.trace.{index}.json"
    deadline = time.monotonic() + 10.0
    while not all(path.exists() for path in paths.values()):
        if time.monotonic() > deadline:
            missing = sorted(str(path) for path in paths.values() if not path.exists())
            raise BenchError(f"traced nodes wrote no snapshot: {missing}")
        time.sleep(0.01)
    return {name: json.loads(path.read_text()) for name, path in paths.items()}


def _rounds(spec) -> list[int]:
    from repro.cluster.client import probe_cluster_sync

    return [status["round"] for status in probe_cluster_sync(spec).values() if status is not None]


def rsm_cluster(seed: int, seconds: float, tracer: Tracer | None, workdir: Path) -> Measurement:
    from repro.cluster.spec import localhost_spec
    from repro.rsm.client import RSMClient

    size = RSM_CLUSTER
    stale = stale_node_pids()
    if stale:
        raise BenchError(f"refusing to start: cluster node processes already alive: {stale}")
    m = Measurement()
    cluster_cls = _cluster_class(tracer)
    latencies: dict[str, list[float]] = {"update": [], "read": []}
    retries = idle_cores = cpu_s = rounds = node_rss = 0.0
    if tracer is not None:
        trace_lattice(tracer)
        trace_cores(tracer, [RSMClient])
        trace_wire(tracer)
        trace_links(tracer)
    try:
        deadline = Deadline(seconds)
        session = 0
        while session == 0 or deadline.open():
            state_dir = workdir / f"cluster-{session}"
            shutil.rmtree(state_dir, ignore_errors=True)
            spec = localhost_spec(size["nodes"], f=size["f"], drain_max_s=size["drain_max_s"])
            cluster = cluster_cls(spec, state_dir=state_dir)
            with HostWatch() as host:
                started = time.perf_counter()
                try:
                    cluster.start(timeout=30.0)
                    setup = time.perf_counter() - started
                    pids = [proc.pid for proc in cluster.procs.values()]
                    if tracer is not None:
                        idle_before = sum(cpu_seconds(pid) for pid in pids)
                        time.sleep(size["idle_window_s"])
                        idle_cores += (sum(cpu_seconds(pid) for pid in pids) - idle_before) / size["idle_window_s"]
                        before = _node_snapshots(cluster, 0)
                    rounds_before = _rounds(spec)
                    cpu_before = sum(cpu_seconds(pid) for pid in pids)
                    scripts = scripts_for(seed * 1000 + session, size["clients"], size["ops"])
                    outcome = asyncio.run(_traffic(spec, scripts, size["op_deadline_s"], tracer))
                    cpu_s += sum(cpu_seconds(pid) for pid in pids) - cpu_before
                    rounds_after = _rounds(spec)
                    if len(rounds_after) == len(rounds_before):
                        rounds += sum(rounds_after) / len(rounds_after) - sum(rounds_before) / len(rounds_before)
                    node_rss = max([node_rss] + [peak_rss_mb(pid) for pid in pids])
                    if tracer is not None:
                        after = _node_snapshots(cluster, 1)
                        for name in after:
                            tracer.merge(after[name])
                            tracer.merge(before[name], scale=-1)
                        for key in ("core.ack_history_len", "broadcast.instances"):
                            m.layers[key] = sum(snapshot["state"][key] for snapshot in after.values())
                finally:
                    drained = cluster.stop()
            m.setup_s.append(setup / host.slowdown)
            m.attempted += outcome["submitted"]
            m.busy_s += outcome["wall"]
            retries += outcome["retries"]
            if drained != 0:
                m.fail(0, f"session {session}: a node did not drain cleanly (see {state_dir}/logs)")
            if not outcome["audit"].ok:
                m.fail(outcome["submitted"], f"session {session}: RSM audit failed: {outcome['audit']}")
                m.rates.append(0.0)
            else:
                m.units += outcome["completed"]
                m.rates.append(outcome["completed"] / outcome["wall"] * host.slowdown)
                missing = outcome["submitted"] - outcome["completed"]
                if missing:
                    m.fail(missing, f"session {session}: {missing} ops not completed in {size['op_deadline_s']}s")
            for record in outcome["records"]:
                latencies[record.kind].append(record.end_time - record.start_time)
            session += 1
    finally:
        if tracer is not None:
            tracer.restore()
    ops = max(1, m.units)
    both = latencies["update"] + latencies["read"]
    m.report["rsm.ops_per_s"] = (m.units / m.busy_s, "ops/s (wall clock, not host-adjusted)")
    op_tail = m.report_tail("rsm.op_latency", both, "s")
    m.layers.update(
        {
            "rsm.retries_per_op": retries / ops,
            "rsm.read_latency_p50": median(latencies["read"]),
            "rsm.update_latency_p50": median(latencies["update"]),
            "rsm.op_latency_p50": m.report["rsm.op_latency_p50"][0],
            "rsm.op_latency_tail": op_tail,
            "cluster.idle_cpu_cores": idle_cores / session,
            "cluster.cpu_s_per_op": cpu_s / ops,
            "cluster.rounds_per_op": rounds / ops,
            "cluster.node_rss_mb": node_rss,
        }
    )
    m.report["rsm.retries_per_op"] = (retries / ops, "retries/op")
    m.peak_rss_mb = max(node_rss, own_peak_rss_mb())
    return m
