"""Run one cluster node with its layers traced.

Usage: ``python traced_node.py <spec.json> <node name> <snapshot prefix>``.

This is ``python -m repro cluster node --spec <spec.json> --name <name>``
with the lattice, core, broadcast, crypto, wire and link entry points
wrapped before the node starts.  Every ``SIGUSR2`` writes the span
aggregates so far, the high-water marks since the previous snapshot and the
replica's state sizes to ``<snapshot prefix>.<k>.json`` (``k`` counts from
0), so the benchmark can difference two snapshots taken around a traffic
phase and leave bring-up, idle rounds and drain out of the per-op figures.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import sys

from layers import state_sizes, trace_broadcast, trace_cores, trace_crypto, trace_lattice, trace_links, trace_wire
from spans import Tracer


def main(spec_path: str, name: str, prefix: str) -> int:
    from repro.cluster.node import run_node
    from repro.cluster.spec import ClusterSpec
    from repro.rsm.replica import Replica

    tracer = Tracer()
    cores: dict = {}
    taken = itertools.count()

    def remember(args, _result) -> None:
        cores[args[0].pid] = args[0]

    def snapshot(_signum, _frame) -> None:
        history, instances = state_sizes(cores.values())
        data = tracer.snapshot()
        data["state"] = {"core.ack_history_len": history, "broadcast.instances": instances}
        path = f"{prefix}.{next(taken)}.json"
        with open(path + ".tmp", "w") as handle:
            json.dump(data, handle)
        os.replace(path + ".tmp", path)
        tracer.maxima.clear()  # the next snapshot's high-water marks start afresh

    trace_lattice(tracer)
    trace_cores(tracer, [Replica], after=remember)
    trace_broadcast(tracer)
    trace_crypto(tracer)
    trace_wire(tracer)
    trace_links(tracer)
    signal.signal(signal.SIGUSR2, snapshot)
    return run_node(ClusterSpec.load(spec_path), name)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
