"""Which public entry points make up each layer, and how to trace them.

Each ``trace_*`` function patches one layer of the program onto a
:class:`~spans.Tracer`.  The layer names are the package names under
``src/repro`` so a per-layer figure points at the code to read.
"""

from __future__ import annotations

from collections.abc import Iterable

from spans import Tracer

#: Hooks a substrate calls on a protocol core (Algorithms 1-7 live behind these).
CORE_HOOKS = ("on_start", "on_message", "on_timer")


def trace_lattice(tracer: Tracer) -> None:
    from repro.lattice.set_lattice import SetLattice

    for attr in ("join", "join_all", "leq"):
        tracer.patch(SetLattice, attr, "lattice")


def trace_cores(tracer: Tracer, classes: Iterable[type], after=None) -> None:
    """Trace the engine-facing hooks of each core class (plus GWTS ``recheck``).

    ``after(args, result)`` runs after every outermost hook call; the GLA
    soak uses it to timestamp round changes.
    """
    for cls in classes:
        hooks = CORE_HOOKS + (("recheck",) if hasattr(cls, "recheck") else ())
        for attr in hooks:
            tracer.patch(cls, attr, "core", after)


def trace_broadcast(tracer: Tracer) -> None:
    from repro.broadcast.reliable import ReliableBroadcaster

    tracer.patch(ReliableBroadcaster, "broadcast", "broadcast")
    tracer.patch(ReliableBroadcaster, "handle", "broadcast")


def trace_crypto(tracer: Tracer) -> None:
    from repro.crypto.signatures import KeyRegistry, Signer

    tracer.patch(Signer, "sign", "crypto")
    tracer.patch(KeyRegistry, "verify", "crypto")


def trace_wire(tracer: Tracer) -> None:
    from repro.engine.wire import BinaryCodec, JsonCodec

    def sent(_args, frame) -> None:
        tracer.count("wire.frames")
        tracer.count("wire.bytes", len(frame))

    for codec in (JsonCodec, BinaryCodec):
        tracer.patch(codec, "encode_frame", "wire", sent)
        tracer.patch(codec, "decode_body", "wire")


def trace_links(tracer: Tracer) -> None:
    """Time cluster frame queueing and keep the deepest link backlog seen."""
    from repro.cluster.protocol import FrameLink

    def backlog(args, _result) -> None:
        tracer.peak("cluster.link_backlog_bytes", args[0].pending_bytes)

    tracer.patch(FrameLink, "send", "cluster", backlog)


def trace_engine(tracer: Tracer) -> None:
    """Time ``TurboEngine.run`` and count its events and stop-predicate polls."""
    from repro.engine.turbo_backend import TurboEngine

    def count_events(_args, result) -> None:
        tracer.count("engine.events", result.events)

    tracer.patch(TurboEngine, "run", "engine", count_events)
    traced_run = TurboEngine.run

    def run(engine, stop_when=None, **kwargs):
        if stop_when is not None:
            predicate = stop_when

            def stop_when() -> bool:
                tracer.count("engine.stop_checks")
                return predicate()

        return traced_run(engine, stop_when=stop_when, **kwargs)

    TurboEngine.run = run  # restored with the span patch underneath it


def state_sizes(cores: Iterable) -> tuple[int, int]:
    """``(ack_history entries, live reliable-broadcast instances)`` summed.

    Both are read from outside, at the end of a unit of work: they are the
    protocol state that grows with uptime while it is never pruned.  Cores
    without the structure contribute zero.
    """
    history = instances = 0
    for core in cores:
        history += len(getattr(core, "ack_history", ()) or ())
        broadcaster = getattr(core, "_rb", None)
        instances += len(getattr(broadcaster, "_instances", ()) or ())
    return history, instances
