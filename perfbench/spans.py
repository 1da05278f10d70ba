"""Aggregated layer spans, recorded from outside the program.

The benchmark never edits ``src/``.  A traced run instead replaces the public
entry points of each layer (``SetLattice.join``, ``GWTSProcess.on_message``,
``ReliableBroadcaster.handle``, ``KeyRegistry.verify``, ``Codec.encode_frame``,
``TurboEngine.run`` ...) with a wrapper that times the call and restores the
original afterwards.

Spans are aggregated in memory as they close, not stored one by one: a run
makes millions of lattice calls, and only two figures per layer are needed:

* ``calls[<layer>.<entry point>]`` counts outermost calls into a layer;
* ``self_s[<layer>]`` is span time minus the time of the child spans of
  other layers opened inside it (a core hook that calls the lattice pays
  for the lattice in ``lattice``, not in ``core``).

A call into a layer from inside the same layer (``join_all`` calling
``join``, ``Replica.on_message`` calling ``GWTSProcess.on_message`` through
``super()``) is internal to that layer and is neither counted nor timed
again.  Inside :meth:`Tracer.paused` nothing is recorded: the benchmark's
own output checks call the lattice too, and must not count as its work.
The wrappers assume one thread per process, which holds for the
simulation engines and for the asyncio client and nodes: no wrapped entry
point awaits.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from typing import Any

_MISSING = object()


class Tracer:
    """Per-process span aggregator plus the patches that feed it."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Plain counters that are not spans (stop checks, frames, bytes).
        self.counters: Counter = Counter()
        #: High-water marks (merged across processes by ``max``).
        self.maxima: dict[str, float] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """Return ``fn`` timed as one span of ``layer``.

        ``after(args, result)`` runs once the span closed (outside the timed
        interval), for counters that need the arguments or the result.
        """
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        key = f"{layer}.{name}"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] in (layer, None):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def patch(
        self,
        owner: type,
        attr: str,
        layer: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with its traced form until :meth:`restore`."""
        original = owner.__dict__.get(attr, _MISSING)
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(self.wrap(layer, attr, original.__func__, after))
        else:
            replacement = self.wrap(layer, attr, getattr(owner, attr), after)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back (inherited ones are deleted)."""
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (a ``None`` frame tops the stack)."""
        self._stack.append([None, 0.0])
        try:
            yield
        finally:
            self._stack.pop()

    # -- aggregation ---------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a plain counter (no span)."""
        self.counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        """Raise a high-water mark."""
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def layer_calls(self, layer: str) -> int:
        """Outermost calls into ``layer`` over all its entry points."""
        prefix = layer + "."
        return sum(count for key, count in self.calls.items() if key.startswith(prefix))

    def snapshot(self) -> dict:
        """JSON-ready aggregates (what a traced cluster node writes out)."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counters": dict(self.counters),
                "maxima": dict(self.maxima)}

    def merge(self, snapshot: dict, scale: int = 1) -> None:
        """Add another process's :meth:`snapshot` into this one.

        ``scale=-1`` subtracts it, so merging a later snapshot and
        subtracting an earlier one of the same process leaves what happened
        between the two; high-water marks are only ever raised.
        """
        for key, count in snapshot.get("calls", {}).items():
            self.calls[key] += scale * count
        for key, count in snapshot.get("counters", {}).items():
            self.counters[key] += scale * count
        for layer, seconds in snapshot.get("self_s", {}).items():
            self.self_s[layer] += scale * seconds
        if scale > 0:
            for key, value in snapshot.get("maxima", {}).items():
                self.peak(key, value)
