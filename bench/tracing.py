"""Span recording for the traced run.

The benchmark wraps the package's public names from the outside; nothing in
the package is edited.  Each wrapped call pushes a frame on one stack (the
benchmark is single-threaded), and on return its duration is added to the
parent frame's child time.  A layer's self time is therefore its span's
duration minus the time its wrapped children covered.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from layers import Layer


@dataclass
class _Frame:
    span_id: int
    name: str
    start: float
    child_s: float = 0.0
    folded: dict[str, list] = field(default_factory=dict)


class Tracer:
    """In-memory spans plus exact per-layer totals.

    ``span`` layers keep one record per call: name, start, end, the span that
    caused it and the request it belongs to.  ``hot`` layers run hundreds of
    thousands of times per request, so their calls are folded into the
    calling span's record as per-layer ``[calls, seconds]``; their totals are
    exact all the same.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[dict[str, Any]] = []
        self.request: str | None = None
        self._stack: list[_Frame] = []
        self._next_id = 0

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        keep_span: bool = True,
        result_count: str | None = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` timed as layer ``name``.

        ``result_count`` names a counter that the call's integer result is
        added to (``enumerate_all`` returns its leaf count).
        """
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else None
            self._next_id += 1
            frame = _Frame(self._next_id, name, self.clock())
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self._close(frame, parent, end, keep_span)
            if result_count is not None:
                self.counts[result_count] += result
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` with an exact call count and no timing."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def _close(
        self, frame: _Frame, parent: _Frame | None, end: float, keep_span: bool
    ) -> None:
        duration = end - frame.start
        self.calls[frame.name] += 1
        self.self_s[frame.name] += duration - frame.child_s
        if parent is not None:
            parent.child_s += duration
        if keep_span or parent is None:
            self.spans.append({
                "id": frame.span_id,
                "parent": parent.span_id if parent else None,
                "request": self.request,
                "name": frame.name,
                "start": frame.start - self.origin,
                "end": end - self.origin,
                "self_s": duration - frame.child_s,
                "folded": frame.folded,
            })
        else:
            agg = parent.folded.setdefault(frame.name, [0, 0.0])
            agg[0] += 1
            agg[1] += duration


def _resolve(target: str) -> tuple[Any, str, bool]:
    """``pkg.mod:attr`` names a module attribute, ``pkg.mod:attr[key]`` a
    slot of a dict the module holds.  Returns (holder, key, is_dict)."""
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    if attr.endswith("]"):
        table, _, key = attr[:-1].partition("[")
        return getattr(module, table), key, True
    return module, attr, False


@contextmanager
def installed(tracer: Tracer, layers: Sequence[Layer]) -> Iterator[Tracer]:
    """Wrap every layer target for the duration of the block, then restore
    the originals."""
    saved: list[tuple[Any, str, bool, Any]] = []
    try:
        for layer in layers:
            for target in layer.targets:
                holder, key, is_dict = _resolve(target)
                original = holder[key] if is_dict else getattr(holder, key)
                saved.append((holder, key, is_dict, original))
                if layer.kind == "count":
                    wrapped = tracer.counter(layer.name, original)
                else:
                    wrapped = tracer.wrap(
                        layer.name,
                        original,
                        keep_span=layer.kind == "span",
                        result_count=layer.result_count,
                    )
                if is_dict:
                    holder[key] = wrapped
                else:
                    setattr(holder, key, wrapped)
        yield tracer
    finally:
        for holder, key, is_dict, original in reversed(saved):
            if is_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)


def layer_values(tracer: Tracer, layers: Sequence[Layer]) -> dict[str, float]:
    """Per-layer metric values, keyed as in ``layers.PER_LAYER_METRICS``."""
    out: dict[str, float] = {}
    for layer in layers:
        if layer.kind == "count":
            out[layer.name] = tracer.counts[layer.name]
        else:
            out[f"{layer.name}.calls"] = tracer.calls[layer.name]
            out[f"{layer.name}.self_s"] = tracer.self_s.get(layer.name, 0.0)
    return out
