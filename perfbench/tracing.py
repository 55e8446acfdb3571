"""Outside-in span recording for the traced pass.

Spans are taken around calls into the library's public functions from
the benchmark's own code; nothing is recorded inside ``src/``.  Two
kinds of child span exist:

* *in-op* spans sit inside the op's own wall interval, recorded
  through a public seam the op already offers (an analog ``Stage``
  wrapped in :class:`TimedStage` and handed to ``LinkSession``'s
  constructor);
* *replayed* spans time a part of the op that has no public seam by
  calling the same public functions again on the same data, after the
  op (eye/CDR/DFE on the chain output, each sweep unit's phases).

An op's ``self_s`` is the residual: its wall time minus the time of
all its children, in-op and replayed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
from typing import Dict, List, Optional, Sequence

from repro.link import Stage

__all__ = ["Span", "Tracer", "TimedStage", "SPAN_LAYERS", "OP_LAYERS",
           "layer_metrics", "accounting", "overhead_frac"]

#: Every span layer, in the order the report prints them.  Each gets
#: ``<layer>.busy_s``, ``<layer>.calls`` and ``<layer>.rows``.
SPAN_LAYERS = (
    "core.output_interface",
    "channel.backplane",
    "core.input_interface",
    "analysis.eye",
    "cdr",
    "baselines.dfe",
    "link.build",
    "analysis.isi",
    "stateye",
    "sweep.plan",
    "sweep.stimulus",
    "signals.stack",
    "sweep.measure",
    "sweep.reduce",
)

#: Op spans, whose residual is reported as ``<layer>.self_s``.
OP_LAYERS = ("link.session", "sweep.runner")


@dataclasses.dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span
    (``None`` for an op); ``replayed`` marks a replay attributed to
    ``parent`` but timed outside its interval."""

    name: str
    parent: Optional[int]
    start: float
    end: float
    rows: int = 0
    replayed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span list; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0, *,
             replay_of: Optional[int] = None):
        """Time the body as span ``name``.  ``replay_of`` attributes a
        replayed span to that op instead of the enclosing span."""
        parent = replay_of if replay_of is not None else (
            self._open[-1] if self._open else None)
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, parent, start, end, rows,
                                     replayed=replay_of is not None)

    def ops(self) -> List[int]:
        """Indices of the op spans (those without a parent)."""
        return [i for i, s in enumerate(self.spans) if s.parent is None]


class TimedStage(Stage):
    """An analog stage that records a span around each batch it
    processes; ``LinkSession`` accepts it as any other ``Stage``."""

    def __init__(self, inner: Stage, layer: str, tracer: Tracer):
        self.inner = inner
        self.layer = layer
        self.tracer = tracer
        self.name = inner.name

    def process_batch(self, batch):
        with self.tracer.span(self.layer, rows=batch.n_scenarios):
            return self.inner.process_batch(batch)


def accounting(tracer: Tracer) -> List[Dict[str, float]]:
    """Per op: wall, children, residual and whether every in-op span
    under it lies inside its interval."""
    children: Dict[int, float] = {}
    nested: Dict[int, bool] = {}
    roots: List[Optional[int]] = []
    for s in tracer.spans:
        roots.append(None if s.parent is None
                     else roots[s.parent] if roots[s.parent] is not None
                     else s.parent)
        if s.parent is None:
            continue
        if tracer.spans[s.parent].parent is None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
        if not s.replayed:
            op = tracer.spans[roots[-1]]
            nested[roots[-1]] = nested.get(roots[-1], True) and (
                op.start <= s.start <= s.end <= op.end)
    rows = []
    for index in tracer.ops():
        op = tracer.spans[index]
        child_s = children.get(index, 0.0)
        rows.append({"op": op.name, "wall_s": op.duration,
                     "children_s": child_s,
                     "self_s": op.duration - child_s,
                     "nested": nested.get(index, True)})
    return rows


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-op means of every span layer's busy time, calls and rows,
    plus each op layer's self-time residual (zero where a layer did
    not run on this workload)."""
    ops = tracer.ops()
    n_ops = max(1, len(ops))
    metrics: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        spans = [s for s in tracer.spans if s.name == layer]
        metrics[f"{layer}.busy_s"] = sum(s.duration for s in spans) / n_ops
        metrics[f"{layer}.calls"] = len(spans) / n_ops
        metrics[f"{layer}.rows"] = sum(s.rows for s in spans) / n_ops
    residuals = accounting(tracer)
    for layer in OP_LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            r["self_s"] for r in residuals if r["op"] == layer) / n_ops
    return metrics


def overhead_frac(traced_walls: Sequence[float],
                  untraced_walls: Sequence[float]) -> float:
    """Median traced op wall over median untraced op wall, minus one."""
    return (statistics.median(traced_walls)
            / statistics.median(untraced_walls) - 1.0)
