"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, point, sweep)``: the layer's
name, host-clock start and end in seconds, the index of the enclosing
span (or ``None``), the sweep point it belongs to, and the sweep it ran
in.  Spans are kept in a list and written once, at the end of a run.

``scales`` maps ``(sweep, point)`` to the calibration factor measured
around that point (see ``benchlib.calibration``); durations reported
by :meth:`SpanRecorder.self_seconds` and
:meth:`SpanRecorder.total_seconds` are scaled by it, while the spans
themselves keep raw host-clock times.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Records nested spans; a disabled recorder records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self.point: Optional[str] = None
        self.sweep: Optional[str] = None
        self.scales: Dict[Tuple[Optional[str], Optional[str]], float] = {}
        self._stack: List[int] = []

    @classmethod
    def disabled(cls) -> "SpanRecorder":
        return cls(enabled=False)

    def span(self, name: str):
        if not self.enabled:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.point, self.sweep]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Dict[str, Dict[str, float]]:
        """Sweep -> layer -> self time (duration minus child spans)."""
        child_time = defaultdict(float)
        for _name, start, end, parent, _point, _sweep in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for index, (name, start, end, _parent, point, sweep) in enumerate(
            self.spans
        ):
            totals[sweep][name] += (
                end - start - child_time[index]
            ) * self.scales.get((sweep, point), 1.0)
        return totals

    def total_seconds(self, sweep: str, name: str) -> float:
        """Summed duration of ``name`` spans in ``sweep``, children included."""
        return sum(
            (end - start) * self.scales.get((sweep, point), 1.0)
            for span_name, start, end, _parent, point, span_sweep in self.spans
            if span_name == name and span_sweep == sweep
        )

    def root_seconds(self, sweep: str) -> float:
        """Summed raw duration of the top-level spans of ``sweep``."""
        return sum(
            end - start
            for _name, start, end, parent, _point, span_sweep in self.spans
            if parent is None and span_sweep == sweep
        )


def median_over(sweeps: List[str], per_sweep: Dict[str, Dict[str, float]],
                layer: str) -> float:
    """Median over ``sweeps`` of one layer's per-sweep value (0 if absent)."""
    return statistics.median(per_sweep[s].get(layer, 0.0) for s in sweeps)
