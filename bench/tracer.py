"""In-memory spans around the benchmark's calls into the gcipw layers.

A span records its name, start, end, parent span and op id.  Spans are
kept in a list while the run lasts and written out once, at its end.
With tracing off, `call` only invokes the function.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    failed: bool


class Tracer:
    def __init__(self, enabled: bool, now: Callable[[], float] = perf_counter):
        self.enabled = enabled
        self.now = now
        self.spans: List[Span] = []
        self.op = -1
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn(*args, **kwargs), inside a span named `name` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.now(), 0.0, parent, self.op, False))
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.spans[index].failed = True
            raise
        finally:
            self._open.pop()
            self.spans[index].end = self.now()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


@dataclass
class SpanStats:
    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    failed: int = 0


def span_stats(spans: List[Span], scales: Dict[int, float]) -> Dict[str, SpanStats]:
    """Per-name busy time, self time (busy minus direct children), calls
    and failed calls.  Durations are multiplied by the scale of their op."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    out: Dict[str, SpanStats] = {}
    for span, children in zip(spans, child_s):
        st = out.setdefault(span.name, SpanStats())
        busy = span.end - span.start
        scale = scales[span.op]
        st.busy_s += busy * scale
        st.self_s += (busy - children) * scale
        st.calls += 1
        st.failed += span.failed
    return out


def span_cost_s(calls: int = 2000) -> float:
    """Time tracing adds to one call, measured around a function that does
    nothing."""
    noop = lambda: None
    times = []
    for enabled in (False, True):
        tracer = Tracer(enabled)
        t0 = perf_counter()
        for _ in range(calls):
            tracer.call("noop", noop)
        times.append(perf_counter() - t0)
    return max(0.0, times[1] - times[0]) / calls
