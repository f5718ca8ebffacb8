"""Span recording and pull stamps for the benchmark worker.

Spans are recorded by replacing a module attribute with a wrapper, at the
attribute the caller actually looks up (``cli.infer_stream``,
``stream.encode``, ``vigil.t_quantile``, ...), so the package itself is
not modified. Each span is kept in memory as
``[name, start, end, parent, op, info]`` and written out when the run ends.

Pull stamps are the only instrumentation that stays on in untraced runs:
one ``perf_counter`` per unit of work pulled from the pipeline's input,
from which the tick latencies are taken.
"""

from __future__ import annotations

import functools
from time import perf_counter

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Records nested spans around wrapped module attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def enter(self, name: str, info=None) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, info]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def leave(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        `info(args, kwargs)` may extract a small value stored with the span,
        such as the number of frames in a batch.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = tracer.enter(name, info(args, kwargs) if info else None)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.leave(record)

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Replace a generator function so that every next() is one span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return SpanIter(original(*args, **kwargs), name, tracer)

        setattr(owner, attr, traced)

    def write_csv(self, path) -> None:
        with open(path, "w") as out:
            out.write("index,name,start_us,end_us,parent,op,info\n")
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                out.write(f"{i},{name},{start * 1e6:.3f},{end * 1e6:.3f},{parent},{op},"
                          f"{'' if info is None else str(info).replace(',', ';')}\n")


class SpanIter:
    """Iterator that records one span per next() on the wrapped iterator."""

    def __init__(self, inner, name: str, tracer: Tracer | None):
        self._inner = iter(inner)
        self._name = name
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        if self._tracer is None:
            return next(self._inner)
        record = self._tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.leave(record)


class PullClock:
    """Pull stamps, split into runs; intervals are taken within a run only."""

    def __init__(self):
        self.intervals: list[float] = []
        self._last: float | None = None

    def stamp(self) -> None:
        now = perf_counter()
        if self._last is not None:
            self.intervals.append(now - self._last)
        self._last = now

    def break_run(self) -> None:
        self._last = None


class StampedIter(SpanIter):
    """Input iterator that stamps the clock on every pull, the last one too."""

    def __init__(self, inner, clock: PullClock, tracer: Tracer | None):
        super().__init__(inner, "cli.input_pull", tracer)
        self._clock = clock

    def __next__(self):
        self._clock.stamp()
        return super().__next__()


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
