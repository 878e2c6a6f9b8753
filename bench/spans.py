"""In-memory span recorder and the wrapping rule of the traced run.

A span is ``[name, start_ns, end_ns, parent index, ok]``. The benchmark
opens spans around its own calls into rssikit; in the traced run it also
swaps a timing wrapper into the names that rssikit code looks up at call
time, so calls made *inside* the library (a refit's ``moment_set``, a
missed ACK's ``predict``) are seen too. Patching ``rssikit.stats.moment_set``
alone would miss them: ``rssikit.predictor`` bound its own reference at
import.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name). Each attribute is the name a caller looks
# up when it runs, so replacing it there intercepts the call.
WRAPPED_FUNCTIONS = (
    ("rssikit.predictor", "Trace", "trace.Trace"),
    ("rssikit.predictor", "derivative_series", "trace.derivative_series"),
    ("rssikit.predictor", "moment_set", "stats.moment_set"),
    ("rssikit.predictor", "fit_orthonormal", "predictor.fit"),
    ("rssikit.predictor", "fit_normal_equations", "predictor.fit"),
    ("rssikit.atpc", "predict", "predictor.predict"),
)
# (module, class, method, span name).
WRAPPED_METHODS = (
    ("rssikit.predictor", "SlidingWindowPredictor", "observe", "predictor.observe"),
    ("rssikit.linksim", "ChannelModel", "realize", "linksim.realize"),
    ("rssikit.linksim", "LossModel", "keep_mask", "linksim.keep_mask"),
)


class Tracer:
    """Collects the nested spans of one pass; ``clear`` between passes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name: str, fn):
        """Return ``fn`` with every call recorded as a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[4] = True
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args)

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def total_ms(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name) / 1e6

    def child_ns(self) -> dict[int, int]:
        """Time covered by each span's direct children, by span index."""
        covered: dict[int, int] = {}
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] = covered.get(s[3], 0) + s[2] - s[1]
        return covered


@contextmanager
def wrapped(tracer: Tracer):
    """Install the traced-run wrappers; restore the originals on exit."""
    saved = []
    try:
        for mod_name, attr, span_name in WRAPPED_FUNCTIONS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(span_name, orig))
        for mod_name, cls_name, attr, span_name in WRAPPED_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            saved.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(span_name, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
