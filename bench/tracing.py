"""Spans around calls into pulsenet's public functions, made from outside.

A traced run wraps each public layer function named in ``LAYER_FUNCTIONS``
and rebinds the wrapper in every ``pulsenet`` module namespace that holds
the original, so calls between modules (``cli`` -> ``simulate`` ->
``driver``) and calls from the sweep pool's worker threads are recorded
too.  Nothing in the package is edited; an untraced run never installs
the wrappers.

Each span records its name, start, end, the span that caused it and the
run id.  Spans stay in memory and are written out once, when the run
ends.  A span's self time is its duration minus the union of the
intervals its child spans cover (children may overlap when they run on
pool threads).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: (module, function) pairs wrapped in a traced run.  The span name is
#: ``<module>.<function>``.
LAYER_FUNCTIONS = (
    ("config", "load_config"),
    ("driver", "driver_network"),
    ("simulate", "dc_operating_point"),
    ("simulate", "transient"),
    ("simulate", "run_driver"),
    ("simulate", "sweep_runs"),
    ("simulate", "detector_filter"),
    ("metrics", "fwhm"),
    ("metrics", "baseline_subtract"),
    ("kstest", "ks_two_sample"),
    ("kstest", "ecdf"),
    ("kstest", "waveform_samples_for_cdf"),
    ("topology", "cycle_space"),
    ("topology", "kcl_residual"),
    ("waveform", "write_waveform_csv"),
    ("waveform", "read_waveform_csv"),
    ("svgplot", "write_plot"),
)


def _count_for(name: str, args, result) -> dict[str, int]:
    """Work counted at a span boundary, from the call's own arguments."""
    if name == "simulate.transient":
        return {"simulate.steps": int(args[1].steps)}
    if name == "kstest.ks_two_sample":
        return {"kstest.samples": len(args[0]) + len(args[1])}
    if name == "topology.cycle_space":
        return {"topology.networks": 1}
    if name == "waveform.write_waveform_csv":
        return {"waveform.rows": len(args[1])}
    if name == "waveform.read_waveform_csv":
        return {"waveform.rows": len(result)}
    return {}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: str
    run_id: str


class Tracer:
    """In-memory span recorder shared by the main thread and pool threads."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # The benchmark starts no threads, so a span opened on another
        # thread was caused by the program's pool, which the main thread's
        # innermost open span is waiting on.
        return self._main_stack[-1] if self._main_stack else None

    @contextmanager
    def span(self, name: str):
        span_id, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def _open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, span_id: int, parent: int | None, name: str,
               start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span = Span(span_id, parent, name, start, end,
                    threading.current_thread().name, self.run_id)
        with self._lock:
            self.spans.append(span)

    def add_counts(self, counts: dict[str, int]) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        """Wrap every function of ``LAYER_FUNCTIONS`` wherever it is bound."""
        import pulsenet.cli  # noqa: F401  (imports every layer module)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "pulsenet" or n.startswith("pulsenet.")]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"pulsenet.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Run the body untraced: no span and no count is recorded."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer.add_counts(_count_for(name, args, result))
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[str, float] = {}
        for span in self.spans:
            covered = _union_length(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.id, ())])
            out[span.name] = out.get(span.name, 0.0) + (
                span.end - span.start - covered)
        return out

    def wall_times(self) -> dict[str, float]:
        """Total inclusive duration per span name, in seconds."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"run_id": self.run_id, "counts": self.counts,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
