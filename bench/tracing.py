"""Span tracing of the package's public functions, installed from outside.

`Tracer.install` replaces each traced function at every module binding
that holds it (``polylog.polylog``, ``modesum.polylog``, ``zetacasimir.polylog``
...), so calls between layers are caught without touching the package.
Each call leaves a span (id, parent, op, name, start, end) in flat arrays;
self time, the span's duration minus the time its child spans cover, is
summed per function as the spans close.  `uninstall` puts the originals
back, and `write` dumps the spans as gzipped CSV.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns
from typing import Any, Callable

TRACED = (
    "gammafn.gamma",
    "hurwitz.hurwitz_zeta",
    "polylog.polylog",
    "polylog.polylog_neg_int",
    "polylog.polylog_series",
    "polylog.riemann_zeta",
    "hankel.polylog_hankel",
    "hankel.hankel_quadrature",
    "modesum.regularized_coefficients",
    "modesum.regularized_vev",
    "modesum.continuation_at_zero",
    "modesum.mode_sum_bruteforce",
    "casimir.tensor_between_plates",
    "casimir.tensor_outside",
    "casimir.renormalized_coefficients",
    "casimir.milton_B",
    "extrapolate.richardson_even",
    "cli.main",
)


class Tracer:
    def __init__(self) -> None:
        self.names = list(TRACED)
        self.calls = [0] * len(self.names)
        self.raised = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.bruteforce_terms = 0  # sum of L over mode_sum_bruteforce(u, cfg, p, L)
        self.op = -1
        self._started = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._span_id = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._patched: list[tuple[Any, str, Callable]] = []

    def _wrap(self, nid: int, fn: Callable) -> Callable:
        counts_terms = self.names[nid] == "modesum.mode_sum_bruteforce"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self._started
            self._started += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            if counts_terms:
                self.bruteforce_terms += kwargs["L"] if "L" in kwargs else args[3]
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[nid] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self._record(sid, parent, nid, start, end)

        return traced

    def _record(self, sid: int, parent: int, nid: int, start: int, end: int) -> None:
        self._span_id.append(sid)
        self._parent.append(parent)
        self._op.append(self.op)
        self._name.append(nid)
        self._start.append(start)
        self._end.append(end)

    def install(self) -> None:
        originals = [
            getattr(importlib.import_module(f"zetacasimir.{name.split('.')[0]}"), name.split(".")[1])
            for name in self.names
        ]
        # every module is imported by now, so each binding is in this list
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "zetacasimir" or key.startswith("zetacasimir.")
        ]
        for nid, original in enumerate(originals):
            wrapper = self._wrap(nid, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op calls, self time in ms and raises for every traced function."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid] / ops
            out[f"{name}.self_ms"] = self.self_ns[nid] / 1e6 / ops
            out[f"{name}.raised"] = self.raised[nid] / ops
        return out

    def write(self, path: str) -> int:
        """Spans as gzipped CSV, one per line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for row in zip(self._span_id, self._parent, self._op, self._name, self._start, self._end):
                fh.write(f"{row[0]},{row[1]},{row[2]},{self.names[row[3]]},{row[4]},{row[5]}\n")
        return len(self._span_id)
