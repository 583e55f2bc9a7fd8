"""Spans around opuckit's public functions, patched in from outside the package.

Every function named in the ``__all__`` of a traced module (and ``cli.main``)
is replaced, in every opuckit module that binds it, by a wrapper that records
a span: function, start, end and parent span.
A few wrappers also count the work a call does (points evaluated, bytes
written, iteration depth).  Spans stay in memory and are reduced to figures
when their operation ends:

* total time: the summed duration of a function's outermost spans;
* self time: a span's duration minus the time covered by its child spans;
* calls and points: summed over the operation's spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# modules whose public functions carry spans; transforms and period_two are
# cheap and stay untraced
TRACED_MODULES = (
    "serialize",
    "cli",
    "bijection",
    "chain",
    "polynomials",
    "zeros",
    "measure",
    "periodic",
    "selfcheck",
)


# called once per number written or per evaluation point inside a traced
# caller; a span each would cost more than the work it measures
UNTRACED = {"serialize.format_float", "polynomials.eval_poly"}


def _points_of(position):
    def count(args, kwargs, result):
        return int(np.size(args[position]))

    return count


# work counts recorded beside the spans: (args, kwargs, result) -> int
COUNTERS = {
    "polynomials.w_eval": _points_of(2),
    "periodic.discriminant": _points_of(1),
    "polynomials.szego_eval": _points_of(1),
    "serialize.dumps": lambda args, kwargs, result: len(result),
    "chain.maximal_parameters": lambda args, kwargs, result: result.tail_depth,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, count]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._op_start = 0

    def install(self) -> None:
        targets = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"opuckit.{short}"]
            names = getattr(module, "__all__", None) or ["main"]
            for name in names:
                fn = getattr(module, name)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and f"{short}.{name}" not in UNTRACED
                ):
                    targets[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "opuckit" and not mod_name.startswith("opuckit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    # ---- per-operation aggregation ---- #

    def begin_op(self) -> None:
        self._op_start = len(self.spans)

    def end_op(self) -> dict:
        """Figures of the spans recorded since begin_op, then forget them.

        Returns {function: {"total", "self", "calls", "points"}}.
        """
        spans = self.spans[self._op_start :]
        base = self._op_start
        child_time = defaultdict(float)
        for span in spans:
            if span[3] >= base:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for offset, span in enumerate(spans):
            name, start, end, parent = span[0], span[1], span[2], span[3]
            entry = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0, "points": 0})
            duration = end - start
            entry["self"] += duration - child_time[base + offset]
            entry["calls"] += 1
            entry["points"] += span[4]
            # count total time only for spans not nested in a span of the same name
            ancestor = parent
            nested = False
            while ancestor >= base:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                entry["total"] += duration
        del self.spans[self._op_start :]
        return out
