"""Call spans recorded around the public functions of ``qrng_forge``.

A :class:`Tracer` replaces every public function of the given modules,
in every module namespace that holds it (so ``pipeline.find_coincidences``
and ``cli.read_stream`` are traced as well), with a wrapper that appends
``[name, start, end, parent, counts]`` to an in-memory list. Spans are
named ``<defining module>.<function>``. Nothing is written until the
caller asks for :meth:`Tracer.dump`, and the originals come back with
:meth:`Tracer.uninstall`, so untraced code (the output checks) can share
the process. Single-threaded use only: the parent of a span is the span on
top of one shared stack.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Wraps public functions of ``modules`` plus the listed ``methods``.

    ``counters`` maps a span name to ``f(args, kwargs, result) -> tuple``
    of item counts stored with the span, so ratios are measured where
    the work happens.
    """

    def __init__(self, modules, methods=(), counters=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._counters = counters or {}
        self._patches: list[tuple] = []
        wrappers: dict = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("qrng_forge.")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patches.append((module, attr, obj, wrappers[obj]))
        for owner, attr in methods:
            obj = owner.__dict__[attr]
            self._patches.append((owner, attr, obj, self._wrap(obj)))

    def _wrap(self, fn):
        name = _layer_name(fn)
        count = self._counters.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "counts": s[4]}
            for s in self.spans
        ]


def wrapper_cost(calls: int = 20000) -> float:
    """Wall seconds one wrapped call adds: a traced minus an untraced call
    of a no-op, the median of five rounds of ``calls`` calls each."""

    def noop():
        return None

    traced = Tracer([])._wrap(noop)
    rounds = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        rounds.append(((time.perf_counter() - t1) - (t1 - t0)) / calls)
    return sorted(rounds)[2]


def summarize(spans: list[list], first: int, end: int) -> dict[str, dict]:
    """Per-name totals over ``spans[first:end]`` (one iteration).

    ``s`` is inclusive time of the outermost spans of that name (a
    recursive call is not counted twice), ``self_s`` the summed span time
    minus the time its child spans cover, ``counts`` the element-wise sum
    of the recorded counters.
    """
    child = defaultdict(float)
    for span in spans[first:end]:
        if span[3] >= first:
            child[span[3]] += span[2] - span[1]
    out: dict[str, dict] = {}
    for i in range(first, end):
        name, start, stop, parent, counts = spans[i]
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": None})
        row["calls"] += 1
        row["self_s"] += (stop - start) - child[i]
        p = parent
        while p >= first and spans[p][0] != name:
            p = spans[p][3]
        if p < first:
            row["s"] += stop - start
        if counts is not None:
            row["counts"] = (
                list(counts) if row["counts"] is None
                else [a + b for a, b in zip(row["counts"], counts)]
            )
    return out


def stage_spans(spans: list[list], first: int, end: int, root: str,
                stage_of: dict[str, str]) -> dict:
    """Seconds from the first to the last child span of each stage of ``root``.

    Children of the first ``root`` span in ``spans[first:end]`` are assigned
    to a stage by name; a child whose name is not in ``stage_of`` belongs
    to the stage of the child before it.
    """
    roots = [i for i in range(first, end) if spans[i][0] == root]
    if not roots:
        return {}
    bounds: dict[str, list[float]] = {}
    stage = None
    for span in spans[roots[0] + 1:end]:
        if span[3] != roots[0]:
            continue
        stage = stage_of.get(span[0], stage)
        if stage is None:
            continue
        lo_hi = bounds.setdefault(stage, [span[1], span[2]])
        lo_hi[0] = min(lo_hi[0], span[1])
        lo_hi[1] = max(lo_hi[1], span[2])
    return {k: hi - lo for k, (lo, hi) in bounds.items()}
