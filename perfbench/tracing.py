"""In-memory spans and counters recorded from outside the package.

A span is (name, start, end, parent) plus the counters charged to it while
it was the innermost open span.  Layer boundaries inside the package are
observed by replacing a function at the attribute where its caller looks
it up (``numpy.fft.rfftn``, ``magma_lab.profile.integrate_shot``, ...) and
restoring it afterwards.  High-frequency leaf calls (the transforms) only
add to the counters of the enclosing span; everything else opens a span.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: int
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans and counters --------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, attrs=attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, key: str, amount: float = 1) -> None:
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts[key] = counts.get(key, 0) + amount

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def subtree(self, index: int) -> list[int]:
        """Indices of the span and all its descendants (spans are preorder)."""
        out = [index]
        members = {index}
        for i in range(index + 1, len(self.spans)):
            if self.spans[i].parent in members:
                members.add(i)
                out.append(i)
        return out

    def total(self, index: int, key: str) -> float:
        return sum(self.spans[i].counts.get(key, 0) for i in self.subtree(index))

    def within(self, index: int, name: str) -> list[int]:
        """Indices of the spans called name in the subtree of index."""
        return [i for i in self.subtree(index) if self.spans[i].name == name]

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Charge calls and their time to the enclosing span, no span of their own."""
        original = getattr(owner, attr)
        clock = time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            out = original(*args, **kwargs)
            self.count(key + ".s", clock() - t0)
            self.count(key + ".calls")
            return out

        self._patch(owner, attr, counted)

    def span_calls(self, owner, attr: str, name: str, attrs_of=None, on_result=None) -> None:
        """Open a span around every call; attrs_of(kwargs) tags it, on_result(span, out) notes it."""
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            attrs = attrs_of(kwargs) if attrs_of else {}
            with self.span(name, **attrs) as sp:
                try:
                    out = original(*args, **kwargs)
                except Exception as exc:
                    sp.attrs["raised"] = type(exc).__name__
                    raise
                if on_result is not None:
                    on_result(sp, out)
                return out

        self._patch(owner, attr, spanned)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install):
        """Run the block with the wrappers that install(self) puts in place."""
        install(self)
        try:
            yield
        finally:
            self.restore()

    def dump(self, path, facts: dict) -> None:
        payload = {
            "facts": facts,
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "attrs": s.attrs, "counts": s.counts}
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def install_package_wrappers(tracer: Tracer) -> None:
    """Wrap the boundaries named in perfbench/README.md (the counter table)."""
    import magma_lab.cli
    import magma_lab.profile

    install_fft_counters(tracer)
    tracer.span_calls(
        magma_lab.profile, "integrate_shot", "profile.integrate_shot",
        attrs_of=lambda kw: {"keep_samples": bool(kw.get("keep_samples", True))},
    )

    def add_nfev(span, sol):
        span.counts["rhs_evals"] = sol.nfev

    tracer.span_calls(magma_lab.profile, "solve_ivp", "scipy.solve_ivp", on_result=add_nfev)
    tracer.span_calls(magma_lab.cli, "evolve", "evolution.evolve", on_result=note_evolve)
    tracer.span_calls(magma_lab.cli, "write_snapshot", "grid.write_snapshot")


def note_evolve(span: Span, result) -> None:
    """Record accepted steps and summed CG iterations of an EvolveResult."""
    rep = result.report
    span.attrs["steps"] = len(rep.times) - 1
    span.attrs["cg_iters"] = int(rep.cg_iterations.sum())


def install_fft_counters(tracer: Tracer) -> None:
    import numpy as np

    for fn in ("rfftn", "irfftn", "fftn"):
        tracer.count_calls(np.fft, fn, "fft")


def median_call_s(fn, budget_s: float = 0.25) -> float:
    """Median wall time of 5 to 200 repeated calls, sized to a time budget."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    reps = max(5, min(200, int(budget_s / max(first, 1e-9))))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
