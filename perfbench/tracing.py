"""Spans around the calls into each module's public functions.

The tracer wraps every function a layer module lists in ``__all__`` (and
``cli.main`` for the CLI layer) and rebinds the wrapper under every name
that refers to the original anywhere in the package, because modules
import each other's functions by name (``minimax`` holds its own
``extreme_points``, ``smoothness`` its own ``sup_abs``, ``cli`` most of
the public names).  Each span keeps its name, start, end and parent; self
times are derived from those after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYER_MODULES = ("chebyshev", "kernel", "smoothness", "lp", "minimax", "continuum")


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _extreme_points_info(args, result, exc):
    return {"degree": args[0].degree}


def _lp_info(args, result, exc):
    return {"rows": len(args[1])}


def _solve_info(args, result, exc):
    sol = result if exc is None else getattr(exc, "solution", None)  # Stalled carries one
    if sol is None:
        return {"converged": False}
    return {"rounds": sol.iterations, "converged": bool(sol.converged)}


INFO = {
    "chebyshev.extreme_points": _extreme_points_info,
    "lp.solve_origin_feasible": _lp_info,
    "minimax.solve": _solve_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1, time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if exc is not None:
                    span.error = type(exc).__name__
                if info is not None:
                    span.info = info(args, result, exc)

        return traced


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every public function of the layer modules to a span-recording
    wrapper for the duration of the block."""
    import smoothavg.cli

    wrappers = {}
    for layer in LAYER_MODULES:
        mod = sys.modules[f"smoothavg.{layer}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{name}", fn)
    wrappers[smoothavg.cli.main] = tracer.wrap("cli.main", smoothavg.cli.main)

    rebound = []
    for modname, mod in list(sys.modules.items()):
        if modname != "smoothavg" and not modname.startswith("smoothavg."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                rebound.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in rebound:
            setattr(mod, attr, value)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times from one traced pass.

    ``busy`` is the time covered by the outermost spans that match, so
    nested calls of the same layer are not counted twice; ``self`` is the
    matching spans' time minus the time of their direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def select(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def busy(pred):
        total = 0.0
        for i in select(pred):
            p = spans[i].parent
            while p >= 0 and not pred(spans[p]):
                p = spans[p].parent
            if p < 0:
                total += spans[i].duration
        return total

    def self_time(pred):
        return sum((spans[i].duration - child_time[i] for i in select(pred)), 0.0)

    def named(name):
        return lambda s: s.name == name

    def in_layer(layer):
        return lambda s: s.layer == layer

    solves = select(named("minimax.solve"))
    rounds = 0
    for i in solves:
        if "rounds" in spans[i].info:
            rounds += spans[i].info["rounds"]
        else:  # raised before returning a solution: one LP per round reached
            rounds += sum(1 for s in spans if s.parent == i and s.name == "lp.solve_origin_feasible")
    converged = sum(1 for i in solves if spans[i].info.get("converged"))
    lp_spans = [spans[i] for i in select(in_layer("lp"))]
    ep = named("chebyshev.extreme_points")

    return {
        "chebyshev.extreme_points.calls": (len(select(ep)), "count"),
        "chebyshev.extreme_points.busy_s": (busy(ep), "s"),
        "chebyshev.extreme_points.degree_sum": (
            sum(spans[i].info["degree"] for i in select(ep)), "count"),
        "chebyshev.sup_abs.calls": (len(select(named("chebyshev.sup_abs"))), "count"),
        "chebyshev.sup_abs.busy_s": (busy(named("chebyshev.sup_abs")), "s"),
        "kernel.calls": (len(select(in_layer("kernel"))), "count"),
        "kernel.busy_s": (busy(in_layer("kernel")), "s"),
        "kernel.io_s": (busy(lambda s: s.name in ("kernel.read_kernel_file",
                                                   "kernel.write_kernel_file")), "s"),
        "smoothness.calls": (len(select(in_layer("smoothness"))), "count"),
        "smoothness.busy_s": (busy(in_layer("smoothness")), "s"),
        "smoothness.self_s": (self_time(in_layer("smoothness")), "s"),
        "lp.calls": (len(lp_spans), "count"),
        "lp.busy_s": (busy(in_layer("lp")), "s"),
        "lp.rows_total": (sum(s.info.get("rows", 0) for s in lp_spans), "count"),
        "lp.failed": (sum(1 for s in lp_spans if s.error), "count"),
        "minimax.solves": (len(solves), "count"),
        "minimax.rounds_total": (rounds, "count"),
        "minimax.busy_s": (busy(in_layer("minimax")), "s"),
        "minimax.self_s": (self_time(in_layer("minimax")), "s"),
        # base is minimax.solves; reads 0 when there were no solves
        "minimax.converged_ratio": (converged / len(solves) if solves else 0.0, "ratio"),
        "continuum.ct_fourier.calls": (len(select(named("continuum.ct_fourier"))), "count"),
        "continuum.ct_fourier.busy_s": (busy(named("continuum.ct_fourier")), "s"),
        "continuum.j_functional.calls": (len(select(named("continuum.j_functional"))), "count"),
        "continuum.j_functional.busy_s": (busy(named("continuum.j_functional")), "s"),
        "continuum.j_functional.self_s": (self_time(named("continuum.j_functional")), "s"),
        "continuum.gamma_half_integer.busy_s": (
            busy(named("continuum.gamma_half_integer")), "s"),
        "continuum.prop8_sides.busy_s": (busy(named("continuum.prop8_sides")), "s"),
        "continuum.perturbation_report.busy_s": (
            busy(named("continuum.perturbation_report")), "s"),
        "cli.calls": (len(select(in_layer("cli"))), "count"),
        "cli.self_s": (self_time(in_layer("cli")), "s"),
    }
