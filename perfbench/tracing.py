"""Spans and counters recorded around calls into the tensorlandscape modules.

A ``Tracer`` replaces functions by timing wrappers at the names where their
callers look them up (``tensorlandscape.scan.s_zero`` is what the band
search calls, ``tensorlandscape.cli.crt_expected`` what the oracle command
calls), so nothing in the package changes.  Spans and counters stay in
memory; ``dump`` writes them out once the run is over.  Every wrapped
function is called from the main thread, so one span stack suffices.

A layer's self time is the sum over its spans of the span's duration minus
the part of its interval that child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYERS = ("complexity", "thresholds", "scan", "kacrice", "simulate", "cli")

#: Oracle dimensions reported as kacrice.ms_per_sample.n<N>.
KACRICE_DIMS = (20, 40, 80, 160)

#: |sigma . u| at or above this counts as recovering the spike.
RECOVERED_OVERLAP = 0.9

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("complexity.calls", "count", "lower"),
    ("complexity.points", "count", "lower"),
    ("complexity.self_s", "s", "lower"),
    ("complexity.us_per_call", "us", "lower"),
    ("scan.projection_calls", "count", "lower"),
    ("scan.complexity_calls_per_projection", "count", "lower"),
    ("scan.self_s", "s", "lower"),
    ("scan.band_zero_s", "s", "lower"),
    ("scan.band_star_s", "s", "lower"),
    ("thresholds.self_s", "s", "lower"),
    ("kacrice.estimates", "count", "lower"),
    ("kacrice.samples", "count", "lower"),
    ("kacrice.self_s", "s", "lower"),
    *[(f"kacrice.ms_per_sample.n{n}", "ms", "lower") for n in KACRICE_DIMS],
    ("kacrice.thread_speedup", "ratio", "higher"),
    ("kacrice.ess_ratio", "ratio", "higher"),
    ("kacrice.log_se_max", "ratio", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.make_tensor_s", "s", "lower"),
    ("simulate.grad_calls", "count", "lower"),
    ("simulate.grad_us", "us", "lower"),
    ("simulate.hess_calls", "count", "lower"),
    ("simulate.hess_us", "us", "lower"),
    ("simulate.contract_bytes", "bytes", "lower"),
    ("simulate.contract_gbps", "GB/s", "higher"),
    ("newton.starts", "count", "lower"),
    ("newton.failed_starts", "count", "lower"),
    ("newton.failed_ratio", "ratio", "lower"),
    ("newton.starts_to_complete", "count", "lower"),
    ("newton.s_per_start", "s", "lower"),
    ("newton.grad_calls_per_start", "count", "lower"),
    ("power.runs", "count", "lower"),
    ("power.iters", "count", "lower"),
    ("power.cap_hits", "count", "lower"),
    ("power.recovered_ratio", "ratio", "higher"),
    ("ascent.runs", "count", "lower"),
    ("ascent.iters", "count", "lower"),
    ("ascent.cap_hits", "count", "lower"),
    ("ascent.objective_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: int
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    run_id: int = 0
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    def wrap(self, fn, name: str, layer: str, hook=None):
        """Return fn timed as a span.

        ``hook(tracer, span, call, result)`` runs after a successful call and
        may add counters or span info; ``call`` binds the arguments on demand.
        """

        def traced(*args, **kwargs):
            if not self._stack:
                self.run_id += 1  # a root call starts a new run: one CLI call, one optimizer run
            index = len(self.spans)
            span = Span(name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        self.run_id)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, span, _Call(fn, args, kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, table) -> None:
        """Replace each (module, attribute, layer, hook) entry by its wrapper."""
        for module_name, attr, layer, hook in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self.wrap(original, name, layer, hook))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "layer", "start", "end", "parent", "run_id", "info"],
                "spans": [[s.name, s.layer, s.start, s.end, s.parent, s.run_id, s.info]
                          for s in self.spans],
                "counters": dict(self.counters),
            }, fh)


@dataclass
class _Call:
    fn: object
    args: tuple
    kwargs: dict

    def arg(self, name: str):
        bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


# ---------------------------------------------------------------------------
# span-tree arithmetic

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def ess_ratio(n_samples: int, log_std_error: float) -> float:
    """ESS / N of a Monte Carlo mean, from its relative standard error.

    With weights r_i, ESS = (sum r)^2 / sum r^2 and the relative standard
    error is se = std(r, ddof=1) / (sqrt(N) mean(r)); then
    ESS / N = 1 / (1 + (N - 1) se^2).
    """
    return 1.0 / (1.0 + (n_samples - 1) * log_std_error ** 2)


# ---------------------------------------------------------------------------
# what to wrap

def _count_points(tr, span, call, result):
    tr.counters["complexity.points"] += int(getattr(result, "size", 1))


def _contraction(tr, span, call, result):
    tr.counters["simulate.contract_bytes"] += call.args[0].data.nbytes


def _band(tr, span, call, result):
    span.info = {"which": call.arg("which")}


def _estimate(tr, span, call, result):
    span.info = {"n": call.arg("n"), "samples": call.arg("n_samples"),
                 "which": call.arg("which"), "threads": call.arg("n_threads"),
                 "log_mean": result.log_mean, "log_std_error": result.log_std_error}


def _newton(tr, span, call, result):
    tr.counters["newton.starts"] += call.arg("n_starts")
    tr.counters["newton.failed_starts"] += result[1]


def _power(tr, span, call, result):
    tensor = call.args[0]
    sigma, iters = result
    tr.counters["power.runs"] += 1
    tr.counters["power.iters"] += iters
    tr.counters["power.cap_hits"] += iters >= call.arg("max_iters")
    tr.counters["power.recovered"] += abs(float(sigma @ tensor.u)) >= RECOVERED_OVERLAP
    # one contraction of the full tensor per iteration
    tr.counters["simulate.contract_bytes"] += iters * tensor.data.nbytes


def _ascent(tr, span, call, result):
    trace = result[1]
    tr.counters["ascent.runs"] += 1
    tr.counters["ascent.iters"] += trace.iters
    tr.counters["ascent.cap_hits"] += (not trace.converged
                                       and trace.iters >= call.arg("max_iters"))


_P = "tensorlandscape."
_SIMULATE_HOOKS = {
    "make_spiked_tensor": None,
    "noiseless_tensor": None,
    "objective": _contraction,
    "riemannian_grad": _contraction,
    "riemannian_hess": _contraction,
    "power_iteration": _power,
    "gradient_ascent": _ascent,
    "find_critical_points": _newton,
    "landscape_histogram": None,
}

#: (module, attribute, layer, hook): every library name the CLI looks up,
#: the complexity surfaces and projections as the scan module looks them up,
#: and the simulate functions as simulate itself (and the benchmark) look
#: them up.
WRAPS = [
    (_P + "scan", "s_star", "complexity", _count_points),
    (_P + "scan", "s_zero", "complexity", _count_points),
    (_P + "cli", "s_star", "complexity", _count_points),
    (_P + "cli", "s_zero", "complexity", _count_points),
    (_P + "scan", "project_max_over_x", "scan", None),
    (_P + "cli", "project_max_over_x", "scan", None),
    (_P + "cli", "project_max_over_m", "scan", None),
    (_P + "cli", "grid_centers", "scan", None),
    (_P + "cli", "band_endpoints", "scan", _band),
    (_P + "cli", "lambda_critical", "thresholds", None),
    (_P + "cli", "m_critical", "thresholds", None),
    (_P + "cli", "good_location_zero", "thresholds", None),
    (_P + "cli", "crt_expected", "kacrice", _estimate),
    (_P + "cli", "growth_rate_fit", "kacrice", None),
    *[(_P + "simulate", name, "simulate", hook) for name, hook in _SIMULATE_HOOKS.items()],
    *[(_P + "cli", name, "simulate", hook) for name, hook in _SIMULATE_HOOKS.items()],
    (_P + "cli", "main", "cli", None),
]

_PROJECTIONS = {"scan.project_max_over_x", "cli.project_max_over_x", "cli.project_max_over_m"}
_CONTRACTIONS = {"simulate.objective", "simulate.riemannian_grad", "simulate.riemannian_hess",
                 "cli.objective", "cli.riemannian_grad", "cli.riemannian_hess"}


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, extras: dict) -> dict[str, float]:
    """Every PER_LAYER metric from one traced job.

    ``extras`` supplies what the spans cannot: newton.starts_to_complete,
    cli.bytes_written, kacrice.thread_speedup and trace.overhead_s.  A layer
    the workload does not exercise reports 0 throughout.
    """
    spans, c = tracer.spans, tracer.counters
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, selfs):
        layer_self[s.layer] += t

    def named(*names):
        return [s for s in spans if s.name.split(".", 1)[1] in names]

    def parent_name(s):
        return spans[s.parent].name.split(".", 1)[1] if s.parent >= 0 else ""

    complexity = [s for s in spans if s.layer == "complexity"]
    projections = [s for s in spans if s.name in _PROJECTIONS]
    under_projection = [s for s in complexity if s.parent >= 0
                        and spans[s.parent].name in _PROJECTIONS]
    bands = named("band_endpoints")
    estimates = named("crt_expected")
    grads, hessians = named("riemannian_grad"), named("riemannian_hess")
    newton = named("find_critical_points")
    starts = c["newton.starts"]
    health = [e.info for e in estimates if math.isfinite(e.info["log_mean"])]
    contract_s = sum(s.duration for s in spans if s.name in _CONTRACTIONS) + sum(
        t for s, t in zip(spans, selfs) if s.name.endswith(".power_iteration"))
    complexity_s = sum(s.duration for s in complexity)

    m = {
        "complexity.calls": len(complexity),
        "complexity.points": c["complexity.points"],
        "complexity.self_s": layer_self["complexity"],
        "complexity.us_per_call": 1e6 * _ratio(complexity_s, len(complexity)),
        "scan.projection_calls": len(projections),
        "scan.complexity_calls_per_projection": _ratio(len(under_projection), len(projections)),
        "scan.self_s": layer_self["scan"],
        "scan.band_zero_s": sum((s.duration for s in bands if s.info["which"] == "zero"), 0.0),
        "scan.band_star_s": sum((s.duration for s in bands if s.info["which"] == "star"), 0.0),
        "thresholds.self_s": layer_self["thresholds"],
        "kacrice.estimates": len(estimates),
        "kacrice.samples": sum(e.info["samples"] for e in estimates),
        "kacrice.self_s": layer_self["kacrice"],
        "kacrice.thread_speedup": extras.get("kacrice.thread_speedup", 0.0),
        "kacrice.ess_ratio": min((ess_ratio(h["samples"], h["log_std_error"]) for h in health),
                                 default=0.0),
        "kacrice.log_se_max": max((h["log_std_error"] for h in health), default=0.0),
        "simulate.self_s": layer_self["simulate"],
        "simulate.make_tensor_s": sum((s.duration for s in named("make_spiked_tensor")), 0.0),
        "simulate.grad_calls": len(grads),
        "simulate.grad_us": 1e6 * _ratio(sum(s.duration for s in grads), len(grads)),
        "simulate.hess_calls": len(hessians),
        "simulate.hess_us": 1e6 * _ratio(sum(s.duration for s in hessians), len(hessians)),
        "simulate.contract_bytes": c["simulate.contract_bytes"],
        "simulate.contract_gbps": 1e-9 * _ratio(c["simulate.contract_bytes"], contract_s),
        "newton.starts": starts,
        "newton.failed_starts": c["newton.failed_starts"],
        "newton.failed_ratio": _ratio(c["newton.failed_starts"], starts),
        "newton.starts_to_complete": extras.get("newton.starts_to_complete", 0),
        "newton.s_per_start": _ratio(sum(s.duration for s in newton), starts),
        "newton.grad_calls_per_start": _ratio(
            sum(parent_name(s) == "find_critical_points" for s in grads), starts),
        "power.runs": c["power.runs"],
        "power.iters": c["power.iters"],
        "power.cap_hits": c["power.cap_hits"],
        "power.recovered_ratio": _ratio(c["power.recovered"], c["power.runs"]),
        "ascent.runs": c["ascent.runs"],
        "ascent.iters": c["ascent.iters"],
        "ascent.cap_hits": c["ascent.cap_hits"],
        "ascent.objective_calls": sum(parent_name(s) == "gradient_ascent"
                                      for s in named("objective")),
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": extras.get("cli.bytes_written", 0),
        "trace.overhead_s": extras["trace.overhead_s"],
    }
    for n in KACRICE_DIMS:
        at_n = [e for e in estimates if e.info["n"] == n]
        m[f"kacrice.ms_per_sample.n{n}"] = 1e3 * _ratio(
            sum(e.duration for e in at_n), sum(e.info["samples"] for e in at_n))
    return {name: m[name] for name, _, _ in PER_LAYER}
