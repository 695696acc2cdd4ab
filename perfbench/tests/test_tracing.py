"""Self-time arithmetic, ESS formula, wrapper installation and the metric list."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from tensorlandscape import scan
from tensorlandscape.complexity import ModelParams

ROOT = Path(__file__).resolve().parents[2]


def span(name, layer, start, end, parent, info=None):
    return tracing.Span(name, layer, start, end, parent, 0, info)


def test_self_times_subtract_union_of_children():
    spans = [
        span("cli.main", "cli", 0.0, 10.0, -1),
        span("cli.band_endpoints", "scan", 1.0, 4.0, 0, {"which": "zero"}),
        span("cli.band_endpoints", "scan", 3.0, 6.0, 0, {"which": "star"}),  # overlaps
        span("scan.project_max_over_x", "scan", 1.5, 3.5, 1),
        span("scan.s_zero", "complexity", 2.0, 3.0, 3),
        span("scan.s_zero", "complexity", 3.25, 3.5, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 0.75, 1.0, 0.25])


def test_layer_metrics_from_a_span_tree():
    tr = tracing.Tracer()
    tr.spans = [
        span("cli.main", "cli", 0.0, 10.0, -1),
        span("cli.band_endpoints", "scan", 1.0, 5.0, 0, {"which": "zero"}),
        span("scan.project_max_over_x", "scan", 1.0, 4.0, 1),
        span("scan.s_zero", "complexity", 1.0, 2.0, 2),
        span("scan.s_zero", "complexity", 2.0, 3.5, 2),
        span("cli.band_endpoints", "scan", 6.0, 7.0, 0, {"which": "star"}),
    ]
    tr.counters["complexity.points"] = 2
    m = tracing.layer_metrics(tr, {"trace.overhead_s": 0.5})
    assert [name for name, _, _ in tracing.PER_LAYER] == list(m)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["scan.self_s"] == pytest.approx(1.0 + 0.5 + 1.0)
    assert m["complexity.self_s"] == pytest.approx(2.5)
    assert m["complexity.calls"] == 2
    assert m["complexity.us_per_call"] == pytest.approx(1.25e6)
    assert m["scan.projection_calls"] == 1
    assert m["scan.complexity_calls_per_projection"] == 2
    assert m["scan.band_zero_s"] == pytest.approx(4.0)
    assert m["scan.band_star_s"] == pytest.approx(1.0)
    assert m["kacrice.estimates"] == 0 and m["newton.failed_ratio"] == 0.0
    assert m["trace.overhead_s"] == 0.5


def test_ess_ratio_matches_direct_computation():
    rng = np.random.default_rng(3)
    for n in (2, 10, 400):
        w = np.exp(3.0 * rng.standard_normal(n))
        log_se = np.std(w, ddof=1) / math.sqrt(n) / np.mean(w)  # as McEstimate defines it
        direct = np.sum(w) ** 2 / np.sum(w * w) / n
        assert tracing.ess_ratio(n, log_se) == pytest.approx(direct, rel=1e-12)


def test_wrappers_record_spans_and_restore_originals():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _, _ in tracing.WRAPS}
    tr = tracing.Tracer()
    tr.install(tracing.WRAPS)
    try:
        scan.project_max_over_x(ModelParams(3, 1.0), 0.2, coarse=11)
    finally:
        tr.uninstall()
    assert tr.spans[0].name == "scan.project_max_over_x"
    assert {(s.name, s.parent) for s in tr.spans[1:]} == {("scan.s_star", 0)}
    assert tr.counters["complexity.points"] >= 11  # the coarse scan evaluates 11 points
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=[a]), a) is fn


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(x) for x in tracing.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES) == list(workloads.NAMES)
