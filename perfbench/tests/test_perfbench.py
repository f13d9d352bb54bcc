"""Tests of the benchmark's own arithmetic and accounting (fast; no timed runs)."""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from harness import run_forked, tail  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, instrument  # noqa: E402


def test_self_time_on_synthetic_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["oracle.a", 1.0, 4.0, 0],
        ["oracle.b", 2.0, 3.0, 1],
        ["regions.c", 5.0, 9.0, 0],
        ["regions.c", 9.5, 11.0, 0],  # runs past its parent's end: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 1.0, 4.0, 1.5])
    s = summarize(spans)
    assert s["regions.c.calls"] == 2
    assert s["regions.c.self_s"] == pytest.approx(5.5)
    assert s["oracle.self_s"] == pytest.approx(3.0)
    assert s["cli.self_s"] == pytest.approx(2.5)


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(50, 0, -1))
    assert tail(xs) == (40, 80.0)
    value, pct = tail(range(11))
    assert value == 0 and pct == pytest.approx(100 / 11)
    assert tail([3, 1, 2]) == (3, None)


def test_printed_metrics_are_named_in_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    plain = [{"wall_s": 1.0 + i / 100, "cpu_s": 1.5, "peak_rss_mb": 80.0} for i in range(20)]
    traced = [dict(r, layer={"oracle.self_s": 0.9}) for r in plain]
    for metrics, units in ((run.end_to_end(plain, [1.0, 1.1]), run.END_TO_END),
                           (run.per_layer(traced, plain), run.PER_LAYER)):
        assert set(metrics) == set(units)
        for name in metrics:
            assert declared[name] == units[name]
    assert set(declared) == set(run.END_TO_END) | set(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _raises():
    raise RuntimeError("injected")


def test_fail_ratio_counts_injected_failures():
    wl = WORKLOADS["certify"]
    records = [
        {"wall_s": 0.1, "units": 17, "failed": 0, "reason": None},
        {"wall_s": 0.1, "units": 17, "failed": 2, "reason": "exit 1: "},
        run_forked(_raises, timeout_s=30),
        run_forked(lambda: time.sleep(30), timeout_s=0.5),
    ]
    assert records[2]["reason"].startswith("RuntimeError: injected")
    assert records[3]["reason"].startswith("timeout")
    assert run.account(records, wl) == (4 * 17, 2 + 2 * 17)


def test_forked_item_sees_no_cache_from_earlier_items():
    lib = run.load_library()
    lib.symgroup.young_orthogonal_rep.cache_clear()

    def body():
        lib.cloneregion.decompose(4, 2)
        return lib.symgroup.young_orthogonal_rep.cache_info().currsize

    assert run_forked(body, timeout_s=60) > 0
    assert lib.symgroup.young_orthogonal_rep.cache_info().currsize == 0


def test_instrument_traces_public_calls_and_restores_them():
    lib = run.load_library()
    original = lib.algebra.build_Q
    tracer = Tracer()
    instrument(tracer, lib)
    try:
        lib.cloneregion.decompose(4, 2)
    finally:
        tracer.restore()
    assert lib.algebra.build_Q is original
    s = summarize(tracer.spans)
    assert s["algebra.decompose.calls"] == 1
    assert s["algebra.build_Q.calls"] == 2
    assert tracer.counters["algebra.eigh_work"] == 2 * 3**3  # two 3x3 Q matrices
