"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from metrics import (  # noqa: E402
    FAILED,
    Ops,
    failed_ops_frac,
    median,
    model_table_quality,
    quantile,
    RoundClock,
)


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # children overlap ([1,3] and [2,4]) and one runs past the parent's end
    children = [(6, 7), (1, 3), (2, 4), (9, 12)]
    assert tracing.self_time(0, 10, children) == pytest.approx(10 - (3 + 1 + 1))


def test_self_time_without_children_is_the_duration():
    assert tracing.self_time(2.5, 4.0, []) == pytest.approx(1.5)


def test_round_metrics_busy_and_self_time():
    tr = tracing.Tracer("t")
    tr.start_round(0)
    outer = tr.open("pairfeat.build_training_set")
    inner = tr.open("pairfeat.PairFeaturizer")
    tr.close(inner)
    tr.close(outer)
    # set exact times: outer 0..10, inner 2..5
    tr.spans[outer][2:4] = [0.0, 10.0]
    tr.spans[inner][2:4] = [2.0, 5.0]
    m = tr.round_metrics(tr.round_id)
    assert m["pairfeat.build_training_set.s"] == pytest.approx(10.0)
    assert m["pairfeat.build_training_set.self_s"] == pytest.approx(7.0)
    assert m["pairfeat.PairFeaturizer.s"] == pytest.approx(3.0)


def test_nested_spans_of_one_name_count_once():
    tr = tracing.Tracer("t")
    tr.start_round(0)
    a = tr.open("mlcore.fit_tree")
    b = tr.open("mlcore.fit_tree")
    tr.close(b)
    tr.close(a)
    tr.spans[a][2:4] = [0.0, 4.0]
    tr.spans[b][2:4] = [1.0, 2.0]
    assert tr.round_metrics(tr.round_id)["mlcore.fit_tree.s"] == pytest.approx(4.0)


def test_phase_spans_switch_and_close_with_their_parent():
    tr = tracing.Tracer("t")
    tr.start_round(0)
    top = tr.open("recommend.run_experiment")
    for name in ("a", "a", "b"):
        tr.phase(f"recommend.run_experiment.{name}")
        tr.close(tr.open("recommend.select_neighbors"))
    tr.close(top)
    names = [s[1] for s in tr.spans]
    assert names.count("recommend.run_experiment.a") == 1
    assert names.count("recommend.run_experiment.b") == 1
    assert all(s[3] is not None for s in tr.spans)
    parents = {s[1]: s[4] for s in tr.spans if s[1].startswith("recommend.run_experiment.")}
    assert set(parents.values()) == {top}


def test_wrapping_records_spans_and_restores_the_package():
    from interestsim import evalkit, mlcore

    original = mlcore.predict
    tr = tracing.Tracer("t")
    tr.start_round(0)
    tracing.install(tr)
    try:
        assert mlcore.predict is not original
        assert evalkit.mlcore.predict is mlcore.predict
    finally:
        tr.uninstall()
    assert mlcore.predict is original


def test_boundary_hooks_fire_after_package_calls_and_come_off():
    from interestsim import mlcore
    from interestsim.mlcore import hybrid, linear

    original = mlcore.fit_linear
    seen = []
    patches = tracing.hook_boundaries(lambda: seen.append(1))
    try:
        assert hybrid.fit_linear is mlcore.fit_linear is linear.fit_linear is not original
        with pytest.raises(ValueError):
            mlcore.fit_linear(None, link="bogus")
        assert seen == [1]
    finally:
        tracing.restore(patches)
    assert hybrid.fit_linear is original


def test_every_layer_metric_is_listed_in_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == tracing.LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_ref", "setup_s", "peak_rss_mb"]


class _FakeTime:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_round_clock_divides_each_stretch_by_its_reference_timings():
    now = _FakeTime()
    refs = iter([1.0, 2.0, 4.0])

    def reference():
        now.t += 0.5  # reference time is left out of the round
        return next(refs)

    clock = RoundClock(reference, stretch=1.5, now=now, cpu=now)
    clock.begin()
    now.t += 1.0
    clock.boundary()  # 1 s of work: too short to close a stretch
    now.t += 2.0
    clock.boundary()  # 3 s of work between references 1.0 and 2.0
    now.t += 3.0
    wall, units = clock.end()  # 3 s of work between references 2.0 and 4.0
    assert wall == pytest.approx(6.0)
    assert units == pytest.approx(3.0 / 1.5 + 3.0 / 3.0)
    assert clock.refs == [1.0, 2.0, 4.0]
    assert clock.ref_cpu == pytest.approx(1.0)


def test_ops_report_each_operation_boundary():
    seen = []
    ops = Ops()
    ops.after_op = lambda: seen.append(ops.attempted)
    ops.call("a", lambda: 1)
    ops.call("b", lambda: 1 / 0)
    assert seen == [1, 2]


# -- failures and quality ----------------------------------------------------------


def test_failed_ops_frac_keeps_its_base():
    assert failed_ops_frac(3, 12) == 0.25
    assert failed_ops_frac(0, 1) == 0.0
    with pytest.raises(ValueError):
        failed_ops_frac(0, 0)
    with pytest.raises(ValueError):
        failed_ops_frac(5, 4)


class _Diverged(Exception):
    pass


def test_ops_counts_raised_and_wrong_operations():
    ops = Ops(solver_errors=(_Diverged,))
    assert ops.call("ok", lambda: 7) == 7

    def diverge():
        raise _Diverged("no convergence")

    def crash():
        raise KeyError("bug")

    assert ops.call("solver", diverge) is FAILED
    assert ops.correct  # a reported non-convergence is a failure, not a wrong output
    assert ops.call("crash", crash) is FAILED
    assert not ops.correct
    ops.check("ok", False, "digest mismatch")
    assert (ops.failed, ops.attempted) == (3, 3)
    assert ops.frac() == 1.0
    assert [f["op"] for f in ops.failures] == ["solver", "crash", "ok"]


def test_failed_fits_score_as_a_guess():
    rows = [
        {"task": "clf", "ok": True, "score": 0.9},
        {"task": "clf", "ok": False, "score": None},
        {"task": "reg", "ok": True, "score": 30.0},
        {"task": "reg", "ok": False, "score": None},
    ]
    assert model_table_quality(rows, "clf") == pytest.approx((0.9 + 0.5) / 2)
    assert model_table_quality(rows, "reg") == pytest.approx((30.0 + 0.0) / 2)
    with pytest.raises(ValueError):
        model_table_quality(rows[:2], "reg")


def test_quantiles_match_the_standard_library():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert median(values) == statistics.median(values)
    assert quantile(values, 0.25) == pytest.approx(statistics.quantiles(values, n=4, method="inclusive")[0])
    assert quantile([2.0], 0.95) == 2.0


def test_digest_ignores_last_bit_float_noise():
    import workloads

    x = np.array([0.1, 1.0 / 3.0, 2.5e-7, 7.0])
    assert workloads.digest(x) == workloads.digest(np.nextafter(x, 1.0))
    assert workloads.digest(x) != workloads.digest(x * 1.001)


def test_tracer_times_a_wrapped_call():
    tr = tracing.Tracer("t")
    tr.start_round(0)

    def work(n):
        time.sleep(0.01)
        return n

    wrapped = tr._wrapper(work, "synthgen.generate")
    assert wrapped(3) == 3
    assert tr.round_metrics(tr.round_id)["synthgen.generate.s"] >= 0.01
