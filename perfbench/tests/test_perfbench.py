"""Tests of the benchmark's own code (inputs, metric names, span arithmetic).

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/tests``; the end-to-end runs of ``run.py`` are marked ``slow``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- seeded inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.describe_units(workload, 7, 2)
    assert first == workloads.describe_units(workload, 7, 2)
    assert first != workloads.describe_units(workload, 8, 2)


def test_survey_classifies_every_problem_once_per_unit():
    survey = next(workloads.units("classify-survey", 3))
    keys = [key.rsplit("/", 1)[0] if key.startswith("pool/") else key for key, _ in survey]
    catalog = [workloads.family_key(name, delta) for name, delta in workloads.SURVEY_CATALOG]
    pool = [f"pool/{index}" for index in range(workloads.POOL_SIZE)]
    assert sorted(keys) == sorted(catalog + pool)


# -- metric names --------------------------------------------------------------------


def _declared(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_end_to_end_names_match_the_benchmark_file():
    values = metrics.end_to_end([0.5, 0.4, 0.6], ["ok", "limit", "ok"], [[0.1, 0.2, 0.3]], [1.5], 80.0)
    line = metrics.result_line(True, 3, 0, values, dict(metrics.END_TO_END))
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _declared("end_to_end")
    assert values["setup_s"] == 0.5
    assert values["throughput_ops_s"] == 2.0
    assert values["latency_p50_s"] == pytest.approx(0.2)
    assert values["completed_ratio"] == pytest.approx(2 / 3)


def test_timings_are_medians_over_units():
    # The middle unit is slowed down as a whole; the medians ignore it.
    units = [[0.1, 0.3], [0.4, 0.5, 0.6, 2.0], [0.2]]
    values = metrics.end_to_end([0.3], ["ok"] * 7, units, [1.0, 4.0, 0.25], 90.0)
    assert values["throughput_ops_s"] == 2.0
    assert values["latency_p50_s"] == pytest.approx(0.2)
    assert values["latency_p90_s"] == pytest.approx(0.28)


def test_unit_count_fits_the_run_length():
    assert workloads.unit_count("classify-survey", 35) == 5
    assert workloads.unit_count("twin-batch", 35) == 1
    assert workloads.unit_count("large-states", 1) == 1


def test_per_layer_names_match_the_benchmark_file():
    table = spans.summarise([], [layer for layer, _ in metrics.LAYERS], 1, 2.0)
    counters = dict.fromkeys(
        ("cache_hits", "cache_misses", "memo_hits", "memo_misses",
         "derivations", "limit_trips", "limit_trip_s"), 0,
    )
    values = metrics.per_layer(table, counters, 2.2, 2.0)
    line = metrics.result_line(True, 1, 0, values, dict(metrics.per_layer_names()))
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _declared("per_layer")
    assert values["trace.overhead_ratio"] == pytest.approx(0.1)
    assert values["unattributed_s"] == 2.0
    assert metrics.missing_layers("twin-batch", values)


def test_benchmark_file_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# -- span arithmetic -------------------------------------------------------------------


def _span(sid, parent, thread, layer, start, end, cause=None):
    return spans.Span(sid, parent, cause, thread, layer, 0, start, end)


def test_self_time_and_unattributed_on_a_nested_multithread_fixture():
    caller, pool = 1, 2
    fixture = [
        # caller thread: batch [1, 9] waits for the pool; speedup [10, 14]
        # holds cache [10, 11] which holds canonical [10.25, 10.75].
        _span(0, None, caller, "engine.executor.batch", 1.0, 9.0),
        _span(1, None, pool, "engine.executor.task", 1.5, 8.5, cause=0),
        _span(2, 1, pool, "engine.speedup", 2.0, 6.0),
        _span(3, 2, pool, "core.speedup.full_step", 3.0, 5.0),
        _span(4, None, caller, "engine.speedup", 10.0, 14.0),
        _span(5, 4, caller, "engine.cache", 10.0, 11.0),
        _span(6, 5, caller, "core.canonical", 10.25, 10.75),
    ]
    table = spans.summarise(fixture, ["search.moves"], caller, 15.0)
    assert table["engine.executor.batch"]["self_s"] == 8.0
    assert table["engine.executor.task"]["self_s"] == 3.0
    assert table["engine.speedup"]["calls"] == 2
    assert table["engine.speedup"]["self_s"] == (4.0 - 2.0) + (4.0 - 1.0)
    assert table["engine.cache"]["self_s"] == 0.5
    assert table["core.canonical"]["self_s"] == 0.5
    assert table["search.moves"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    # 15 s window; the caller's root spans cover 8 + 4 seconds.
    assert table["unattributed"]["self_s"] == 3.0
    values = metrics.per_layer(table, dict.fromkeys(
        ("cache_hits", "cache_misses", "memo_hits", "memo_misses",
         "derivations", "limit_trips", "limit_trip_s"), 0), 15.0, 15.0)
    assert values["engine.executor.task_s"] == 7.0
    assert values["engine.executor.concurrency"] == pytest.approx(7.0 / 8.0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_tracer_records_per_thread_spans_and_limit_trips():
    from repro.core.limits import EngineLimitError

    clock = _Clock()
    tracer = spans.Tracer("batch", clock=clock)

    def leaf():
        clock.advance(1.0)

    def inner():
        clock.advance(0.5)
        traced_leaf()
        traced_leaf_again()

    def task():
        clock.advance(2.0)
        traced_inner()

    def batch():
        worker = threading.Thread(target=traced_task)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    def derive():
        clock.advance(4.0)
        raise EngineLimitError("too big", limit_name="max_derived_labels", limit=1, observed=2)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_leaf_again = tracer.wrap("leaf", lambda: traced_leaf())  # same layer nests
    traced_inner = tracer.wrap("inner", inner)
    traced_task = tracer.wrap("task", task)
    traced_batch = tracer.wrap("batch", batch)
    traced_derive = tracer.wrap_derivation(tracer.wrap("inner", derive))

    traced_inner()  # disabled: records nothing
    tracer.enabled = True
    traced_batch()
    with pytest.raises(EngineLimitError):
        traced_derive()
    tracer.enabled = False

    caller = threading.get_ident()
    table = spans.summarise(tracer.spans, ["leaf", "inner", "task", "batch"], caller, 12.0)
    assert table["leaf"]["calls"] == 2
    assert table["leaf"]["self_s"] == 2.0
    assert table["inner"]["calls"] == 2
    assert table["inner"]["self_s"] == 0.5 + 4.0
    assert table["task"]["self_s"] == 2.0
    assert table["batch"]["self_s"] == 4.5
    task_span = next(span for span in tracer.spans if span.layer == "task")
    batch_span = next(span for span in tracer.spans if span.layer == "batch")
    assert task_span.thread != caller and task_span.cause == batch_span.sid
    assert table["unattributed"]["self_s"] == 12.0 - 4.5 - 4.0
    assert (tracer.derivations, tracer.limit_trips, tracer.limit_trip_s) == (1, 1, 4.0)


def test_install_patches_every_import_site_and_fails_on_missing_targets():
    defining = types.ModuleType("fakepkg_a")
    exec("def f(x):\n    return x + 1\nclass C:\n    def m(self):\n        return 2\n",
         defining.__dict__)
    importing = types.ModuleType("fakepkg_b")
    importing.g = defining.f  # ``from fakepkg_a import f as g``
    sys.modules.update(fakepkg_a=defining, fakepkg_b=importing)
    tracer = spans.Tracer("none")
    tracer.enabled = True
    try:
        undo = spans.install(
            tracer, [("layer.f", ["fakepkg_a:f"]), ("layer.m", ["fakepkg_a:C.m"])],
            [], ("fakepkg",),
        )
        assert importing.g(1) == 2 and defining.f(1) == 2 and defining.C().m() == 2
        assert [span.layer for span in tracer.spans] == ["layer.f", "layer.f", "layer.m"]
        spans.uninstall(undo)
        assert importing.g is defining.f and not hasattr(defining.f, "__wrapped__")
        with pytest.raises(LookupError):
            spans.install(tracer, [("layer", ["fakepkg_a:missing"])], [], ("fakepkg",))
    finally:
        del sys.modules["fakepkg_a"], sys.modules["fakepkg_b"]


def test_every_layer_target_exists():
    import repro.engine.executor  # noqa: F401 - load every module holding a target
    import repro.search  # noqa: F401

    tracer = spans.Tracer(metrics.BATCH_LAYER)
    undo = spans.install(tracer, metrics.LAYERS, metrics.DERIVATION_TARGETS, ("repro", "workloads"))
    try:
        import repro.engine.engine as engine_module

        assert hasattr(engine_module.compute_speedup, "__wrapped__")
    finally:
        spans.uninstall(undo)


# -- whole runs ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_named_metric(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=HERE.parent,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == _declared(section)
