"""Tests of the benchmark itself: ``python3 -m pytest bench``."""
import json
import types
from pathlib import Path

import pytest

import run
from layers import PER_LAYER, TracedPackage
from spans import Recorder, Span, self_times, untraced_time
from workloads import GridSimulate, Size

TINY = Size(grid_rows=3, grid_duration=0.002, census_dwell=1.0, g2_duration=0.5)

assert run.import_package() is not None, "emitterforge must be importable from src/"


def test_self_time_of_a_nested_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("second_root", 11.0, 11.5, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 0.5]
    assert untraced_time(spans, wall=12.0) == pytest.approx(1.5)


def test_recorder_wraps_where_callers_look_up_and_restores():
    def inner(x):
        return x + 1

    def outer(x):
        return namespace.inner(x) * 2

    namespace = types.SimpleNamespace(inner=inner, outer=outer)
    alias = types.SimpleNamespace(also_inner=inner)
    recorder = Recorder()
    recorder.install("inner", inner, [namespace, alias], lambda a, k, r: {"out": r})
    recorder.install("outer", outer, [namespace])
    assert namespace.outer(1) == 4
    assert alias.also_inner(5) == 6
    names = [(s.name, s.parent, s.counts) for s in recorder.spans]
    assert names == [("outer", -1, {}), ("inner", 0, {"out": 2}), ("inner", -1, {"out": 6})]
    recorder.uninstall()
    assert namespace.inner is inner and namespace.outer is outer and alias.also_inner is inner


@pytest.mark.parametrize("name", ["grid_simulate", "census", "g2_long"])
def test_smoke_run_of_each_workload(name, tmp_path, capsys):
    report = run.run_workload(name, seed=1, seconds=0, trace=False, size=TINY,
                              work=tmp_path / name, min_passes=1)
    assert report["correct"], capsys.readouterr().out
    assert set(report["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in report["metrics"].values())
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == report


def test_smoke_traced_run_reports_every_layer_metric(tmp_path, capsys):
    report = run.run_workload("grid_simulate", seed=2, seconds=0, trace=True, size=TINY,
                              work=tmp_path / "grid")
    assert report["correct"], capsys.readouterr().out
    assert set(report["metrics"]) == set(PER_LAYER)
    assert report["metrics"]["photonsim.run_detection.calls"]["value"] == 48


def test_tracing_does_not_change_simulate_output(tmp_path):
    work = tmp_path / "grid"
    work.mkdir()
    GridSimulate.make_inputs(work, 7, TINY)
    grid = GridSimulate(work, 7, TINY)
    plain = grid.run_pass(work / "plain")
    package = TracedPackage()
    with package:
        traced = grid.run_pass(work / "traced")
    assert package.recorder.spans, "the traced pass recorded no spans"
    names = sorted(p.name for p in plain.detail.iterdir())
    assert names == sorted(p.name for p in traced.detail.iterdir())
    for name in names:
        assert (plain.detail / name).read_bytes() == (traced.detail / name).read_bytes()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
