"""Tiny-scale smoke tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  Every
workload is shrunk to a few images and neurons (same presets and engines), so
the whole file takes seconds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from workloads import END_TO_END_UNITS, LAYER_MAP, WORKLOADS, predicted_zero  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str):
    w = WORKLOADS[name]
    return replace(
        w,
        n_neurons=10,
        size=8,
        n_train=3,
        epochs=1,
        n_test=4,
        n_labeling=2,
        autosave_every=2 if w.autosave_every else None,
        expect_learning=False,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {
        name: harness.measure_traced(tiny(name), 0, tmp_path_factory.mktemp(name))
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return {
        name: harness.measure(tiny(name), 0, 0.0, tmp_path_factory.mktemp(name))
        for name in WORKLOADS
    }


def test_spec_names_the_workloads_and_units_of_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: layer.unit for name, layer in LAYER_MAP.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, traced, untraced):
    for outcome, section in ((untraced[name], "end_to_end"), (traced[name], "per_layer")):
        result = outcome.result()
        assert result["correct"], outcome.problems
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_untraced_run_repeats_the_pipeline_with_one_fingerprint(untraced):
    for outcome in untraced.values():
        prints = {p["fingerprint"] for p in outcome.report["pipelines"]}
        assert len(outcome.report["pipelines"]) >= harness.MIN_PIPELINES
        assert len(prints) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quantization_and_io_metrics_are_zero_where_predicted(name, traced):
    metrics = traced[name].metrics
    for metric in LAYER_MAP:
        if predicted_zero(metric, name):
            assert metrics[metric] == 0, metric
        elif metric.startswith(("quantization.", "io.")):
            assert metrics[metric] > 0, metric


def test_a_failing_output_check_is_counted_not_dropped(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "check_outputs", lambda *args: ["injected failure"])
    outcome = harness.measure(tiny("cli-small"), 0, 0.0, tmp_path)
    result = outcome.result()
    assert result["correct"] is False
    assert result["attempted"] == tiny("cli-small").presentations
    assert result["failed"] == result["attempted"]
    assert "injected failure" in outcome.problems


def test_a_raising_pipeline_is_counted_not_dropped(monkeypatch, tmp_path):
    def boom(self):
        raise RuntimeError("injected engine fault")

    monkeypatch.setattr(harness.Pipeline, "run", boom)
    result = harness.measure(tiny("paper-q8"), 0, 0.0, tmp_path).result()
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == tiny("paper-q8").presentations


def test_a_fingerprint_mismatch_between_repeats_fails_the_run(monkeypatch, tmp_path):
    prints = iter(f"print-{i}" for i in range(100))
    monkeypatch.setattr(harness, "fingerprint", lambda *args: next(prints))
    outcome = harness.measure(tiny("paper-hf-float"), 0, 0.0, tmp_path)
    assert outcome.result()["correct"] is False
    assert any("differs" in problem for problem in outcome.problems)
