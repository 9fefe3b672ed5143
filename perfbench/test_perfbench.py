"""Self-tests of the benchmark harness; none of them runs a timed workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import launch
import perfstats
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
    ]
    assert perfstats.layer_self_times(spans) == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})


def test_self_time_clips_spans_to_the_setup_mark():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("e", 0.5, 1.5, -1),
    ]
    totals = perfstats.layer_self_times(spans, since=2.5)
    assert totals == pytest.approx({"a": 2.0, "b": 1.0, "c": 0.5, "d": 4.0, "e": 0.0})
    assert sum(totals.values()) == pytest.approx(10.0 - 2.5)


def test_recorder_spans_nest_and_count_delegated_work_once():
    recorder = launch.Recorder()

    def batch(_self, rows):
        return rows

    traced_batch = recorder.span("layer", batch, launch._rows)

    def serial(self, row):
        return traced_batch(self, [row])[0]

    traced_serial = recorder.span("layer", serial, launch._one_row)
    outer = recorder.span("outer", lambda _self: traced_serial(None, 7), None)
    assert outer(None) == 7
    assert [span[0] for span in recorder.spans] == ["outer", "layer", "layer"]
    assert [span[3] for span in recorder.spans] == [-1, 0, 1]
    assert recorder.counters["layer.rows"] == 1
    assert recorder.counters["layer.calls"] == 1
    assert recorder.counters["outer.calls"] == 1


@pytest.mark.parametrize(
    "count, percentile",
    [(1, None), (19, None), (99, None), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(count, percentile):
    assert perfstats.reportable_percentile(count) == percentile


def test_timing_summary_states_sample_count_and_tail():
    assert "n=4; too few samples" in perfstats.describe_timing([4.0, 1.0, 3.0, 2.0])
    text = perfstats.describe_timing([float(value) for value in range(1, 101)])
    assert "median 50.5000" in text and "p90 90.0000" in text and "n=100" in text


@pytest.mark.parametrize("name", ["wall_s", "phy.turbo.rows_per_call", "9lives", "a-b.c_d"])
def test_metric_name_grammar_accepts(name):
    assert perfstats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_wall", ".x", "a b", "a/b", "wall(s)", "x" * 65])
def test_metric_name_grammar_rejects(name):
    assert not perfstats.valid_metric_name(name)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(perfstats.valid_metric_name(name) for name in names)


def test_packet_count_comes_from_the_output():
    assert run.count_packets(b"BLER ...\n  errors=3 packets=1120 chunks=140 stop=budget\n") == 1120
    payload = {
        "identity": {"scale_params": {"num_packets": 32}},
        "tables": {"table": {"rows": [{}] * 40}},
    }
    assert run.count_packets(json.dumps(payload).encode()) == 1280
    assert run.count_packets(b"no packets here") == 0


def test_exits_without_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__")
    )
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_dry_run_through_the_traced_path(workload):
    result = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "2012", "--trace", "1", "--dry-run"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    outcome = json.loads(result.stdout.strip().splitlines()[-1])
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] == 2
    metrics = outcome["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    shares = ["setup.share_pct", "runner.share_pct"] + [f"{layer}.share_pct" for layer in run.LAYERS]
    assert sum(metrics[name]["value"] for name in shares) == pytest.approx(100.0)
    assert metrics["runner.self_s"]["value"] >= 0.0
    assert metrics["phy.turbo.rows"]["value"] > 0
    assert not list(run.RUNS_DIR.iterdir())
