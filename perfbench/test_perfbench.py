"""Tests of the benchmark's own arithmetic: spans, summaries, metric names.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, start, end, name="s"):
    return {"id": sid, "parent": parent, "name": name, "thread": 0,
            "start": start, "end": end}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("intervals, expected", [
    ([], 0.0),
    ([(0.0, 1.0)], 1.0),
    ([(0.0, 1.0), (2.0, 3.0)], 2.0),
    ([(0.0, 2.0), (1.0, 3.0)], 3.0),
    ([(0.0, 4.0), (1.0, 2.0)], 4.0),
    ([(1.0, 2.0), (0.0, 1.0)], 2.0),
    ([(1.0, 1.0), (3.0, 2.0)], 0.0),
])
def test_union_length(intervals, expected):
    assert tracing.union_length(intervals) == pytest.approx(expected)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [span(0, None, 0.0, 10.0),
             span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 6.0),   # two threads, overlapping
             span(3, 1, 1.5, 2.5)]                          # grandchild
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_clips_children_to_parent_and_stays_non_negative():
    spans = [span(0, None, 0.0, 2.0), span(1, 0, -1.0, 1.0), span(2, 0, 0.5, 5.0)]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(0.0)
    assert all(v >= 0.0 for v in selfs.values())


def test_nesting_violations():
    good = [span(0, None, 0.0, 2.0), span(1, 0, 0.5, 1.5)]
    assert tracing.nesting_violations(good) == []
    late = [span(0, None, 0.0, 2.0), span(1, 0, 0.5, 2.5)]
    assert tracing.nesting_violations(late) == [(1, 0)]
    open_span = [span(0, None, 0.0, None)]
    assert tracing.nesting_violations(open_span) == [(0, None)]


def test_tracer_links_worker_spans_to_the_main_thread_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x * 2)

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(n)))

    outer = tracer.wrap("outer", fan_out)
    assert outer(4) == [0, 2, 4, 6]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (root,) = by_name["outer"]
    assert root["parent"] is None
    assert len(by_name["leaf"]) == 4
    assert all(s["parent"] == root["id"] for s in by_name["leaf"])
    assert any(s["thread"] != threading.main_thread().ident for s in by_name["leaf"])
    assert tracing.nesting_violations(tracer.spans) == []
    assert all(v >= 0.0 for v in tracing.self_times(tracer.spans).values())


def test_tracer_closes_span_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0]["end"] is not None
    assert tracer._stacks[threading.get_ident()] == []


def test_layer_metrics_arithmetic():
    spans = [span(0, None, 0.0, 10.0, "unit"),
             span(1, 0, 1.0, 5.0, "trajectories.integrate"),
             span(2, 0, 2.0, 8.0, "trajectories.integrate"),
             span(3, 1, 1.0, 2.0, "trajectories.velocity"),
             span(4, 2, 3.0, 5.0, "trajectories.velocity"),
             span(5, 2, 6.0, 6.5, "trajectories.density"),
             span(6, 2, 6.5, 7.0, "trajectories.density"),
             span(7, 2, 7.0, 7.5, "trajectories.density")]
    counters = {"trajectories.trial_steps": 1400.0, "trajectories.chunk_steps": 2,
                "trajectories.velocity.points": 3000}
    m = tracing.layer_metrics(spans, counters, import_s=1.25)
    assert set(m) == set(tracing.LAYER_METRICS) - {"trace.overhead_frac"}
    assert m["import_s"] == 1.25
    assert m["trajectories.integrate_s"] == pytest.approx(7.0)       # union of [1,5],[2,8]
    assert m["trajectories.integrate.self_s"] == pytest.approx(3.0 + 2.5)
    assert m["trajectories.trial_steps_per_s"] == pytest.approx(200.0)
    assert m["trajectories.chunk_s"] == pytest.approx(5.0)
    assert m["trajectories.velocity.calls"] == 2
    assert m["trajectories.velocity_us_per_kpoint"] == pytest.approx(1e6)
    assert m["trajectories.node_rechecks"] == 1
    assert m["gridop.step_ms"] == 0.0
    assert m["trace.spans"] == len(spans)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_percentile_matches_inclusive_quantiles():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    quartiles = statistics.quantiles(xs, n=4, method="inclusive")
    assert benchstats.percentile(xs, 25) == pytest.approx(quartiles[0])
    assert benchstats.percentile(xs, 75) == pytest.approx(quartiles[2])
    assert benchstats.percentile(xs, 0) == 1.0
    assert benchstats.percentile(xs, 100) == 9.0


@pytest.mark.parametrize("n, level", [(3, None), (99, None), (100, "p90"),
                                      (999, "p90"), (1000, "p99"), (10000, "p99.9")])
def test_summary_reports_count_and_only_supported_percentiles(n, level):
    out = benchstats.summarize(float(i) for i in range(n))
    assert out["n"] == n
    assert out["median"] == pytest.approx((n - 1) / 2)
    tails = [k for k in out if k.startswith("p")]
    assert tails == ([] if level is None else [level])


# ---------------------------------------------------------------------------
# metric names and the benchmark declaration
# ---------------------------------------------------------------------------

def test_metric_names_are_valid():
    for name in tracing.LAYER_METRICS:
        assert benchstats.valid_name(name), name
    for bad in ("", "_x", "a b", "a/b", "x" * 65):
        assert not benchstats.valid_name(bad)


def test_benchmark_declaration_matches_the_code():
    decl = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in decl["workloads"]} == set(workloads.WORKLOADS)
    assert not set(workloads.KNOWN_FAILING) & set(workloads.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS + workloads.KNOWN_FAILING)
    per_layer = {m["name"]: m["unit"] for m in decl["per_layer"]}
    assert per_layer == tracing.LAYER_METRICS
    names = [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    assert len(names) == len(set(names))
    assert all(benchstats.valid_name(n) for n in names)
    assert "setup_s" in names


def test_speedometer_calibrates_before_and_after_and_shares_between_neighbours(
        tmp_path, monkeypatch):
    kernel_s = iter([0.1, 0.3, 0.5, 0.7, 0.9])
    calls = []

    def fake_child(script, args, work, timeout):
        calls.append((script, args))
        return {"cal_s": next(kernel_s)}, 0.0, ""

    monkeypatch.setattr(run, "child", fake_child)
    meter = run.Speedometer(tmp_path, run_started=0.0)
    assert meter.around(1, lambda: "a") == ("a", pytest.approx(0.2))
    assert meter.around(1, lambda: "b") == ("b", pytest.approx(0.4))
    # another thread count cannot reuse the last one-thread calibration
    assert meter.around(2, lambda: "c") == ("c", pytest.approx(0.8))
    assert [c[0] for c in calls] == ["calibrate.py"] * 5
    assert [c[1][-1] for c in calls] == ["1", "1", "1", "2", "2"]
    assert {tuple(c[1][:2]) for c in calls} == {("--kernel", "field")}


def write_born_artifacts(out_dir: Path, passed: dict):
    out_dir.mkdir(parents=True)
    stats = {"n_ambiguous": 0, "n_overflow": 0, "chi2_p": 0.5, "counts": [1, 2]}
    items = [{"name": n, "passed": ok} for n, ok in passed.items()]
    (out_dir / "summary.json").write_text(json.dumps(
        {"stats": stats, "checks": {"passed": all(passed.values()), "items": items}}))
    (out_dir / "manifest.json").write_text(json.dumps({"files": {"records.jsonl": "r"}}))


def test_born_gate_is_every_declared_cli_check(tmp_path):
    ok = dict.fromkeys(workloads.BORN_CLI_CHECKS, True)
    write_born_artifacts(tmp_path / "pass" / "out", ok)
    assert all(workloads.check_born_unit(0, tmp_path / "pass")["checks"].values())

    write_born_artifacts(tmp_path / "fail" / "out", {**ok, "freq_within_3sigma": False})
    checks = workloads.check_born_unit(3, tmp_path / "fail")["checks"]
    assert not checks["cli_exit_status_0"] and not checks["cli.freq_within_3sigma"]

    write_born_artifacts(tmp_path / "missing" / "out", {"ambiguous_rate": True})
    checks = workloads.check_born_unit(0, tmp_path / "missing")["checks"]
    assert not checks["cli.chi2_p"] and not checks["cli.freq_within_3sigma"]


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sweep-2d", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""


def test_report_rescales_timings_to_reference_speed():
    unit = {"ops": 300, "ambiguous": 1, "overflow": 0, "checks": {"ok": True},
            "result_hash": "h", "records_hash": None, "wall_s": 5.0, "cpu_s": 6.0,
            "cal_s": 0.2, "cal_kernel": "field", "cal_threads": 1, "peak_rss_mb": 160.0,
            "traced": False, "blas_threads": {}}
    probe = {"setup_s": 1.2, "cal_s": 0.16, "cal_kernel": "field", "cal_threads": 1}
    args = argparse.Namespace(workload="born-effective", seed=7, trace=0)
    speed = run.CAL_REF_S["field", 1] / 0.2
    report = run.build_report(args, [dict(unit), dict(unit)], [probe, probe], (0.0,) * 3)
    metrics = report["result"]["metrics"]
    assert metrics["ops_per_s"]["value"] == pytest.approx(300 / 5.0 / speed)
    assert metrics["cpu_s"]["value"] == pytest.approx(6.0 * speed)
    assert metrics["setup_s"]["value"] == pytest.approx(1.2 * run.CAL_REF_S["field", 1] / 0.16)
    assert metrics["ok_frac"]["value"] == pytest.approx(1.0 - 2 / 600)
    assert report["result"]["failed"] == 0
    assert report["end_to_end"]["events_per_s"]["n"] == 2
    assert set(metrics) == {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def test_failed_unit_counts_all_its_operations():
    bad = {"ops": 4096, "ambiguous": 0, "overflow": 0, "checks": {"ok": False}}
    good = {"ops": 4096, "ambiguous": 2, "overflow": 1, "checks": {"ok": True}}
    assert run.failed_ops(bad) == run.unresolved_ops(bad) == 4096
    assert run.failed_ops(good) == 0 and run.unresolved_ops(good) == 3
