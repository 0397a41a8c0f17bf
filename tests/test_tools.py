"""The evidence tools' comparison reports, modes and revision extractor, on hand-made
inputs, and the package entry points the benchmark tracer wraps."""
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_reports_see_each_kind_of_change(capsys):
    tool = _load("result_hashes")
    want = {"born": {"counts": {"counts": [1, 1]},
                     "records": [{"trial": 0, "outcome_index": 0, "overflow": False,
                                  "q2_final": 0.5},
                                 {"trial": 1, "outcome_index": 1, "overflow": False,
                                  "q2_final": -0.5}],
                     "trajectories": [[0.0, 1.0]],
                     "numbers": {"summary.json": [1.0, 2.0]}}}

    def edited(edit):
        got = json.loads(json.dumps(want))
        edit(got["born"])
        return tool.record_differences(want, got)[0]

    diffs, report, largest = tool.record_differences(want, json.loads(json.dumps(want)))
    assert diffs == [] and len(report) == 1 and largest.startswith("largest number change: 0 ")
    assert edited(lambda k: k["records"][1].update(outcome_index=0)) == [
        "born: trial 1 outcome 1 overflow False -> 0 overflow False"]
    assert edited(lambda k: k["records"][0].update(overflow=True)) == [
        "born: trial 0 outcome 0 overflow False -> 0 overflow True"]
    assert edited(lambda k: k["records"].pop()) == ["born: 2 -> 1 records"]
    assert edited(lambda k: k["counts"].update(counts=[2, 0])) == [
        "born: outcome counts {'counts': [1, 1]} -> {'counts': [2, 0]}"]
    assert edited(lambda k: k["numbers"]["summary.json"].pop()) == [
        "born: numbers of summary.json differ in count"]
    assert edited(lambda k: k["numbers"].update({"sweep.csv": []})) == [
        "born: numbers of sweep.csv differ in count"]
    # changed numbers alone are measured, not failed
    got = json.loads(json.dumps(want))
    got["born"]["numbers"]["summary.json"][1] = 2.5
    diffs, _, largest = tool.record_differences(want, got)
    assert diffs == [] and largest == "largest number change: 0.5 (born summary.json)"
    assert tool.record_differences(want, {})[0] == ["born: outcomes on one side only"]

    hashes = {"born": {"records.jsonl": "a", "summary.json": "b"}}
    assert tool.differences(hashes, json.loads(json.dumps(hashes))) == []
    assert tool.differences(hashes, {"born": {"records.jsonl": "a", "summary.json": "c"}}) == [
        ("born", "summary.json")]
    assert tool.differences(hashes, {"born": {"records.jsonl": "a"}}) == [
        ("born", "summary.json")]
    assert tool.differences(hashes, {}) == [("born", "records.jsonl"), ("born", "summary.json")]

    parses = {"born/rule": [1, ["state.weights"]]}
    capsys.readouterr()
    assert tool.report_parses(parses, dict(parses)) == 0
    assert capsys.readouterr().out == "0 parse differences in 1 invalid configs\n"
    for changed in ([0, []], [1, ["state.modes"]], ["TypeError", []]):
        assert tool.report_parses(parses, {"born/rule": changed}) == 1
        assert capsys.readouterr().out.startswith(
            f"parse differs: born/rule [1, ['state.weights']] -> {changed}\n")
    assert tool.report_parses(parses, {}) == 1

    # the report functions return 1 exactly when they list a difference
    assert tool.report_records(want, json.loads(json.dumps(want))) == 0
    assert tool.report_records(want, {}) == 1
    assert tool.report_hashes(hashes, json.loads(json.dumps(hashes))) == 0
    assert tool.report_hashes(hashes, {}) == 1


def test_corpus_holds_every_shared_case():
    # each case list of parse_cases.py enters the corpus, once per row; each
    # engine rule once per config kind
    tool = _load("result_hashes")
    spec = importlib.util.spec_from_file_location("parse_cases", ROOT / "tests" / "parse_cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    rows = sum(len(value) for name, value in vars(cases).items()
               if name.isupper() and name not in ("ENGINE_RULES", "GRID_RUN"))
    assert len(tool.parse_corpus()) == len(tool.CONFIGS) * len(cases.ENGINE_RULES) + rows


@pytest.mark.parametrize("argv", [[], ["--compare", "hashes.json"], ["--dump-records", "recs"],
                                  ["--compare-records", "recs"],
                                  ["--against", "HEAD", "--pin", "pins.json"]],
                         ids=["bare", "compare", "dump-records", "compare-records", "both"])
def test_result_hashes_takes_one_of_against_and_pin(argv, capsys):
    with pytest.raises(SystemExit) as info:
        _load("result_hashes").main(argv)
    assert info.value.code == 2
    assert "usage: " in capsys.readouterr().err


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_extractor_gives_the_revision_tree(tmp_path):
    src = _load("revision").src_at("HEAD", tmp_path)
    committed = subprocess.run(["git", "-C", str(ROOT), "show",
                                "HEAD:src/stochaction/__init__.py"],
                               capture_output=True, check=True).stdout
    assert (src / "stochaction" / "__init__.py").read_bytes() == committed


def test_kernel_timing_measures_every_row_count_on_component_major_rows(monkeypatch):
    from stochaction.trajectories import ModeFlow
    tool = _load("kernel_timing")
    monkeypatch.setattr(tool, "REPEATS", 2)
    monkeypatch.setattr(tool, "CALL_ROWS", 64)
    real = ModeFlow.effective
    contiguous = []

    def spy(self, points, *args, **kwargs):
        contiguous.append(points[:, 0].flags.c_contiguous and points[:, 1].flags.c_contiguous)
        return real(self, points, *args, **kwargs)

    monkeypatch.setattr(ModeFlow, "effective", spy)
    out = tool.measure()
    assert sorted(out) == sorted(tool.ROWS)
    assert all(math.isfinite(us) and us > 0 for us in out.values())
    assert contiguous and all(contiguous)


@pytest.mark.parametrize("tool", ["result_hashes", "kernel_timing"])
def test_unknown_revision_exits_two_with_gits_message(tool, capsys):
    with pytest.raises(SystemExit) as info:
        _load(tool).main(["--against", "no-such-revision"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "no-such-revision" in err and "Traceback" not in err


def _package_bindings() -> dict:
    """``{(module name or class, attribute): value}`` of every loaded package module and
    of every package class they hold."""
    modules = {name: module for name, module in sys.modules.items()
               if module is not None and name.split(".")[0] == "stochaction"}
    bindings = {(name, attr): value for name, module in modules.items()
                for attr, value in vars(module).items()}
    classes = {value for (_, _), value in bindings.items()
               if isinstance(value, type) and value.__module__.startswith("stochaction")}
    bindings.update({(cls, attr): value for cls in classes for attr, value in vars(cls).items()})
    return bindings


def test_benchmark_tracer_finds_its_targets_and_restores_them():
    # perfbench/tracing.py wraps package functions and methods by name, so a
    # rename in the package fails here, not first in a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from stochaction import (cli, config, experiments, expressions, gridop,  # noqa: F401
                             measurement, potentials, rng, spectral, stochastic, trajectories)
    before = _package_bindings()
    uninstall = tracing.instrument(tracing.Tracer())
    try:
        during = _package_bindings()
    finally:
        uninstall()
    wrapped = {key for key, value in before.items() if during[key] is not value}
    assert {("stochaction.measurement", "run_ensemble"), ("stochaction.experiments",
            "run_ensemble"), (trajectories.ModeFlow, "effective"),
            ("stochaction.gridop", "splu")} <= wrapped
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
