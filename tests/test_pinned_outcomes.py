"""Every kind of ``tools/result_hashes.py``, run in-process, against a committed reference.

Outcomes, flags, counts and each config kind's ``config.json`` echo hash
must match exactly and every ``summary.json`` number within the tool's
``PIN_RTOL``.  The tool names the kinds, so a kind added there is pinned
here too.  A change that alters outcomes or echoes on purpose rewrites
``data/pinned_outcomes.json`` with the tool's ``--pin`` option.
"""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "data" / "pinned_outcomes.json"


def _tool():
    spec = importlib.util.spec_from_file_location("result_hashes",
                                                  ROOT / "tools" / "result_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_outcomes_match_pinned_reference():
    tool = _tool()
    hashes, outcomes, summaries = tool.result_hashes()
    pins = tool.pinned(outcomes, summaries, hashes)
    assert all("config" in pins[kind] for kind in tool.CONFIGS)
    assert set(tool.CONFIGS) <= set(pins)
    assert tool.pin_differences(json.loads(REFERENCE.read_text()), pins) == []


def test_pin_differences_sees_each_kind_of_change():
    tool = _tool()
    want = {"born": {"outcomes": [0, 1, None], "overflow": [2], "ambiguous": [],
                     "counts": {"counts": [1, 1]},
                     "summary": {"/a": 1.0, "/ok": True, "/n": 3}}}
    assert tool.pin_differences(want, json.loads(json.dumps(want))) == []

    def edited(key, value):
        got = json.loads(json.dumps(want))
        got["born"][key] = value
        return tool.pin_differences(want, got)

    def summary_edited(path, value):
        return edited("summary", dict(want["born"]["summary"], **{path: value}))

    assert edited("outcomes", [0, 1, 1]) == ["born: outcomes differs"]
    assert edited("overflow", []) == ["born: overflow differs"]
    assert edited("counts", {"counts": [2, 0]}) == ["born: counts differs"]
    # numbers within the tolerance pass and beyond it fail; flags and paths are exact
    assert summary_edited("/a", 1.0 + 1e-12) == []
    assert summary_edited("/a", 1.0 + 1e-6) == ["born: summary /a 1.0 -> 1.000001"]
    assert summary_edited("/ok", 1) != []
    assert summary_edited("/ok", False) != []
    assert summary_edited("/extra", 0.0) == ["born: summary /extra None -> 0.0"]
    assert tool.pin_differences(want, {}) == ["born: on one side only"]


def test_parse_corpus_holds_only_configs_rejected_at_parse():
    # --against compares how both sides reject these; each must fail at parse
    # time (exit 1) with at least one violation path
    outcomes = _tool().parse_outcomes()
    assert len(outcomes) == len(_tool().parse_corpus())
    assert {name: out for name, out in outcomes.items() if out[0] != 1 or not out[1]} == {}
