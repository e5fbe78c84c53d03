"""Self-tests of the benchmark's output check, trace helpers and metric list.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re

import pytest

from common import ROOT, import_hvsinglet

import_hvsinglet()

import checks
import compare
import tracing
import workloads
from hvsinglet import cli

FAST = ["--lambda-n", "200", "--settings-n", "10", "--seed", "7"]


@pytest.fixture(scope="module")
def outputs():
    def run(*argv):
        text, rc, _ = workloads.run_cli(cli, list(argv))
        return text, rc

    return {
        "family1": run("validate", "--model", "family1", *FAST),
        "wrongtrial": run("validate", "--model", "wrongtrial", *FAST),
        "chsh": run("chsh", "--model", "family1", "--shots", "20000", "--seed", "7"),
    }


def test_genuine_outputs_pass(outputs):
    text, rc = outputs["family1"]
    assert checks.check_output("validate", text, rc, reference=text) == []
    text, rc = outputs["wrongtrial"]
    assert checks.check_output("validate", text, rc, expect_exit=1) == []
    text, rc = outputs["chsh"]
    assert checks.check_output("chsh", text, rc, reference=text) == []


def test_infinity_in_report_fails(outputs):
    text, rc = outputs["family1"]
    bad = re.sub(r'"tolerance": [0-9.e+-]+', '"tolerance": Infinity', text, count=1)
    assert bad != text
    assert checks.check_output("validate", bad, rc)
    assert checks.check_output("validate", text.replace("}", "NaN}", 1), rc)


def test_flipped_verdict_fails(outputs):
    text, rc = outputs["family1"]
    assert checks.check_output("validate", text.replace('"overall": "pass"',
                                                        '"overall": "fail"'), rc)
    assert checks.check_output("validate", text, 1)
    text, rc = outputs["wrongtrial"]
    assert checks.check_output("validate", text, rc, expect_exit=0)


def test_witness_that_does_not_replay_fails(outputs):
    text, rc = outputs["wrongtrial"]
    report = json.loads(text)
    for c in report["checks"]:
        if c["constraint-id"] == "positivity":
            c["witness"]["b"] = list(c["witness"]["a"])   # coincident axes: entries >= 0
    assert checks.check_output("validate", json.dumps(report), rc, expect_exit=1)


def test_single_changed_csv_byte_fails(outputs):
    text, rc = outputs["chsh"]
    i = text.rindex("7")                     # the seed column of the summary row
    changed = text[:i] + "8" + text[i + 1:]
    assert checks.check_output("chsh", changed, rc, reference=text)


def test_csv_header_and_far_estimate_fail(outputs):
    text, rc = outputs["chsh"]
    assert checks.check_output("chsh", text.replace("E_est", "E_hat", 1), rc)
    rows = text.splitlines()
    fields = rows[-1].split(",")
    fields[6] = "2.0"                        # S far from 2*sqrt(2)
    far = "\n".join(rows[:-1] + [",".join(fields)]) + "\n"
    assert checks.check_output("chsh", far, rc)
    assert checks.check_output("chsh", text, 64)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s.t1", "wall_s.t2", "setup_s", "peak_rss_mb"}
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= min(0.25, setup_bound)


def test_tracer_parents_and_union():
    tr = tracing.Tracer()
    with tr.span("root", op=0) as root:
        with tr.span("child", op=0):
            pass
        with tr.span("explicit", op=0, parent=root["id"]):
            pass
    spans = {s["name"]: s for s in tr.spans}
    assert spans["root"]["parent"] is None
    assert spans["child"]["parent"] == spans["explicit"]["parent"] == spans["root"]["id"]
    assert all(s["end_ns"] >= s["start_ns"] for s in tr.spans)
    assert tracing._union_ns([(0, 10), (5, 15), (20, 30)]) == 25


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert compare.verdict(base, [v * 1.5 for v in base], 0.1, True) == "worse"
    assert compare.verdict(base, [v * 0.7 for v in base], 0.1, True) == "better"
    assert compare.verdict(base, [v * 1.01 for v in base], 0.1, True) == "unchanged"
    assert compare.verdict(base, [5.0, 15.0, 10.0, 6.0, 14.0], 0.1, True) == "unresolved"
    assert compare.verdict(base, [v * 0.7 for v in base], 0.1, False) == "worse"
