import contextlib
import csv
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvsinglet import cli
from hvsinglet.cli import EX_INCONCLUSIVE, EX_OK, EX_USAGE, EX_VIOLATION, main
from hvsinglet.simulator import _MAX_PAIRS, _MAX_SHOTS, CSV_HEADER
from hvsinglet.validator import CONSTRAINT_ORDER

FAST_VALIDATE = ["--lambda-n", "200", "--settings-n", "10"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors_exit_64(capsys):
    assert main([]) == EX_USAGE
    assert main(["frobnicate"]) == EX_USAGE
    assert main(["validate"]) == EX_USAGE  # --model is required
    assert main(["simulate", "--model", "family1"]) == EX_USAGE  # --settings required
    assert main(["validate", "--model", "does-not-exist.json"]) == EX_USAGE
    capsys.readouterr()


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_validate_family1_stdout_report(capsys):
    code, out, err = run_cli(capsys, "validate", "--model", "family1", *FAST_VALIDATE)
    assert code == EX_OK
    report = json.loads(out)
    assert report["overall"] == "pass"
    assert [c["constraint-id"] for c in report["checks"]] == list(CONSTRAINT_ORDER)
    assert "overall: pass" in err


def test_validate_wrongtrial_exits_one(capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", "wrongtrial", *FAST_VALIDATE)
    assert code == EX_VIOLATION
    report = json.loads(out)
    failing = {c["constraint-id"] for c in report["checks"] if c["status"] == "fail"}
    assert "positivity" in failing
    witness = next(c["witness"] for c in report["checks"] if c["constraint-id"] == "positivity")
    assert witness["value"] < -1e-12
    assert len(witness["a"]) == 3


def test_validate_inconclusive_exits_two(capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", "cerf",
                           "--mc-samples", "2000", *FAST_VALIDATE)
    assert code == EX_INCONCLUSIVE
    assert json.loads(out)["overall"] == "inconclusive"


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def checks_by_id(report):
    return {c["constraint-id"]: c for c in report["checks"]}


def test_validate_zero_mc_samples_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", "cerf", "--mc-samples", "0",
                           *FAST_VALIDATE)
    assert code == EX_INCONCLUSIVE
    checks = checks_by_id(strict_json(out))
    for cid in ("zero-average", "qm-reproduction"):
        assert checks[cid]["status"] == "inconclusive"
        assert checks[cid]["samples_used"] == 0


@pytest.mark.parametrize("argv, starved", [
    (("--model", "family1", "--lambda-n", "0"),
     ("normalization", "positivity", "entry-half-bound")),
    (("--model", "cerf", "--mc-samples", "1"), ("zero-average", "qm-reproduction")),
])
def test_validate_without_evidence_is_inconclusive_strict_json(capsys, argv, starved):
    code, out, _ = run_cli(capsys, "validate", *argv, "--settings-n", "10")
    assert code == EX_INCONCLUSIVE
    assert "Infinity" not in out and "NaN" not in out
    checks = checks_by_id(strict_json(out))
    for cid in starved:
        assert checks[cid]["status"] == "inconclusive", cid
        assert checks[cid]["extremal_value"] is None
        assert checks[cid]["details"].get("max_z") is None
    assert all(c["status"] != "pass" or c["samples_used"] > 0 for c in checks.values())


def test_validate_zero_spread_pairs_are_inconclusive(capsys):
    # at 2 draws a cerf pair often sees one k twice: stderr 0 is no evidence of a failure
    code, out, _ = run_cli(capsys, "validate", "--model", "cerf", "--seed", "1",
                           "--settings-n", "2", "--lambda-n", "31", "--mc-samples", "2")
    assert code == EX_INCONCLUSIVE
    checks = checks_by_id(strict_json(out))
    for cid in ("zero-average", "qm-reproduction"):
        assert checks[cid]["status"] == "inconclusive", cid


RECIPE_POLY1 = {"family": "recipe", "scalar_measure": "uniform", "s": 1.0,
                "parameters": {"f": "poly1", "scale": 0.5}}


@pytest.mark.parametrize("message, spec", [
    ("n_nodes must be", {"family": "family1", "scalar_measure": "uniform",
                         "parameters": {"n_nodes": "abc"}}),
    ("n_polar must be", {"family": "family2", "parameters": {"n_polar": [1]}}),
    ("n_azimuth must be an integer", {"family": "family2", "parameters": {"n_azimuth": 2.5}}),
    ("weights must be", {"family": "family1", "parameters": {"weights": "ab"}}),
    ("s must be", {**RECIPE_POLY1, "s": "x"}),
    ("scale must be", {**RECIPE_POLY1, "parameters": {"f": "poly1", "scale": "x"}}),
    ("scale must be finite",
     {**RECIPE_POLY1, "parameters": {"f": "poly1", "scale": float("nan")}}),
    ("unknown recipe function [1]", {**RECIPE_POLY1, "parameters": {"f": [1]}}),
])
def test_malformed_spec_numbers_exit_64(tmp_path, capsys, message, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "validate", "--model", str(path), *FAST_VALIDATE)
    assert code == EX_USAGE and out == ""
    assert message in err


SIMULATE_F1 = ("simulate", "--model", "family1", "--settings", "random:2")
CHSH_F1 = ("chsh", "--model", "family1")
VALIDATE_F1 = ("validate", "--model", "family1")


@pytest.mark.parametrize("argv", [
    (*SIMULATE_F1, "--threads", "0"), (*SIMULATE_F1, "--shots", "0"),
    (*CHSH_F1, "--threads", "0"), (*CHSH_F1, "--shots", "-5"),
    (*VALIDATE_F1, "--threads", "0"), (*VALIDATE_F1, "--mc-samples", "-1"),
    (*VALIDATE_F1, "--lambda-n", "-1"), (*VALIDATE_F1, "--settings-n", "-3"),
    ("scan", "--model", "cerf", "--lambda-n", "0"),
])
def test_bad_numeric_flags_exit_64(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EX_USAGE
    assert out == "" and "must be" in err


def test_validate_out_file_and_spec_model(tmp_path, capsys):
    spec = {"family": "family1", "gamma": 0.3, "seed": 5}
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(spec))
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "--model", str(model_path),
                           "--out", str(report_path), *FAST_VALIDATE)
    assert code == EX_OK
    assert out == ""
    report = json.loads(report_path.read_text())
    assert report["model"]["gamma"] == 0.3
    assert report["seed"] == 5  # seed picked up from the model spec


def test_seed_resolution_order(tmp_path, capsys, monkeypatch):
    spec = {"family": "family1", "seed": 7}
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(spec))

    def seed_of(*argv):
        code, out, _ = run_cli(capsys, "validate", "--model", str(model_path),
                               *FAST_VALIDATE, *argv)
        assert code == EX_OK
        return json.loads(out)["seed"]

    assert seed_of() == 7
    monkeypatch.setenv("HV_SEED", "21")
    assert seed_of() == 21
    assert seed_of("--seed", "3") == 3
    monkeypatch.setenv("HV_SEED", "twenty")
    code, _, err = run_cli(capsys, "validate", "--model", str(model_path), *FAST_VALIDATE)
    assert code == EX_USAGE and "HV_SEED" in err


def test_simulate_random_settings_csv(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "family1",
                           "--settings", "random:3", "--shots", "2000", "--seed", "1")
    assert code == EX_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 4
    assert rows[0][0] == "ax" and rows[0][-1] == "seed"
    for row in rows[1:]:
        assert row[10] == "sampling" and row[9] == "2000"


def test_simulate_deterministic_output(capsys):
    argv = ["simulate", "--model", "cerf", "--settings", "random:2",
            "--shots", "3000", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv, "--threads", "3")
    assert out1 == out2


def test_simulate_settings_file(tmp_path, capsys):
    pairs = [[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]]
    p = tmp_path / "settings.json"
    p.write_text(json.dumps(pairs))
    code, out, _ = run_cli(capsys, "simulate", "--model", "family1",
                           "--settings", str(p), "--mode", "analytic")
    assert code == EX_OK
    row = list(csv.reader(io.StringIO(out)))[1]
    assert float(row[6]) == pytest.approx(0.0, abs=1e-12)  # E(z, x) = 0
    assert row[7] == "0"  # analytic quadrature reports zero stderr


def test_simulate_rejects_bad_settings(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[[0.0, 0.0, 2.0], [1.0, 0.0, 0.0]]]))
    code, _, err = run_cli(capsys, "simulate", "--model", "family1", "--settings", str(bad))
    assert code == EX_USAGE and "unit vectors" in err
    bad.write_text("[[1, 2], [3")
    code, _, err = run_cli(capsys, "simulate", "--model", "family1", "--settings", str(bad))
    assert code == EX_USAGE
    code, _, err = run_cli(capsys, "simulate", "--model", "family1", "--settings", "random:0")
    assert code == EX_USAGE


def test_chsh_default_preset(capsys):
    code, out, err = run_cli(capsys, "chsh", "--model", "family2", "--mode", "analytic",
                             "--grid-n", "24")
    assert code == EX_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 6 and rows[5][10] == "chsh"
    assert float(rows[5][6]) == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert "S = " in err


def test_chsh_witness_flag(capsys):
    code, _, err = run_cli(capsys, "chsh", "--model", "family1", "--mode", "analytic",
                           "--witness")
    assert code == EX_OK
    assert "max per-lambda S" in err


def test_chsh_needs_four_pairs(tmp_path, capsys):
    p = tmp_path / "two.json"
    p.write_text(json.dumps([[[0, 0, 1], [1, 0, 0]], [[0, 0, 1], [0, 1, 0]]]))
    code, _, err = run_cli(capsys, "chsh", "--model", "family1", "--settings", str(p))
    assert code == EX_USAGE and "4" in err


def test_scan_shows_counterexample_dip(capsys):
    code, out, _ = run_cli(capsys, "scan", "--model", "wrongtrial", "--points", "41")
    assert code == EX_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a_dot_b", "mean_abs_c", "min_entry", "max_entry"]
    assert len(rows) == 42
    min_entries = np.array([float(r[2]) for r in rows[1:]])
    xs = np.array([float(r[0]) for r in rows[1:]])
    assert min_entries.min() < -1e-3  # negative probabilities near the endpoints
    assert min_entries[np.abs(xs) < 0.5].min() >= 0.0  # but fine at generic angles


def test_scan_family1_stays_admissible(capsys):
    code, out, _ = run_cli(capsys, "scan", "--model", "family1", "--points", "21")
    assert code == EX_OK
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert min(float(r[2]) for r in rows) >= 0.0
    assert max(float(r[3]) for r in rows) <= 0.5 + 1e-15


def test_build_recipe_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "recipe.json"
    code, _, err = run_cli(capsys, "build-recipe", "poly1", "1", "--out", str(out_path))
    assert code == EX_OK
    spec = json.loads(out_path.read_text())
    assert spec["family"] == "recipe"
    assert spec["parameters"]["scale"] == pytest.approx(0.495, abs=1e-3)
    code, out, _ = run_cli(capsys, "validate", "--model", str(out_path), *FAST_VALIDATE)
    assert code == EX_OK
    assert json.loads(out)["overall"] == "pass"


def test_build_recipe_bad_exponent(capsys):
    assert main(["build-recipe", "poly1", "0.5"]) == EX_USAGE
    assert main(["build-recipe", "nope", "1.0"]) == EX_USAGE  # argparse choices
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_build_recipe_non_finite_numbers_exit_64(tmp_path, capsys, value):
    # a spec with NaN or Infinity is not strict JSON; nothing may be written
    out = tmp_path / "spec.json"
    assert main(["build-recipe", "--out", str(out), "--", "square", value]) == EX_USAGE
    assert main(["build-recipe", "square", "2", f"--gamma={value}", "--out", str(out)]) == EX_USAGE
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hvsinglet.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hvsinglet" in proc.stdout


# ---------------------------------------------------------------------------
# Stream-split limits, one-draw estimates, and a fuzz over the numeric flags


def test_settings_over_split_limit_rejected_before_any_work(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--model", "family1",
                             "--settings", f"random:{_MAX_PAIRS + 1}", "--shots", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == EX_USAGE and out == ""
    assert f"at most {_MAX_PAIRS} settings pairs" in err


def test_settings_file_over_split_limit_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_PAIRS", 2)
    p = tmp_path / "three.json"
    p.write_text(json.dumps([[[0, 0, 1], [1, 0, 0]]] * 3))
    code, out, err = run_cli(capsys, "simulate", "--model", "family1", "--settings", str(p))
    assert code == EX_USAGE and out == "" and "at most 2 settings pairs" in err


def test_shots_over_split_limit_exit_64(capsys):
    code, out, err = run_cli(capsys, "chsh", "--model", "family1",
                             "--shots", str(_MAX_SHOTS + 1))
    assert code == EX_USAGE and out == ""
    assert f"shots must be <= {_MAX_SHOTS}" in err


def test_chsh_one_shot_reports_nan_stderr(capsys):
    code, out, err = run_cli(capsys, "chsh", "--model", "cerf", "--shots", "1")
    assert code == EX_OK
    rows = [dict(zip(CSV_HEADER, r)) for r in list(csv.reader(io.StringIO(out)))[1:]]
    assert [r["stderr"] for r in rows] == ["nan"] * 5
    assert "+- nan" in err


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


_counts = st.one_of(st.integers(-2, 8), st.sampled_from([_MAX_PAIRS + 1, 1 << 40]))
_shots = st.one_of(st.integers(-2, 3000), st.sampled_from([_MAX_SHOTS + 1]))


@st.composite
def _numeric_argv(draw):
    model = draw(st.sampled_from(["family1", "cerf"]))
    command = draw(st.sampled_from(["simulate", "chsh", "validate"]))
    argv = [command, "--model", model, "--seed", str(draw(st.integers(0, 3))),
            "--threads", str(draw(st.integers(-1, 4)))]
    if command == "validate":
        for flag, hi in (("--lambda-n", 40), ("--settings-n", 4), ("--mc-samples", 400)):
            argv += [flag, str(draw(st.integers(-1, hi)))]
        return argv
    argv += ["--shots", str(draw(_shots)),
             "--mode", draw(st.sampled_from(["sampling", "analytic"]))]
    if command == "simulate":
        argv += ["--settings", f"random:{draw(_counts)}"]
    return argv


@given(_numeric_argv())
@settings(max_examples=40, deadline=None)
def test_numeric_flags_fuzz_keep_exit_and_output_contract(argv):
    code, out = _run_quiet(argv)
    assert code in (EX_OK, EX_VIOLATION, EX_INCONCLUSIVE, EX_USAGE)
    if code == EX_USAGE:
        assert out == ""
    elif argv[0] == "validate":
        assert strict_json(out)["exit_code"] == code
    else:
        assert code == EX_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER and len(rows) > 1
        assert all(len(r) == len(CSV_HEADER) for r in rows)
