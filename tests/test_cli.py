import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvsinglet import cli
from hvsinglet.cli import EX_INCONCLUSIVE, EX_OK, EX_USAGE, EX_VIOLATION, main
from hvsinglet.geometry import RandomStream
from hvsinglet.models import (_MAX_DRAWS, _MAX_GAUSS_NODES, RECIPE_REGISTRY,
                              HiddenVariableModel, LambdaSpace, _scalar_uniform_space,
                              builtin_model,
                              load_model, qm_table)
from hvsinglet.simulator import _MAX_PAIRS, CSV_HEADER
from hvsinglet.validator import CONSTRAINT_ORDER, ValidatorConfig

try:
    import resource
except ImportError:  # not on every platform
    resource = None

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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_small_mc_budget_does_not_fail_an_admissible_model(capsys):
    # cerf reproduces the singlet, yet at 20 draws per pair this seed's
    # qm-reproduction reads z > 5 from a plug-in stderr that is too small
    code, _, _ = run_cli(capsys, "validate", "--model", "cerf", "--seed", "1", "--mc-samples",
                         "20", "--settings-n", "2", "--lambda-n", "20")
    assert code in (EX_OK, EX_INCONCLUSIVE)


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
    # the uniform sampler draws on [-gamma, gamma]: numpy raised on a negative width
    ("recipe needs 0 < gamma <= 1", {**RECIPE_POLY1, "gamma": -0.0}),
    ("recipe needs 0 < gamma <= 1", {**RECIPE_POLY1, "gamma": 1.5}),
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
    # scan runs no pool and family1 has no sphere, yet every value is checked
    ("scan", "--model", "family1", "--threads", "0"),
    ("scan", "--model", "family1", "--threads", "-3"),
    ("scan", "--model", "family1", "--grid-n", "-4"),
    (*VALIDATE_F1, "--grid-n", "0"),
    ("build-recipe", "square", "2", "--out", os.devnull, "--grid-n", "-1"),
])
def test_bad_numeric_flags_exit_64(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EX_USAGE
    assert out == "" and "must be" in err
    assert f"{argv[-2]} must be" in err  # the message names the flag


def test_config_errors_exit_64():
    # the parser checks every flag first; a config's own bound still maps to 64
    with pytest.raises(cli.UsageError, match="threads must be >= 1"):
        cli._config(ValidatorConfig, threads=0)


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


_SEED_ENDS = (("-1", False), ("0", True), (str((1 << 64) - 1), True), (str(1 << 64), False))
SCAN_F1 = ["scan", "--model", "family1", "--points", "3", "--lambda-n", "20"]


@pytest.mark.parametrize("seed, ok", _SEED_ENDS)
def test_seeds_are_bounded_to_uint64(tmp_path, capsys, monkeypatch, seed, ok):
    # -1 and 2^64 - 1 once wrote the same bytes: a seed is never reduced mod 2^64
    want = EX_OK if ok else EX_USAGE
    for argv in (SCAN_F1, ["build-recipe", "square", "2", "--out", str(tmp_path / "r.json")],
                 ["simulate", "--model", "family1", "--settings", "random:1", "--shots", "20"],
                 ["chsh", "--model", "family1", "--shots", "20"]):
        code, _, err = run_cli(capsys, *argv, "--seed", seed)
        assert code == want, argv
        assert ok or "--seed (or HV_SEED) must be" in err
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"family": "family1", "seed": int(seed)}))
    code, _, err = run_cli(capsys, "scan", "--model", str(spec), "--points", "3")
    assert code == want and (ok or "seed must be an integer in" in err)
    monkeypatch.setenv("HV_SEED", seed)
    code, _, err = run_cli(capsys, *SCAN_F1)
    assert code == want and (ok or "HV_SEED) must be" in err)


def test_seed_ends_give_different_streams(capsys):
    scan = ["scan", "--model", "cerf", "--points", "4", "--lambda-n", "20", "--seed"]
    assert run_cli(capsys, *scan, "0")[1] != run_cli(capsys, *scan, str((1 << 64) - 1))[1]


def test_validate_inconclusive_lines_say_why(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "validate", "--model", "cerf", "--seed", "1",
                             "--mc-samples", "2000")
    assert code == EX_INCONCLUSIVE
    assert checks_by_id(json.loads(out))["zero-average"]["details"]["samples_needed"] == 9901
    assert "zero-average         inconclusive (samples_needed 9901)\n" in err
    assert "qm-reproduction      pass\n" in err
    code, _, err = run_cli(capsys, "validate", "--model", "cerf", "--mc-samples", "0",
                           *FAST_VALIDATE)
    assert "zero-average         inconclusive (no samples)\n" in err
    space = _scalar_uniform_space(1.0, 16)
    nowhere = HiddenVariableModel(
        "nowhere", LambdaSpace(space.shape, space.sampler),
        kernel_rule=lambda batch, a, b: (np.zeros(len(batch)), np.zeros(len(batch), bool)))
    monkeypatch.setattr(cli, "_load_model", lambda args: nowhere)
    code, _, err = run_cli(capsys, "validate", "--model", "nowhere", "--mc-samples", "100",
                           *FAST_VALIDATE)
    assert code == EX_INCONCLUSIVE
    assert "zero-average         inconclusive (undefined_rows 1000)\n" in err  # 10 pairs
    assert "normalization        inconclusive (no samples)\n" in err


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


@pytest.mark.parametrize("command", ["simulate", "chsh"])
@pytest.mark.parametrize("raw", [[[["x", 0, 1], [1, 0, 0]]], [[[0, 0, 1], [1, 0]]], {"a": 1}],
                         ids=["non-number", "ragged", "object"])
def test_malformed_settings_file_exits_64(tmp_path, capsys, command, raw):
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, command, "--model", "family1", "--settings", str(p))
    assert code == EX_USAGE and out == "" and str(p) in err


_UNREADABLE = {"not-utf8": b'\xff\xfe{"family": "family1"}', "too-deep": b"[" * 100_000}


@pytest.mark.parametrize("argv", [("scan", "--model", "{}"),
                                  ("simulate", "--model", "family1", "--settings", "{}"),
                                  ("chsh", "--model", "family1", "--settings", "{}")],
                         ids=["spec", "simulate-settings", "chsh-settings"])
@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_unreadable_json_files_exit_64(tmp_path, capsys, argv, name):
    # a UnicodeDecodeError or a RecursionError in the JSON parser, not exit 1
    path = tmp_path / f"{name}.json"
    path.write_bytes(_UNREADABLE[name])
    code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
    assert code == EX_USAGE and out == ""
    assert f"{path}: not valid JSON" in err


def test_chsh_default_preset(capsys):
    code, out, err = run_cli(capsys, "chsh", "--model", "family2", "--mode", "analytic",
                             "--grid-n", "24")
    assert code == EX_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 6 and rows[5][10] == "chsh"
    assert float(rows[5][6]) == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert "S = " in err


def test_many_threads_start_at_most_one_worker_per_cpu(capsys, forks, no_child_left):
    argv = ["chsh", "--model", "family1", "--shots", "200000", "--seed", "2"]
    assert main(argv) == EX_OK
    serial = capsys.readouterr().out
    assert forks == []
    assert main([*argv, "--threads", "2000"]) == EX_OK
    assert capsys.readouterr().out == serial
    # one pass per command: 4 pairs x 13 blocks, four usable CPUs, so three
    # forked workers and the caller
    assert len(forks) == 3
    assert no_child_left()


@pytest.mark.parametrize("argv", [
    ("validate", "--model", "cerf", "--seed", "1", "--mc-samples", "40000"),
    ("chsh", "--model", "cerf", "--seed", "1", "--shots", "40000"),
])
def test_two_workers_leave_no_process_behind(capsys, forks, no_child_left, argv):
    serial = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--threads", "2") == serial
    assert len(forks) == 1 and no_child_left()


def test_analytic_quadrature_estimates_run_in_the_caller(capsys, forks):
    argv = ("chsh", "--model", "family2", "--seed", "1", "--mode", "analytic")
    serial = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--threads", "2") == serial
    assert forks == []


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


def _scan_rows_from_tables(m, batch, w, points):
    """The scan as first written: whole tables and implied_c at every a.b point."""
    a, tangent = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    rows, partial = [], []
    for x in np.linspace(-1.0, 1.0, points):
        b = x * a + np.sqrt(max(0.0, 1.0 - x * x)) * tangent
        b /= np.linalg.norm(b)
        tables, ok = m.tables_masked(batch, a, b)
        c, ok_c = m.implied_c(batch, a, b)
        mean_abs_c = float(np.sum(w[ok_c] * np.abs(c[ok_c])) / max(np.sum(w[ok_c]), 1e-300))
        rows.append([f"{x:.17g}", f"{mean_abs_c:.17g}", f"{float(tables[ok].min()):.17g}",
                     f"{float(tables[ok].max()):.17g}"])
        partial.append(not ok.all())
    return rows, partial


def test_scan_reads_only_valid_rows(capsys, monkeypatch):
    # a rule undefined on some quadrature nodes at some angles, with junk
    # entries there: every row is the masked formula over that angle's nodes
    space = _scalar_uniform_space(1.0, 16)
    batch, w = space.quadrature

    def table_rule(lam, a, b):
        g = lam.scalars[:, 0]
        t = np.tile(qm_table(a, b), (len(lam), 1, 1))
        t[:, 0, 0] += 0.1 * g
        t[:, 1, 1] -= 0.1 * g
        ok = g > b[0] - 1.5
        t[~ok] = 9.0
        return t, ok

    m = HiddenVariableModel("holey-scan", space, table_rule=table_rule)
    monkeypatch.setattr(cli, "_load_model", lambda args: m)
    code, out, _ = run_cli(capsys, "scan", "--model", "holey", "--points", "9")
    assert code == EX_OK
    want, partial = _scan_rows_from_tables(m, batch, w, 9)
    assert list(csv.reader(io.StringIO(out)))[1:] == want
    assert any(partial) and not all(partial)


@pytest.mark.parametrize("name", ["family1", "wrongtrial", "family2", "cerf"])
def test_scan_of_kernel_models_matches_tables(capsys, name):
    # kernel models take the extreme entries from k's extremes: the same bits
    code, out, _ = run_cli(capsys, "scan", "--model", name, "--points", "9", "--seed", "4",
                           "--lambda-n", "3000")
    assert code == EX_OK
    m = builtin_model(name)
    batch, w = m.lambda_space.nodes(RandomStream(4).split(13), 3000)
    want, _ = _scan_rows_from_tables(m, batch, w, 9)
    assert list(csv.reader(io.StringIO(out)))[1:] == want


def test_scan_of_cross_uab_builds_no_tables(tmp_path):
    # 32768 nodes: (n, 2, 2) tables at each point peaked at 4.6 MB, model load included
    spec = str(tmp_path / "cross_uab.json")
    assert _run_quiet(["build-recipe", "cross_uab", "1", "--out", spec])[0] == EX_OK
    argv = ["scan", "--model", spec, "--points", "9"]
    serial = _run_quiet(argv)
    tracemalloc.start()
    try:
        assert _run_quiet(argv) == serial
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert serial[0] == EX_OK and peak < 3_000_000, peak


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
    # --shots and --mc-samples share one cap: 1048575 blocks of 16384 rows
    assert _MAX_DRAWS == 17179852800
    code, out, err = run_cli(capsys, "chsh", "--model", "family1", "--shots", "17179852801")
    assert code == EX_USAGE and out == ""
    assert "shots must be <= 17179852800" in err


def test_mc_samples_over_split_limit_exit_64(capsys):
    # 1048575 blocks of 16384 rows, each keyed by one 20-bit stream-split field
    assert _MAX_DRAWS == 17179852800
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "validate", "--model", "cerf",
                             "--mc-samples", str(_MAX_DRAWS + 1))
    assert time.perf_counter() - t0 < 1.0
    assert code == EX_USAGE and out == ""
    assert f"--mc-samples must be <= {_MAX_DRAWS}" in err


@pytest.mark.parametrize("spec, key", [
    ({"family": "family1", "scalar_measure": "uniform",
      "parameters": {"weights": [float("nan"), -3, 7]}}, "weights"),
    ({"family": "family1", "parameters": {"n_nodes": -5}}, "n_nodes"),
    ({"family": "family1", "parameters": {"n_polar": 8}}, "n_polar"),
    ({"family": "wrongtrial", "s": 2.0}, "s"),
    ({"family": "family2", "parameters": {"f": "poly1"}}, "f"),
    ({"family": "family2", "parameters": {"scale": 0.5}}, "scale"),
    ({**RECIPE_POLY1, "parameters": {"f": "poly1", "n_azimuth": 8}}, "n_azimuth"),
    ({"family": "cerf", "gamma": 0.3}, "gamma"),
    ({"family": "cerf", "parameters": {"weights": [0.5, 0.5]}}, "weights"),
])
def test_spec_keys_the_model_does_not_read_exit_64(tmp_path, capsys, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "scan", "--model", str(path), "--points", "2")
    assert code == EX_USAGE and out == ""
    assert f"does not read spec keys ['{key}']" in err


@pytest.mark.parametrize("f, s", [("square", "2"), ("cross_uab", "1")])
def test_benchmark_recipe_specs_load_back(tmp_path, capsys, f, s):
    path = tmp_path / "recipe.json"
    assert run_cli(capsys, "build-recipe", f, s, "--seed", "1", "--out", str(path))[0] == EX_OK
    spec = json.loads(path.read_text())
    assert load_model(path).spec == spec


def test_grid_n_sizes_only_a_sphere_the_recipe_has(tmp_path, capsys):
    # the builders reject a sphere size a model never reads; --grid-n skips it
    path = tmp_path / "poly1.json"
    argv = ("build-recipe", "poly1", "1", "--grid-n", "8", "--out", str(path))
    assert run_cli(capsys, *argv)[0] == EX_OK
    assert "n_polar" not in json.loads(path.read_text())["parameters"]
    code, out, _ = run_cli(capsys, "scan", "--model", str(path), "--points", "2", "--grid-n", "8")
    assert code == EX_OK and out.count("\n") == 3


def _spec_file(tmp_path, family, measure="two_point", **params):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": family, "scalar_measure": measure,
                                "parameters": params}))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (("validate", "--model", "family1", "--lambda-n", 2**20 + 1), "--lambda-n must be <= 1048576"),
    (("validate", "--model", "family1", "--settings-n", 2**16 + 1),
     "--settings-n must be <= 65536"),
    (("validate", "--model", "family2", "--grid-n", 1025), "--grid-n must be <= 1024"),
    (("simulate", "--model", "family2", "--settings", "random:1", "--grid-n", 1025),
     "--grid-n must be <= 1024"),
    (("scan", "--model", "family1", "--points", 2**16 + 1), "--points must be <= 65536"),
    (("scan", "--model", "cerf", "--lambda-n", 2**20 + 1), "--lambda-n must be <= 1048576"),
    (("build-recipe", "cross_uab", "1", "--grid-n", 1025), "--grid-n must be <= 1024"),
    (("validate", "--model", ("family1", "uniform", {"n_nodes": 1025})),
     "n_nodes must be <= 1024"),
    (("validate", "--model", ("family2", "two_point", {"n_polar": 1025})),
     "n_polar must be <= 1024"),
    (("validate", "--model", ("family2", "two_point", {"n_azimuth": 2049})),
     "n_azimuth must be <= 2048"),
    # each key within its cap, but 8 x 1024 x 2048 nodes
    (("validate", "--model", ("family2", "uniform", {"n_polar": 1024, "n_azimuth": 2048})),
     "it must have <= 2097152"),
])
def test_size_inputs_over_cap_exit_64_before_any_work(tmp_path, capsys, argv, message):
    argv = [_spec_file(tmp_path, a[0], a[1], **a[2]) if isinstance(a, tuple) else str(a)
            for a in argv]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert time.perf_counter() - t0 < 1.0
    assert code == EX_USAGE and out == "" and not (tmp_path / "out").exists()
    assert message in err


@pytest.mark.parametrize("family, measure, params, extra", [
    ("family1", "uniform", {"n_nodes": 1024}, ()),
    ("family2", "two_point", {"n_polar": 1024, "n_azimuth": 8}, ()),
    ("family2", "two_point", {"n_polar": 4, "n_azimuth": 2048}, ()),
    ("family1", "two_point", {}, ("--grid-n", "1024")),  # family1 has no sphere grid
])
def test_size_inputs_at_cap_are_accepted(tmp_path, capsys, family, measure, params, extra):
    spec = _spec_file(tmp_path, family, measure, **params)
    code, out, _ = run_cli(capsys, "scan", "--model", spec, "--points", "2", *extra)
    assert code == EX_OK and out.count("\n") == 3


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
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(command, code, out, err):
    """Exit 0, 1, 2 or 64 with no traceback; 1 only from a strict-JSON report with a fail."""
    assert "Traceback" not in err
    assert code in (EX_OK, EX_VIOLATION, EX_INCONCLUSIVE, EX_USAGE)
    if code == EX_USAGE:
        assert out == "" and "error" in err
    elif command == "validate":
        report = strict_json(out)
        assert report["exit_code"] == code
        assert ("fail" in {c["status"] for c in report["checks"]}) == (code == EX_VIOLATION)
    else:
        assert code == EX_OK
        if command in ("simulate", "chsh"):
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == CSV_HEADER and len(rows) > 1
            assert all(len(r) == len(CSV_HEADER) for r in rows)


_counts = st.one_of(st.integers(-2, 8), st.sampled_from([_MAX_PAIRS + 1, 1 << 40]))
_shots = st.one_of(st.integers(-2, 3000), st.sampled_from([_MAX_DRAWS + 1]))


@st.composite
def _size(draw, hi, cap):
    """-1..hi mostly; one time in eight, the value just past the flag's ``cap``."""
    return cap + 1 if draw(st.integers(0, 7)) == 0 else draw(st.integers(-1, hi))


@st.composite
def _numeric_argv(draw):
    command = draw(st.sampled_from(["simulate", "chsh", "validate", "scan", "build-recipe"]))
    grid = ["--grid-n", str(draw(_size(6, _MAX_GAUSS_NODES)))] if draw(st.booleans()) else []
    seed = ["--seed", str(draw(st.integers(0, 3)))]
    if command == "build-recipe":  # the test adds --out
        return [command, draw(st.sampled_from(["square", "cross_uab"])), "2", *seed, *grid]
    model = draw(st.sampled_from(["family1", "family2", "cerf"]))
    argv = [command, "--model", model, *seed, *grid,
            "--threads", str(draw(st.integers(-1, 4)))]
    if command in ("validate", "scan"):
        flags = ((("--lambda-n", 40, 1 << 20), ("--settings-n", 4, 1 << 16),
                  ("--mc-samples", 400, _MAX_DRAWS)) if command == "validate"
                 else (("--points", 8, 1 << 16), ("--lambda-n", 40, 1 << 20)))
        for flag, hi, cap in flags:
            argv += [flag, str(draw(_size(hi, cap)))]
        return argv
    argv += ["--shots", str(draw(_shots)),
             "--mode", draw(st.sampled_from(["sampling", "analytic"]))]
    if command == "simulate":
        argv += ["--settings", f"random:{draw(_counts)}"]
    return argv


def _check_numeric_run(argv, out_dir, run):
    """Run ``argv`` (build-recipe writes into ``out_dir``) and check the exit contract."""
    spec = out_dir / "recipe.json"
    if argv[0] == "build-recipe":
        argv = [*argv, "--out", str(spec)]
    code, out, err = run(argv)
    _assert_exit_contract(argv[0], code, out, err)
    if argv[0] == "build-recipe":
        assert out == "" and spec.exists() == (code == EX_OK)
        if code == EX_OK:
            strict_json(spec.read_text())


@given(_numeric_argv())
@settings(max_examples=60, deadline=None)
def test_numeric_flags_fuzz_keep_exit_and_output_contract(tmp_path_factory, argv):
    _check_numeric_run(argv, tmp_path_factory.mktemp("numeric"), _run_quiet)


# Spec and settings files: mostly well-formed JSON, with a few faults mixed in
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                  st.sampled_from(["NaN", "nan", "Infinity", "-inf", "1e999", "3"]),
                  st.lists(st.integers(-2, 2), max_size=3), st.just({"nested": [1.5]}))
_odd_numbers = st.sampled_from([0.0, -1.0, -1e308, 1e308, 1e-320, float("nan"), float("inf")])
# valid counts stay small; the huge ones must be turned away before any work
_odd_counts = st.sampled_from([-(1 << 40), -3, 0, 1, 2.5, 1024, 1025, 2049, 1 << 40])


@st.composite
def _faulty(draw, valid, odd, one_in=10):
    """``valid``, except one time in ``one_in``: an ``odd`` value, junk of any type, or none."""
    if draw(st.integers(1, one_in)) < one_in:
        return draw(valid)
    return draw(st.one_of(odd, _junk, st.none()))


def _drop_unread(spec):
    """Remove the keys that the spec's family and measure do not read."""
    family, params = spec["family"], spec["parameters"]
    if family == "cerf":
        for key in ("scalar_measure", "gamma", "s"):
            del spec[key]
        params.clear()
        return
    measure = spec.get("scalar_measure") or ("uniform" if family == "recipe" else "two_point")
    read = {"weights"} if measure == "two_point" else {"n_nodes"} if measure == "uniform" \
        else {"weights", "n_nodes"}  # a faulty measure: both stay
    if family == "family2" or (family == "recipe" and params.get("f") == "cross_uab"):
        read |= {"n_polar", "n_azimuth"}
    if family == "recipe":
        read |= {"f", "scale"}
    else:
        spec.pop("s")
    for key in set(params) - read:
        del params[key]


@st.composite
def _spec_json(draw):
    """A model spec with wrong types, nesting, odd counts and stray keys mixed in."""
    fields = {
        "family": (st.sampled_from(["family1", "family2", "wrongtrial", "cerf", "recipe"]),
                   st.sampled_from(["family3", "Family1", ""])),
        "scalar_measure": (st.sampled_from(["two_point", "uniform"]), st.just("gauss")),
        "gamma": (st.floats(0.05, 0.5), _odd_numbers),
        "s": (st.floats(1.0, 3.0), _odd_numbers),
        "seed": (st.integers(0, 3), st.sampled_from([-1, 1 << 64, -(1 << 70), 1.5])),
    }
    params = {
        "n_nodes": (st.integers(2, 6), _odd_counts),
        "n_polar": (st.integers(2, 6), _odd_counts),
        "n_azimuth": (st.integers(2, 8), _odd_counts),
        "weights": (st.sampled_from([[0.5, 0.5], [0.25, 0.75]]),
                    st.lists(st.one_of(_odd_numbers, st.floats(0.0, 1.0)), max_size=3)),
        "f": (st.sampled_from(sorted(RECIPE_REGISTRY)), st.just("cubic")),
        "scale": (st.floats(0.01, 1.0), _odd_numbers),
    }
    spec = {k: draw(_faulty(*v)) for k, v in fields.items()}
    spec["parameters"] = {k: draw(_faulty(*v)) for k, v in params.items()}
    if draw(st.integers(1, 5)) < 5:  # most specs hold only keys their model reads
        _drop_unread(spec)
    for d in (spec, spec["parameters"]):
        for k in [k for k, v in d.items() if v is None and draw(st.booleans())]:
            del d[k]  # a missing key, or else an explicit null
    shape = draw(st.integers(0, 12))
    if shape == 10:
        spec[draw(st.sampled_from(["extra", "n_nodes"]))] = 1
    elif shape == 11:
        spec["parameters"] = draw(st.one_of(_junk, st.just({"parameters": spec["parameters"]})))
    elif shape == 12:
        return draw(st.one_of(_junk, st.just([spec])))
    return spec


_UNIT = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.0, 0.8]]


@st.composite
def _settings_json(draw):
    """Settings pairs: unit vectors mostly, with odd numbers, ragged rows and junk mixed in."""
    vector = _faulty(st.sampled_from(_UNIT),
                     st.lists(st.one_of(st.floats(-1.0, 1.0), _odd_numbers), max_size=4), 12)
    pair = _faulty(st.lists(vector, min_size=2, max_size=2), st.lists(vector, max_size=3), 12)
    n = draw(st.sampled_from([0, 1, 3, 4, 4, 4, 5]))
    pairs = draw(st.lists(pair, min_size=n, max_size=n))
    return draw(_faulty(st.just(pairs), st.just([pairs]), 12))


def _spec_argv(command, spec, out_dir):
    """``command`` on ``spec`` written to a file in ``out_dir``, at small counts."""
    path = out_dir / "spec.json"
    path.write_text(json.dumps(spec))  # non-finite floats as the NaN/Infinity that json reads
    argv = [command, "--model", str(path), "--lambda-n", "20"]
    return argv + (["--settings-n", "2", "--mc-samples", "200"] if command == "validate"
                   else ["--points", "3"])


@given(spec=_spec_json(), command=st.sampled_from(["validate", "scan"]))
@settings(max_examples=60, deadline=None)
def test_spec_file_fuzz_keeps_exit_and_output_contract(tmp_path_factory, spec, command):
    argv = _spec_argv(command, spec, tmp_path_factory.mktemp("spec"))
    _assert_exit_contract(command, *_run_quiet(argv))


@given(raw=_settings_json(), command=st.sampled_from(["simulate", "chsh"]))
@settings(max_examples=80, deadline=None)
def test_settings_file_fuzz_keeps_exit_and_output_contract(tmp_path_factory, raw, command):
    path = tmp_path_factory.mktemp("settings") / "settings.json"
    path.write_text(json.dumps(raw))
    argv = [command, "--model", "family1", "--settings", str(path), "--shots", "50"]
    _assert_exit_contract(command, *_run_quiet(argv))


# The same fuzz in child processes under an address-space limit: a bound missed
# near a cap swaps in process, but here it ends in a MemoryError traceback.
_LIMITED_CHILD = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from hvsinglet.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_limited(argv):
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", _LIMITED_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@given(argv=_numeric_argv(), spec=_spec_json(), command=st.sampled_from(["validate", "scan"]))
@settings(max_examples=6, deadline=None)
def test_fuzz_slice_under_an_address_space_limit(tmp_path_factory, argv, spec, command):
    # 6 examples of two children each, one child at a time
    out_dir = tmp_path_factory.mktemp("limited")
    _check_numeric_run(argv, out_dir, _run_limited)
    _assert_exit_contract(command, *_run_limited(_spec_argv(command, spec, out_dir)))


# ---------------------------------------------------------------------------
# Output schemas, pinned: the report keys of each check in both integral
# modes, and the CSV headers


_REPORT_KEYS = ["checks", "exit_code", "model", "overall", "seed"]
_CHECK_KEYS = ["constraint-id", "details", "extremal_value", "samples_used", "status",
               "tolerance", "witness"]
_WITNESS_KEYS = ["a", "b", "lambda", "sigma", "tau", "value"]
_FITTED = ["s_minus", "s_plus"]
# per check, in report order: what its witness holds (None: no witness;
# "lambda": a point and a settings pair; "pair": a settings pair alone) and
# its details keys
_CHECK_SCHEMA = {
    "family2": {  # quadrature mode
        "normalization": ("lambda", []),
        "positivity": ("lambda", []),
        "entry-half-bound": ("lambda", []),
        "marginal-triviality": ("lambda", []),
        "zero-average": ("pair", ["mode"]),
        "coincident-zero": ("lambda", []),
        "exponent-bound": (None, ["declared", "residual_minus", "residual_plus", *_FITTED]),
        "endpoint-g-bound": ("lambda", ["min_nonzero_fraction", *_FITTED, "sides"]),
        "expansion": ("lambda", ["max_rel_dev_per_eps", *_FITTED]),
        "qm-reproduction": ("pair", ["mode"]),
    },
    "cerf": {  # Monte Carlo mode at 2000 samples: zero-average is inconclusive
        "normalization": ("lambda", []),
        "positivity": ("lambda", []),
        "entry-half-bound": ("lambda", []),
        "marginal-triviality": ("lambda", []),
        "zero-average": ("pair", ["max_stderr", "max_z", "mode", "samples_needed"]),
        "coincident-zero": ("lambda", []),
        "exponent-bound": (None, ["reason"]),
        "endpoint-g-bound": (None, ["reason"]),
        "expansion": (None, ["reason"]),
        "qm-reproduction": ("pair", ["max_stderr", "max_z", "mode"]),
    },
}


@pytest.mark.parametrize("model, extra", [
    ("family2", ()), ("cerf", ("--mc-samples", "2000")),
    ("cerf", ("--mc-samples", "2000", "--threads", "2")),
])
def test_validate_report_schema_is_pinned(capsys, model, extra):
    _, out, _ = run_cli(capsys, "validate", "--model", model, "--seed", "1", *extra)
    report = json.loads(out)
    assert sorted(report) == _REPORT_KEYS
    got = {}
    for check in report["checks"]:
        assert sorted(check) == _CHECK_KEYS
        witness = check["witness"]
        if witness is not None:
            assert sorted(witness) == _WITNESS_KEYS
            if witness["lambda"] is not None:
                assert sorted(witness["lambda"]) == ["scalars", "vectors"]
        got[check["constraint-id"]] = (
            None if witness is None else "pair" if witness["lambda"] is None else "lambda",
            sorted(check["details"]))
    assert list(got.items()) == list(_CHECK_SCHEMA[model].items())


_ESTIMATE_HEADER = "ax,ay,az,bx,by,bz,E_est,stderr,E_qm,n_shots,mode,seed"


@pytest.mark.parametrize("argv, header", [
    (("chsh", "--model", "family1", "--shots", "100"), _ESTIMATE_HEADER),
    (("simulate", "--model", "family1", "--shots", "100", "--settings", "random:2"),
     _ESTIMATE_HEADER),
    (("scan", "--model", "family1", "--points", "3"), "a_dot_b,mean_abs_c,min_entry,max_entry"),
])
def test_csv_headers_are_pinned(capsys, argv, header):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EX_OK and out.splitlines()[0] == header
