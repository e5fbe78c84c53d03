"""Output checks behind the benchmark's ``failed`` count.

Every operation's output goes through :func:`check_output`. An operation
fails when the returned list of problems is non-empty.
"""

from __future__ import annotations

import csv
import io
import json
import math

CHSH_QM = 2.0 * math.sqrt(2.0)
Z_LIMIT = 5.0     # estimates must sit within this many standard errors
N_PAIRS = 4       # chsh's four pairs; the simulate commands get four settings pairs


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _witness_replays(report: dict) -> list[str]:
    """The positivity witness must reproduce a negative table entry."""
    import numpy as np
    from hvsinglet.models import LambdaPoint, NegativeProbabilityError, model_from_spec

    pos = next((c for c in report["checks"] if c["constraint-id"] == "positivity"), None)
    if pos is None or pos["status"] != "fail" or pos.get("witness") is None:
        return ["expected a failing positivity check with a witness"]
    w = pos["witness"]
    lam = LambdaPoint(tuple(w["lambda"]["scalars"]),
                      tuple(np.asarray(v, dtype=float) for v in w["lambda"]["vectors"]))
    model = model_from_spec(report["model"])
    try:
        model.tables(lam, np.asarray(w["a"]), np.asarray(w["b"]), check=True)
    except NegativeProbabilityError:
        return []
    return ["positivity witness does not replay to a negative entry"]


def check_report(text: str, rc: int, expect_exit: int) -> list[str]:
    """A ``validate`` report: strict JSON, expected exit code and verdict."""
    try:
        report = strict_json(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    problems = []
    want = {0: "pass", 1: "fail"}[expect_exit]
    if rc != expect_exit:
        problems.append(f"exit code {rc}, expected {expect_exit}")
    if report.get("overall") != want or report.get("exit_code") != expect_exit:
        problems.append(f"overall {report.get('overall')!r}/{report.get('exit_code')!r}, "
                        f"expected {want!r}/{expect_exit}")
    if expect_exit == 1 and not problems:
        problems += _witness_replays(report)
    return problems


def check_csv(text: str, rc: int, kind: str) -> list[str]:
    """A ``chsh`` or ``simulate`` CSV: header, row count, estimates near QM."""
    from hvsinglet.simulator import CSV_HEADER

    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return ["CSV header differs from CSV_HEADER"]
    body = rows[1:]
    want_rows = N_PAIRS + (1 if kind == "chsh" else 0)
    if len(body) != want_rows:
        return [f"{len(body)} CSV rows, expected {want_rows}"]
    col = {name: i for i, name in enumerate(CSV_HEADER)}
    problems = []
    for k, row in enumerate(body):
        try:
            e_est, stderr, e_qm = (float(row[col[c]]) for c in ("E_est", "stderr", "E_qm"))
        except (ValueError, IndexError):
            problems.append(f"row {k}: unparsable numbers")
            continue
        if row[col["mode"]] == "chsh":
            if kind != "chsh" or k != len(body) - 1:
                problems.append(f"row {k}: unexpected chsh summary row")
            target = CHSH_QM
        else:
            target = e_qm
        if not (math.isfinite(e_est) and math.isfinite(stderr) and stderr > 0.0):
            problems.append(f"row {k}: non-finite estimate or stderr")
        elif abs(e_est - target) > Z_LIMIT * stderr:
            problems.append(f"row {k}: estimate {e_est:.6g} is more than {Z_LIMIT:g} "
                            f"stderr ({stderr:.3g}) from {target:.6g}")
    if kind == "chsh" and body[-1][col["mode"]] != "chsh":
        problems.append("missing chsh summary row")
    return problems


def check_output(kind: str, text: str, rc: int, *, expect_exit: int = 0,
                 reference: str | None = None) -> list[str]:
    """All checks for one operation.

    ``reference`` is the output of the same command at another thread
    count (or of the command the output replays); bytes must match it.
    """
    if kind == "validate":
        problems = check_report(text, rc, expect_exit)
    else:
        problems = check_csv(text, rc, kind)
    if reference is not None and text != reference:
        problems.append("output bytes differ from the reference output")
    return problems
