"""Run the same commands on two source trees and list the outputs that differ.

    python3 scripts/compare_outputs.py OLD NEW

OLD and NEW are checkouts of this repository (or their ``src`` directories),
for example a parent commit unpacked with ``git archive`` and the working
tree. For each tree a fresh interpreter imports ``hvsinglet`` from that tree
and runs, at seeds 1-3 and ``--threads`` 1 and 2:

* ``build-recipe square 2`` and ``build-recipe cross_uab 1`` (the benchmark
  recipes; the written spec is compared);
* three spec files (``SPECS``) that size the measures away from their
  defaults: family1 on the uniform measure at gamma 0.3 with 8 nodes,
  family2 on two points weighted 0.25/0.75 with an 8 x 16 sphere, and
  wrongtrial on the uniform measure at gamma 0.6;
* ``validate`` on family1, family2, wrongtrial, cerf (``--mc-samples
  250000``), the two recipe specs and the three spec files, and on cerf at
  ``--mc-samples 2000``,
  where zero-average is ``inconclusive`` (the unresolved branch of the
  Monte Carlo checks);
* ``validate --lambda-n 0`` and ``validate --settings-n 0`` on the same nine
  models (cerf at ``--mc-samples 250000``): the table scans, and on cerf
  coincident-zero, scan no rows, and a quadrature's zero-average has no
  pairs, so those checks take their ``inconclusive`` no-samples branch;
* ``chsh`` and ``simulate --settings random:3`` in sampling and analytic
  mode on the same nine models, at 120001 shots: seven full 16384-shot
  blocks and a ragged one of 5313 shots;
* ``scan`` on the same nine models.

Each output is compared byte for byte, exit code included. The script
prints one line per output that differs, with the JSON keys whose values
differ (old -> new) or the first CSV line that differs, and one line that
says either that its verdicts are unchanged or which of them moved
(old -> new). A command's verdicts are its exit code and, for ``validate``,
every constraint status. The summary line counts the outputs whose verdicts
moved; an output that only one tree has counts as moved. The script exits
0 when every output is identical, 1 when outputs differ but every verdict
holds, and 2 when a verdict moved.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
THREADS = (1, 2)
SHOTS = "120001"
CERF_MC_SAMPLES = "250000"
CERF_SMALL_MC_SAMPLES = "2000"  # too few draws: zero-average is inconclusive
BUILTINS = ("family1", "family2", "wrongtrial", "cerf")
RECIPES = (("square", "2"), ("cross_uab", "1"))
SPECS = {  # non-default parameters of the canonical builders
    "family1-uniform": {"family": "family1", "scalar_measure": "uniform", "gamma": 0.3,
                        "parameters": {"n_nodes": 8}},
    "family2-two_point": {"family": "family2", "scalar_measure": "two_point",
                          "parameters": {"weights": [0.25, 0.75], "n_polar": 8,
                                         "n_azimuth": 16}},
    "wrongtrial-uniform": {"family": "wrongtrial", "scalar_measure": "uniform", "gamma": 0.6},
}
MAX_KEYS = 8  # differing JSON keys printed per output


def source_dir(path: Path) -> Path:
    """The directory holding the ``hvsinglet`` package of a checkout."""
    src = path / "src"
    return src if (src / "hvsinglet").is_dir() else path


def collect(src: Path) -> dict[str, str]:
    """Every output of the command set, run in-process from ``src``."""
    sys.path.insert(0, str(src))
    from hvsinglet import cli

    def run(argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([str(x) for x in argv])
        return f"exit {rc}\n{out.getvalue()}"

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        specs = [Path(tmp) / f"{name}-spec.json" for name in SPECS]
        for path, spec in zip(specs, SPECS.values()):
            path.write_text(json.dumps(spec), encoding="utf-8")
        for seed in SEEDS:
            models = [*BUILTINS, *specs]
            for f, s in RECIPES:
                spec = Path(tmp) / f"recipe-{f}-s{s}-seed{seed}.json"
                rc = run(["build-recipe", f, s, "--seed", seed, "--out", spec])
                outputs[f"build-recipe {f} {s} seed={seed}"] = rc + (
                    spec.read_text(encoding="utf-8") if spec.exists() else "")
                models.append(spec)
            for threads in THREADS:
                for model in models:
                    name = model if isinstance(model, str) else model.stem.rsplit("-", 1)[0]
                    common = ["--model", model, "--seed", seed, "--threads", threads]
                    tag = f"{name} seed={seed} t={threads}"
                    extra = ["--mc-samples", CERF_MC_SAMPLES] if model == "cerf" else []
                    outputs[f"validate {tag}"] = run(["validate", *common, *extra])
                    for flag in ("--lambda-n", "--settings-n"):
                        outputs[f"validate {flag} 0 {tag}"] = run(
                            ["validate", *common, *extra, flag, 0])
                    if model == "cerf":
                        outputs[f"validate mc={CERF_SMALL_MC_SAMPLES} {tag}"] = run(
                            ["validate", *common, "--mc-samples", CERF_SMALL_MC_SAMPLES])
                    outputs[f"scan {tag}"] = run(["scan", *common])
                    for mode in ("sampling", "analytic"):
                        sim = ["--shots", SHOTS, "--mode", mode]
                        outputs[f"chsh {mode} {tag}"] = run(["chsh", *common, *sim])
                        outputs[f"simulate {mode} {tag}"] = run(
                            ["simulate", *common, *sim, "--settings", "random:3"])
    return outputs


def outputs_of(tree: Path) -> dict[str, str]:
    """``collect`` in a fresh interpreter, so each tree imports its own package."""
    src = source_dir(tree)
    if not (src / "hvsinglet").is_dir():
        raise SystemExit(f"{tree}: no hvsinglet package found")
    proc = subprocess.run([sys.executable, __file__, "--collect", str(src)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: collecting outputs failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def json_diffs(old, new, path: str = "") -> list[str]:
    """Leaf paths whose values differ, as 'path: old -> new'."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(set(old) | set(new))
        return [d for k in keys for d in json_diffs(old.get(k), new.get(k), f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (o, n) in enumerate(zip(old, new))
                for d in json_diffs(o, n, f"{path}[{i}]")]
    return [] if old == new else [f"{path or '.'}: {old!r} -> {new!r}"]


def describe(old: str, new: str) -> list[str]:
    """What differs between two outputs of one command."""
    old_head, _, old_body = old.partition("\n")
    new_head, _, new_body = new.partition("\n")
    lines = [f"{old_head} -> {new_head}"] if old_head != new_head else []
    try:
        diffs = json_diffs(json.loads(old_body), json.loads(new_body))
    except json.JSONDecodeError:
        pairs = zip(old_body.splitlines(), new_body.splitlines())
        diffs = [f"line {i + 1}: {o} -> {n}" for i, (o, n) in enumerate(pairs) if o != n]
        if old_body.count("\n") != new_body.count("\n"):
            diffs.append("line counts differ")
    lines += diffs[:MAX_KEYS]
    if len(diffs) > MAX_KEYS:
        lines.append(f"... {len(diffs) - MAX_KEYS} more")
    return lines


def verdicts(name: str, out: str) -> dict[str, str]:
    """The exit code of an output and, for ``validate``, every constraint status."""
    head, _, body = out.partition("\n")
    checks = []
    if name.startswith("validate "):
        try:
            checks = json.loads(body)["checks"]
        except (json.JSONDecodeError, KeyError, TypeError):
            pass
    return {"exit code": head.removeprefix("exit "),
            **{c["constraint-id"]: c["status"] for c in checks}}


def verdict_moves(name: str, old: str, new: str) -> list[str]:
    """The verdicts of one command that differ between two outputs, as 'key old -> new'."""
    before, after = verdicts(name, old), verdicts(name, new)
    return [f"{k} {before.get(k)} -> {after.get(k)}"
            for k in dict.fromkeys([*before, *after]) if before.get(k) != after.get(k)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--collect"]:
        json.dump(collect(Path(argv[1])), sys.stdout)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="checkout (or src directory) to compare from")
    ap.add_argument("new", type=Path, help="checkout (or src directory) to compare to")
    args = ap.parse_args(argv)
    old, new = outputs_of(args.old), outputs_of(args.new)
    differ = moved = 0
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            differ += 1
            moved += 1
            print(f"DIFFERS {name}: only in {'new' if name in new else 'old'}")
        elif old[name] != new[name]:
            differ += 1
            print(f"DIFFERS {name}")
            for line in describe(old[name], new[name]):
                print(f"    {line}")
            moves = verdict_moves(name, old[name], new[name])
            moved += bool(moves)
            print("    verdicts moved: " + ", ".join(moves) if moves else "    verdicts unchanged")
    total = len(set(old) | set(new))
    print(f"{total} outputs compared, {total - differ} identical, {differ} differ, "
          f"{moved} with moved verdicts")
    return 2 if moved else 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
