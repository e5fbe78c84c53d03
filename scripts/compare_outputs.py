"""Run the same commands on two source trees and list the outputs that differ.

    python3 scripts/compare_outputs.py OLD NEW

OLD and NEW are checkouts of this repository (or their ``src`` directories),
for example a parent commit unpacked with ``git archive`` and the working
tree. For each tree a fresh interpreter imports ``hvsinglet`` from that tree
and runs, at seeds 1-3 and ``--threads`` 1 and 2:

* ``build-recipe square 2`` and ``build-recipe cross_uab 1`` (the benchmark
  recipes; the written spec is compared);
* ``validate`` on family1, family2, wrongtrial, cerf (``--mc-samples
  250000``) and the two recipe specs;
* ``chsh`` and ``simulate --settings random:3`` in sampling and analytic
  mode on the same six models, at 70000 shots (a partial 65536-shot block).

Each output is compared byte for byte, exit code included. The script
prints one line per output that differs, with the JSON keys whose values
differ (old -> new) or the first CSV line that differs, and exits 0 when
every output is identical and 1 otherwise.
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
SHOTS = "70000"
CERF_MC_SAMPLES = "250000"
BUILTINS = ("family1", "family2", "wrongtrial", "cerf")
RECIPES = (("square", "2"), ("cross_uab", "1"))
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
        for seed in SEEDS:
            models = list(BUILTINS)
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
    differ = 0
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            differ += 1
            print(f"DIFFERS {name}: only in {'new' if name in new else 'old'}")
        elif old[name] != new[name]:
            differ += 1
            print(f"DIFFERS {name}")
            for line in describe(old[name], new[name]):
                print(f"    {line}")
    total = len(set(old) | set(new))
    print(f"{total} outputs compared, {total - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
