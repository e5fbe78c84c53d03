"""Traced run: spans around the public calls of each layer, and layer probes.

The workload's commands are replayed as the sequence of public calls the
``cli`` command makes (for ``validate``, the check calls of
``run_full_suite`` on the same streams). Each replay must reproduce the
command's output bytes; a mismatch is a failed operation, so a change to the
program's internals shows up here instead of being traced silently.

Spans stay in memory and are written to ``perfbench/out/results`` when the
run ends. Each span has a name, start and end in ns, a parent span and an
operation id. Metrics that a workload's replay does not produce come from
probes: direct, repeated calls of the layer's public functions on every
model, so every traced run reports every per-layer metric.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from common import RESULTS, median
import checks
import workloads
from workloads import Ledger, run_cli, run_rounds

BLOCK = 65536           # the simulator's and validator's MC block size
PROBE_REPS = 7
PROBE_BLOCKS = 8        # blocks per estimate_correlation probe call
QUAD_MODELS = ("family1", "family2", "wrongtrial", "recipe")
SIM_MODELS = ("family1", "family2", "cerf")
# (check span name, applies to direct-rule models such as cerf)
CHECKS = (
    ("check_table_scan", True),
    ("check_marginal_triviality", True),
    ("check_zero_average", True),
    ("check_coincident_zero", True),
    ("estimate_exponents", False),
    ("check_endpoint_g_bound", False),
    ("check_expansion", False),
    ("check_qm_reproduction", True),
)


def _per_layer_names() -> list[tuple[str, str]]:
    names = [("geometry.sample_uniform_sphere.ms_per_block", "ms")]
    names += [(f"models.LambdaSpace.sample.{m}.ms_per_block", "ms") for m in SIM_MODELS]
    names += [(f"models.tables_masked.{m}.ms_per_block", "ms")
              for m in ("family1", "family2", "cerf", "recipe")]
    names += [(f"models.tables_masked.{m}.quad_ms", "ms") for m in ("family2", "recipe")]
    names += [(f"models.sample_valid_tables.{m}.ms_per_block", "ms") for m in SIM_MODELS]
    names += [("models.sample_valid_tables.cerf.accept_ratio", "ratio")]
    names += [(f"models.build.{m}.ms", "ms") for m in ("family2", "recipe")]
    names += [(f"simulator.estimate_correlation.{m}.ms_per_block", "ms") for m in SIM_MODELS]
    names += [("simulator.estimate_correlation.cerf.analytic.ms_per_block", "ms")]
    names += [(f"simulator.outcome_draw.{m}.ms_per_block", "ms") for m in SIM_MODELS]
    names += [("simulator.blocks", "count")]
    names += [(f"simulator.scaling_t2.{m}", "ratio") for m in SIM_MODELS]
    for check, direct in CHECKS:
        for m in QUAD_MODELS + (("cerf",) if direct else ()):
            names.append((f"validator.{check}.{m}.ms", "ms"))
    names += [(f"validator.{c}.cerf.samples", "count")
              for c in ("zero_average", "qm_reproduction", "table_scan")]
    names += [(f"validator.{c}.cerf.ns_per_sample", "ns")
              for c in ("zero_average", "qm_reproduction")]
    names += [(f"validator.longest_check_share.{m}", "ratio") for m in ("cerf", "family2")]
    names += [("validator.SuiteResult.to_json.ms", "ms")]
    names += [(f"cli.main.overhead_ms.{c}", "ms") for c in ("validate", "chsh")]
    names += [("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio")]
    return names


PER_LAYER = _per_layer_names()


class Tracer:
    """In-memory spans; the parent defaults to the innermost open span of the thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = iter(range(1 << 62))
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, op: int, parent: int | None = None, **attrs):
        with self._lock:
            sid = next(self._ids)
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        rec = {"id": sid, "name": name, "op": op, "parent": parent, **attrs}
        stack.append(sid)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(rec)


def _ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


# ---------------------------------------------------------------------------
# Replays of the cli commands through public calls


def _load(tr: Tracer, op: int, args):
    from hvsinglet.models import load_model, model_from_spec

    with tr.span("cli.load_model", op):
        if not os.path.exists(args.model) and args.model in ("family1", "family2",
                                                              "wrongtrial", "cerf"):
            return model_from_spec({"family": args.model}, grid_n=args.grid_n)
        return load_model(args.model, grid_n=args.grid_n)


def _replay_validate(tr: Tracer, op: int, root_id: int, model, args, label: str):
    from hvsinglet import validator as v
    from hvsinglet.geometry import RandomStream

    cfg = v.ValidatorConfig(n_settings=args.settings_n, n_lambda=args.lambda_n,
                            exponent_lambda=args.lambda_n, mc_samples=args.mc_samples,
                            threads=args.threads)
    root = RandomStream(args.seed).split(3)
    quad = model.lambda_space.quadrature is not None
    est = None
    if model.is_canonical:
        with tr.span("validator.estimate_exponents", op, model=label):
            est = v.estimate_exponents(model, root.split(6), cfg.exponent_window,
                                       cfg.exponent_points, cfg.exponent_lambda)
    declared = dict(zip(("plus", "minus"), model.declared_exponents))

    def fitted(side: str):
        if declared[side] is not None or est is None:
            return None
        return getattr(est, f"s_{side}")

    calls = {
        "check_table_scan": lambda: v.check_table_scan(
            model, cfg.n_settings, cfg.n_lambda, root.split(1)),
        "check_marginal_triviality": lambda: v.check_marginal_triviality(
            model, cfg.marginal_settings, cfg.marginal_lambda, root.split(2)),
        "check_zero_average": lambda: v.check_zero_average(
            model, cfg.n_settings if quad else cfg.mc_settings, root.split(4),
            mc_samples=cfg.mc_samples),
        "check_coincident_zero": lambda: v.check_coincident_zero(
            model, cfg.coincident_axes, cfg.n_lambda, root.split(5)),
        "check_exponent_bound": lambda: v.check_exponent_bound(
            model, root.split(6), cfg.exponent_window, cfg.exponent_points,
            cfg.exponent_lambda, estimate=est),
        "check_endpoint_g_bound": lambda: v.check_endpoint_g_bound(
            model, root.split(7), eps=cfg.endpoint_eps, n_pairs=cfg.endpoint_pairs,
            n_lambda=cfg.n_lambda, s_plus=fitted("plus"), s_minus=fitted("minus")),
        "check_expansion": lambda: v.check_expansion(
            model, root.split(8), cfg.expansion_eps, cfg.expansion_axes, cfg.n_lambda),
        "check_qm_reproduction": lambda: v.check_qm_reproduction(
            model, cfg.qm_settings, root.split(9), mc_samples=cfg.mc_samples),
    }

    def traced(name: str):
        with tr.span(f"validator.{name}", op, parent=root_id, model=label) as rec:
            out = calls[name]()
            first = out[0] if isinstance(out, tuple) else out
            rec["samples"] = int(first.samples_used)
            return out

    jobs = [n for n in calls if n != "check_table_scan"]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            scan = pool.submit(traced, "check_table_scan")
            results = list(pool.map(traced, jobs))
            scan_reports = scan.result()
    else:
        scan_reports = traced("check_table_scan")
        results = [traced(n) for n in jobs]
    by_id = {r.constraint_id: r for r in [*scan_reports, *results]}
    reports = [by_id[cid] for cid in v.CONSTRAINT_ORDER]
    result = v.SuiteResult(model_spec=dict(model.spec), seed=int(args.seed), reports=reports)
    with tr.span("validator.SuiteResult.to_json", op, model=label):
        return result.to_json() + "\n", result.exit_code


def _replay_estimates(tr: Tracer, op: int, model, pairs, cfg, label: str) -> list:
    from hvsinglet.simulator import estimate_correlation

    blocks = 0 if (cfg.mode == "analytic" and model.lambda_space.quadrature is not None) \
        else math.ceil(cfg.shots / BLOCK)
    ests = []
    for i in range(len(pairs)):
        with tr.span("simulator.estimate_correlation", op, model=label, blocks=blocks):
            ests.append(estimate_correlation(model, pairs[i, 0], pairs[i, 1], cfg,
                                             pair_index=i))
    return ests


def _replay_chsh(tr: Tracer, op: int, model, args, label: str):
    from hvsinglet import simulator as s

    cfg = s.ExperimentConfig(shots=args.shots, mode=args.mode, seed=args.seed,
                             threads=args.threads)
    ests = _replay_estimates(tr, op, model, s.OPTIMAL_CHSH_SETTINGS, cfg, label)
    s_est = abs(sum(sgn * e.e_est for sgn, e in zip(s.CHSH_SIGNS, ests)))
    stderr = float(np.sqrt(sum(e.stderr**2 for e in ests)))
    s_qm = abs(sum(sgn * e.e_qm for sgn, e in zip(s.CHSH_SIGNS, ests)))
    result = s.ChshResult(ests, float(s_est), stderr, float(s_qm), cfg.seed)
    buf = io.StringIO()
    with tr.span("simulator.write_chsh_csv", op, model=label):
        s.write_chsh_csv(buf, result)
    return buf.getvalue(), 0


def _replay_simulate(tr: Tracer, op: int, model, args, label: str):
    from hvsinglet import simulator as s

    with tr.span("cli.read_settings", op):
        with open(args.settings, encoding="utf-8") as fh:
            pairs = np.asarray(json.load(fh), dtype=float)
    cfg = s.ExperimentConfig(shots=args.shots, mode=args.mode, seed=args.seed,
                             threads=args.threads)
    ests = _replay_estimates(tr, op, model, pairs, cfg, label)
    buf = io.StringIO()
    with tr.span("simulator.write_correlations_csv", op, model=label):
        s.write_correlations_csv(buf, ests)
    return buf.getvalue(), 0


def replay(tr: Tracer, cli, op_spec: workloads.Op, threads: int, op: int, rnd: int):
    """Replay one command under a root span; returns (stdout text, exit code)."""
    with tr.span(f"cli.{op_spec.kind}", op, model=op_spec.model, threads=threads,
                 round=rnd) as root:
        with tr.span("cli.parse", op):
            args = cli.build_parser().parse_args([*op_spec.argv, "--threads", str(threads)])
        model = _load(tr, op, args)
        if op_spec.kind == "validate":
            return _replay_validate(tr, op, root["id"], model, args, op_spec.model)
        if op_spec.kind == "chsh":
            return _replay_chsh(tr, op, model, args, op_spec.model)
        return _replay_simulate(tr, op, model, args, op_spec.model)


# ---------------------------------------------------------------------------
# Layer probes: repeated direct calls, median time


def _time_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _median_ms(fn, reps: int = PROBE_REPS) -> float:
    return median(_time_ms(fn) for _ in range(reps))


def layer_probes(cli, seed: int, recipe_path: Path) -> dict[str, float]:
    from hvsinglet import simulator as s
    from hvsinglet import validator as v
    from hvsinglet.geometry import RandomStream, sample_uniform_sphere
    from hvsinglet.models import (build_recipe_model, load_model, model_from_spec,
                                  sample_valid_tables)

    out: dict[str, float] = {}
    gen = RandomStream(seed).split(90).generator()
    models = {m: model_from_spec({"family": m}) for m in SIM_MODELS}
    models["recipe"] = load_model(recipe_path)

    def pair():
        return sample_uniform_sphere(gen), sample_uniform_sphere(gen)

    out["geometry.sample_uniform_sphere.ms_per_block"] = _median_ms(
        lambda: sample_uniform_sphere(gen, BLOCK))
    for m in SIM_MODELS:
        space = models[m].lambda_space
        out[f"models.LambdaSpace.sample.{m}.ms_per_block"] = _median_ms(
            lambda: space.sample(gen, BLOCK))
    for m, model in models.items():
        batch = model.lambda_space.sample(gen, BLOCK)
        out[f"models.tables_masked.{m}.ms_per_block"] = _median_ms(
            lambda: model.tables_masked(batch, *pair()))
    for m in ("family2", "recipe"):
        model = models[m]
        nodes = model.lambda_space.quadrature[0]
        out[f"models.tables_masked.{m}.quad_ms"] = _median_ms(
            lambda: model.tables_masked(nodes, *pair()))
    for m in SIM_MODELS:
        model = models[m]
        out[f"models.sample_valid_tables.{m}.ms_per_block"] = _median_ms(
            lambda: sample_valid_tables(model, gen, BLOCK, *pair()))
    drawn = accepted = 0
    for _ in range(PROBE_BLOCKS):
        a, b = pair()
        _, ok = models["cerf"].tables_masked(models["cerf"].lambda_space.sample(gen, BLOCK), a, b)
        drawn += len(ok)
        accepted += int(np.count_nonzero(ok))
    out["models.sample_valid_tables.cerf.accept_ratio"] = accepted / drawn
    out["models.build.family2.ms"] = _median_ms(lambda: model_from_spec({"family": "family2"}))
    out["models.build.recipe.ms"] = _median_ms(
        lambda: build_recipe_model("cross_uab", 1.0, gamma=1.0, measure="uniform",
                                   n_polar=32, n_azimuth=64, seed=seed))

    # simulator: whole estimates over PROBE_BLOCKS blocks, and the sampling part alone
    for m in SIM_MODELS:
        model = models[m]
        a, b = pair()
        cfg1 = s.ExperimentConfig(shots=PROBE_BLOCKS * BLOCK, seed=seed, threads=1)
        cfg2 = s.ExperimentConfig(shots=PROBE_BLOCKS * BLOCK, seed=seed, threads=2)
        pair_stream = RandomStream(seed).split(2, 0)

        def sampling_only():
            for k in range(PROBE_BLOCKS):
                sample_valid_tables(model, pair_stream.split(k).generator(), BLOCK, a, b)

        est1, est2, svt = [], [], []
        for _ in range(3):
            est1.append(_time_ms(lambda: s.estimate_correlation(model, a, b, cfg1)))
            est2.append(_time_ms(lambda: s.estimate_correlation(model, a, b, cfg2)))
            svt.append(_time_ms(sampling_only))
        per_block = median(est1) / PROBE_BLOCKS
        out[f"simulator.estimate_correlation.{m}.ms_per_block"] = per_block
        out[f"simulator.outcome_draw.{m}.ms_per_block"] = per_block - median(svt) / PROBE_BLOCKS
        out[f"simulator.scaling_t2.{m}"] = median(est1) / median(est2)
    cfg_an = s.ExperimentConfig(shots=PROBE_BLOCKS * BLOCK, mode="analytic", seed=seed)
    a, b = pair()
    out["simulator.estimate_correlation.cerf.analytic.ms_per_block"] = _median_ms(
        lambda: s.estimate_correlation(models["cerf"], a, b, cfg_an), reps=3) / PROBE_BLOCKS

    # cli.main wall time minus the library call it wraps, same inputs; small
    # inputs keep the library call short, so its noise does not swamp the difference
    f1 = models["family1"]
    val_argv = ["validate", "--model", "family1", "--seed", str(seed),
                "--settings-n", "10", "--lambda-n", "200"]
    val_cfg = v.ValidatorConfig(n_settings=10, n_lambda=200, exponent_lambda=200)
    chsh_argv = ["chsh", "--model", "family1", "--seed", str(seed), "--shots", str(BLOCK)]
    for name, argv, lib in (
            ("validate", val_argv, lambda: v.run_full_suite(f1, val_cfg, seed=seed)),
            ("chsh", chsh_argv, lambda: s.chsh(f1, s.ExperimentConfig(shots=BLOCK, seed=seed)))):
        wall, call = [], []
        for _ in range(2 * PROBE_REPS):
            wall.append(run_cli(cli, argv)[2] * 1e3)
            call.append(_time_ms(lib))
        out[f"cli.main.overhead_ms.{name}"] = median(wall) - median(call)
    return out


# ---------------------------------------------------------------------------
# The traced run


def _union_ns(intervals) -> int:
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def _validator_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-check times from the t1 ``validate`` replays, median over rounds."""
    roots = {s["id"]: s for s in spans if s["name"] == "cli.validate" and s["threads"] == 1}
    per: dict[tuple, float] = {}          # (round, model, check) -> ms, summed over ops
    samples: dict[tuple, int] = {}        # (model, check) -> samples used in one replay
    to_json = []
    for sp in spans:
        root = roots.get(sp["parent"])
        if root is None or not sp["name"].startswith("validator."):
            continue
        name = sp["name"][len("validator."):]
        if name == "SuiteResult.to_json":
            to_json.append(_ms(sp))
            continue
        key = (root["round"], sp["model"], name)
        per[key] = per.get(key, 0.0) + _ms(sp)
        if "samples" in sp and root["round"] == 0:
            samples[key[1:]] = samples.get(key[1:], 0) + sp["samples"]

    out: dict[str, float] = {}
    by_check: dict[tuple, list[float]] = {}
    for (_, model, name), ms in per.items():
        by_check.setdefault((model, name), []).append(ms)
    for (model, name), vals in by_check.items():
        out[f"validator.{name}.{model}.ms"] = median(vals)
    for c in ("zero_average", "qm_reproduction", "table_scan"):
        n = samples[("cerf", f"check_{c}")]
        out[f"validator.{c}.cerf.samples"] = n
        out[f"validator.{c}.cerf.ns_per_sample"] = out[f"validator.check_{c}.cerf.ms"] * 1e6 / n
    for m in ("cerf", "family2"):
        shares = []
        for rnd in {k[0] for k in per if k[1] == m}:
            times = [ms for (r, mm, _), ms in per.items() if r == rnd and mm == m]
            shares.append(max(times) / sum(times))
        out[f"validator.longest_check_share.{m}"] = median(shares)
    out["validator.SuiteResult.to_json.ms"] = median(to_json)
    return out


def traced_run(cli, workload: str, seed: int, seconds: float, work: Path,
               ledger: Ledger) -> tuple[dict, dict]:
    """Alternate untraced rounds with traced replays; then fill in with probes."""
    inputs = workloads.prepare(workload, seed, work / "main", cli)
    ops = workloads.ops_for(workload, inputs)
    tr = Tracer()
    refs: dict = {}
    op_ids = iter(range(1 << 62))
    traced_walls: list[float] = []

    def replay_checked(op_spec, threads: int, rnd: int) -> float:
        """Replay one command, check it against the command's bytes; seconds."""
        label = f"replay {op_spec.label} t{threads}"
        t0 = time.perf_counter()
        try:
            text, rc = replay(tr, cli, op_spec, threads, next(op_ids), rnd)
        except Exception:  # a replay that crashes is a failed operation
            ledger.record(label, [traceback.format_exc(limit=3)])
            return time.perf_counter() - t0
        ledger.record(label, checks.check_output(
            op_spec.kind, text, rc, expect_exit=op_spec.expect_exit,
            reference=refs.get(op_spec)))
        return _ms(tr.spans[-1]) / 1e3

    def replay_round(rnd: int) -> None:
        traced_walls.append(sum(replay_checked(o, t, rnd)
                                for o in ops for t in workloads.THREADS))

    rounds = run_rounds(cli, ops, seconds, ledger, refs, between=replay_round)
    untraced_walls = [sum(r.values()) for r in rounds]
    # coverage: time under the top-level spans (the direct children of each
    # command's root span, overlaps merged) over the commands' traced wall time
    roots = [s for s in tr.spans if s["parent"] is None]
    children: dict[int, list] = {}
    for sp in tr.spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start_ns"], sp["end_ns"]))
    covered_ns = sum(_union_ns(children.get(r["id"], [])) for r in roots)
    root_ns = sum(r["end_ns"] - r["start_ns"] for r in roots)
    blocks = sum(s["blocks"] for s in tr.spans
                 if s["name"] == "simulator.estimate_correlation" and s["op"] in
                 {r["op"] for r in roots if r["threads"] == 1 and r["round"] == 0})

    # validate every model at t1 once, untraced and replayed, if the workload did not
    quad_inputs = workloads.prepare("validate-quad", seed, work / "probe", cli)
    seen = {o.model for o in ops if o.kind == "validate"}
    extra = [o for o in workloads.ops_for("validate-quad", quad_inputs)
             + workloads.ops_for("validate-mc", quad_inputs) if o.model not in seen]
    for o in extra:
        workloads.run_checked(cli, o, 1, ledger, refs)
        replay_checked(o, 1, 0)

    metrics = _validator_metrics(tr.spans)
    metrics.update(layer_probes(cli, seed, quad_inputs.recipes[1]))
    metrics["simulator.blocks"] = blocks
    metrics["trace.coverage"] = covered_ns / root_ns
    metrics["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0

    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_file = RESULTS / f"spans-{workload}-seed{seed}-{os.getpid()}.json"
    spans_file.write_text(json.dumps(tr.spans) + "\n", encoding="utf-8")
    units = dict(PER_LAYER)
    missing = [n for n in units if n not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    samples = {"untraced_round_s": untraced_walls, "traced_round_s": traced_walls}
    return {n: (metrics[n], units[n]) for n in units}, samples
