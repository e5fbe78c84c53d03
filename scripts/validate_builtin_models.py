"""Run the admissibility suite on every built-in model and tabulate verdicts.

family1, family2 and cerf pass; the square-root envelope counterexample
wrongtrial is expected to fail positivity, the entry bound, the decay
exponent floor, and the endpoint expansion. Reports land next to this
script as JSON unless --out-dir says otherwise.
"""

import json
import pathlib
import time

from hvsinglet import ValidatorConfig, builtin_model, run_full_suite
from hvsinglet.cli import _SEED_MAX, _add_count, _Parser

MODELS = ("family1", "family2", "wrongtrial", "cerf")


def main() -> int:
    ap = _Parser(description=__doc__.splitlines()[0])  # a bad flag exits 64, as in the CLI
    _add_count(ap, "--seed", 0, _SEED_MAX, default=0)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("reports"))
    ap.add_argument("--mc-samples", type=int, default=300_000,
                    help="Monte Carlo budget per integral check (cerf has no quadrature)")
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    config = ValidatorConfig(mc_samples=args.mc_samples)
    worst_exit = 0
    for name in MODELS:
        model = builtin_model(name)
        t0 = time.perf_counter()
        result = run_full_suite(model, config, seed=args.seed)
        dt = time.perf_counter() - t0
        print(f"\n{name} ({dt:.1f} s) -> {result.overall} [exit {result.exit_code}]")
        for r in result.reports:
            extremal = "" if r.extremal_value is None else f" extremal={r.extremal_value:.3g}"
            print(f"  {r.constraint_id:20s} {r.status.value:14s}{extremal}")
        path = args.out_dir / f"{name}.json"
        path.write_text(result.to_json() + "\n", encoding="utf-8")
        print(f"  report: {path}")
        if name != "wrongtrial":  # the counterexample is supposed to fail
            worst_exit = max(worst_exit, result.exit_code)
    return worst_exit


if __name__ == "__main__":
    raise SystemExit(main())
