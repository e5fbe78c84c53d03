"""Time a workload's set-up in a fresh process.

Prints one JSON line ``{"setup_s": seconds}``: the time to import hvsinglet,
write the workload's inputs and build or load every model the workload uses.
Interpreter start-up is not included.

    python3 perfbench/setup_probe.py --workload validate-quad --seed 1 --work DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import import_hvsinglet
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    args = p.parse_args(argv)

    if "numpy" in sys.modules or "hvsinglet" in sys.modules:
        raise RuntimeError("numpy or hvsinglet was imported before the set-up timer started")
    t0 = time.perf_counter()
    import_hvsinglet()
    from hvsinglet import cli
    from hvsinglet.models import load_model, model_from_spec

    inputs = workloads.prepare(args.workload, args.seed, args.work, cli)
    for name in workloads.models_used(args.workload):
        if name == "recipe":
            for path in inputs.recipes:
                load_model(path)
        else:
            model_from_spec({"family": name})
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
