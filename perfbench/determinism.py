"""Check that a seed fixes every simulated metric and every layer count.

Measures each workload twice, each time in a fresh process, and requires
every end-to-end and per-layer value that does not come from the host
clock or the host's memory to be bit-identical between the two::

    python3 perfbench/determinism.py --seed 1000

Prints the deterministic values of the first run and exits 1 on any
mismatch (or if a run fails its own checks).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Metrics read off the host clock or the host's memory (everything else
#: is a count, a simulated time or a ratio of those).
HOST_UNITS = ("ns", "s", "txn/s", "txn/ref_s", "MB")
HOST_NAMES = ("traced.overhead_frac", "ownership.handler_share",
              "commit.handler_share")
#: Child program: one shortest run, every metric with its unit as JSON.
_MEASURE = """
import json, sys, run
res = run.measure(sys.argv[1], int(sys.argv[2]), 0)
units = {**run.END_TO_END,
         **{k: run.per_layer_unit(k) for k in res["layers"]}}
print(json.dumps({"problems": res["problems"],
                  "metrics": {k: [v, units[k]] for k, v in
                              {**res["e2e"], **res["layers"]}.items()}}))
"""


def _run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE, workload, str(seed)],
        cwd=HERE.parent, env={**os.environ, "PYTHONPATH": str(HERE)},
        capture_output=True, text=True, check=False)
    result = (json.loads(proc.stdout.strip().splitlines()[-1])
              if proc.returncode == 0 else None)
    if result is None or result["problems"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}"
                         f"{proc.stderr}")
    return result


def deterministic(result: dict) -> dict:
    return {k: value for k, (value, unit) in result["metrics"].items()
            if unit not in HOST_UNITS and k not in HOST_NAMES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every benchmark workload")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import rigs

    status = 0
    for workload in args.workload or list(rigs.WORKLOADS):
        first, second = (deterministic(_run(workload, args.seed))
                         for _ in range(2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        verdict = "identical" if not diff else f"DIFFER: {diff}"
        print(f"{workload} seed {args.seed}: {len(first)} values {verdict}")
        for name, value in first.items():
            print(f"  {name:<32} {value!r}")
        status = status or bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
