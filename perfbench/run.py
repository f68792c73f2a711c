"""The repository benchmark: locality regimes, three passes each.

Run from the repository root::

    python3 perfbench/run.py --workload local_rw --seed 1 --seconds 15 --trace 0

One run builds the workload in this process, on this thread, and runs
plain and observed passes in alternation until ``--seconds`` have been
spent (at least two of each), then one traced pass.  The first plain and
observed passes and the traced pass run ``--seed`` itself; the k-th
further pair runs seed ``1000 * seed + k`` (:func:`input_seed`).  It prints every
metric by name with its unit, then, as its last line, one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Any failed check (audits, history, fingerprint match,
sample counts) makes the run print ``"correct": false`` and exit 1.

``--workload all`` runs every ``BENCHMARK.json`` workload in a fresh
child process each (order rotated by seed) and exits non-zero if any of
them failed.  ``--workload scale_out`` runs the scale-out workload, which
is not listed because program defects make it fail on some seeds
(see ``rigs.ScaleOut``).

Simulated metrics come from a deterministic discrete-event model that
has never been validated against hardware.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"

#: name -> unit of the end-to-end metrics, all from plain passes except
#: ``observed_host_txn_per_s``.
END_TO_END = {
    "host_txn_per_s": "txn/ref_s",
    "observed_host_txn_per_s": "txn/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ktps": "ktxn/sim_s",
    "sim_p50_us": "sim_us",
}
#: Set-up is timed at least SETUP_RUNS times, and more (up to
#: SETUP_MAX_RUNS) until SETUP_SECONDS of set-up have been timed.
SETUP_RUNS, SETUP_MAX_RUNS, SETUP_SECONDS = 5, 40, 1.0
#: Plain and observed passes each run at least this often, however long
#: they take: a host rate is the median of its passes, and one pass alone
#: carries the host's noise of that moment.
MIN_PASSES = 2


def input_seed(seed: int, k: int) -> int:
    """Seed of the k-th plain (and k-th observed) pass of a run.

    Host cost per commit depends on the inputs: on ``scale_out`` the
    rebalancer's churn after ``add_nodes`` makes some seeds fire ~20%
    more events per commit than others.  Running each further pair of
    passes on its own inputs lets a run's host rates average that out
    instead of repeating one seed's luck.
    """
    return seed if k == 0 else 1000 * seed + k


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ns", "_ns_per_txn", "_ns_per_cycle")):
        return "ns"
    if name.endswith("_us") or name.endswith("_us_per_txn"):
        return "sim_us"
    if name.endswith("_txn_per_s"):
        return "txn/s"
    if name == "host.reference_chunk_s":
        return "s"
    if name.endswith(("_frac", "_share")):
        return "ratio"
    if name.endswith("_per_node_s"):
        return "1/sim_s"
    return "count"


def _import_program():
    """Put the checkout's ``src`` on the path and import what we need;
    ``None`` when the program is not there."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program at {src / 'repro'}", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    try:
        import passes
        import rigs
    except ImportError as err:
        print(f"perfbench: cannot import the program: {err}", file=sys.stderr)
        return None
    return passes, rigs


def host_layers(plain: list, observed: list) -> dict:
    """Unscaled host rates and the reference chunks' time behind them."""
    return {
        "host.raw_txn_per_s": statistics.median(
            p.host_txn_per_s for p in plain),
        "host.raw_observed_txn_per_s": statistics.median(
            p.host_txn_per_s for p in observed),
        "host.reference_chunk_s": statistics.median(
            c for p in plain + observed for c in p.chunks),
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """All passes of one workload run; returns metrics and checks."""
    program = _import_program()
    if program is None:
        raise SystemExit(2)
    passes, rigs = program
    rig_cls = rigs.ALL_WORKLOADS.get(workload)
    if rig_cls is None:
        print(f"perfbench: unknown workload {workload!r}", file=sys.stderr)
        raise SystemExit(2)

    deadline = perf_counter() + seconds
    plain = [passes.run_pass(rig_cls, seed, "plain")]
    # ru_maxrss is a lifetime high-water mark: read it while this fresh
    # process has run nothing but one plain pass (and has not imported
    # numpy, which only the span analysis uses).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    observed = [passes.run_pass(rig_cls, seed, "observed",
                                check_history=True)]

    def more(done: list) -> bool:
        return perf_counter() < deadline or len(done) < MIN_PASSES

    while more(plain) or more(observed):
        if more(plain):
            plain.append(passes.run_pass(
                rig_cls, input_seed(seed, len(plain)), "plain"))
        if more(observed):
            observed.append(passes.run_pass(
                rig_cls, input_seed(seed, len(observed)), "observed"))
    setups = [p.ref_setup_s for p in plain]
    while len(setups) < SETUP_RUNS or (sum(setups) < SETUP_SECONDS
                                       and len(setups) < SETUP_MAX_RUNS):
        setups.append(passes.time_setup(rig_cls, seed))
    traced = passes.run_pass(rig_cls, seed, "traced",
                             plain_window_s=plain[0].window_s)

    problems = []
    prints: dict = {}
    for p in plain + observed + [traced]:
        problems += [f"{p.mode} seed {p.seed}: {msg}" for msg in p.problems]
        prints.setdefault(p.seed, set()).add(p.fingerprint)
    for pass_seed, seen in prints.items():
        if len(seen) != 1:
            problems.append(f"passes of seed {pass_seed} disagree on the "
                            f"final-state fingerprint ({len(seen)} distinct)")
    left = traced.instruments.patches.not_restored()
    if left:
        problems.append(f"wrappers left installed: {left}")

    first = plain[0]
    e2e = {
        "host_txn_per_s": statistics.median(p.ref_txn_per_s for p in plain),
        "observed_host_txn_per_s": statistics.median(
            p.ref_txn_per_s for p in observed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "sim_ktps": (first.window["commits"]
                     / first.window["sim_window_us"] * 1e3),
        # Missing only if the pass had too few samples, a failed check.
        "sim_p50_us": first.sim.get("sim_p50_us", 0.0),
    }
    # The simulated tails are exact for the seed too, but they swing from
    # seed to seed by more than any bound would allow, so they are
    # reported beside the layers.
    tails = {k: v for k, v in first.sim.items() if k != "sim_p50_us"}
    layers = {**tails, **host_layers(plain, observed), **traced.layers}

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}-{seed}.npz"
    traced.instruments.log.save(str(spans_path))
    return {
        "workload": workload, "seed": seed,
        "plain_runs": len(plain), "observed_runs": len(observed),
        "plain": first,
        "e2e": e2e, "layers": layers, "problems": problems,
        "spans_path": spans_path,
        "host_spread": {
            "plain": {p.seed: p.ref_txn_per_s for p in plain},
            "observed": {p.seed: p.ref_txn_per_s for p in observed},
        },
    }


def report(res: dict, trace: bool) -> int:
    """Print the human-readable lines and the final JSON line."""
    w = res["plain"].window
    print(f"perfbench {res['workload']} seed {res['seed']}: "
          f"{res['plain_runs']} plain + {res['observed_runs']} observed "
          f"passes, 1 traced")
    print(f"  window: {w['commits']} commits ({w['read_commits']} read-only)"
          f" of {w['attempted']} attempted, {w['failed']} failed; "
          f"sim_p50_us and the tails are over {w['commits']} commit "
          f"latencies ({w['read_commits']} read-only)")
    for name, value in res["e2e"].items():
        print(f"  {name:<32} {value:>16.6g} {END_TO_END[name]}")
    for mode, rates in res["host_spread"].items():
        print(f"  host txn/ref_s per {mode} pass (by seed): "
              f"{ {k: round(v) for k, v in rates.items()} }")
    for name, value in res["layers"].items():
        print(f"  {name:<32} {value:>16.6g} {per_layer_unit(name)}")
    print(f"  spans: {res['spans_path'].relative_to(ROOT)}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")
    correct = not res["problems"]
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in res["e2e"].items()}
    print(json.dumps({"correct": correct, "attempted": w["attempted"],
                      "failed": w["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh child process, order rotated by seed."""
    program = _import_program()
    if program is None:
        return 2
    names = list(program[1].WORKLOADS)
    k = args.seed % len(names)
    status = 0
    for name in names[k:] + names[:k]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="local_rw, remote_rw, read_mostly, all, or "
                             "scale_out (not in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds of plain/observed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print per-layer metrics in the JSON line")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return report(measure(args.workload, args.seed, args.seconds),
                  bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
