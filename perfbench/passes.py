"""One pass of a workload: build, warm up, measure the window, drain, check.

Three kinds of pass run the same seeded simulation:

* ``plain``    — nothing observed; every host end-to-end number.
* ``observed`` — the program's Tracer, HistoryRecorder and
  LocalityRecorder on, as ``repro trace`` / ``repro check`` users run it.
* ``traced``   — the benchmark's own wrappers on (:mod:`layers`).

Each pass ends with the nine audits against the benchmark-side ledger and
a fingerprint of every node's final store; the passes of one seed must
agree on the fingerprint.
"""

from __future__ import annotations

import gc
import hashlib
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs import HistoryRecorder, LocalityRecorder, Observability, Tracer
from repro.verify.audit import audit_run

from calibrate import run_calibrated, time_calibrated, to_reference
from layers import Instruments, layer_metrics
from spans import tail_percentile

MODES = ("plain", "observed", "traced")
#: Simulated commit-latency percentiles of a pass; each needs at least 10
#: samples beyond it.
SIM_LATENCIES = {"sim_p50_us": 0.5, "sim_p999_us": 0.999,
                 "sim_read_p99_us": 0.99}


class PassResult:
    """What one pass measured and whether its checks held."""

    def __init__(self, mode: str, seed: int) -> None:
        self.mode = mode
        self.seed = seed
        self.setup_s = 0.0
        self.window_s = 0.0
        #: Host seconds of each reference chunk run around the window.
        self.chunks: List[float] = []
        self.window: Dict[str, float] = {}
        self.latencies: List[float] = []
        self.read_latencies: List[float] = []
        #: Simulated latency percentiles of the window's commits.
        self.sim: Dict[str, float] = {}
        self.fingerprint = ""
        self.problems: List[str] = []
        self.layers: Dict[str, float] = {}
        self.instruments: Optional[Instruments] = None

    @property
    def host_txn_per_s(self) -> float:
        """Window commits per host second, unscaled."""
        return self.window["commits"] / self.window_s

    @property
    def ref_txn_per_s(self) -> float:
        """Window commits per reference second."""
        return self.window["commits"] / to_reference(self.window_s,
                                                     self.chunks)

    @property
    def ref_setup_s(self) -> float:
        """Set-up time in reference seconds (priced by the window's
        chunks, which start right after it)."""
        return to_reference(self.setup_s, self.chunks)


def fingerprint(cluster, commits: int) -> str:
    """sha256 over each node's sorted (oid, t_version, value, o_state,
    replica set), plus the window's commit count."""
    h = hashlib.sha256()
    for handle in cluster.handles:
        store = handle.store
        h.update(f"node {handle.node_id}\n".encode())
        for oid in range(cluster.catalog.num_objects):
            obj = store.get(oid)
            if obj is None:
                continue
            rs = obj.o_replicas
            replicas = (None if rs is None
                        else (rs.owner, tuple(sorted(rs.readers))))
            h.update(repr((oid, obj.t_version, obj.t_data, obj.o_state.name,
                           replicas)).encode())
    h.update(f"commits {commits}".encode())
    return h.hexdigest()


def _observability(mode: str) -> Observability:
    if mode == "observed":
        return Observability(tracer=Tracer(), history=HistoryRecorder(),
                             locality=LocalityRecorder())
    return Observability()


def time_setup(rig_cls, seed: int) -> float:
    """Reference seconds to build and load a plain cluster, then spawn
    its clients (the first transaction would issue next)."""
    gc.collect()
    return time_calibrated(lambda: rig_cls(seed, Observability()).start())


def run_pass(rig_cls, seed: int, mode: str, check_history: bool = False,
             plain_window_s: Optional[float] = None) -> PassResult:
    """Run one pass of ``rig_cls`` at ``seed``.

    ``check_history`` adds the strict-serializability check (observed
    passes only); a traced pass needs ``plain_window_s`` to report its
    own overhead.
    """
    if mode not in MODES:
        raise ValueError(f"unknown pass {mode!r}")
    out = PassResult(mode, seed)
    gc.collect()
    inst = Instruments() if mode == "traced" else None
    if inst is not None:
        inst.install()
        out.instruments = inst
    try:
        t0 = perf_counter()
        rig = rig_cls(seed, _observability(mode))
        rig.start()
        out.setup_s = perf_counter() - t0
        rig.run_load(rig.warm_us)
        before = inst.snapshot(rig.cluster) if inst else None
        out.window_s, out.chunks = run_calibrated(
            rig.run_load, rig.warm_us, rig.stop_us)
        after = inst.snapshot(rig.cluster) if inst else None
        rig.settle()
    finally:
        if inst is not None:
            inst.remove()

    idx = rig.window()
    ok = [i for i in idx if rig.committed[i]]
    out.latencies = [rig.latency[i] for i in ok]
    out.read_latencies = [rig.latency[i] for i in ok if rig.read_only[i]]
    out.window = {
        "attempted": len(idx),
        "failed": len(idx) - len(ok),
        "commits": len(ok),
        "read_commits": len(out.read_latencies),
        "aborts": sum(rig.aborts[i] for i in ok),
        "sim_window_us": rig.stop_us - rig.warm_us,
    }
    if getattr(rig, "add", 0):
        out.window["recover_sim_us"] = rig.recover_sim_us()
        out.window["join_sim_us"] = rig.join_sim_us()
        if not rig.converged:
            out.problems.append("rebalancer did not converge")
        if out.window["recover_sim_us"] is None:
            out.problems.append("throughput never recovered after add_nodes")
        if out.window["join_sim_us"] is None:
            out.problems.append("no joiner ever committed")

    out.fingerprint = fingerprint(rig.cluster, len(ok))
    history = rig.cluster.obs.history if check_history else None
    audit = audit_run(rig.cluster, rig.ledger, rig.initial_value,
                      history=history)
    out.problems += [f"audit {name}: {problem}"
                     for name, problem in audit.problems()]
    for name, q in SIM_LATENCIES.items():
        samples = out.read_latencies if "read" in name else out.latencies
        try:
            out.sim[name] = tail_percentile(samples, q)
        except ValueError as err:
            out.problems.append(f"{name}: {err}")
    if inst is not None and ok:
        out.layers = layer_metrics(inst, rig, before, after, out.window_s,
                                   plain_window_s or out.window_s,
                                   out.window)
    return out
