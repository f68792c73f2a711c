"""The traced pass: wrappers on each layer's public entry points, and the
per-layer metrics derived from what they record.

Every wrapper sits on a class attribute of the program, installed before
the cluster is built and removed before the audits run.  Wrappers only
observe: they call through with the same arguments and return the same
values.  The one side effect on the simulation is a done-callback on
each commit future, which schedules one passive event; those events are
counted and subtracted from the kernel's counts.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Patches, SpanLog, self_times, tail_percentile

#: Process names (``Process(..., name=)``) whose steps belong to a layer.
_PROCESS_LAYERS = (("rebalancer", "rebalance.loop"),
                   ("rebal.", "rebalance.mover"),
                   ("placement", "placement.loop"),
                   ("place.", "placement.mover"))

_LOCALITY_METHODS = ("begin", "acquired", "commit_txn", "on_handover",
                     "on_route", "on_repin", "mark", "placement_snapshot")


class Instruments:
    """Spans, counts and simulated-time samples of one traced pass."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.patches = Patches()
        #: (sim completion time, sim wait, granted) per ownership acquire.
        self.acquires: List[tuple] = []
        #: (sim completion time, submit->done sim latency) per commit.
        self.replicate: List[tuple] = []
        #: (sim completion time, sim stall) per ``wait_for_room``.
        self.room_waits: List[tuple] = []
        #: id(msg) -> (msg, txn id) for messages sent inside a transaction.
        self._msg_txn: Dict[int, tuple] = {}

    # ---------------------------------------------------------- installing

    def install(self) -> None:
        from repro.cluster.node import Node
        from repro.cluster.movers import MoveExecutor
        from repro.cluster.rebalance import Rebalancer
        from repro.commit.manager import CommitManager
        from repro.hermes.protocol import HermesReplica
        from repro.lb.balancer import LoadBalancer
        from repro.net.network import Network
        from repro.net.reliable import ReliableTransport
        from repro.obs.locality import LocalityRecorder
        from repro.ownership.manager import OwnershipManager
        from repro.placement.policy import PlacementPolicy
        from repro.recovery.manager import RecoveryManager
        from repro.sim.kernel import Simulator
        from repro.sim.process import Process
        from repro.store.object_store import ObjectStore
        from repro.txn.api import ZeusAPI
        from repro.workloads.smallbank import SmallbankWorkload
        from repro.workloads.tatp import TatpWorkload
        from rigs import LbRouted

        log, wrap = self.log, self.patches.wrap
        span = lambda name: (lambda fn: log.spanned(name, fn))  # noqa: E731
        count = lambda name: (lambda fn: log.counted(name, fn))  # noqa: E731

        # sim
        wrap(Simulator, "run", span("sim.run"))
        wrap(Simulator, "call_at", count("sim.scheduled"))
        # net
        wrap(Network, "send", self._network_send)
        wrap(ReliableTransport, "send", span("net.reliable_send"))
        # cluster (node dispatch): every registered handler
        wrap(Node, "register_handler", self._register_handler)
        # ownership
        wrap(OwnershipManager, "acquire", self._acquire)
        # commit
        wrap(CommitManager, "submit", self._submit)
        wrap(CommitManager, "wait_for_room", self._wait_for_room)
        # txn
        wrap(ZeusAPI, "execute_write", self._txn("txn.execute_write"))
        wrap(ZeusAPI, "execute_read", self._txn("txn.execute_read"))
        # store
        wrap(ObjectStore, "get", count("store.lookups"))
        wrap(ObjectStore, "require", count("store.lookups"))
        # workloads (the generators' own cost, kept apart from the program)
        wrap(SmallbankWorkload, "spec_for", span("workloads.spec"))
        wrap(TatpWorkload, "spec_for", span("workloads.spec"))
        wrap(LbRouted, "spec_for", span("workloads.spec"))
        # lb / hermes
        wrap(LoadBalancer, "repin", span("lb.repin"))
        wrap(HermesReplica, "write", span("hermes.write"))
        # rebalance and movers, placement: public calls plus their processes
        for attr in ("request", "converge", "drain"):
            wrap(Rebalancer, attr, span("rebalance.api"))
        wrap(MoveExecutor, "execute", self._executor)
        wrap(Process, "__init__", self._process_init)
        wrap(PlacementPolicy, "decide", span("placement.decide"))
        # recovery
        for attr in ("on_join", "on_restart", "on_cold_restart"):
            wrap(RecoveryManager, attr, span("recovery." + attr))
        # obs
        for attr in _LOCALITY_METHODS:
            wrap(LocalityRecorder, attr, span("obs.locality"))

    def remove(self) -> None:
        self.patches.undo()

    # ------------------------------------------------------------ wrappers

    def _network_send(self, orig):
        log, msg_txn = self.log, self._msg_txn
        counts = log.counts
        nid = log.name_id("net.send")

        def send(net, msg):
            counts["net.msgs"] += 1
            counts["net.bytes"] += net.params.header_bytes + msg.size_bytes
            if log.txn_id >= 0:
                msg_txn[id(msg)] = (msg, log.txn_id)
            i = log.open(nid)
            try:
                return orig(net, msg)
            finally:
                log.close(i)
        return send

    def _register_handler(self, orig):
        log, msg_txn = self.log, self._msg_txn

        def handler(kind, fn):
            nid = log.name_id("cluster.handler." + kind.split(".", 1)[0])

            def run(msg):
                sent = msg_txn.pop(id(msg), None)
                saved = log.txn_id
                log.txn_id = sent[1] if sent and sent[0] is msg else -1
                i = log.open(nid)
                try:
                    return fn(msg)
                finally:
                    log.close(i)
                    log.txn_id = saved
            return run

        def register_handler(node, kind, fn, cost=0.0, span_name=None):
            return orig(node, kind, handler(kind, fn), cost, span_name)
        return register_handler

    def _acquire(self, orig):
        log, samples = self.log, self.acquires

        def acquire(mgr, *args, **kwargs):
            sim = mgr.sim
            began = sim.now

            def done(outcome):
                samples.append((sim.now, sim.now - began,
                                bool(getattr(outcome, "granted", False))))
            return log.steps("ownership.acquire",
                             orig(mgr, *args, **kwargs), on_return=done)
        return acquire

    def _submit(self, orig):
        log, samples = self.log, self.replicate
        counts = log.counts
        nid = log.name_id("commit.submit")

        def submit(mgr, *args, **kwargs):
            i = log.open(nid)
            try:
                fut = orig(mgr, *args, **kwargs)
            finally:
                log.close(i)
            sim, began = mgr.sim, mgr.sim.now

            def done(_fut):
                counts["perfbench.events_fired"] += 1
                samples.append((sim.now, sim.now - began))
            counts["perfbench.events_scheduled"] += 1
            fut.add_done_callback(done)
            return fut
        return submit

    def _wait_for_room(self, orig):
        log, samples = self.log, self.room_waits

        def wait_for_room(mgr, *args, **kwargs):
            sim = mgr.sim
            began = sim.now

            def done(_value):
                samples.append((sim.now, sim.now - began))
            return log.steps("commit.wait_for_room",
                             orig(mgr, *args, **kwargs), on_return=done)
        return wait_for_room

    def _txn(self, name: str):
        log = self.log

        def make(orig):
            def execute(api, *args, **kwargs):
                return log.steps(name, orig(api, *args, **kwargs),
                                 txn=log.new_txn())
            return execute
        return make

    def _executor(self, orig):
        log = self.log

        def execute(executor, ops):
            return log.steps(executor.trace_cat + ".executor",
                             orig(executor, ops))
        return execute

    def _process_init(self, orig):
        log = self.log

        def __init__(proc, sim, gen, name="proc"):
            for prefix, span_name in _PROCESS_LAYERS:
                if name.startswith(prefix):
                    gen = log.steps(span_name, gen)
                    break
            orig(proc, sim, gen, name)
        return __init__

    # ------------------------------------------------------------- reading

    def snapshot(self, cluster) -> Dict[str, float]:
        """Counters at one instant (window start or end)."""
        sim = cluster.sim
        transports = [h.node.transport for h in cluster.handles]
        snap = dict(self.log.counts)
        snap.update({
            "sim.fired": sim.events_executed,
            "sim.cancelled": sim.cancelled_skipped,
            "net.acks": sum(t.acks_sent for t in transports),
            "span_count": len(self.log),
        })
        return snap


def _pct(values: List[float], q: float) -> float:
    return tail_percentile(values, q, min_beyond=0) if values else 0.0


def layer_metrics(inst: Instruments, rig, before: Dict[str, float],
                  after: Dict[str, float], traced_s: float,
                  plain_window_s: float,
                  window: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of a traced pass.

    ``*_per_txn`` values count over the measured window and divide by its
    commits; totals without that suffix (lb, rebalance, placement,
    recovery) cover the whole pass, since those layers act after the load.
    Those layers, ``recover_sim_us`` and ``obs.locality_ns_per_txn`` are
    reported only for the LB-routed rigs, the only ones that run them.
    """
    import numpy as np

    commits = window["commits"]
    d = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    per_txn = lambda v: v / commits  # noqa: E731

    arrs = inst.log.arrays()
    names = inst.log.names
    own = self_times(arrs["start"], arrs["end"], arrs["parent"])
    dur = arrs["end"] - arrs["start"]
    in_window = np.zeros(len(dur), dtype=bool)
    in_window[before["span_count"]:after["span_count"]] = True

    def spans(prefix: str, whole_pass: bool = False) -> np.ndarray:
        """Mask of the spans whose name starts with ``prefix``."""
        ids = [i for i, n in enumerate(names) if n.startswith(prefix)]
        sel = np.isin(arrs["name"], ids)
        return sel if whole_pass else sel & in_window

    lo, hi = rig.warm_us, rig.stop_us
    acq = [(w, g) for t, w, g in inst.acquires if lo <= t < hi]
    waits = [w for w, _g in acq]
    granted = sum(1 for _w, g in acq if g)
    repl = [lat for t, lat in inst.replicate if lo <= t < hi]
    room = sum(w for t, w in inst.room_waits if lo <= t < hi)
    window_sim_s = (hi - lo) / 1e6
    nodes = len(rig.cluster.handles)
    handler_ns = dur[spans("cluster.handler.")].sum()
    commit_ns = dur[spans("cluster.handler.rc")].sum()
    own_ns = dur[spans("cluster.handler.own")].sum()
    scheduled = d["sim.scheduled"] - d.get("perfbench.events_scheduled", 0)
    fired = d["sim.fired"] - d.get("perfbench.events_fired", 0)
    layers = {
        "window.commits": commits,
        "window.read_commits": window["read_commits"],
        "traced.overhead_frac": traced_s / plain_window_s - 1.0,
        "sim.scheduled_per_txn": per_txn(scheduled),
        "sim.fired_per_txn": per_txn(fired),
        "sim.cancelled_frac": d["sim.cancelled"] / scheduled,
        "sim.self_ns_per_txn": per_txn(own[spans("sim.run")].sum()),
        "net.msgs_per_txn": per_txn(d.get("net.msgs", 0)),
        "net.bytes_per_txn": per_txn(d.get("net.bytes", 0)),
        "net.acks_per_txn": per_txn(d["net.acks"]),
        "net.self_ns_per_txn": per_txn(own[spans("net.")].sum()),
        "cluster.handler_calls_per_txn": per_txn(
            spans("cluster.handler.").sum()),
        "cluster.handler_ns_per_txn": per_txn(handler_ns),
        "ownership.acquires_per_txn": per_txn(len(acq)),
        "ownership.wait_p50_us": _pct(waits, 0.50),
        "ownership.wait_p99_us": _pct(waits, 0.99),
        "ownership.granted_frac": granted / len(acq) if acq else 0.0,
        "ownership.handler_ns_per_txn": per_txn(own_ns),
        "ownership.handler_share": own_ns / 1e9 / traced_s,
        "ownership.objects_per_node_s": granted / nodes / window_sim_s,
        "commit.submits_per_txn": per_txn(
            spans("commit.submit").sum()),
        "commit.replicate_p50_us": _pct(repl, 0.50),
        "commit.replicate_p99_us": _pct(repl, 0.99),
        "commit.room_wait_us_per_txn": per_txn(room),
        "commit.handler_ns_per_txn": per_txn(commit_ns),
        "commit.handler_share": commit_ns / 1e9 / traced_s,
        "txn.attempts_per_txn": per_txn(commits + window["aborts"]),
        "txn.self_ns_per_txn": per_txn(own[spans("txn.")].sum()),
        "store.lookups_per_txn": per_txn(d.get("store.lookups", 0)),
        "workloads.spec_ns_per_txn": per_txn(
            dur[spans("workloads.")].sum()),
    }
    if not hasattr(rig, "lb"):
        return layers
    registry = rig.cluster.obs.registry
    cycles = registry.counter_total("placement.cycles")
    converge = (rig.cluster.last_converge_at - rig.added_at
                if rig.added_at is not None
                and rig.cluster.last_converge_at is not None else 0.0)
    return {
        **layers,
        "recover_sim_us": window.get("recover_sim_us") or 0.0,
        "lb.repins": int(spans("lb.repin", whole_pass=True).sum()),
        "hermes.writes": int(
            spans("hermes.write", whole_pass=True).sum()),
        "rebalance.objects_moved": registry.counter_total(
            "rebalance.objects_moved"),
        "rebalance.inflight_aborts": registry.counter_total(
            "rebalance.inflight_aborts"),
        "rebalance.converge_us": converge,
        "rebalance.self_ns": int(
            own[spans("rebalance.", whole_pass=True)].sum()),
        "placement.cycles": cycles,
        "placement.actuations": registry.counter_total("placement.actuations"),
        "placement.decide_ns_per_cycle": (
            dur[spans("placement.decide", whole_pass=True)].sum() / cycles
            if cycles else 0.0),
        "recovery.join_us": window.get("join_sim_us") or 0.0,
        "obs.locality_ns_per_txn": per_txn(
            dur[spans("obs.locality")].sum()),
    }
