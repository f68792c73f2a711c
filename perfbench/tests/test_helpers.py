"""Tests for the benchmark's own helpers (the percentile rule, self-time
subtraction, the generator proxy, wrapper removal, numpy kept out of the
RSS reading, BENCHMARK.json), plus strict-xfail reproducers of the two
program defects that make ``scale_out`` fail its checks on some seeds.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from layers import Instruments
from passes import SIM_LATENCIES, run_pass
from repro.obs import Observability
from rigs import WORKLOADS, LocalRW, ScaleOut
from run import END_TO_END, host_layers, per_layer_unit
from spans import WRAPPER_FLAG, SpanLog, self_times, tail_percentile


# ------------------------------------------------------- percentile rule

def test_p999_needs_ten_samples_beyond():
    samples = list(range(10_000))
    # Nearest rank 9,990 leaves exactly 10 samples above it.
    assert tail_percentile(samples, 0.999) == 9_989
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(samples[:9_999], 0.999)


def test_percentile_is_nearest_rank_of_unsorted_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples
    assert tail_percentile(samples, 0.5) == 3.0
    with pytest.raises(ValueError):
        tail_percentile(samples, 0.99)
    assert tail_percentile(samples, 0.99, min_beyond=0) == 5.0
    with pytest.raises(ValueError):
        tail_percentile([], 0.5)


# ------------------------------------------------- self-time subtraction

def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,30], b [40,70] > c [50,60]
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 70, 60])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [50, 20, 20, 10]


def test_spanlog_nesting_gives_parents_and_self_times():
    ticks = iter(range(0, 1_000, 10))
    log = SpanLog(clock=lambda: next(ticks))
    inner = log.spanned("inner", lambda: None)
    outer = log.spanned("outer", lambda: (inner(), inner()))
    outer()
    arrs = log.arrays()
    assert [log.names[i] for i in arrs["name"]] == ["outer", "inner", "inner"]
    assert arrs["parent"].tolist() == [-1, 0, 0]
    own = self_times(arrs["start"], arrs["end"], arrs["parent"])
    assert own.tolist() == [30, 10, 10]


# ------------------------------------------------------- generator proxy

def _echo():
    got = []
    try:
        while True:
            try:
                value = yield len(got)
            except KeyError:
                value = "thrown"
            if value == "stop":
                return got
            got.append(value)
    finally:
        got.append("closed")


def test_steps_proxy_forwards_send_throw_return_and_close():
    log = SpanLog()
    returned = []
    proxy = log.steps("g", _echo(), txn=7, on_return=returned.append)
    assert next(proxy) == 0
    assert proxy.send("a") == 1
    assert proxy.throw(KeyError()) == 2
    with pytest.raises(StopIteration) as stop:
        proxy.send("stop")
    assert stop.value.value == ["a", "thrown", "closed"]
    assert returned == [["a", "thrown", "closed"]]
    assert set(log.arrays()["txn"].tolist()) == {7}
    assert log.txn_id == -1

    closing = log.steps("g", _echo())
    next(closing)
    closing.close()  # must close the inner generator too
    assert len(log) == 5


# ----------------------------------------------------- wrapper removal

def _flagged_attributes():
    modules = [importlib.import_module(m.name) for m in pkgutil.walk_packages(
        repro.__path__, "repro.") if not m.name.endswith("__main__")]
    modules.append(importlib.import_module("rigs"))
    found = set()
    for module in modules:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            for attr, value in vars(cls).items():
                if getattr(value, WRAPPER_FLAG, False):
                    found.add((cls, attr))
    return found


def test_every_wrapper_is_removed():
    assert _flagged_attributes() == set()
    inst = Instruments()
    inst.install()
    installed = set(inst.patches.patched)
    assert len(installed) > 20
    assert _flagged_attributes() == installed
    assert set(inst.patches.not_restored()) == installed
    inst.remove()
    assert inst.patches.not_restored() == []
    assert _flagged_attributes() == set()


class _Short(LocalRW):
    warm_us = 200.0
    stop_us = 1_200.0
    drain_us = 2_000.0


def test_traced_pass_matches_plain_and_unwinds():
    plain = run_pass(_Short, 3, "plain")
    traced = run_pass(_Short, 3, "traced", plain_window_s=plain.window_s)
    assert plain.fingerprint == traced.fingerprint
    assert plain.window == traced.window
    assert traced.instruments.patches.not_restored() == []
    assert _flagged_attributes() == set()
    # Too few commits for a p99.9: the run must report it, not hide it.
    assert any(p.startswith("sim_p999_us") for p in plain.problems)
    assert not [p for p in plain.problems if "audit" in p]


@pytest.mark.xfail(strict=True, reason=(
    "known program defect: scaling out under load, seed 19 leaves node 3 "
    "with a pending ownership arbitration for object 6 whose requester "
    "gave up; the rebalancer waits for it forever and never reports "
    "convergence"))
def test_scale_out_rebalancer_converges():
    rig = ScaleOut(19, Observability())
    rig.start()
    rig.run_load(rig.stop_us)
    rig.settle()
    assert rig.converged


@pytest.mark.xfail(strict=True, reason=(
    "known program defect: in the scale-out workload at seed 21, "
    "a read at a replica misses a write that a later transaction of the "
    "same coordinator, already answered, overwrote: the history checker "
    "finds a real-time dependency cycle"))
def test_scale_out_history_is_strictly_serializable():
    result = run_pass(ScaleOut, 21, "observed", check_history=True)
    assert not [p for p in result.problems if "audit history" in p]


# ------------------------------------------------------- peak RSS

def test_passes_run_without_numpy():
    """``peak_rss_mb`` is read after a plain pass; numpy must not be loaded
    by then, or its memory would be counted as the program's."""
    here = Path(__file__).resolve().parents[1]
    code = ("import sys; import run, passes, rigs; "
            "passes.run_pass(rigs.LocalRW, 1, 'plain'); "
            "print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(here), str(here.parent / "src")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=here,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------- BENCHMARK.json agrees

def _benchmark_json():
    return json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())


def test_benchmark_json_is_well_formed():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    names = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    units = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = []
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        seen.append(w["name"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert names.match(m["name"]) and units.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        seen.append(m["name"])
    assert len(seen) == len(set(seen)) and all(names.match(n) for n in seen)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_benchmark_json_matches_the_code():
    doc = _benchmark_json()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: rig.why for name, rig in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    plain = run_pass(_Short, 3, "plain")
    traced = run_pass(_Short, 3, "traced", plain_window_s=plain.window_s)
    emitted = [*(k for k in SIM_LATENCIES if k not in END_TO_END),
               *host_layers([plain], [plain]),
               *traced.layers]
    assert [m["name"] for m in doc["per_layer"]] == emitted
    assert all(m["unit"] == per_layer_unit(m["name"])
               for m in doc["per_layer"])
