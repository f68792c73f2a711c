"""A fixed reference workload that prices the host's speed while a pass runs.

The host this benchmark runs on is shared: the same pass of the same seed
can take 2x longer a few minutes later, and CPU time tracks wall time, so
the slowdown comes from the machine, not from scheduling.  Each measured
window is therefore run in slices, with one short chunk of
:func:`reference_chunk` between slices, so the chunks see the same host
the program does.  Host times are then stated in *reference seconds*:
host seconds scaled by ``CHUNK_S`` over the mean time of the chunks
around them, raised to ``ELASTICITY`` (:func:`to_reference`).  On a
quiet host a reference second is close to a second.

The chunk does not touch the program, so a change to the program cannot
move it.  It is shaped like the simulator's inner loop: heap pushes and
pops of small objects, dict updates, generator resumes.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Slices per measured window (one reference chunk before each, and one
#: after the last).
SLICES = 20
#: Events per reference chunk.
CHUNK_EVENTS = 4_000
#: Host seconds one chunk takes on a quiet host.
CHUNK_S = 0.0036
#: How closely the program's host time follows the chunk's when the host
#: slows down: the program slows by the chunk's slowdown to this power.
#: Fitted on per-pass data of the benchmark workloads on a shared 2-vCPU
#: host, where the chunk slowed by up to 3x; 0.7 left about half the
#: pass-to-pass variation that full scaling (1.0) left.
ELASTICITY = 0.7


class _Event:
    __slots__ = ("time", "n")

    def __init__(self, time: float, n: int) -> None:
        self.time = time
        self.n = n


def _counter(table: dict):
    while True:
        key = yield
        table[key] = table.get(key, 0) + 1


def reference_chunk() -> float:
    """Host seconds for one run of the fixed reference workload.

    The collector is off while it runs: a collection here would scan the
    program's heap and charge its size to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _chunk()
    finally:
        if enabled:
            gc.enable()


def _chunk() -> float:
    t0 = perf_counter()
    heap = [(float(i), i, _Event(float(i), i)) for i in range(64)]
    heapq.heapify(heap)
    table: dict = {}
    proc = _counter(table)
    next(proc)
    for seq in range(64, 64 + CHUNK_EVENTS):
        time, _, event = heapq.heappop(heap)
        proc.send(event.n % 997)
        step = (event.n * 7919 % 101) / 10.0
        heapq.heappush(heap, (time + step, seq, _Event(time + step, seq)))
    return perf_counter() - t0


def to_reference(host_s: float, chunks: list) -> float:
    """``host_s`` in reference seconds, priced by the chunk times taken
    around it."""
    return host_s * (CHUNK_S * len(chunks) / sum(chunks)) ** ELASTICITY


def run_calibrated(run_until, start: float, stop: float) -> tuple:
    """Advance the simulation from ``start`` to ``stop`` in ``SLICES``
    slices with a reference chunk around each; returns ``(host seconds
    in the simulation, the chunk times)``."""
    sim_s = 0.0
    chunks = [reference_chunk()]
    for k in range(1, SLICES + 1):
        t0 = perf_counter()
        run_until(stop if k == SLICES else start + (stop - start) * k / SLICES)
        sim_s += perf_counter() - t0
        chunks.append(reference_chunk())
    return sim_s, chunks


def time_calibrated(fn) -> float:
    """Reference seconds ``fn()`` takes, between two chunks."""
    before = reference_chunk()
    t0 = perf_counter()
    fn()
    host_s = perf_counter() - t0
    return to_reference(host_s, [before, reference_chunk()])
