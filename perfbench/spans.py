"""Benchmark-side spans, counts and the statistics built on them.

:class:`SpanLog` keeps every span in memory (name, host start/end in ns,
parent, transaction id) plus named counts; :class:`Patches` installs the
wrappers that feed it on *class attributes* of the program and removes
every one of them again.  Nothing here is imported by the program.

numpy is imported only by the functions that analyse or save spans, so a
run's peak RSS, read before any of them is called, holds the program's
memory and not numpy's.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

#: Marker set on every installed wrapper (lets tests prove removal).
WRAPPER_FLAG = "__perfbench_wrapper__"


class SpanLog:
    """Spans and counts recorded on one host clock, single-threaded."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.txn = array("q")
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        #: Transaction the running code works for (-1: none).
        self.txn_id = -1
        self._next_txn = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_txn(self) -> int:
        self._next_txn += 1
        return self._next_txn

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.txn.append(self.txn_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------ wrappers

    def spanned(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
        return _flag(wrapper, fn)

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under ``name``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return _flag(wrapper, fn)

    def steps(self, name: str, gen, txn: Optional[int] = None,
              on_return: Optional[Callable] = None):
        """Drive generator ``gen``, recording each resumption as a span.

        Forwards sent values, thrown exceptions and ``close()`` exactly,
        so the caller cannot tell the proxy from ``gen``.  With ``txn``
        every step runs under that transaction id; ``on_return`` sees the
        generator's return value.
        """
        nid = self.name_id(name)
        send, exc = None, None
        while True:
            saved = self.txn_id
            if txn is not None:
                self.txn_id = txn
            i = self.open(nid)
            try:
                if exc is not None:
                    yielded = gen.throw(exc)
                else:
                    yielded = gen.send(send)
            except StopIteration as stop:
                self.close(i)
                self.txn_id = saved
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            except BaseException:
                self.close(i)
                self.txn_id = saved
                raise
            self.close(i)
            self.txn_id = saved
            try:
                send, exc = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # thrown in by the caller
                send, exc = None, err

    # ------------------------------------------------------------ analysis

    def arrays(self) -> Dict[str, np.ndarray]:
        import numpy as np

        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "txn": np.frombuffer(self.txn, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())


def _flag(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    setattr(wrapper, WRAPPER_FLAG, True)
    return wrapper


class Patches:
    """Replace class attributes, remembering the originals to restore."""

    def __init__(self) -> None:
        #: (owner, attr, original) of every wrap ever made, in order.
        self._saved: list = []

    def wrap(self, owner: type, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        orig = owner.__dict__[attr]
        new = make(orig)
        setattr(new, WRAPPER_FLAG, True)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)

    @property
    def patched(self) -> list:
        """Every (owner, attr) this object has wrapped."""
        return [(owner, attr) for owner, attr, _ in self._saved]

    def not_restored(self) -> list:
        """The (owner, attr) pairs that do not hold their original now."""
        return [(owner, attr) for owner, attr, orig in self._saved
                if owner.__dict__.get(attr) is not orig]


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so children of a span
    never overlap and the covered time is the sum of their durations.
    """
    import numpy as np

    dur = (end - start).astype(np.int64)
    covered = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = 10) -> float:
    """The ``q`` quantile (nearest rank) of ``samples``, provided at least
    ``min_beyond`` samples lie beyond it; raises ``ValueError`` otherwise.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(f"p{q * 100:g} of {n} samples has {beyond} beyond "
                         f"it, fewer than {min_beyond}")
    return float(sorted(samples)[rank - 1])
