"""Passive call tracer that times a program from outside.

A ``Tracer`` replaces functions with timing wrappers under the names their
callers look them up by (a module global, or a method on a class), records
one span per call in memory, and puts every original back on exit.  A name
that does not exist is recorded as absent instead of raising, so the
benchmark keeps working when the program renames or deletes a function.

The tracer keeps a single stack of open spans and is meant for
single-threaded programs: the benchmark never runs the program with worker
threads.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_MISSING = object()


def resolve(module: str, path: str):
    """Return ``(owner, attribute)`` for ``module`` + dotted ``path``, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, _MISSING)
        if owner is _MISSING:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make_replacement) -> None:
        """Set ``owner.attr`` to ``make_replacement(current value)``."""
        saved = vars(owner).get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make_replacement(getattr(owner, attr)))
        self._saved.append((owner, attr, saved))

    def undo(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)  # the class inherited it; drop the override
            else:
                setattr(owner, attr, saved)


@contextmanager
def patched(owner, attr: str, make_replacement):
    """Replace one attribute for the duration of a ``with`` block."""
    patches = Patches()
    patches.replace(owner, attr, make_replacement)
    try:
        yield
    finally:
        patches.undo()


class Tracer:
    """Records spans (name, start, end, parent, solve id) for wrapped calls.

    Spans are appended in the order they open, so a span's index is larger
    than its parent's.  A call to a wrapped name while a span of the same
    name is open (for example a method that delegates to the wrapped method
    of its base object) runs untraced inside the outer span.  ``observe``
    callbacks see each outermost call's arguments and result or exception
    and add to ``counts``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open_by_name = bytearray()
        self.name_id = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.solve_id = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patches = Patches()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_by_name.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open_by_name[nid] = 1
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[nid] = 0

    def wrap(self, module: str, path: str, span_name: str, observe=None) -> bool:
        """Trace calls to ``module.path`` as spans named ``span_name``.

        Returns False, and records the name as absent, when it does not exist.
        """
        found = resolve(module, path)
        if found is None:
            self.absent.append(f"{module}.{path}")
            return False
        owner, attr = found
        self._patches.replace(owner, attr, lambda fn: self._traced(fn, self._id(span_name), observe))
        return True

    def _traced(self, fn, nid: int, observe):
        tracer = self
        open_by_name = self._open_by_name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_by_name[nid]:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, nid)
                if observe is not None:
                    observe(tracer.counts, args, kwargs, None, exc)
                raise
            tracer._close(idx, nid)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result, None)
            return result

        return traced

    def restore(self) -> None:
        """Put every wrapped name back as it was."""
        self._patches.undo()

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, starts, ends."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path) -> None:
        """Write all spans to an ``.npz`` file (names table included)."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent,
            solve=np.frombuffer(self.solve, dtype=np.int32), start=start, end=end,
        )


def self_times(parent, start, end) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Children of one span never overlap, because the tracer keeps one stack of
    open spans, so their durations add up to the time they cover.
    """
    parent = np.asarray(parent)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def has_ancestor(parent, name_id, indices, ancestor_id: int) -> np.ndarray:
    """For each span in ``indices``, whether some ancestor has ``ancestor_id``."""
    parent = np.asarray(parent)
    name_id = np.asarray(name_id)
    found = np.zeros(len(indices), dtype=bool)
    cur = parent[np.asarray(indices, dtype=int)]
    while np.any(cur >= 0):
        live = cur >= 0
        found[live] |= name_id[cur[live]] == ancestor_id
        cur = np.where(live, parent[np.maximum(cur, 0)], -1)
    return found
