"""Per-layer tracing from outside the program.

``Tracer`` rebinds public functions of the ``darkgallery`` modules to
timing wrappers for the duration of a ``with`` block and restores every
binding on exit.  Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent span, op id) and
  accumulate calls, total time and self time (duration minus the time
  covered by child spans);
* count wrappers only count calls, globally and while given spans are
  open, for leaf predicates that run too often to keep a span each.

A name bound under several modules (``from .darkness import
max_darkness`` copies the function into ``construct``, ``cli``,
``sampling`` and ``simple``) is rebound wherever the same object
appears.  A target that no longer exists is skipped and listed in
``skipped``, so the trace keeps working when a later version deletes a
function.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

PACKAGE = "darkgallery"

# (module, attribute path) of every function that gets a span
SPAN_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("darkness", "max_darkness"),
    ("darkness", "min_depth"),
    ("darkness", "has_j_dark"),
    ("construct", "construct"),
    ("construct", "place_4n_minus_2"),
    ("construct", "place_vertex_guards"),
    ("construct", "place_wedge"),
    ("construct", "place_general_position"),
    ("geometry", "halfplane_intersection"),
    ("geometry", "convex_hull"),
    ("sampling", "sample_depth"),
    ("documents", "region_from_dict"),
    ("documents", "point_from_json"),
    ("documents", "PlacementDocument.to_dict"),
    ("documents", "CertificateDocument.to_dict"),
)

# leaf functions that are only counted
COUNT_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("geometry", "SimplePolygon.where"),
    ("geometry", "strictly_between"),
    ("sampling", "depth_at_sample"),
    ("sampling", "visible"),
)

# spans under which every wrapped call is also counted separately
UNDER = ("sampling.sample_depth", "construct.place_4n_minus_2")

# span name -> summary(args, result), kept for every call that returns
SUMMARIES: Dict[str, Callable] = {
    # (samples, guards) of every sample_depth call
    "sampling.sample_depth": lambda args, result: (len(result.samples), len(args[1])),
    # one entry per placement that passed its certification
    "construct.place_4n_minus_2": lambda args, result: 1,
}


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Install with ``with Tracer() as tr:``; read the fields afterwards.

    ``spans`` holds (span id, name, start, end, parent id or -1, op id)
    in closing order, ids counting spans in opening order.  ``stats``
    maps span names to SpanStats and ``counts`` maps counted names to
    calls.  ``counts_under[(name, span)]`` counts calls of any wrapped
    name made while the span ``span`` (one of UNDER) was open.  For each span name in
    SUMMARIES, ``results`` collects (name, op id, summary(args, result))
    of every call that returned.
    """

    def __init__(self, span_targets: Sequence[Tuple[str, str]] = SPAN_TARGETS,
                 count_targets: Sequence[Tuple[str, str]] = COUNT_TARGETS):
        self.span_targets = tuple(span_targets)
        self.count_targets = tuple(count_targets)
        self.op_id = -1
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.stats: Dict[str, SpanStats] = {}
        self.counts: Dict[str, int] = {}
        self.counts_under: Dict[Tuple[str, str], int] = {}
        self.results: List[tuple] = []
        self.skipped: List[str] = []
        self._open: Dict[str, int] = {}
        self._stack: List[list] = []  # [name, start, child time, span id]
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for module, path in self.span_targets:
                self._patch(module, path, self._span_wrapper)
            for module, path in self.count_targets:
                self._patch(module, path, self._count_wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every binding this tracer changed (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, module: str, path: str, make) -> None:
        name = "%s.%s" % (module, path)
        owner = sys.modules.get("%s.%s" % (PACKAGE, module))
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            self.skipped.append(name)
            return
        wrapper = make(name, original)
        if outer:  # a method: one binding, on its class
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind every module-level copy
        for modname in sorted(sys.modules):
            m = sys.modules[modname]
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            if m is not None and m.__dict__.get(attr) is original:
                self._patches.append((m, attr, original))
                setattr(m, attr, wrapper)

    # -- wrappers -------------------------------------------------------
    def _note_under(self, name: str) -> None:
        for span in UNDER:
            if self._open.get(span):
                key = (name, span)
                self.counts_under[key] = self.counts_under.get(key, 0) + 1

    def _span_wrapper(self, name: str, fn):
        summary = SUMMARIES.get(name)
        stats = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._note_under(name)
            self._open[name] = self._open.get(name, 0) + 1
            parent = self._stack[-1][3] if self._stack else -1
            frame = [name, time.perf_counter(), 0.0, self._next_id]
            self._next_id += 1
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if summary is not None:
                    self.results.append((name, self.op_id, summary(args, result)))
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                duration = end - frame[1]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((frame[3], name, frame[1], end, parent, self.op_id))

        return wrapper

    def _count_wrapper(self, name: str, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            self._note_under(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- queries --------------------------------------------------------
    def under_count(self, name: str, span: str) -> int:
        return self.counts_under.get((name, span), 0)

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st is not None else self.counts.get(name, 0)
