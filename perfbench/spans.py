"""Spans and counters around the program's public functions, installed from
outside: every module of the package that binds a traced function (by
``from .x import f`` or as its own global) gets the wrapper in its place,
so calls through any import site are seen.  The program's source is not
touched, and ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent]`` and reduced to
self time (duration minus the time covered by child spans) per report.
Times come from ``clock``, which can leave out time the benchmark spends
inside a call on its own work.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter


def _gens(counts: Counter, result) -> None:
    counts["lefschetz.minor_gens"] += len(result.gens)


def _basis(counts: Counter, result) -> None:
    counts["groebner.basis_elems"] += len(result.basis)
    top = max((max(sum(m) for m in f.terms) for f in result.basis if f.terms), default=0)
    counts["groebner.basis_max_degree"] = max(counts["groebner.basis_max_degree"], top)


# (module, attribute, span name or None for a counter only, counter, on_result)
TARGETS = (
    ("presentation", "generic_module", "presentation.build", "presentation.modules", None),
    ("presentation", "random_presentation", None, "presentation.draws", None),
    ("presentation", "GradedModule.variable_maps", "presentation.variable_maps", None, None),
    ("field_linalg", "rank", "field_linalg.rank", "field_linalg.rank_calls", None),
    ("field_linalg", "cokernel_basis", "field_linalg.cokernel", None, None),
    ("field_linalg", "kernel_basis", "field_linalg.kernel", None, None),
    ("lefschetz", "locus_ideal_at", "lefschetz.minors", None, _gens),
    ("lefschetz", "locus_ideal", "lefschetz.fold", None, None),
    ("lefschetz", "is_lefschetz", "lefschetz.is_lefschetz", "lefschetz.is_lefschetz_calls", None),
    ("groebner", "buchberger", "groebner.buchberger", "groebner.buchberger_calls", _basis),
    ("groebner", "measure", "groebner.measure", None, None),
    ("groebner", "intersect", "groebner.intersect", "groebner.intersect_calls", None),
    ("groebner", "saturate", "groebner.saturate", None, None),
    ("groebner", "same_ideal", "groebner.same_ideal", None, None),
    ("groebner", "GroebnerBasis.contains", None, "groebner.contains_calls", None),
    ("jumping", "restrict", "jumping.restrict", "jumping.restrictions", None),
    ("jumping", "splitting_type", "jumping.splitting_type", None, None),
    ("bundle", "classify_stability", "bundle.stability", None, None),
    ("predictor", "compare", "predictor.compare", None, None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS if t[2]) + ("cli",)
COUNTER_NAMES = tuple(t[3] for t in TARGETS if t[3]) + (
    "lefschetz.minor_gens", "groebner.basis_elems", "groebner.basis_max_degree")


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter) -> None:
        self.package, self.clock = package, clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used around ``cli.main``)."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = self.clock()
        self._stack.pop()

    def _wrap(self, fn, name, counter, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            if name is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(self.package + "."))]
        for modname, attr, name, counter, on_result in TARGETS:
            owner = sys.modules[f"{self.package}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), name, counter, on_result))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter, on_result)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key: str, value) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def take(self) -> tuple[dict[str, float], Counter, list[list]]:
        """Self time per span name, counters and spans since the last take."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        self_time = {name: 0.0 for name in SPAN_NAMES}
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child_time):
            self_time[name] += end - start - covered
        return self_time, counts, spans

