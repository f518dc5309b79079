"""Outside-in tracer for the ``affine_shuffles`` package.

Nothing in the package knows about this module.  ``Tracer.install`` replaces
every public function of the traced modules with a timing wrapper, and it
rebinds each one wherever the package holds a reference to it: the defining
module, every sibling module that did ``from .x import f``, and the package
``__init__``.  Three methods are patched on their classes.  Generators are
wrapped so that their yielded elements are counted.

Every wrapped call updates per-function counters (calls, self time, total
time of the outermost activation) and a per-parent counter keyed by the
calling traced function.  Only the first ``SPAN_CAP`` calls of each function
also record a span, so hot leaves (samplers, descent statistics, closed-form
coefficients) end up as counters and the span list stays small.  Items that
the pass runner times are always recorded as spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = (
    "fq", "perm", "cellini", "closed_forms", "numth",
    "shuffles", "unimodal", "series", "harness",
)
TRACED_METHODS = (
    ("fq", "FieldContext", "irreducibles"),
    ("perm", "GroupAlgebraElement", "__mul__"),
    ("series", "TruncatedSeries", "__mul__"),
)
GENERATORS = ("perm.all_permutations", "perm.all_signed_permutations")
PACKAGE = "affine_shuffles"
SPAN_CAP = 50  # spans recorded per function; later calls only update counters


class FnStats:
    """Counters of one traced function.

    ``extra`` counts elements yielded by a generator, (field, degree) pairs
    sieved by ``FieldContext.irreducibles``, or points enumerated by
    ``alcove_points`` on a cache miss.
    """

    __slots__ = ("calls", "self_s", "total_s", "active", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        self.extra = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s, "extra": self.extra}


class Tracer:
    """Counters and spans for one pass, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.stats: dict[str, FnStats] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        # Frame: [key, start, child_time, effective span id]
        self.stack: list[list] = []
        self.enabled = False
        self._caches: dict[str, tuple] = {}
        self._sieved: set[tuple[int, int]] = set()
        self._fields: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        replacements: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if obj is None or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj) or not callable(obj):
                    continue
                key = f"{short}.{name}"
                replacements[id(obj)] = self._wrap(key, obj)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        for short, cls_name, meth in TRACED_METHODS:
            mod = modules.get(f"{PACKAGE}.{short}")
            cls = getattr(mod, cls_name, None) if mod is not None else None
            fn = cls.__dict__.get(meth) if cls is not None else None
            if fn is not None:
                setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
        self.enabled = True

    def _wrap(self, key: str, fn):
        st = self.stats.setdefault(key, FnStats())
        if hasattr(fn, "cache_info"):
            self._caches[key] = (fn, fn.cache_info())
        if key in GENERATORS:
            return self._wrap_generator(st, fn)
        hook = {
            "fq.FieldContext.irreducibles": self._count_sieve,
            "cellini.alcove_points": self._count_points,
        }.get(key)
        stack, perf, tracer = self.stack, time.perf_counter, self
        watch_misses = key == "cellini.alcove_points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses if watch_misses else 0
            parent = stack[-1] if stack else None
            span = None
            if st.calls < SPAN_CAP:
                span = len(tracer.spans)
                tracer.spans.append(None)
            frame = [key, 0.0, 0.0, span if span is not None else (parent[3] if parent else None)]
            stack.append(frame)
            st.active += 1
            frame[1] = t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                st.active -= 1
                tracer._close(st, frame, parent, span, t0, t1)
            if hook is not None:
                hook(st, args, result, misses)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _wrap_generator(self, st: FnStats, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                st.calls += 1
            for element in fn(*args, **kwargs):
                if tracer.enabled:
                    st.extra += 1
                yield element

        return wrapper

    def _close(self, st, frame, parent, span, t0, t1) -> None:
        duration = t1 - t0
        self_time = duration - frame[2]
        st.calls += 1
        st.self_s += self_time
        if st.active == 0:
            st.total_s += duration
        parent_key = "pass"
        if parent is not None:
            parent[2] += duration
            parent_key = parent[0]
        edge = self.edges.get((parent_key, frame[0]))
        if edge is None:
            self.edges[(parent_key, frame[0])] = [1, self_time]
        else:
            edge[0] += 1
            edge[1] += self_time
        if span is not None:
            parent_span = parent[3] if parent is not None else None
            self.spans[span] = (span, parent_span, frame[0], t0, t1)

    def _count_sieve(self, st, args, result, misses) -> None:
        # The sieve for (field, degree) runs on the first call for that pair;
        # fields are kept alive here so their ids stay unique.
        field, degree = args[0], args[1]
        if (id(field), degree) not in self._sieved:
            self._sieved.add((id(field), degree))
            self._fields.append(field)
            st.extra += 1

    def _count_points(self, st, args, result, misses) -> None:
        fn = self._caches["cellini.alcove_points"][0]
        if fn.cache_info().misses > misses:
            st.extra += len(result)

    # -- items -----------------------------------------------------------

    def begin_item(self, check: str) -> list:
        span = len(self.spans)
        self.spans.append(None)
        frame = [f"item:{check}", 0.0, 0.0, span]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def end_item(self, frame: list) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans[frame[3]] = (frame[3], None, frame[0], frame[1], t1)

    # -- results ---------------------------------------------------------

    def stop(self) -> None:
        self.enabled = False

    def hit_ratio(self, key: str) -> float:
        """Cache hits over lookups since install; 0.0 when nothing was looked up."""
        if key not in self._caches:
            return 0.0
        fn, before = self._caches[key]
        after = fn.cache_info()
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        return hits / lookups if lookups else 0.0

    def get(self, key: str) -> FnStats:
        return self.stats.get(key) or FnStats()

    def dump(self) -> dict:
        return {
            "functions": {k: v.as_dict() for k, v in sorted(self.stats.items()) if v.calls},
            "edges": [
                {"parent": p, "child": c, "calls": n, "self_s": s}
                for (p, c), (n, s) in sorted(self.edges.items())
            ],
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                for s in self.spans if s is not None
            ],
        }
