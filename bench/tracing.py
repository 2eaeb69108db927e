"""Spans and counters recorded from the benchmark's own files.

`Tracer` wraps bilinv's public layer functions at every bilinv module
that holds them by name (a function imported with `from .x import f`
is a separate reference in each importing module, and lazy imports read
the defining module's attribute at call time).  Each call becomes a span
(name, start, end, parent, instance, error, attrs), kept in memory and
written out when the run ends.  `Counter` wraps scalar field methods and
the Poly/Matrix operators for the separate counting pass; that costs too
much to mix into timed spans.  Both restore every original on exit.
"""

import functools
import sys
import time

# span name -> (defining module, public functions)
SPAN_TARGETS = {
    "poly.factor": ("bilinv.poly", ("factor",)),
    "linalg.char_poly": ("bilinv.linalg", ("char_poly",)),
    "canonical.smith": ("bilinv.canonical", ("smith_normal_form",)),
    "canonical.elementary_divisors": ("bilinv.canonical",
                                      ("elementary_divisors",)),
    "canonical.decomposition": ("bilinv.canonical",
                                ("indecomposable_decomposition",)),
    "decision.decide": ("bilinv.decision", ("decide_invariant_form",
                                            "decide_infinitesimal_form")),
    "decision.decide_real": ("bilinv.decision", ("decide_real",)),
    "construction.construct": ("bilinv.construction",
                               ("construct_invariant_form",
                                "construct_infinitesimal_form")),
    "certificates.verify": ("bilinv.certificates", ("verify_gram",)),
    "oracle.solve": ("bilinv.oracle", ("solve_form_space",)),
    "oracle.search": ("bilinv.oracle", ("find_nondegenerate",)),
    "isometry.decompose": ("bilinv.isometry", ("orthogonal_decomposition",)),
    "isometry.level": ("bilinv.isometry", ("level_analysis",)),
}

# counter name -> (defining module, class names, method names)
COUNT_TARGETS = {
    "fields.ops": ("bilinv.fields", ("PrimeField", "RationalField"),
                   ("add", "sub", "mul", "neg", "inv", "div", "is_zero",
                    "dot", "coerce")),
    "poly.mul.calls": ("bilinv.poly", ("Poly",), ("__mul__",)),
    "poly.divmod.calls": ("bilinv.poly", ("Poly",), ("__divmod__",)),
    "linalg.matmul.calls": ("bilinv.linalg", ("Matrix",), ("__mul__",)),
}


def _bilinv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bilinv" or name.startswith("bilinv."))]


def _smith_tracked(args, kwargs):
    return bool(kwargs.get("track", args[1] if len(args) > 1 else False))


class Tracer:
    """Context manager: while active, every call to a SPAN_TARGETS
    function appends a span.  `instance` tags the spans of one instance."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        tracked = name == "canonical.smith"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None,
                    "instance": self.instance, "error": None}
            if tracked:
                span["tracked"] = _smith_tracked(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
        return wrapper

    def __enter__(self):
        modules = _bilinv_modules()
        for name, (home, funcs) in SPAN_TARGETS.items():
            for fname in funcs:
                original = getattr(sys.modules[home], fname)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False


def self_times(spans):
    """Per span: duration minus the durations of its direct children
    (calls are nested and sequential, so children never overlap)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


class Counter:
    """Context manager counting calls of the COUNT_TARGETS methods."""

    def __init__(self):
        self.counts = {name: 0 for name in COUNT_TARGETS}
        self._patched = []

    def _wrap(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        for name, (home, classes, methods) in COUNT_TARGETS.items():
            for cname in classes:
                cls = getattr(sys.modules[home], cname)
                for meth in methods:
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original))
                    self._patched.append((cls, meth, original))
        return self

    def __exit__(self, *exc):
        for cls, meth, original in reversed(self._patched):
            setattr(cls, meth, original)
        self._patched.clear()
        return False
