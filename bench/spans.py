"""Spans around calls into the layers of spinlift, for the traced run.

The tracer replaces public functions of the package with timing wrappers, in
every spinlift module that imported them, so calls made inside the package
(``lift`` calling ``spin_rep``, ``run_selftest`` calling ``exp_series``) are
seen too.  It runs only in the traced worker process; untraced runs never
import this module.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the index
of the enclosing span (-1 for an operation's root span).  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("bivector", "clifford", "spin", "expmap", "group_lift", "oracle", "cli",
           "sampling")


def _tag_branch(result):
    return result[1].replace("/", "-")


def _tag_kind(rep):
    return rep.kind


def _tag_size(m):
    if m.shape[0] == 16:
        return "regular"
    return "gamma" if m.dtype.kind == "c" else "4x4"


#: (module, function, how to name the span): None for a plain name, or a
#: function of one argument (``arg`` = positional index) or of the result.
TARGETS = (
    ("bivector", "mu_roots", None),
    ("bivector", "is_simple", None),
    ("bivector", "orthogonal_decompose", None),
    ("clifford", "spin_rep", ("arg", 0, _tag_kind)),
    ("spin", "spin_decompose", None),
    ("spin", "recover_invariants", None),
    ("expmap", "exp_spin", ("branch", None, _tag_branch)),
    ("expmap", "exp_coefficients", None),
    ("group_lift", "is_simple_transform", None),
    ("group_lift", "factor_transform", None),
    ("group_lift", "log_simple", None),
    ("group_lift", "lift", ("branch", None, _tag_branch)),
    ("oracle", "exp_series", ("arg", 0, _tag_size)),
    ("oracle", "intertwining_defect", ("arg", 2, _tag_kind)),
    ("cli", "run_request", ("arg", 0, lambda request: request["command"])),
    ("cli", "render_document", None),
)
#: Validating constructors, traced as ``<layer>.validate``.
VALIDATORS = (("bivector", "Bivector"), ("group_lift", "LorentzTransformation"))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str = "") -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int, name: str | None = None):
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if name is not None:
            span[0] = name
        self._stack.pop()

    def mark(self) -> int:
        return len(self.spans)

    def _wrap(self, fn, base: str, namer):
        tracer = self

        if namer is None:
            def wrapper(*args, **kwargs):
                index = tracer.open(base)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)
        elif namer[0] == "arg":
            _, position, tag = namer

            def wrapper(*args, **kwargs):
                index = tracer.open(f"{base}.{tag(args[position])}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)
        else:
            tag = namer[2]

            def wrapper(*args, return_branch=False, **kwargs):
                index = tracer.open(f"{base}.error")
                try:
                    result = fn(*args, return_branch=True, **kwargs)
                    tracer.spans[index][0] = f"{base}.{tag(result)}"
                finally:
                    tracer.close(index)
                return result if return_branch else result[0]
        return wrapper

    def install(self):
        """Wrap every target in every spinlift module that holds it."""
        modules = [importlib.import_module(f"spinlift.{m}") for m in MODULES]
        for layer, name, namer in TARGETS:
            original = getattr(importlib.import_module(f"spinlift.{layer}"), name)
            wrapper = self._wrap(original, f"{layer}.{name}", namer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        for layer, cls_name in VALIDATORS:
            cls = getattr(importlib.import_module(f"spinlift.{layer}"), cls_name)
            cls.__post_init__ = self._wrap(cls.__post_init__, f"{layer}.validate", None)

    def summary(self, start: int = 0, stop: int | None = None) -> dict:
        """name -> [calls, inclusive ns, self ns] over spans[start:stop]."""
        spans = self.spans[start:stop]
        child_ns = defaultdict(int)
        for name, t0, t1, parent in spans:
            if parent >= start:
                child_ns[parent - start] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _) in enumerate(spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_ns[i]
        return out

    def write(self, path, header: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(header, names=names, columns=["name", "start_ns", "end_ns", "parent"],
                   spans=[[index[n], t0, t1, p] for n, t0, t1, p in self.spans],
                   summary=self.summary())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
