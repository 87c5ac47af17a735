"""Spans around the library's public functions, installed from outside.

:func:`install` replaces each traced function at every place it is bound:
the module that defines it, every ``padic`` module that imported it by
name, and every alias on a class (``__radd__`` is the same function as
``__add__``).  Spans carry an id, the parent span's id, a layer name and
start/end times; they stay in memory until :meth:`Tracer.write`.
:func:`uninstall` puts the original objects back, so untraced runs never
see a wrapper.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

ARITH_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "inverse",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            self.counts[name + ".calls"] += 1
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def self_ms(self) -> dict[str, float]:
        return self_times(self.names, self.name_of, self.parent, self.start, self.end)

    def write(self, path):
        """Write every span as [id, parent, name, start_s, end_s]."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": [
                        [i, self.parent[i], self.names[self.name_of[i]],
                         self.start[i], self.end[i]]
                        for i in range(len(self.start))
                    ],
                },
                fh,
            )


def self_times(names, name_of, parent, start, end) -> dict[str, float]:
    """Self time in ms per layer: span duration minus its children's durations.

    Children run inside their parent's interval on a single thread, so the
    part of a parent covered by children is the sum of their durations.
    """
    child = [0.0] * len(start)
    for i in range(len(start)):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    out: dict[str, float] = defaultdict(float)
    for i in range(len(start)):
        out[names[name_of[i]]] += (end[i] - start[i] - child[i]) * 1e3
    return dict(out)


# ----- what each traced function adds to the counters -----------------------

def _bits(x) -> int:
    q = Fraction(x)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _max(counts, key, value):
    if value > counts[key]:
        counts[key] = value


def _obs_val_int(counts, args, result):
    counts["valuation.padic_val_int.sum_v"] += result
    _max(counts, "valuation.padic_val_int.arg_bits_max", abs(int(args[1])).bit_length())


def _obs_eval_exact(counts, args, result):
    _max(counts, "polynomial.eval_exact.arg_bits_max", _bits(args[1]))


def _obs_arith(counts, args, result):
    if getattr(getattr(result, "form", None), "value", None) == "zero_at_least":
        counts["number.inexact_zero.count"] += 1


def _obs_lift(counts, args, result):
    counts["hensel.steps"] += max(len(result.trace) - 1, 0)


def _obs_verify(counts, args, result):
    if not result:
        counts["hensel.verify_certificate.rejected"] += 1


def _obs_oracle(counts, args, result):
    counts["oracle.enumerate_roots.domain"] += result.p ** result.k
    counts["oracle.enumerate_roots.roots"] += len(result.roots)


# (module, attribute, layer name, observer); attributes are module functions
FUNCTIONS = (
    ("padic.valuation", "padic_val_int", "valuation.padic_val_int", _obs_val_int),
    ("padic.valuation", "padic_val_rat", "valuation.padic_val_rat", None),
    ("padic.valuation", "check_prime", "valuation.check_prime", None),
    ("padic.number", "rational_residue", "number.rational_residue", None),
    ("padic.polynomial", "parse_poly", "polynomial.parse_poly", None),
    ("padic.hensel", "lift", "hensel.lift", _obs_lift),
    ("padic.hensel", "check_hypothesis", "hensel.check_hypothesis", None),
    ("padic.hensel", "verify_certificate", "hensel.verify_certificate", _obs_verify),
    ("padic.hensel", "certificate_to_record", "hensel.record", None),
    ("padic.hensel", "certificate_from_record", "hensel.record", None),
    ("padic.oracle", "enumerate_roots", "oracle.enumerate_roots", _obs_oracle),
    ("padic.cli", "main", "cli.main", None),
)

# (module, class, attributes, layer name, observer)
METHODS = (
    ("padic.number", "PadicNumber", ("from_rational",), "number.from_rational", None),
    ("padic.number", "PadicNumber", ARITH_METHODS, "number.arith", _obs_arith),
    ("padic.number", "PadicNumber", ("digits",), "number.digits", None),
    ("padic.polynomial", "PadicPoly", ("eval_exact",), "polynomial.eval_exact", _obs_eval_exact),
    ("padic.polynomial", "PadicPoly", ("eval",), "polynomial.eval", None),
    ("padic.polynomial", "PadicPoly", ("derivative",), "polynomial.derivative", None),
)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function at each binding site; returns what to undo."""
    undo = []
    for mod_name in {entry[0] for entry in FUNCTIONS + METHODS}:
        importlib.import_module(mod_name)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "padic" or n.startswith("padic."))]
    for mod_name, attr, name, observe in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        wrapped = tracer.wrap(name, original, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapped)
    for mod_name, cls_name, attrs, name, observe in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        wrapped_by_fn = {}
        for attr in attrs:
            raw = vars(cls)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if fn not in wrapped_by_fn:
                wrapped_by_fn[fn] = tracer.wrap(name, fn, observe)
            wrapped = wrapped_by_fn[fn]
            undo.append((cls, attr, raw))
            setattr(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
    return undo


def uninstall(undo) -> None:
    for target, key, value in reversed(undo):
        setattr(target, key, value)
