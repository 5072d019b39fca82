"""Per-layer tracing for the sterntwist benchmark.

A `Tracer` wraps the public entry points of each sterntwist module from the
outside (the program itself is not changed) and aggregates, per layer, the
call count, the self time and a few work counters.  Self time is a span's
duration minus the time covered by the wrapped calls it made.

Spans are aggregated in memory as they close (one record per layer, not one
per call: `SequenceCache.value` alone runs millions of times per sweep) and
written out once, by `snapshot()`, when the traced process ends.
"""
from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter

#: Module-level functions by layer; each is rebound in every sterntwist
#: module that imported it by name, so no call can go round the wrapper.
FUNCTION_LAYERS = (
    ("sequences.weighted", "sequences", ("weighted_stern", "weighted_even", "weighted_stern_alt")),
    ("series.div_exact", "series", ("div_exact",)),
    ("series.infinite_product", "series", ("infinite_product",)),
    ("series.psi", "series", ("psi",)),
    ("regularity.solve_affine_system", "regularity", ("solve_affine_system",)),
    ("regularity.exact_rank", "regularity", ("exact_rank",)),
    ("regularity.kernel_rank", "regularity", ("kernel_rank",)),
    ("verify.check_identity", "verify", ("check_identity",)),
    ("verify.checkers", "verify", (
        "check_det_m", "check_det_families", "check_divisibility",
        "check_mod2", "check_palindrome", "check_partial_sums",
    )),
    ("verify.conjecture", "verify", ("check_conjecture_gen", "check_conjecture_ab")),
    ("cli.run", "cli", ("run",)),
)

#: Methods by layer, wrapped on their class (aliases such as `__radd__`
#: that name the same function are wrapped too).
METHOD_LAYERS = (
    ("sequences.wpoly", "sequences", "WeightPolynomial", ("__add__", "__mul__")),
    ("series.mul", "series", "TruncatedSeries", ("__mul__",)),
    ("series.poly_mul", "series", "DensePolynomial", ("__mul__",)),
    ("ratwords.evaluate", "ratwords", "LinearRepresentation", ("evaluate",)),
)

#: Layers whose results are VerificationReports; each counts the points
#: (passes plus failures) of the reports it returns.
_REPORT_LAYERS = ("verify.check_identity", "verify.checkers", "verify.conjecture")


class Layer:
    """Aggregated spans and counters of one layer."""

    __slots__ = ("calls", "self_s", "hits", "cache_entries", "coeffs",
                 "max_order", "operand_coeffs", "operand_nonzero", "entries", "points")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Installs the wrappers and holds what they record.

    `stack[-1]` accumulates the time of wrapped calls made by the innermost
    open span; `stack[0]` therefore collects the duration of every top-level
    span, which the parent uses to cross-check the self times.
    """

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.stack = [0.0]
        self.started = _clock()

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer: Layer, fn, after=None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                children = stack.pop()
                stack[-1] += duration
                layer.calls += 1
                layer.self_s += duration - children
            if after is not None:
                after(layer, args, result)
            return result

        return wrapper

    def _value_span(self, layer: Layer, fn):
        """Hand-written span for SequenceCache.value, the hottest leaf."""
        stack = self.stack

        @functools.wraps(fn)
        def value(cache, n):
            values = cache.values
            if n in values:
                layer.hits += 1
            start = _clock()
            try:
                return fn(cache, n)
            finally:
                duration = _clock() - start
                stack[-1] += duration
                layer.calls += 1
                layer.self_s += duration
                if len(values) > layer.cache_entries:
                    layer.cache_entries = len(values)

        return value

    # -- counters run after a span closes ---------------------------------

    @staticmethod
    def _count_series_mul(layer, args, result):
        a, b = args[0], args[1]
        if not hasattr(b, "coeffs"):
            return  # series times scalar
        n = len(result.coeffs)
        layer.coeffs += n
        layer.max_order = max(layer.max_order, n - 1)
        layer.operand_coeffs += 2 * n
        layer.operand_nonzero += sum(map(bool, a.coeffs[:n])) + sum(map(bool, b.coeffs[:n]))

    @staticmethod
    def _count_div_exact(layer, args, result):
        n = len(result.coeffs)
        layer.coeffs += n
        layer.max_order = max(layer.max_order, n - 1)

    @staticmethod
    def _count_exact_rank(layer, args, result):
        rows = args[0]
        if isinstance(rows, (list, tuple)):
            layer.entries += sum(len(row) for row in rows)

    @staticmethod
    def _count_points(layer, args, result):
        layer.points += result.passes + result.failures

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point of the already imported package."""
        import sterntwist  # noqa: F401  (the package must be importable)
        import sterntwist.cli  # noqa: F401  (so its by-name imports get rebound)

        modules = {
            name: module for name, module in sys.modules.items()
            if name == "sterntwist" or name.startswith("sterntwist.")
        }
        after = {
            "series.div_exact": self._count_div_exact,
            "regularity.exact_rank": self._count_exact_rank,
            "series.mul": self._count_series_mul,
        }
        for name in _REPORT_LAYERS:
            after[name] = self._count_points

        for layer_name, module_name, functions in FUNCTION_LAYERS:
            layer = self.layer(layer_name)
            home = modules[f"sterntwist.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._span(layer, original, after.get(layer_name))
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

        sequences = modules["sterntwist.sequences"]
        cache_cls = sequences.SequenceCache
        cache_cls.value = self._value_span(self.layer("sequences.value"), cache_cls.value)

        for layer_name, module_name, cls_name, methods in METHOD_LAYERS:
            layer = self.layer(layer_name)
            cls = getattr(modules[f"sterntwist.{module_name}"], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                wrapper = self._span(layer, original, after.get(layer_name))
                for attr, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, attr, wrapper)
        self.started = _clock()

    def snapshot(self) -> dict:
        """Everything recorded so far, as plain JSON-ready data."""
        return {
            "wall_s": _clock() - self.started,
            "top_s": self.stack[0],
            "layers": {name: layer.as_dict() for name, layer in self.layers.items()},
        }
