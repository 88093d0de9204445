"""Spans around qchain's public functions, recorded from outside qchain.

:func:`install` replaces each listed function by a wrapper at every
module that binds it: the defining module, the package re-export, and
each ``from .x import f`` site (``families`` and ``closedform`` import
the q-series evaluators by name, ``closedform`` imports the phase
checks, ``cli`` imports the decompositions).  Every wrapper also counts
calls per site, so a site the patch missed shows as a zero count that
the worker refuses, not as a quiet hole in the numbers.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; the self times of
a tree therefore add up to the duration of its root.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

WRAPPED: Dict[str, Tuple[str, ...]] = {
    "qseries": ("basic_hypergeometric_exact", "q_pochhammer_exact", "basic_hypergeometric"),
    "families": (
        "validate",
        "orthogonality_data",
        "orthonormal_matrix",
        "eigenvalues",
        "recurrence_coefficients",
    ),
    "chain": ("analytic_decomposition", "numeric_decomposition", "verify_decomposition"),
    "evolve": (
        "transfer_report",
        "exact_phase_matrix",
        "phase_parity_check",
        "matched_phase_time",
        "correlation_exact_phase",
    ),
    "closedform": (
        "f_T_qkrawtchouk",
        "f_T_affine",
        "f_T_quantum",
        "f_T_dual_qk",
        "f_T_qracah",
        "f_T_qhahn_N0",
        "f_T_dual_qhahn_N0",
        "direct_spectral_sum",
        "matched_transfer_time",
    ),
    "cli": ("main", "load_spec_file"),
}

OP_SPAN = "op"


def layer_name(module: str, function: str) -> str:
    """Metric prefix of a wrapped function; the closed forms share one."""
    if function.startswith("f_T_"):
        return f"{module}.f_T"
    return f"{module}.{function}"


LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer_name(m, f) for m, fs in WRAPPED.items() for f in fs)
)

_BITS_OF_RESULT = ("qseries.basic_hypergeometric_exact", "qseries.q_pochhammer_exact")


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """In-memory span recorder with per-layer totals.

    Records only while an op span is open, so the checks that run
    between ops are not attributed to any layer.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # (span id, parent id, name, op index, start, end, self time)
        self.spans: List[Tuple[int, int, str, int, float, float, float]] = []
        self._stack: List[List] = []  # [span id, time covered by children]
        self._next_id = 0
        self.op_index = -1
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.site_calls: Counter = Counter()
        self.qseries_max_bits = 0
        self.phase_max_bits = 0
        self.f_T_results = 0
        self.f_T_fallbacks = 0

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            own = duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((span_id, parent, name, self.op_index, start, end, own))
            self.calls[name] += 1
            self.self_s[name] += own

    def run_op(self, index: int, fn: Callable):
        """One benchmark op as a root span; its layers nest under it."""
        self.op_index = index
        return self.span(OP_SPAN, fn)

    def wrap(self, name: str, site: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.site_calls[site] += 1
            result = self.span(name, fn, *args, **kwargs)
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name in _BITS_OF_RESULT and isinstance(result, Fraction):
            self.qseries_max_bits = max(self.qseries_max_bits, _bits(result))
        elif name == "evolve.phase_parity_check":
            for entry in result.entries:
                self.phase_max_bits = max(self.phase_max_bits, _bits(entry.value))
        elif name == "closedform.f_T" and hasattr(result, "method"):
            self.f_T_results += 1
            self.f_T_fallbacks += result.method.value == "fallback-direct-sum"

    def metrics(self, ops: int, untraced_s: float, traced_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of the traced pass, each as (value, unit)."""
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        for layer in (
            "families.orthonormal_matrix",
            "qseries.basic_hypergeometric_exact",
            "evolve.phase_parity_check",
        ):
            out[f"{layer}.calls_per_op"] = (self.calls[layer] / ops, "calls/op")
        out["qseries.max_bits"] = (self.qseries_max_bits, "bits")
        out["evolve.phase_max_bits"] = (self.phase_max_bits, "bits")
        fallback = self.f_T_fallbacks / self.f_T_results if self.f_T_results else 0.0
        out["closedform.fallback_ratio"] = (fallback, "ratio")
        out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        return out


def _qchain_modules() -> Dict[str, object]:
    names = ["qchain"] + [f"qchain.{m}" for m in WRAPPED]
    return {name: importlib.import_module(name) for name in names}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every listed function at every binding site; returns undo."""
    modules = _qchain_modules()
    patched = []
    for module, functions in WRAPPED.items():
        home = modules[f"qchain.{module}"]
        for function in functions:
            original = getattr(home, function)
            name = layer_name(module, function)
            for module_name, site in modules.items():
                for attr, value in list(vars(site).items()):
                    if value is original:
                        label = f"{name}@{module_name.rpartition('.')[2]}"
                        setattr(site, attr, tracer.wrap(name, label, original))
                        patched.append((site, attr, original))

    def undo() -> None:
        for site, attr, original in reversed(patched):
            setattr(site, attr, original)

    return undo
