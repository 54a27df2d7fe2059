"""Span recorder for the traced run, installed from outside the program.

:meth:`Tracer.install` wraps the public functions of the five layers
(``cli``, ``verify``, ``eta``, ``counting``, ``series``) and the public
``Series`` methods. A module that imported a public name holds its own
reference (``verify`` holds ``gen_overcubic_gf``, ``cli`` holds the
counters), so every ``overcubic`` module attribute bound to the original
function is rebound to the wrapper. :meth:`Tracer.uninstall` restores them.

Each wrapped call records a span: id, parent span, operation id (shared by
all spans of one benchmark operation), name, start and end. Spans stay in
memory and are written out when the run ends.

Per-coefficient helpers (``Series.coefficient``, ``verify.classify_n``,
``verify.expected_mod4_residue``) are not wrapped: they run once per
coefficient, so a span around each would cost more than the work it
measures. Their time counts as self time of the caller's layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from itertools import accumulate
from typing import Callable, Dict, List

from workloads import report_coeffs

LAYERS = ("cli", "verify", "eta", "counting", "series")

_NOT_WRAPPED = {"classify_n", "expected_mod4_residue"}

_SERIES_METHODS = (
    "__init__", "__add__", "__neg__", "__sub__", "__mul__", "__rmul__", "scale",
    "invert", "__pow__", "substitute_power", "extract_progression", "shift",
    "truncate", "reduce_mod", "agrees",
)

_DP = ("count_partitions", "count_overpartitions", "count_gen_cubic",
       "count_gen_overcubic_dp")
_BRUTE = ("count_partitions_brute", "count_gen_cubic_brute",
          "count_gen_overcubic_brute", "iter_overcubic_partitions")

# Spans whose inclusive time feeds a per-layer metric, by metric name.
_INCLUSIVE = {
    "series.mul_mod.s": ("series.mul_mod",),
    "series.mul_z.s": ("series.mul_z",),
    "series.invert.s": ("series.invert",),
    "series.init.s": ("series.init",),
    "eta.expand.s": ("eta.expand_eta_quotient",),
    "eta.theta_sum.s": ("eta.theta_sum",),
    "counting.dp.s": tuple(f"counting.{n}" for n in _DP),
    "counting.brute.s": tuple(f"counting.{n}" for n in _BRUTE),
    "counting.decompose.s": ("counting.decompose",),
}

_CALLS = {
    "series.mul_mod.calls": "series.mul_mod",
    "series.mul_z.calls": "series.mul_z",
    "series.invert.calls": "series.invert",
    "series.pow.calls": "series.pow",
    "series.init.calls": "series.init",
    "eta.expand.calls": "eta.expand_eta_quotient",
}


def _max_bits(series) -> int:
    return max(map(abs, series.coeffs)).bit_length()


def _pair_macs(a, b) -> int:
    """Multiply-accumulates of a truncated product, computed from the operands:
    pairs (i, j) with i + j <= order and both coefficients nonzero."""
    n = min(len(a), len(b)) - 1
    prefix = list(accumulate(1 if x else 0 for x in b[: n + 1]))
    return sum(prefix[n - i] for i, x in enumerate(a[: n + 1]) if x)


def _series_method_name(method: str) -> str:
    return "series." + method.strip("_")


def _classify_mul(args) -> str:
    if isinstance(args[1], int):
        return "series.scale"
    return "series.mul_z" if args[0].modulus is None else "series.mul_mod"


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counters: Counter = Counter()
        self.expand_keys: List[tuple] = []
        self.op_id = 0
        self._stack: List[int] = []
        self._next_id = 1
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, classify=None, hook=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            span_name = classify(args) if classify else name
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op_id, span_name, start, end))
            if hook is not None:
                hook(span_name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def operation(self, op_id: int, fn: Callable, *args):
        """Run one benchmark operation under a root span ``bench.op``."""
        self.op_id = op_id
        return self._wrap("bench.op", fn)(*args)

    # -- hooks ------------------------------------------------------------------

    def _series_hook(self, name, args, kwargs, result):
        if name in ("series.mul_z", "series.mul_mod"):
            self.counters["series.mul.macs_computed"] += _pair_macs(
                args[0].coeffs, args[1].coeffs
            )
        if result.modulus is None:
            bits = _max_bits(result)
            if bits > self.counters["series.max_coeff_bits"]:
                self.counters["series.max_coeff_bits"] = bits

    def _expand_hook(self, signature):
        from overcubic.eta import EtaQuotient

        def hook(name, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            e = bound.arguments["e"]
            factors = (e if isinstance(e, EtaQuotient) else EtaQuotient(e)).factors
            self.expand_keys.append((factors, bound.arguments["order"],
                                     bound.arguments["modulus"]))
        return hook

    def _verify_hook(self, name, args, kwargs, result):
        self.counters["verify.coeffs_compared"] += report_coeffs(result.to_dict())

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        import overcubic.cli
        from overcubic import counting, eta, series, verify

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "overcubic" or n.startswith("overcubic."))]
        wrappers: Dict[int, Callable] = {}
        targets = [("cli", "main", overcubic.cli.main)]
        for layer, module in (("series", series), ("eta", eta),
                              ("counting", counting), ("verify", verify)):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and attr not in _NOT_WRAPPED:
                    targets.append((layer, attr, fn))
        for layer, attr, fn in targets:
            hook = None
            if (layer, attr) == ("eta", "expand_eta_quotient"):
                hook = self._expand_hook(inspect.signature(fn))
            elif attr in ("verify_mod4_classification", "verify_family", "check_identity"):
                hook = self._verify_hook
            wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn, hook=hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cls = series.Series
        for method in _SERIES_METHODS:
            fn = cls.__dict__[method]
            classify = _classify_mul if method == "__mul__" else None
            hook = self._series_hook if method in ("__mul__", "invert", "scale") else None
            self._patches.append((cls, method, fn))
            setattr(cls, method, self._wrap(_series_method_name(method), fn,
                                            classify=classify, hook=hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def take(self) -> tuple:
        """Hand over and clear the spans, counters and expansion keys."""
        taken = (self.spans[:], Counter(self.counters), self.expand_keys[:])
        self.spans.clear()
        self.counters.clear()
        self.expand_keys.clear()
        return taken


def layer_metrics(spans: List[tuple], counters: Counter, expand_keys: List[tuple]) -> dict:
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus the durations of its children;
    a layer's self time sums that over the layer's spans. Inclusive times
    skip spans nested in a span of the same name, so recursion is counted
    once.
    """
    duration, parent_of, name_of = {}, {}, {}
    child_time: Dict[int, int] = defaultdict(int)
    for sid, parent, _op, name, start, end in spans:
        duration[sid] = end - start
        parent_of[sid] = parent
        name_of[sid] = name
        if parent is not None:
            child_time[parent] += end - start
    self_ns: Dict[str, int] = defaultdict(int)
    inclusive_ns: Dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    for sid, name in name_of.items():
        self_ns[name.split(".")[0]] += duration[sid] - child_time[sid]
        calls[name] += 1
        up = parent_of[sid]
        while up is not None and name_of[up] != name:
            up = parent_of[up]
        if up is None:
            inclusive_ns[name] += duration[sid]

    out = {"cli.main.self_s": self_ns["cli"] / 1e9}
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    for metric, names in _INCLUSIVE.items():
        out[metric] = sum(inclusive_ns[n] for n in names) / 1e9
    for metric, name in _CALLS.items():
        out[metric] = calls[name]
    out["series.mul.macs_computed"] = counters["series.mul.macs_computed"]
    out["series.max_coeff_bits"] = counters["series.max_coeff_bits"]
    out["verify.coeffs_compared"] = counters["verify.coeffs_compared"]
    # With no expansion there is no repeated work: the share reads 1.0.
    out["eta.expand.distinct_ratio"] = (
        len(set(expand_keys)) / len(expand_keys) if expand_keys else 1.0
    )
    out["bench.self_s"] = self_ns["bench"] / 1e9
    out["trace.spans"] = len(spans)
    return out


def span_records(spans: List[tuple], pass_index: int):
    """Spans as JSON-ready dicts, times in ns from the pass's first span."""
    origin = min((s[4] for s in spans), default=0)
    for sid, parent, op, name, start, end in spans:
        yield {"id": sid, "parent": parent, "op": op, "pass": pass_index,
               "name": name, "start_ns": start - origin, "end_ns": end - origin}
