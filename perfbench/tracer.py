"""Outside-in tracing of qkernel's layers.

The tracer replaces each traced public function with a wrapper at every
module binding inside the ``qkernel`` package.  The layers import names
directly (``identities`` does ``from .qcore import poch_infinite``), so
patching only the defining module would miss most calls.

Each wrapper opens a span.  A span's self time is its duration minus the
time covered by the spans it opened; the per-function totals are kept in
memory and read out once the certificate has finished.
"""

from __future__ import annotations

import sys
from time import perf_counter

from mpmath import mp

# Functions that take a user callable as their first argument.  The callable
# gets its own span, so time spent in the caller's integrand (for example the
# big q-Jacobi weight nodes held by ``identities``) is not charged to
# ``qcalculus``.
_CALLBACK_TAKERS = {"q_integral", "q_derivative_n", "liu_reconstruct", "liu_double_reconstruct"}
CALLBACK = "qcalculus.callback"


def _is_mp(x) -> bool:
    return type(x).__module__.startswith("mpmath")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


# (module, function, work counters).  Each counter maps a suffix to a
# function of (args, kwargs, result) giving the amount to add.
TARGETS = [
    ("qcore", "poch_infinite", {"mp_calls": lambda a, k, r: _is_mp(_arg(a, k, 0, "a"))}),
    ("qcore", "poch_finite", {}),
    ("hyperseries", "eval_phi", {"terms": lambda a, k, r: r.terms_used}),
    ("hyperseries", "eval_wp_limit", {"terms": lambda a, k, r: r.terms_used}),
    ("hyperseries", "phi_terminating_core", {"terms": lambda a, k, r: _arg(a, k, 1, "order")}),
    ("qcalculus", "q_integral", {}),
    ("qcalculus", "q_derivative_n", {}),
    ("qcalculus", "liu_reconstruct", {}),
    ("qcalculus", "liu_double_reconstruct", {}),
    ("polyfamilies", "qhahn_poly", {}),
    ("polyfamilies", "big_qjacobi_poly", {}),
    ("polyfamilies", "askey_wilson_poly", {}),
    ("qintegrals", "trig_integral", {}),
    ("qintegrals", "poch_infinite_vec", {}),
    ("identities", "check_identity", {}),
    ("cli", "main", {}),
]


class Tracer:
    """Per-function call counts, self times and work counters.  ``clock``
    times the spans."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.dps_max = 0
        self._child = []  # time covered by child spans, one slot per open span

    def _span(self, name, fn, args, kwargs):
        dps = mp.dps
        if dps > self.dps_max:
            self.dps_max = dps
        self._child.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            child = self._child.pop()
            if self._child:
                self._child[-1] += dt
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dt - child

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, counters: dict, takes_callback: bool):
        span = self._span

        def callback(f):
            if getattr(f, "_traced", False) or not callable(f):
                return f

            def traced_callback(*a, **k):
                return span(CALLBACK, f, a, k)

            traced_callback._traced = True
            return traced_callback

        def wrapper(*args, **kwargs):
            if takes_callback:
                if args:
                    args = (callback(args[0]),) + args[1:]
                elif "f" in kwargs:
                    kwargs["f"] = callback(kwargs["f"])
            result = span(name, fn, args, kwargs)
            for suffix, amount in counters.items():
                self.count(f"{name}.{suffix}", amount(args, kwargs, result))
            return result

        return wrapper


def rebind(original, replacement) -> int:
    """Replace ``original`` by ``replacement`` at every qkernel module
    binding; returns how many bindings changed."""
    bound = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "qkernel" or modname.startswith("qkernel.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding; raises when a target is missing
    or could not be bound, so a renamed function cannot read as idle."""
    for modname, fname, counters in TARGETS:
        module = sys.modules[f"qkernel.{modname}"]
        original = getattr(module, fname)
        wrapper = tracer.wrap(f"{modname}.{fname}", original, counters, fname in _CALLBACK_TAKERS)
        if rebind(original, wrapper) == 0:
            raise RuntimeError(f"qkernel.{modname}.{fname}: no binding to trace")
    weight_values = sys.modules["qkernel.qintegrals"].weight_values

    def counted_weight_values(w, theta, *rest, **kw):
        tracer.count("qintegrals.nodes", len(theta))
        return weight_values(w, theta, *rest, **kw)

    rebind(weight_values, counted_weight_values)


def node_cache_stats(identities) -> dict:
    """Sum the counters of every ``cache_info``-bearing attribute of the
    identities module, whatever the caches are called."""
    hits = misses = size = found = 0
    for value in vars(identities).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits, misses, size, found = hits + ci.hits, misses + ci.misses, size + ci.currsize, found + 1
    if not found:
        raise RuntimeError("qkernel.identities exposes no cache_info-bearing cache")
    total = hits + misses
    return {"hits": hits, "misses": misses, "size": size, "hit_ratio": hits / total if total else 0.0}


def layer_metrics(tracer: Tracer, identities) -> dict:
    """Flatten the tracer's totals into ``<module>.<function>.<stat>``."""
    out = {}
    for modname, fname, counters in TARGETS:
        name = f"{modname}.{fname}"
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
        for suffix in counters:
            out[f"{name}.{suffix}"] = tracer.counts.get(f"{name}.{suffix}", 0)
    out[f"{CALLBACK}.calls"] = tracer.calls.get(CALLBACK, 0)
    out[f"{CALLBACK}.self_s"] = tracer.self_s.get(CALLBACK, 0.0)
    out["qintegrals.nodes"] = tracer.counts.get("qintegrals.nodes", 0)
    for key, value in node_cache_stats(identities).items():
        out[f"identities.node_cache.{key}"] = value
    out["identities.dps_max"] = tracer.dps_max
    return out
