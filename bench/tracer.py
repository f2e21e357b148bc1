"""Span tracing around the program's layer boundaries, installed from outside.

``install()`` replaces functions of the ``thetaforms`` modules by wrappers
that record a span per call: its name, its parent span, and its start and
end.  Each wrapper is patched into the module that defines the function and
into every ``thetaforms`` module that imported the name, so calls through
``identities``, ``genus``, ``theta``, ``prover`` and ``cli`` are seen as
well.  ``Series.__mul__`` is patched on the class, which covers the ``*``
operator.  Spans stay in memory until the pass ends; then ``Tracer.tree()``
folds them by parent and child, and ``Tracer.metrics()`` gives the
per-layer metrics from the self and inclusive times and the counters.

Self time of a span is its duration minus the durations of its child spans.
Inclusive time of a name counts only its outermost spans, so recursion
(``eval_series``) and nesting (``sgenus_mass`` calling ``mass_direct``) are
not counted twice.
"""

from __future__ import annotations

import functools
import re
import sys

# function -> span name, per module; private names are the lattice sweeps,
# where the work of the public theta_series/theta_coefficients happens
SPANS = {
    "thetaforms.series": {
        "invert": "series.invert", "sift": "series.sift",
        "is_nonnegative": "series.scan",
    },
    "thetaforms.theta": {
        "named_function": "theta.named", "general_theta": "theta.general",
        "euler_power": "theta.euler", "expand_eta_quotient": "theta.eta_expand",
    },
    "thetaforms.forms": {
        "_theta_ternary": "forms.theta", "_theta_binary": "forms.theta",
        "enumerate_ternary_classes": "forms.enumerate",
        "ternary_equivalent": "forms.equiv", "aut_count": "forms.aut",
        "repcount": "forms.repcount",
    },
    "thetaforms.genus": {
        "genus_partition": "genus.partition",
        "local_symbols": "genus.local_symbols",
        "build_sgenus": "genus.sgenus", "epsilon": "genus.epsilon",
        "mass_direct": "genus.mass", "mass_formula": "genus.mass",
        "sgenus_mass": "genus.mass",
        "weighted_coefficients": "genus.weighted",
        "weighted_count": "genus.weighted",
    },
    "thetaforms.prover": {"prove": "prover.prove"},
    "thetaforms.modeq": {"rational_root": "modeq.root"},
    "thetaforms.identities": {
        "parse_registry": "identities.parse",
        "eval_series": "identities.eval_series",
        "verify_series": "identities.series",  # or identities.sift, by mode
        "verify_ternary": "identities.ternary",
        "verify_positivity": "identities.positivity",
        "verify_modeq3": "identities.modeq3", "verify_eta": "identities.eta",
    },
}

# lru_cache functions whose cache_info() feeds the cache metrics
CACHES = {
    "theta": [("thetaforms.theta", "general_theta"),
              ("thetaforms.theta", "euler_power"),
              ("thetaforms.theta", "named_function")],
    "forms": [("thetaforms.forms", "_theta_cached"),
              ("thetaforms.forms", "enumerate_ternary_classes")],
    "genus": [("thetaforms.genus", "_local_symbols_cached"),
              ("thetaforms.genus", "genus_partition"),
              ("thetaforms.genus", "build_sgenus"),
              ("thetaforms.genus", "_weighted_cached")],
    "prover": [("thetaforms.prover", "cusp_reps")],
}


class Tracer:
    """In-memory span log with per-name counters."""

    def __init__(self, clock):
        self.clock = clock  # seconds, excluding the benchmark's own pauses
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, t0, t1
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [index, name, start, child_time]
        self._active: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.incl_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, parent, 0.0, 0.0))
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([len(self.spans) - 1, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        index, name, start, child = self._stack.pop()
        dur = end - start
        self.spans[index] = (name, self.spans[index][1], start, end)
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        self._active[name] -= 1
        if not self._active[name]:
            self.incl_time[name] = self.incl_time.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][3] += dur

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- reports ------------------------------------------------------------

    def tree(self) -> dict[str, list]:
        """'parent > child' -> [calls, seconds] over all closed spans."""
        out: dict[str, list] = {}
        for name, parent, start, end in self.spans:
            key = f"{self.spans[parent][0] if parent >= 0 else '-'} > {name}"
            edge = out.setdefault(key, [0, 0.0])
            edge[0] += 1
            edge[1] += end - start
        return out

    def metrics(self, cache_infos: dict[str, list]) -> dict[str, float]:
        st, it, n, c = self.self_time, self.incl_time, self.calls, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(layer):
            hits = sum(info[0] for info in cache_infos.get(layer, ()))
            misses = sum(info[1] for info in cache_infos.get(layer, ()))
            return ratio(hits, hits + misses)

        out = {
            "series.mul_s": it.get("series.mul", 0.0),
            "series.mul_calls": n.get("series.mul", 0),
            "series.mul_out_coeffs": c.get("mul_out", 0),
            "series.mul_density": ratio(c.get("mul_nnz", 0), c.get("mul_in", 0)),
            "series.invert_s": it.get("series.invert", 0.0),
            "series.invert_calls": n.get("series.invert", 0),
            "series.sift_in_coeffs": c.get("sift_in", 0),
            "series.sift_out_coeffs": c.get("sift_out", 0),
            "series.sift_yield": ratio(c.get("sift_out", 0), c.get("sift_in", 0)),
            "series.scan_s": it.get("series.scan", 0.0),
            "series.scan_coeffs": c.get("scan_coeffs", 0),
            "theta.named_s": it.get("theta.named", 0.0),
            "theta.cache_hit_ratio": hit_ratio("theta"),
            "theta.eta_expand_s": it.get("theta.eta_expand", 0.0),
            "theta.eta_expand_calls": n.get("theta.eta_expand", 0),
            "forms.theta_s": it.get("forms.theta", 0.0),
            "forms.theta_calls": n.get("forms.theta", 0),
            "forms.enumerate_s": st.get("forms.enumerate", 0.0),
            "forms.classes_found": c.get("classes_found", 0),
            "forms.equiv_tests": n.get("forms.equiv", 0),
            "forms.equiv_s": it.get("forms.equiv", 0.0),
            "forms.equiv_yield": ratio(c.get("equiv_true", 0),
                                       n.get("forms.equiv", 0)),
            "forms.aut_s": it.get("forms.aut", 0.0),
            "forms.aut_calls": n.get("forms.aut", 0),
            "forms.cache_hit_ratio": hit_ratio("forms"),
            "genus.partition_s": st.get("genus.partition", 0.0),
            "genus.genera_found": c.get("genera_found", 0),
            "genus.local_symbols_s": it.get("genus.local_symbols", 0.0),
            "genus.sgenus_s": st.get("genus.sgenus", 0.0),
            "genus.genera_used_ratio": ratio(c.get("genera_used", 0),
                                             c.get("genera_found", 0)),
            "genus.epsilon_s": it.get("genus.epsilon", 0.0),
            "genus.mass_s": it.get("genus.mass", 0.0),
            "genus.weighted_s": it.get("genus.weighted", 0.0),
            "prover.prove_s": it.get("prover.prove", 0.0),
            "prover.coeffs_checked": c.get("coeffs_checked", 0),
            "modeq.root_s": it.get("modeq.root", 0.0),
            "modeq.root_calls": n.get("modeq.root", 0),
            "identities.parse_s": it.get("identities.parse", 0.0),
            "identities.eval_series_s": st.get("identities.eval_series", 0.0),
            "identities.ternary_self_s": st.get("identities.ternary", 0.0),
            "identities.values_checked": c.get("values_checked", 0),
            "identities.series_s": it.get("identities.series", 0.0),
            "identities.sift_s": it.get("identities.sift", 0.0),
            "identities.ternary_s": it.get("identities.ternary", 0.0),
            "identities.positivity_s": it.get("identities.positivity", 0.0),
            "identities.modeq3_s": it.get("identities.modeq3", 0.0),
            "identities.eta_s": it.get("identities.eta", 0.0),
            "cache.entries": sum(info[3] for infos in cache_infos.values()
                                 for info in infos),
            "trace.spans": len(self.spans),
        }
        return out


def _nnz(coeffs) -> int:
    return len(coeffs) - coeffs.count(0)


_VALUES_RE = re.compile(r"\((\d+) values\)")


def install(tracer: Tracer) -> dict:
    """Patch every span point; returns the lru_cache objects to read later."""
    pkg = {name: mod for name, mod in sys.modules.items()
           if name == "thetaforms" or name.startswith("thetaforms.")}
    series = pkg["thetaforms.series"]
    forms = pkg["thetaforms.forms"]
    genus = pkg["thetaforms.genus"]
    caches = {layer: [getattr(pkg[m], f) for m, f in names]
              for layer, names in CACHES.items()}

    def on_miss(fn, key, size):
        """Count size(result) for calls that missed the lru_cache of fn."""
        last = [fn.cache_info().misses]

        def after(args, result):
            misses = fn.cache_info().misses
            if misses != last[0]:
                last[0] = misses
                tracer.add(key, size(result))
        return after

    def after_sift(args, result):
        tracer.add("sift_in", args[0].truncation)
        tracer.add("sift_out", result.truncation)

    def after_scan(args, result):
        tracer.add("scan_coeffs", args[0].truncation)

    def after_equiv(args, result):
        if result:
            tracer.add("equiv_true", 1)

    def after_prove(args, result):
        tracer.add("coeffs_checked", result.coefficients_checked)

    def after_ternary(args, result):
        found = _VALUES_RE.search(result.params)
        if found:
            tracer.add("values_checked", int(found.group(1)))

    after = {
        "enumerate_ternary_classes": on_miss(
            forms.enumerate_ternary_classes, "classes_found", len),
        "genus_partition": on_miss(genus.genus_partition, "genera_found", len),
        "build_sgenus": on_miss(genus.build_sgenus, "genera_used",
                                lambda sg: len(sg.tg)),
        "sift": after_sift, "is_nonnegative": after_scan,
        "ternary_equivalent": after_equiv, "prove": after_prove,
        "verify_ternary": after_ternary,
    }

    for mod_name, names in SPANS.items():
        mod = pkg[mod_name]
        for attr, span in names.items():
            original = getattr(mod, attr)
            if attr == "verify_series":
                wrapper = _series_by_mode(tracer, original)
            else:
                wrapper = tracer.wrap(span, original, after.get(attr))
            for other in pkg.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)

    plain_mul = series.Series.__mul__
    Series = series.Series

    def traced_mul(self, other):
        if not isinstance(other, Series):
            return plain_mul(self, other)
        tracer.enter("series.mul")
        try:
            result = plain_mul(self, other)
        finally:
            tracer.exit()
        a, b = self.coeffs, other.coeffs
        tracer.add("mul_out", result.truncation)
        tracer.add("mul_in", len(a) + len(b))
        tracer.add("mul_nnz", _nnz(a) + _nnz(b))
        return result

    Series.__mul__ = traced_mul
    return caches


def _series_by_mode(tracer: Tracer, fn):
    """verify_series serves both modes; its span is named after the mode."""
    @functools.wraps(fn)
    def wrapper(spec, n):
        tracer.enter("identities.sift" if spec.mode == "sift"
                     else "identities.series")
        try:
            return fn(spec, n)
        finally:
            tracer.exit()
    return wrapper


def read_caches(caches: dict) -> dict[str, list]:
    return {layer: [tuple(fn.cache_info()) for fn in fns]
            for layer, fns in caches.items()}
