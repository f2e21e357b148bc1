"""One cold pass of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 bench/worker.py`` with a JSON request on
standard input; prints one JSON object on its last line of standard output.
The pass imports ``thetaforms`` from the ``src`` directory of the checkout
that holds this file, parses the shipped registry, then runs the workload's
operations at the program's defaults (``jobs = 1``).  Only the operations
are timed.  While they run, a timer signal times two fixed speed kernels,
so that ``run.py`` can tell how fast the machine ran during the pass.
The outputs that ``run.py`` checks against ``oracle.py`` are read after the
timed region, and so is everything a check request asks for.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from oracle import SCAN_LIMIT, SCAN_SHIFTS, SHIFTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 4     # speed samples right after set-up
SAMPLE_EVERY = 0.2    # seconds between two speed samples during operations


def _import_program():
    if not (SRC / "thetaforms" / "__init__.py").is_file():
        raise SystemExit(f"no thetaforms package under {SRC}")
    sys.path.insert(0, str(SRC))
    import thetaforms
    if Path(thetaforms.__file__).resolve().parent != SRC / "thetaforms":
        raise SystemExit(f"imported thetaforms from {thetaforms.__file__}")


def _describe(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


# ---------------------------------------------------------------------------
# speed kernels: the two kinds of work the program does, an interpreter loop
# over small integers, and a big-integer product.  Neither allocates objects
# that the cyclic garbage collector tracks, so running them inside an
# operation does not move the program's collections.
# ---------------------------------------------------------------------------

_BIG_A = int.from_bytes(bytes(range(256)) * 40, "little")
_BIG_B = int.from_bytes(bytes(range(255, -1, -1)) * 40, "little")


def interp_kernel() -> float:
    t0 = time.perf_counter()
    hits = 0
    for a in range(1, 13):
        for b in range(a, 30):
            for f in range(-a, a + 1):
                den = 4 * a * b - f * f
                for e in range(-a, a + 1):
                    num = 3600 + b * e * e - f * e
                    if num % den == 0:
                        hits ^= num // den
    return time.perf_counter() - t0


def bigint_kernel() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        (_BIG_A * _BIG_B).to_bytes(22000, "little")
    return time.perf_counter() - t0


class Pass:
    """Collects operation verdicts while a timer signal takes speed samples.

    Every SAMPLE_EVERY seconds of wall time, SIGALRM runs both kernels
    between two bytecodes of whatever operation is running.  ``clock()``
    excludes the time spent in the kernels, so the pass time and trace
    spans measure only the program.  The samples are evenly spaced in time,
    so their mean is the machine's mean speed over the pass.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (interp, bigint)
        self.ops: list[dict] = []
        self.paused = 0.0
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, *_signal) -> None:
        if self._sampling:  # a timer signal that lands in a running sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.samples.append((interp_kernel(), bigint_kernel()))
        self.paused += time.perf_counter() - t0
        self._sampling = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def record(self, name: str, ok: bool, output: dict) -> None:
        self.ops.append({"name": name, "ok": ok, "output": output})

    def run(self, name: str, op) -> None:
        """Record op() -> (ok, output); a raise counts as a failure."""
        try:
            ok, output = op()
        except Exception as err:
            ok, output = False, {"error": _describe(err)}
        self.record(name, ok, output)


# ---------------------------------------------------------------------------
# workloads: run_* runs the operations into a Pass; extras_* reads what a
# check request asks for, after the timed region
# ---------------------------------------------------------------------------

def run_registry(registry, timer: Pass):
    """One run_suite call at the defaults, as ``thetaforms suite`` makes it.

    Each entry's VerifyResult is one operation.  If run_suite raises, every
    entry counts as failed.
    """
    from thetaforms import cli, identities
    cfg = cli.Config()
    try:
        results = identities.run_suite(registry, cfg.terms, cfg.mmax, cfg.limit)
    except Exception as err:
        for name in sorted(registry):
            timer.record(name, False, {"error": _describe(err)})
        return
    for r in results:
        timer.record(r.name, r.passed, {"mode": r.mode, "params": r.params,
                                        "witness": r.witness})


def extras_registry(registry, request):
    from thetaforms import cli, forms, identities
    cfg = cli.Config()
    counts = [forms.theta_coefficients(forms.TernaryForm(*form), cfg.mmax + 1)[m]
              for form, m in request.get("pairs", [])]
    perturbed = []
    for item in request.get("perturbed", []):
        try:
            (spec,) = identities.parse_registry(item["text"])
            result = identities.verify_entry(spec, cfg.terms, cfg.mmax, cfg.limit)
            perturbed.append({"name": item["name"], "passed": result.passed,
                              "witness": result.witness})
        except Exception as err:  # a raise is not a reported failure
            perturbed.append({"name": item["name"], "passed": None,
                              "witness": _describe(err)})
    return {"counts": counts, "perturbed": perturbed}


def run_sgenus(registry, timer: Pass):
    from thetaforms import genus

    def op(s):
        sg = genus.build_sgenus(s)
        masses = [genus.mass_direct(tg) for tg in sg.tg]
        formula = [genus.mass_formula(tg, s) for tg in sg.tg]
        total = genus.sgenus_mass(sg)
        orth = all(genus.orthogonality_check(sg, w)
                   for w in range(2, s + 1) if s % w == 0)
        return masses == formula and total == s and orth, {
            "cells": [[f.sextuple() for f in tg.classes] for tg in sg.tg],
            "masses": masses, "formula": formula, "total": total,
            "orthogonal": orth}

    for s in SHIFTS:
        timer.run(f"S={s}", lambda: op(s))


def _scan_products(registry):
    names = sorted(n for n, spec in registry.items() if spec.mode == "positivity")
    return names + [f"shift.{s}" for s in SCAN_SHIFTS]


def run_positivity(registry, timer: Pass):
    from thetaforms import cli, identities

    def shift_op(s):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["positivity", "--s", str(s),
                             "--limit", str(SCAN_LIMIT)])
        return code == 0, {"output": out.getvalue().strip()}

    def entry_op(name):
        result = identities.verify_entry(registry[name], limit=SCAN_LIMIT)
        return result.passed, {"params": result.params,
                               "witness": result.witness}

    for name in _scan_products(registry):
        if name.startswith("shift."):
            timer.run(name, lambda: shift_op(int(name[6:])))
        else:
            timer.run(name, lambda: entry_op(name))


def extras_positivity(registry, request):
    """Coefficients of each scanned product at the requested exponents."""
    from thetaforms import identities, theta
    out = {}
    for name, indices in request.get("indices", {}).items():
        n = max(indices) + 1
        if name.startswith("shift."):
            s = int(name[6:])
            phi = theta.named_function("phi", n)
            phis = theta.named_function("phi", n, s)
            psi = theta.named_function("psi", n)
            value = psi * (phi * phi - phis * phis)
        else:
            value = identities.eval_series(registry[name].lhs, n)
        out[name] = [value[k] for k in indices]
    return {"coefficients": out}


WORKLOADS = {
    "registry": (run_registry, extras_registry),
    "sgenus": (run_sgenus, None),
    "positivity-long": (run_positivity, extras_positivity),
}


def main() -> int:
    request = json.loads(sys.stdin.read())
    workload = request["workload"]
    _import_program()
    timer = Pass()
    tracer = caches = None
    if request.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer(timer.clock)
        caches = tracing.install(tracer)
    from thetaforms import identities
    registry = identities.load_default_registry()
    setup_done = time.monotonic()
    for _ in range(SETUP_SAMPLES):
        timer.sample()
    reply = {"setup_done": setup_done, "setup_samples": SETUP_SAMPLES}
    if workload != "setup":
        run, extras = WORKLOADS[workload]
        start = timer.clock()
        with timer.sampling():
            run(registry, timer)
        reply["wall_s"] = timer.clock() - start
        reply["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timer.sample()
        reply["ops"] = timer.ops
        if tracer is not None:
            reply["layers"] = tracer.metrics(tracing.read_caches(caches))
            reply["span_tree"] = tracer.tree()
        if extras is not None and request.get("checks") is not None:
            reply["extras"] = extras(registry, request["checks"])
    reply["samples"] = timer.samples
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
