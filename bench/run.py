"""Benchmark of thetaforms over three workloads; see bench/README.md.

    python3 bench/run.py --workload registry --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh interpreter (``worker.py``), one at
a time, so every pass is cold and no two passes share a processor.  Passes
repeat for about ``--seconds``; every pass runs all operations of the
workload.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``.  Every pass, with the steal and load read from /proc beside
it, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REGISTRY = ROOT / "src" / "thetaforms" / "data" / "registry.txt"
RESULTS = BENCH / "results"

WORKLOADS = ("registry", "sgenus", "positivity-long")
SETUP_SPAWNS = 15     # set-up-only passes per run, besides one per workload pass
MIN_PASSES = 2        # workload passes per run, whatever --seconds says
PASS_TIMEOUT = 150.0  # seconds; a run must end within 180
PAIRS = 8             # seeded (form, M) pairs per registry run
PERTURBED = 6         # seeded perturbed registry entries per registry run
AUT_CELLS = 3         # seeded S-genus cells whose automorphs are recounted
MMAX = 10000          # the program's default Mmax, for the seeded pairs
SCAN_LIMIT = oracle.SCAN_LIMIT

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Times of the two speed kernels in worker.py when the reference machine (a
# shared 2-core x86-64 sandbox, Python 3.11) was quiet: the 5th percentile
# of 8415 samples taken over two hours.  A time scaled to this speed is
# about what the pass takes on that machine when it is quiet.  For each
# workload, the share of its slowdown that follows the interpreter kernel;
# the rest follows the big-integer kernel.  The shares are those that gave
# the smallest run-to-run spread on the reference machine; set-up is
# import and parsing, interpreter work.  See README.md.
INTERP_REF_S = 0.0069
BIGINT_REF_S = 0.0058
INTERP_SHARE = {"registry": 0.5, "sgenus": 0.75, "positivity-long": 0.25}
SETUP_SHARE = 1.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# host readings (read only)
# ---------------------------------------------------------------------------

def read_host():
    """(steal jiffies, total jiffies, 1-minute load) or Nones if unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
        with open("/proc/loadavg") as fh:
            load = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None, None, None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8]), load


def steal_share(before, after):
    if before[0] is None or after[0] is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(workload: str, trace: bool, checks, deadline: float) -> dict:
    """One fresh-interpreter pass; adds set-up time and host readings."""
    request = json.dumps({"workload": workload, "trace": trace,
                          "checks": checks})
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    timeout = max(1.0, min(PASS_TIMEOUT, deadline - time.monotonic()))
    host0 = read_host()
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT))
    try:
        out, err = proc.communicate(request, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s")
    host1 = read_host()
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    reply = json.loads(out.strip().splitlines()[-1])
    reply["setup_s"] = reply.pop("setup_done") - start
    reply["traced"] = trace
    reply["steal"] = steal_share(host0, host1)
    reply["load"] = host1[2]
    return reply


def run_passes(workload: str, seconds: float, trace: bool, checks) -> tuple:
    """Set-up passes, then as many workload passes as fit in the time.

    With --trace 1 untraced and traced passes alternate, the first
    untraced, so both see the same conditions.  The first pass answers the
    check request.  Once MIN_PASSES passes have run, a pass starts only if
    it is expected to end before half a pass past the time, so the number
    of passes is rounded to the nearest, not down.
    """
    hard_deadline = time.monotonic() + 170.0
    run_pass("setup", False, None, hard_deadline)  # warms the bytecode cache
    setups = [run_pass("setup", False, None, hard_deadline)
              for _ in range(SETUP_SPAWNS)]
    passes = []
    start = time.monotonic()
    kinds = (False, True) if trace else (False,)
    while True:
        traced = kinds[len(passes) % len(kinds)]
        now = time.monotonic()
        mean = (now - start) / max(len(passes), 1)
        if len(passes) >= MIN_PASSES and now + mean / 2 > start + seconds:
            break
        passes.append(run_pass(workload, traced,
                               checks if not passes else None, hard_deadline))
    return setups, passes


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check_request(workload: str, seed: int, text: str) -> dict:
    if workload == "registry":
        pairs = oracle.seeded_pairs(oracle.ternary_forms(text), seed, PAIRS, MMAX)
        return {"pairs": pairs,
                "perturbed": oracle.perturbed_entries(text, seed, PERTURBED)}
    if workload == "positivity-long":
        names = list(oracle.POSITIVITY_PRODUCTS)
        return {"indices": oracle.seeded_indices(names, seed, SCAN_LIMIT)}
    return {}


def check_registry(passes, request, text, problems):
    entries = oracle.registry_entries(text)
    expected = sorted(name for name, _, _ in entries)
    first = None
    for p in passes:
        names = [op["name"] for op in p["ops"]]
        if names != expected:
            problems.append("a pass did not verify every registry entry once")
        by_name = {op["name"]: op for op in p["ops"] if op["ok"]}
        for name, want in oracle.CONTROL_WITNESSES.items():
            if name in by_name and \
                    f"exponent {want}" not in by_name[name]["output"]["witness"]:
                problems.append(f"{name}: witness is not exponent {want}")
        for name, bound in (("4.1", 17), ("5.4", 90)):
            if name in by_name and \
                    f"B={bound}" not in by_name[name]["output"]["params"]:
                problems.append(f"{name}: valence bound is not {bound}")
        params = [op["output"].get("params") for op in p["ops"]]
        if first is None:
            first = params
        elif params != first:
            problems.append("checked counts differ between passes")
    extras = passes[0]["extras"]
    for (form, m), got in zip(request["pairs"], extras["counts"]):
        want = oracle.lattice_count(tuple(form), m)
        if got != want:
            problems.append(f"r({form}, {m}) = {got}, direct count {want}")
    for item, got in zip(request["perturbed"], extras["perturbed"]):
        if got["passed"] is not False:
            problems.append(f"{item['name']} ({item['altered']}) was not "
                            f"reported failing: {got['witness'] or 'pass'}")


def check_positivity(passes, request, problems):
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                continue
            out = op["output"]
            if op["name"].startswith("shift."):
                if out["output"] != f"nonnegative through exponent {SCAN_LIMIT - 1}":
                    problems.append(f"{op['name']}: {out['output']!r}")
            elif op["name"] in oracle.CONTROL_WITNESSES:
                want = oracle.CONTROL_WITNESSES[op["name"]]
                if out["witness"] != f"negative coefficient at exponent {want}":
                    problems.append(f"{op['name']}: {out['witness']!r}")
            elif out["params"] != f"limit={SCAN_LIMIT}":
                problems.append(f"{op['name']}: scanned {out['params']}")
        scanned = {op["name"] for op in p["ops"]}
        if scanned != set(oracle.POSITIVITY_PRODUCTS):
            problems.append(f"scanned products {sorted(scanned)}")
    got = passes[0]["extras"]["coefficients"]
    for name, indices in request["indices"].items():
        for k, value in zip(indices, got.get(name, [])):
            want = oracle.product_coefficient(name, k)
            if value != want:
                problems.append(f"{name}: coefficient {k} is {value}, "
                                f"direct count {want}")


def check_sgenus(passes, seed, problems):
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                continue
            s = int(op["name"][2:])
            out = op["output"]
            cells = [tuple(tuple(f) for f in cell) for cell in out["cells"]]
            if len(cells) != 2 ** len(oracle.prime_factors(s)):
                problems.append(f"S={s}: {len(cells)} genera")
            if sum(out["masses"]) != s or out["total"] != s:
                problems.append(f"S={s}: masses {out['masses']} do not sum to S")
            if not out["orthogonal"]:
                problems.append(f"S={s}: characters are not orthogonal")
            for cell in cells:
                for form in cell:
                    if oracle.discriminant(form) != 16 * s * s:
                        problems.append(f"S={s}: {form} has the wrong discriminant")
            if s in oracle.PAPER_CELLS:
                got = {tuple(sorted(cell)): m for cell, m in zip(cells, out["masses"])}
                if got != oracle.PAPER_CELLS[s]:
                    problems.append(f"S={s}: cells {got} differ from the paper")
    ops = [op for op in passes[0]["ops"] if op["ok"]]
    picks = [(op, i) for op in ops for i in range(len(op["output"]["cells"]))]
    for op, i in oracle.seeded_sample(picks, seed, AUT_CELLS):
        cell = [tuple(f) for f in op["output"]["cells"][i]]
        want = oracle.cell_mass(cell)
        if op["output"]["masses"][i] != want:
            problems.append(f"{op['name']} cell {i}: mass "
                            f"{op['output']['masses'][i]}, recounted {want}")


def check(workload, passes, request, seed, text) -> list[str]:
    problems = [f"{op['name']} failed: {op['output'].get('error') or op['output']}"
                for p in passes for op in p["ops"] if not op["ok"]]
    if workload == "registry":
        check_registry(passes, request, text, problems)
    elif workload == "positivity-long":
        check_positivity(passes, request, problems)
    else:
        check_sgenus(passes, seed, problems)
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def slowdown(sample, share: float) -> float:
    """How much slower than the reference the machine ran at one sample."""
    interp, bigint = sample
    return share * interp / INTERP_REF_S + (1 - share) * bigint / BIGINT_REF_S


def scaled_setup(p: dict) -> float:
    """Set-up time at reference speed, from the samples right after it."""
    samples = p["samples"][:p["setup_samples"]]
    slow = sum(slowdown(x, SETUP_SHARE) for x in samples) / len(samples)
    return p["setup_s"] / slow


def pass_speed(p: dict, share: float) -> float:
    """Mean speed, relative to the reference, during a pass's operations.

    The samples are evenly spaced in time, so the mean of 1/slowdown over
    them turns the pass's time into its time at reference speed.
    """
    samples = p["samples"][p["setup_samples"]:]
    return sum(1 / slowdown(x, share) for x in samples) / len(samples)


def scaled_wall(p: dict, share: float) -> float:
    """The pass's operation time at reference speed."""
    return p["wall_s"] * pass_speed(p, share)


def median_pass(passes, share: float) -> dict:
    """The pass whose time at reference speed is the (lower) median."""
    ranked = sorted(passes, key=lambda p: scaled_wall(p, share))
    return ranked[(len(ranked) - 1) // 2]


def end_to_end(setups, passes, share: float) -> dict:
    plain = [p for p in passes if not p["traced"]]
    return {
        "setup_s": statistics.median(scaled_setup(p) for p in setups + plain),
        "wall_s": statistics.median(scaled_wall(p, share) for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(passes, share: float) -> dict:
    """Layer metrics of the median traced pass, times at reference speed."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    chosen = median_pass(traced, share)
    speed = pass_speed(chosen, share)
    out = {name: value * speed if name.endswith("_s") else value
           for name, value in chosen["layers"].items()}
    out["trace.untraced_wall_s"] = statistics.median(
        scaled_wall(p, share) for p in plain)
    out["trace.traced_wall_s"] = statistics.median(
        scaled_wall(p, share) for p in traced)
    out["trace.overhead_s"] = (out["trace.traced_wall_s"]
                               - out["trace.untraced_wall_s"])
    return out


def unscaled(setups, passes) -> dict:
    """The end-to-end times without the speed scaling, for the results file."""
    plain = [p for p in passes if not p["traced"]]
    return {"setup_s": statistics.median(p["setup_s"] for p in setups + plain),
            "wall_s": statistics.median(p["wall_s"] for p in plain)}


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", "_density")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not REGISTRY.is_file():
            raise BenchError(f"no thetaforms source tree at {ROOT / 'src'}")
        text = REGISTRY.read_text(encoding="utf-8")
        request = check_request(args.workload, args.seed, text)
        setups, passes = run_passes(args.workload, args.seconds,
                                    bool(args.trace), request)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    problems = check(args.workload, passes, request, args.seed, text)
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    ops_per_pass = len(passes[0]["ops"])
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if not op["ok"])
    share = INTERP_SHARE[args.workload]
    if args.trace:
        values, units = per_layer(passes, share), layer_units
    else:
        values, units = end_to_end(setups, passes, share), END_TO_END.get
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": sys.version.split()[0], "cpus": os.cpu_count(),
              "setups": setups,
              "passes": [{k: v for k, v in p.items() if k != "extras"}
                         for p in passes],
              "problems": problems, "metrics": values,
              "unscaled": unscaled(setups, passes)}
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    for p in passes:
        steal = "n/a" if p["steal"] is None else f"{100 * p['steal']:.1f}%"
        print(f"pass traced={int(p['traced'])} wall={p['wall_s']:.3f}s "
              f"setup={p['setup_s']:.3f}s "
              f"slowdown={1 / pass_speed(p, share):.2f} "
              f"rss={p['peak_rss_mb']:.1f}MB steal={steal} load={p['load']}")
    print(f"{len(passes)} passes of {ops_per_pass} operations; "
          f"details in {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
