"""Command-line front end.

Exit codes: 0 success, 1 a failed verification, 2 a usage or evaluation
fault, such as a request too large to allocate.  Commands raise their
faults and `main` alone prints each as one stderr line.  Output is plain
text (``--format table``) or CSV; every numeric field is printed exactly,
so CSV output round-trips.  Settings come from flags alone: the registry
is ``--registry``, else ``$THETAFORMS_REGISTRY``, else the shipped one, and
each count is its command's flag, else the default.

Each command writes its output once its verdict is known, so a reader that
closes the pipe early, such as ``head``, ends the output quietly and the
exit code stays the verdict.  ``positivity --s S`` is the positivity entry
``psi(q)*(phi(q)^2 - phi(q^S)^2)``, checked by the same rule as ``verify``.

`main` builds its parser once per process and reuses it: parsing reads the
parser and changes nothing in it, so a second call, a usage error after a
success included, prints and exits as a call in a fresh process would.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys

from .forms import TernaryForm, aut_count, enumerate_ternary_classes, repcount
from .genus import build_sgenus, genus_partition, mass_direct, mass_formula
from .identities import (DEFAULT_LIMIT, DEFAULT_MMAX, DEFAULT_TERMS,
                         EVAL_ERRORS, Conditions, EntryError, IdentitySpec,
                         RegistryError, default_registry_file, eval_series,
                         load_registry, parse_expression, run_suite,
                         verify_entry, verify_positivity)

ENV_REGISTRY = "THETAFORMS_REGISTRY"
FORMATS = ("table", "csv")


class _Refusal(Exception):
    """A usage or evaluation fault; `main` prints it and returns 2."""


class Config:
    def __init__(self, terms: int = DEFAULT_TERMS, mmax: int = DEFAULT_MMAX,
                 limit: int = DEFAULT_LIMIT, registry: str = "",
                 fmt: str = "table"):
        self.terms = terms
        self.mmax = mmax
        self.limit = limit
        self.registry = registry
        self.fmt = fmt


def _emit_rows(header, rows, fmt):
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    widths = [len(h) for h in header]
    rows = [tuple(str(c) for c in row) for row in rows]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _registry(cfg: Config):
    try:
        return load_registry(cfg.registry)
    except FileNotFoundError:
        raise _Refusal(f"registry file not found: {cfg.registry}")
    except (OSError, UnicodeDecodeError) as err:
        raise _Refusal(f"cannot read registry {cfg.registry}: {err}")
    except RegistryError as err:
        raise _Refusal(f"registry parse error: {err}")


def _entry(cfg: Config, name: str):
    registry = _registry(cfg)
    if name not in registry:
        raise _Refusal(f"unknown identity {name!r}")
    return registry[name]


def _count(cfg: Config, args, name: str) -> int:
    """The --name flag if given, else cfg's default; must be >= 1."""
    value = getattr(args, name)
    if value is None:
        value = getattr(cfg, name)
    if value <= 0:
        raise _Refusal(f"{name} must be positive, got {value}")
    return value


def _cmd_expand(cfg: Config, args) -> int:
    n = _count(cfg, args, "n")
    try:
        value = eval_series(parse_expression(args.func), n)
    except EVAL_ERRORS as err:
        raise _Refusal(f"cannot expand {args.func!r}: "
                       f"{str(err) or type(err).__name__}")
    rows = [(i, c) for i, c in enumerate(value.coeffs)]
    _emit_rows(("exponent", "coefficient"), rows, cfg.fmt)
    return 0


def _cmd_verify(cfg: Config, args) -> int:
    result = verify_entry(_entry(cfg, args.id), _count(cfg, args, "terms"),
                          _count(cfg, args, "mmax"), _count(cfg, args, "limit"))
    _emit_rows(("name", "mode", "params", "verdict", "witness", "ms"),
               [result.row()], cfg.fmt)
    return 0 if result.passed else 1


def _cmd_prove_eta(cfg: Config, args) -> int:
    spec = _entry(cfg, args.id)
    if spec.mode != "eta":
        raise _Refusal(f"{args.id} is not an eta entry")
    result = verify_entry(spec)
    print(result.detail.render())
    return 0 if result.passed else 1


def _cmd_forms(cfg: Config, args) -> int:
    if args.disc <= 0:
        raise _Refusal(f"discriminant must be positive, got {args.disc}")
    rows = []
    if args.genera:
        for i, record in enumerate(genus_partition(args.disc), start=1):
            for form in record.classes:
                rows.append((i, str(form), aut_count(form)))
        _emit_rows(("genus", "form", "aut"), rows, cfg.fmt)
    else:
        for form in enumerate_ternary_classes(args.disc):
            rows.append((str(form), aut_count(form)))
        _emit_rows(("form", "aut"), rows, cfg.fmt)
    return 0


def _cmd_repcount(cfg: Config, args) -> int:
    try:
        form = TernaryForm.from_string(args.form)
    except (ValueError, TypeError) as err:
        raise _Refusal(f"bad form literal: {err}")
    print(repcount(form, args.m))
    return 0


def _cmd_sgenus(cfg: Config, args) -> int:
    try:
        sg = build_sgenus(args.s)
    except ValueError as err:
        raise _Refusal(str(err))
    rows = []
    total = 0
    for i, record in enumerate(sg.tg, start=1):
        chars = " ".join(f"eps({p})={sg.eps[(i - 1, p)]:+d}" for p in sg.primes)
        md = mass_direct(record)
        mf = mass_formula(record, args.s)
        total += md
        rows.append((i, str(record), chars, md, mf))
    _emit_rows(("i", "classes", "characters", "mass", "mass_formula"),
               rows, cfg.fmt)
    ok = total == args.s
    print(f"total mass {total} (predicted {args.s}): {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_positivity(cfg: Config, args) -> int:
    if args.s not in (3, 5, 7, 15):
        raise _Refusal("supported shifts: 3, 5, 7, 15")
    limit = _count(cfg, args, "limit")
    func = f"psi(q)*(phi(q)^2 - phi(q^{args.s})^2)"
    try:
        result = verify_positivity(IdentitySpec(
            func, "positivity", parse_expression(func), None, Conditions(), 1),
            limit)
    except EVAL_ERRORS as err:
        raise _Refusal(f"cannot scan {func!r}: "
                       f"{str(err) or type(err).__name__}")
    print(result.witness or f"nonnegative through exponent {limit - 1}")
    return 0 if result.passed else 1


def _cmd_suite(cfg: Config, args) -> int:
    registry = _registry(cfg)
    if not registry:
        # a suite that verifies nothing is no pass
        raise _Refusal(f"registry {cfg.registry} has no entries")
    results = run_suite(registry, _count(cfg, args, "terms"),
                        _count(cfg, args, "mmax"), _count(cfg, args, "limit"))
    _emit_rows(("name", "mode", "params", "verdict", "witness", "ms"),
               [r.row() for r in results], cfg.fmt)
    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    print(f"{passed} passed / {failed} failed / {len(results)} total")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="thetaforms",
        description="Exact verification of theta-function and ternary "
                    "quadratic form identities.")
    top.add_argument("--registry", help="path to the identity registry")
    top.add_argument("--format", choices=FORMATS, default="table")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print coefficients of a series expression")
    p.add_argument("--func", required=True)
    p.add_argument("--n", type=int, default=20)
    p.set_defaults(run=_cmd_expand)

    p = sub.add_parser("verify", help="verify one registry entry")
    p.add_argument("--id", required=True)
    p.add_argument("--terms", type=int)
    p.add_argument("--mmax", type=int)
    p.add_argument("--limit", type=int)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("prove-eta", help="emit the proof certificate for an eta entry")
    p.add_argument("--id", required=True)
    p.set_defaults(run=_cmd_prove_eta)

    p = sub.add_parser("forms", help="list class representatives of a discriminant")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--genera", action="store_true")
    p.set_defaults(run=_cmd_forms)

    p = sub.add_parser("repcount", help="count representations of one integer")
    p.add_argument("--form", required=True, metavar="a,b,c,d,e,f")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(run=_cmd_repcount)

    p = sub.add_parser("sgenus", help="report the lifted-union genera for S")
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(run=_cmd_sgenus)

    p = sub.add_parser("positivity", help="scan psi(q)(phi(q)^2-phi(q^S)^2)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--limit", type=int)
    p.set_defaults(run=_cmd_positivity)

    p = sub.add_parser("suite", help="run every registry entry")
    p.add_argument("--terms", type=int)
    p.add_argument("--mmax", type=int)
    p.add_argument("--limit", type=int)
    p.set_defaults(run=_cmd_suite)
    return top


# main's parser, built on its first call
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    cfg = Config(registry=args.registry or os.environ.get(ENV_REGISTRY)
                 or str(default_registry_file()), fmt=args.format)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.run(cfg, args)
    except (EntryError, _Refusal) as err:
        prefix = "cannot evaluate " if isinstance(err, EntryError) else ""
        print(f"{prefix}{err}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; send the interpreter's last flush of
        # stdout to the null device, and keep the verdict as the exit code
        with contextlib.suppress(AttributeError, OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
