"""Command-line surface: print bases and tables, run the checkers.

Subcommands
    basis SPECTRUM --n N        basis polynomials with their monomial data
    gamma SPECTRUM --n N        structure-constant matrices up to target N
    product SPECTRUM --i --j    product of two dual basis elements
    invert SPECTRUM --coeffs    invert a dual element given its coefficients
    check SPECTRUM --l L        sampled verdicts for both discreteness conditions
    val2 --max I                2-adic valuations of 3**i - 1 against the closed form
    gamma-transfer --max M      interleaved ko/k structure-constant transfer sweep

Every number is printed as an exact rational, never a decimal.  Exit
codes: 0 all checks pass, 1 a check failed, 2 usage or input error.
The default --format may be set via the KTOPS_FORMAT variable.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import checks, dual, spectra

FORMATS = ("json", "tsv", "pretty")


class Report:
    """One subcommand's output in all three shapes."""

    def __init__(self, code: int, payload: dict, rows: list[list], pretty: list[str]):
        self.code = code
        self.payload = payload
        self.rows = rows
        self.pretty = pretty

    def emit(self, fmt: str, out) -> int:
        if fmt == "json":
            print(json.dumps(self.payload, sort_keys=True), file=out)
        elif fmt == "tsv":
            for row in self.rows:
                print("\t".join(str(v) for v in row), file=out)
        else:
            for line in self.pretty:
                print(line, file=out)
        return self.code


def _rat(v) -> str:
    return str(v if type(v) is Fraction else Fraction(v))


def _spectrum(args) -> spectra.SpectrumSpec:
    return spectra.make_spectrum(args.spectrum, q=getattr(args, "q", None))


def _cmd_basis(args) -> Report:
    sp = _spectrum(args)
    C = sp.coalgebra
    if args.n < 0:
        raise ValueError("--n must be non-negative")
    elements = []
    rows = [["n", "poly", "denominator", "monomial_coeffs", "coords_of_monomial"]]
    pretty = [f"{sp.name} basis to index {args.n} (q = {sp.q})"]
    for n in range(args.n + 1):
        poly = C.basis_poly(n).render()
        d, lam = C.monomial_form(n)
        d = _rat(d)
        lam = {str(k): _rat(v) for k, v in sorted(lam.items())}
        coords = [_rat(v) for v in C.basis_coords(n)]
        elements.append({
            "n": n,
            "poly": poly,
            "denominator": d,
            "monomial_coeffs": lam,
            "coords_of_monomial": coords,
        })
        lam_text = " ".join(f"{k}:{v}" for k, v in lam.items())
        coord_text = ",".join(coords)
        rows.append([n, poly, d, lam_text, coord_text])
        pretty.append(f"  c_{n} = {poly}")
        pretty.append(f"      denominator {d}; monomial slots {lam_text}")
        pretty.append(f"      w^({sp.step}*{n}) has coordinates ({coord_text})")
    payload = {"spectrum": sp.name, "q": sp.q, "n": args.n, "basis": elements}
    return Report(0, payload, rows, pretty)


def _cmd_gamma(args) -> Report:
    sp = _spectrum(args)
    C = sp.coalgebra
    if args.n < 0:
        raise ValueError("--n must be non-negative")
    mats = []
    rows = [["n", "i", "j", "value"]]
    pretty = [f"{sp.name} structure constants to target {args.n}"]
    for n in range(args.n + 1):
        m = [[_rat(v) for v in row] for row in C.coproduct_matrix(n)]
        mats.append({"n": n, "matrix": m})
        pretty.append(f"  target {n}:")
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                rows.append([n, i, j, v])
            pretty.append("    " + " ".join(row))
    payload = {"spectrum": sp.name, "q": sp.q, "n": args.n, "gamma": mats}
    return Report(0, payload, rows, pretty)


def _cmd_product(args) -> Report:
    sp = _spectrum(args)
    C = sp.coalgebra
    if args.prec <= max(args.i, args.j):
        raise ValueError("--prec must exceed both indices")
    a = dual.DualElement.unit_vector(args.i, args.prec)
    b = dual.DualElement.unit_vector(args.j, args.prec)
    prod = dual.multiply(C, a, b)
    coeffs = [_rat(v) for v in prod.coeffs]
    payload = {"spectrum": sp.name, "q": sp.q, "i": args.i, "j": args.j,
               "precision": args.prec, "coeffs": coeffs}
    rows = [["n", "coeff"]] + [[n, c] for n, c in enumerate(coeffs)]
    pretty = [f"{sp.name}: a_{args.i} * a_{args.j} at precision {args.prec}",
              "  " + " ".join(f"{c}*a_{n}" for n, c in enumerate(coeffs) if c != "0")]
    return Report(0, payload, rows, pretty)


def _parse_coeffs(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad --coeffs value: {e}")


def _cmd_invert(args) -> Report:
    sp = _spectrum(args)
    C = sp.coalgebra
    coeffs = _parse_coeffs(args.coeffs)
    prec = args.prec if args.prec is not None else len(coeffs)
    if prec < len(coeffs):
        raise ValueError("--prec must cover the given coefficients")
    padded = coeffs + (Fraction(0),) * (prec - len(coeffs))
    a = dual.DualElement(padded)
    try:
        inv = dual.invert(C, a)
    except dual.NotInvertibleError as e:
        payload = {"spectrum": sp.name, "q": sp.q, "invertible": False,
                   "step": e.step, "slot": e.slot, "pivot": _rat(e.pivot)}
        rows = [["invertible", "step", "slot", "pivot"],
                [False, e.step, e.slot, _rat(e.pivot)]]
        pretty = [f"{sp.name}: not invertible; step {e.step} pivot {_rat(e.pivot)} "
                  f"(slot {e.slot}) is not a unit"]
        return Report(1, payload, rows, pretty)
    out = [_rat(v) for v in inv.coeffs]
    payload = {"spectrum": sp.name, "q": sp.q, "invertible": True,
               "precision": prec, "coeffs": out}
    rows = [["n", "coeff"]] + [[n, c] for n, c in enumerate(out)]
    pretty = [f"{sp.name}: inverse at precision {prec}",
              "  " + " ".join(f"{c}*a_{n}" for n, c in enumerate(out) if c != "0")]
    return Report(0, payload, rows, pretty)


def _cmd_check(args) -> Report:
    sp = _spectrum(args)
    report = checks.condition_report(
        sp, args.l, sample_size=args.sample,
        include_controls=args.include_negative_controls,
    )
    bad = report.failing + report.failing_controls
    code = 1 if bad else 0
    payload = report.as_dict()
    rows = [["spectrum", "condition", "m", "n", "l", "verdict", "control",
             "min_valuation", "witness"]]
    for r in report.rows:
        d = r.as_dict()
        rows.append([d["spectrum"], d["condition"], d["m"], d["n"], d["l"],
                     d["verdict"], d["control"], d["min_valuation"], d["witness"]])
    pretty = [report.summary()]
    if report.failing_controls:
        pretty.append(f"  {len(report.failing_controls)} negative control cell(s) failed, as they should")
    return Report(code, payload, rows, pretty)


def _cmd_val2(args) -> Report:
    sweep = checks.check_pow3_valuations(args.max)
    payload = {"check": sweep.name, "holds": sweep.holds, "cells": sweep.cells,
               "mismatches": list(sweep.mismatches)}
    rows = [["check", "holds", "cells", "mismatches"],
            [sweep.name, sweep.holds, sweep.cells, len(sweep.mismatches)]]
    pretty = [f"{sweep.name}: {sweep.cells} cells, "
              f"{'all match the closed form' if sweep.holds else 'MISMATCH'}"]
    for m in sweep.mismatches:
        pretty.append(f"  {m}")
    return Report(0 if sweep.holds else 1, payload, rows, pretty)


def _cmd_gamma_transfer(args) -> Report:
    k2 = spectra.make_spectrum("k(2)")
    ko2 = spectra.make_spectrum("ko(2)")
    sweep = checks.check_gamma_transfer(k2, ko2, args.max)
    payload = {"check": sweep.name, "holds": sweep.holds, "cells": sweep.cells,
               "mismatches": list(sweep.mismatches)}
    rows = [["check", "holds", "cells", "mismatches"],
            [sweep.name, sweep.holds, sweep.cells, len(sweep.mismatches)]]
    pretty = [f"{sweep.name}: {sweep.cells} cells, "
              f"{'all transfers agree' if sweep.holds else 'MISMATCH'}"]
    for m in sweep.mismatches:
        pretty.append(f"  {m}")
    return Report(0 if sweep.holds else 1, payload, rows, pretty)


def _add_spectrum_arg(p):
    p.add_argument("spectrum", help='algebra name, e.g. "k(3)", "KO(2)", "G(5)"')
    p.add_argument("--q", type=int, default=None,
                   help="Adams parameter; defaults to the least valid choice")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ktops argument parser, built once per process.

    Parsing leaves the parser unchanged, so every run shares it.  The
    --format default depends on the environment at each call, so it is
    None here and resolved in run.
    """
    parser = argparse.ArgumentParser(
        prog="ktops",
        description="exact tables and discreteness checks for operation algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("basis", help="basis polynomials and monomial tables")
    _add_spectrum_arg(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_basis)

    p = add_parser("gamma", help="structure-constant matrices")
    _add_spectrum_arg(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_gamma)

    p = add_parser("product", help="product of two dual basis elements")
    _add_spectrum_arg(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--prec", type=int, required=True)
    p.set_defaults(handler=_cmd_product)

    p = add_parser("invert", help="invert a dual element")
    _add_spectrum_arg(p)
    p.add_argument("--coeffs", required=True,
                   help='comma-separated rationals, e.g. "1,1/3,0"')
    p.add_argument("--prec", type=int, default=None)
    p.set_defaults(handler=_cmd_invert)

    p = add_parser("check", help="discreteness-condition verdicts")
    _add_spectrum_arg(p)
    p.add_argument("--l", type=int, required=True, help="largest depth to sample")
    p.add_argument("--sample", type=int, default=5, help="shifts sampled per depth")
    p.add_argument("--include-negative-controls", action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = add_parser("val2", help="2-adic valuation table of 3**i - 1")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(handler=_cmd_val2)

    p = add_parser("gamma-transfer", help="interleaved ko/k transfer sweep")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(handler=_cmd_gamma_transfer)

    return parser


def run(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        report = args.handler(args)
    except (ValueError, dual.NotIntegralError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    fmt = args.format
    if fmt is None:
        env_fmt = os.environ.get("KTOPS_FORMAT", "")
        fmt = env_fmt if env_fmt in FORMATS else "pretty"
    return report.emit(fmt, out)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
