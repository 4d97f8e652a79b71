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
codes: 0 all checks pass, 1 a check failed or stdout was closed early,
2 usage or input error.
The default --format may be set via the KTOPS_FORMAT variable.
Each subcommand returns one Report, a NamedTuple, rendered in one of
three formats.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import checks, dual, spectra

FORMATS = ("json", "tsv", "pretty")

# Python's int-to-str digit limit as this process started with it, where
# Python has one (3.10.7 and later); 0 means no limit
_INPUT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)


class Report(NamedTuple):
    """One subcommand's exit code and JSON record, with its renderers.

    The record holds exact values; Fractions and polynomials are written
    with str in every format.  tsv and pretty are functions of the
    record, called only when their format is asked for.
    """

    code: int
    record: dict
    tsv: Callable[[dict], list[list]]
    pretty: Callable[[dict], list[str]]

    def emit(self, fmt: str, out) -> int:
        if fmt == "json":
            lines = [json.dumps(self.record, sort_keys=True, default=str)]
        elif fmt == "tsv":
            lines = ["\t".join(str(v) for v in row) for row in self.tsv(self.record)]
        else:
            lines = self.pretty(self.record)
        for line in lines:
            print(line, file=out)
        return self.code


def _spectrum(args) -> spectra.SpectrumSpec:
    return spectra.make_spectrum(args.spectrum, q=getattr(args, "q", None))


def _cmd_basis(args) -> Report:
    sp = _spectrum(args)
    C = sp.coalgebra
    if args.n < 0:
        raise ValueError("--n must be non-negative")
    elements = []
    for n in range(args.n + 1):
        d, lam = C.monomial_form(n)
        elements.append({
            "n": n,
            "poly": C.basis_poly(n),
            # monomial_form is on ints; Fractions print as strings in JSON too
            "denominator": Fraction(d),
            "monomial_coeffs": {str(k): Fraction(v) for k, v in sorted(lam.items())},
            "coords_of_monomial": C.basis_coords(n),
        })
    record = {"spectrum": sp.name, "q": sp.q, "n": args.n, "basis": elements}
    return Report(0, record, _basis_tsv, functools.partial(_basis_pretty, sp.step))


def _monomial_text(e: dict) -> tuple[str, str]:
    return (" ".join(f"{k}:{v}" for k, v in e["monomial_coeffs"].items()),
            ",".join(map(str, e["coords_of_monomial"])))


def _basis_tsv(rec: dict) -> list[list]:
    rows = [["n", "poly", "denominator", "monomial_coeffs", "coords_of_monomial"]]
    for e in rec["basis"]:
        rows.append([e["n"], e["poly"], e["denominator"], *_monomial_text(e)])
    return rows


def _basis_pretty(step: int, rec: dict) -> list[str]:
    lines = [f"{rec['spectrum']} basis to index {rec['n']} (q = {rec['q']})"]
    for e in rec["basis"]:
        lam_text, coord_text = _monomial_text(e)
        lines += [f"  c_{e['n']} = {e['poly']}",
                  f"      denominator {e['denominator']}; monomial slots {lam_text}",
                  f"      w^({step}*{e['n']}) has coordinates ({coord_text})"]
    return lines


def _cmd_gamma(args) -> Report:
    sp = _spectrum(args)
    C = sp.coalgebra
    if args.n < 0:
        raise ValueError("--n must be non-negative")
    mats = [{"n": n, "matrix": C.coproduct_matrix(n)} for n in range(args.n + 1)]
    record = {"spectrum": sp.name, "q": sp.q, "n": args.n, "gamma": mats}
    return Report(0, record, _gamma_tsv, _gamma_pretty)


def _gamma_tsv(rec: dict) -> list[list]:
    rows = [["n", "i", "j", "value"]]
    for m in rec["gamma"]:
        for i, row in enumerate(m["matrix"]):
            rows.extend([m["n"], i, j, v] for j, v in enumerate(row))
    return rows


def _gamma_pretty(rec: dict) -> list[str]:
    lines = [f"{rec['spectrum']} structure constants to target {rec['n']}"]
    for m in rec["gamma"]:
        lines.append(f"  target {m['n']}:")
        lines.extend("    " + " ".join(map(str, row)) for row in m["matrix"])
    return lines


def _coeff_report(code: int, record: dict, title: str) -> Report:
    """A report on a dual element's coefficients; title is formatted with the record."""

    def tsv(rec):
        return [["n", "coeff"]] + [[n, c] for n, c in enumerate(rec["coeffs"])]

    def pretty(rec):
        terms = " ".join(f"{c}*a_{n}" for n, c in enumerate(rec["coeffs"]) if c)
        return [title.format(**rec), "  " + terms]

    return Report(code, record, tsv, pretty)


def _cmd_product(args) -> Report:
    sp = _spectrum(args)
    if args.prec <= max(args.i, args.j):
        raise ValueError("--prec must exceed both indices")
    a = dual.DualElement.unit_vector(args.i, args.prec)
    b = dual.DualElement.unit_vector(args.j, args.prec)
    prod = dual.multiply(sp.coalgebra, a, b)
    record = {"spectrum": sp.name, "q": sp.q, "i": args.i, "j": args.j,
              "precision": args.prec, "coeffs": prod.coeffs}
    return _coeff_report(0, record, "{spectrum}: a_{i} * a_{j} at precision {precision}")


def _parse_coeffs(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad --coeffs value: {e}")


def _cmd_invert(args) -> Report:
    sp = _spectrum(args)
    coeffs = _parse_coeffs(args.coeffs)
    prec = args.prec if args.prec is not None else len(coeffs)
    if prec < len(coeffs):
        raise ValueError("--prec must cover the given coefficients")
    a = dual.DualElement(coeffs + (Fraction(0),) * (prec - len(coeffs)))
    try:
        inv = dual.invert(sp.coalgebra, a)
    except dual.NotInvertibleError as e:
        record = {"spectrum": sp.name, "q": sp.q, "invertible": False,
                  "step": e.step, "slot": e.slot, "pivot": e.pivot}
        keys = ["invertible", "step", "slot", "pivot"]
        return Report(
            1, record, lambda rec: [keys, [rec[k] for k in keys]],
            lambda rec: [f"{rec['spectrum']}: not invertible; step {rec['step']} "
                         f"pivot {rec['pivot']} (slot {rec['slot']}) is not a unit"],
        )
    record = {"spectrum": sp.name, "q": sp.q, "invertible": True,
              "precision": prec, "coeffs": inv.coeffs}
    return _coeff_report(0, record, "{spectrum}: inverse at precision {precision}")


def _cmd_check(args) -> Report:
    sp = _spectrum(args)
    report = checks.condition_report(
        sp, args.l, sample_size=args.sample,
        include_controls=args.include_negative_controls,
    )
    code = 1 if report.failing or report.failing_controls else 0
    cols = ["spectrum", "condition", "m", "n", "l", "verdict", "control",
            "min_valuation", "witness"]

    def pretty(rec):
        lines = [report.summary()]
        if report.failing_controls:
            lines.append(f"  {len(report.failing_controls)} negative control cell(s) "
                         "failed, as they should")
        return lines

    return Report(
        code, report.as_dict(),
        lambda rec: [cols] + [[r[k] for k in cols] for r in rec["rows"]], pretty,
    )


def _sweep_report(sweep: checks.SweepReport, agree: str) -> Report:
    """val2 and gamma-transfer: one sweep, its cell count and mismatches."""
    record = {"check": sweep.name, "holds": sweep.holds, "cells": sweep.cells,
              "mismatches": list(sweep.mismatches)}

    def tsv(rec):
        return [["check", "holds", "cells", "mismatches"],
                [rec["check"], rec["holds"], rec["cells"], len(rec["mismatches"])]]

    def pretty(rec):
        verdict = agree if rec["holds"] else "MISMATCH"
        return ([f"{rec['check']}: {rec['cells']} cells, {verdict}"]
                + [f"  {m}" for m in rec["mismatches"]])

    return Report(0 if sweep.holds else 1, record, tsv, pretty)


def _cmd_val2(args) -> Report:
    return _sweep_report(checks.check_pow3_valuations(args.max), "all match the closed form")


def _cmd_gamma_transfer(args) -> Report:
    k2 = spectra.make_spectrum("k(2)")
    ko2 = spectra.make_spectrum("ko(2)")
    return _sweep_report(checks.check_gamma_transfer(k2, ko2, args.max), "all transfers agree")


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
    # input such as --coeffs is parsed under the process's digit limit
    _set_digit_limit(_INPUT_DIGIT_LIMIT)
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
    # exact values of any size are printed in full, so the digit limit is
    # lifted for rendering; it stays lifted on return, for the caller to
    # read the printed values back
    _set_digit_limit(0)
    return report.emit(fmt, out)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`ktops ... | head`); point it at
        # devnull so the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
