"""Every refusal of malformed or absurd input, pinned by its reason.

A library call raises a ValueError that names the reason; a CLI call
exits 2 with that reason on one stderr line, no traceback and no stdout.
The literal grammar, the prime bound at every entry that takes a
prime, the G/g node-base bound and the refusal of a coalgebra
without a prime are here too, as are the failure branches of
verify_regularity, each against the Fraction route of tests/oracles.py.
"""
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ktops import cli
from ktops.checks import (
    check_coalgebra_conditions,
    check_congruence_condition,
    check_gamma_transfer,
    check_pow3_valuations,
    check_unit_condition,
    condition_report,
)
from ktops.coalgebra import CoalgebraSpec, ThetaCoalgebra, binomial_coalgebra, monomial_coalgebra, verify_regularity
from ktops.dual import AdamsPoly, DualElement, invert, is_unit
from ktops.laurent import LaurentPoly
from ktops.modules import (
    FGModule,
    character_module,
    comodule_on_basis,
    module_from_json,
    to_comodule,
    torsion_annihilator,
    trivial_module,
)
from ktops.rationals import (
    as_fraction,
    check_primitive_root,
    is_p_local_unit,
    least_primitive_root,
    multiplicative_order,
    nu,
)
from ktops.spectra import SpectrumSpec, admissible_shifts, make_spectrum, spectrum_names, support_step
from oracles import regularity_by_fractions

K3 = make_spectrum("k(3)")
C3 = K3.coalgebra
X = LaurentPoly.variable()
HUGE_PRIME = "1000000000000000000000000000000000000000000000000000000000007"  # 61 digits
ABOVE_THE_BOUND = "the prime is above the bound 1,000,000,000,000 for trial division"
BASE_ABOVE_THE_BOUND = "the node base q**(p-1) is above the bound of 1,000,000 bits"
NO_PRIME = SpectrumSpec("x", "b", 1, binomial_coalgebra())
THETA_NO_PRIME = SpectrumSpec("t", "b", 1, ThetaCoalgebra(3, 1))
P_LOCAL = "this needs a p-local coalgebra; binomial has no prime"
EXPONENT = "has an exponent; write it as an integer, a/b or a plain decimal"
SRC = str(Path(cli.__file__).resolve().parents[1])


def _table(entry, prime=3) -> str:
    return json.dumps({"prime": prime, "free_rank": 1, "torsion_orders": [], "matrices": [[[entry]]]})


LIBRARY = {
    "step below 1": (lambda: CoalgebraSpec(0, C3.basis), "the exponent step must be a positive integer"),
    "float step": (lambda: CoalgebraSpec(1.5, lambda n: (1, {n: 1}), prime=3),
                   "the exponent step 1.5 is not an integer"),
    "bool step": (lambda: monomial_coalgebra(step=True, prime=3), "the exponent step True is not an integer"),
    "coalgebra prime": (lambda: CoalgebraSpec(1, C3.basis, prime=4), "4 is not a prime"),
    "negative basis index": (lambda: monomial_coalgebra().monomial_form(-1), "basis indices start at 0"),
    "basis element 0 not 1": (lambda: CoalgebraSpec(1, lambda n: (2, {n: 1}), prime=3).monomial_form(0),
                              "basis element 0 must be the constant 1"),
    "negative dual basis index": (lambda: C3.dual_basis(-1), "basis indices start at 0"),
    "degree of zero": (lambda: LaurentPoly().degree, "the zero polynomial has no degree"),
    "lowest exponent of zero": (lambda: LaurentPoly().low, "the zero polynomial has no lowest exponent"),
    "no coefficients": (lambda: DualElement(()), "a dual element needs precision at least 1"),
    "operation base 0": (lambda: AdamsPoly(0, X), "the operation base must be nonzero"),
    "negative power": (lambda: AdamsPoly(3, LaurentPoly.monomial(-1)),
                       "an operation polynomial has no negative powers"),
    "exact mode on a truncated element": (lambda: is_unit(C3, DualElement((1, 3)), mode="exact"),
                                          "mode 'exact' does not match DualElement's route, 'truncated'"),
    "truncated mode on an AdamsPoly": (lambda: is_unit(C3, AdamsPoly(2, X), mode="truncated"),
                                       "mode 'truncated' does not match AdamsPoly's route, 'exact'"),
    "unknown mode on a truncated element": (lambda: is_unit(C3, DualElement((1, 3)), mode="fast"),
                                            "mode 'fast' does not match DualElement's route, 'truncated'"),
    "unknown mode on an AdamsPoly": (lambda: is_unit(C3, AdamsPoly(2, X), mode="fast"),
                                     "mode 'fast' does not match AdamsPoly's route, 'exact'"),
    "module prime": (lambda: FGModule(4, 1, (), (((1,),),)), "4 is not a prime"),
    "negative rank": (lambda: FGModule(3, -1, (), (((1,),),)), "free rank must be non-negative"),
    "float torsion order": (lambda: trivial_module(3, 1, [9.7], 2), "torsion order 9.7 is not an integer"),
    "string torsion order": (lambda: trivial_module(3, 1, ["9"], 2), "torsion order '9' is not an integer"),
    "bool level": (lambda: trivial_module(3, 1, (), True), "the level True is not an integer"),
    "float level": (lambda: trivial_module(3, 1, (), level=2.5), "the level 2.5 is not an integer"),
    "bool free rank": (lambda: FGModule(3, True, (), (((1,),),)), "free rank True is not an integer"),
    "float free rank": (lambda: FGModule(3, 1.5, (), (((1,),),)), "free rank 1.5 is not an integer"),
    "torsion order not a power of p": (lambda: FGModule(3, 0, (4,), (((1,),),)),
                                       "torsion order 4 is not a positive power of 3"),
    "empty table": (lambda: FGModule(3, 1, (), ()), "an action table needs at least the identity matrix"),
    "module prime mismatch": (lambda: to_comodule(trivial_module(5), C3),
                              "not a valid module table: prime mismatch between module and coalgebra"),
    "torsion exponent below 1": (lambda: torsion_annihilator(trivial_module(3, 1, (3,)), K3, 0),
                                 "the torsion exponent must be a positive integer"),
    "pow3 sweep below 1": (lambda: check_pow3_valuations(0), "need at least one exponent to check"),
    "transfer first spectrum": (lambda: check_gamma_transfer(make_spectrum("ko(2)"), make_spectrum("ko(2)"), 2),
                                "first argument must be the connective 2-local complex theory"),
    "transfer second spectrum": (lambda: check_gamma_transfer(make_spectrum("k(2)"), make_spectrum("k(2)"), 2),
                                 "second argument must be the connective 2-local real theory"),
    "transfer m_max below 0": (lambda: check_gamma_transfer(make_spectrum("k(2)"), make_spectrum("ko(2)"), -1),
                               "m_max must be non-negative"),
    "support step depth 0": (lambda: support_step(K3, 0), "the depth must be a positive integer"),
    "admissible shifts depth 0": (lambda: admissible_shifts(K3, 0), "the depth must be a positive integer"),
    "report depth 0": (lambda: condition_report(K3, 0), "the depth must be a positive integer"),
    "table cell depth 0": (lambda: check_coalgebra_conditions(K3, 1, 1, 0), "the depth must be a positive integer"),
    "congruence cell negative shift": (lambda: check_congruence_condition(K3, -1, 1, 1),
                                       "shift and index must be non-negative"),
    "modulus below 2": (lambda: multiplicative_order(3, 1), "modulus must be at least 2"),
    "prime above the bound": (lambda: make_spectrum(f"k({HUGE_PRIME})"), ABOVE_THE_BOUND),
    # (p - 1) * bitlen(q) is read before q**(p-1) is built: 2,000,004 and 1,000,098
    "G node base above the bound": (lambda: make_spectrum("G(1000003)"), BASE_ABOVE_THE_BOUND),
    "g node base above the bound by q": (lambda: make_spectrum("g(333367)", q=5), BASE_ABOVE_THE_BOUND),
    # a coalgebra over Z, refused by name wherever a job needs the prime
    "unit cell without a prime": (lambda: check_unit_condition(NO_PRIME, 0, 1), P_LOCAL),
    "congruence cell without a prime": (lambda: check_congruence_condition(NO_PRIME, 1, 1, 1), P_LOCAL),
    "table cell without a prime, unit part": (lambda: check_coalgebra_conditions(NO_PRIME, 0, 1, 1), P_LOCAL),
    "table cell without a prime, product part": (lambda: check_coalgebra_conditions(NO_PRIME, 1, 1, 1), P_LOCAL),
    "unit test without a prime": (lambda: is_unit(binomial_coalgebra(), DualElement((1, 1))), P_LOCAL),
    "inverse without a prime": (lambda: invert(binomial_coalgebra(), DualElement((1, 1))), P_LOCAL),
    "character module without a prime": (lambda: character_module(binomial_coalgebra(), 2), P_LOCAL),
    "comodule without a prime": (lambda: comodule_on_basis(binomial_coalgebra(), 2), P_LOCAL),
    # a theta-form coalgebra without a prime is refused by its order
    "theta unit cell without a prime": (lambda: check_unit_condition(THETA_NO_PRIME, 0, 1),
                                        "node base 3 is not a unit at the prime None"),
    "theta congruence cell without a prime": (lambda: check_congruence_condition(THETA_NO_PRIME, 1, 1, 1),
                                              "node base 3 is not a unit at the prime None"),
}


@pytest.mark.parametrize("call, reason", LIBRARY.values(), ids=LIBRARY.keys())
def test_library_refusal_names_its_reason(call, reason):
    with pytest.raises(ValueError) as e:
        call()
    assert reason in str(e.value)


def test_a_node_base_below_the_bound_is_built():
    # 333366 * bitlen(3) = 666,732 bits, where q = 5 reads 1,000,098
    assert make_spectrum("g(333367)").base == 3**333366


# every entry that takes a prime refuses one above the bound before any trial division
HUGE = int(HUGE_PRIME)
BOUNDED = {
    "FGModule": lambda: FGModule(HUGE, 1, (), (((1,),),)),
    "module_from_json": lambda: module_from_json(_table(1, prime=HUGE)),
    "binomial_coalgebra": lambda: binomial_coalgebra(HUGE),
    "nu": lambda: nu(HUGE, 3),
    "is_p_local_unit": lambda: is_p_local_unit(HUGE, 3),
    "check_primitive_root": lambda: check_primitive_root(HUGE, 2),
    "least_primitive_root": lambda: least_primitive_root(HUGE),
    "multiplicative_order": lambda: multiplicative_order(2, HUGE),
    "spectrum_names": lambda: spectrum_names(HUGE),
}


@pytest.mark.parametrize("call", BOUNDED.values(), ids=BOUNDED.keys())
def test_every_prime_entry_refuses_a_prime_above_the_bound(call):
    start = time.perf_counter()
    with pytest.raises(ValueError) as e:
        call()
    assert time.perf_counter() - start < 1
    assert str(e.value) == ABOVE_THE_BOUND


@pytest.mark.parametrize("text", ["1e5000", "1E3", "2.5e-1"])
def test_literals_with_an_exponent_are_refused(text):
    # Fraction would expand the exponent to 10**e, past the digit limit
    for call, prefix in ((as_fraction, ""), (lambda t: DualElement(("1", t)), ""),
                         (lambda t: module_from_json(_table(t)), "module table key 'matrices' is ill-typed: ")):
        with pytest.raises(ValueError) as e:
            call(text)
        assert str(e.value) == f"{prefix}'{text}' {EXPONENT}"


@pytest.mark.parametrize("text, value", [("1/3", Fraction(1, 3)), ("-2", Fraction(-2)),
                                         ("0.25", Fraction(1, 4)), (" 7 ", Fraction(7))])
def test_literals_without_an_exponent_parse(text, value):
    assert as_fraction(text) == value
    assert DualElement((text,)).coeffs == (value,)
    assert module_from_json(_table(text)).matrices == (((value,),),)


def test_p_local_unit_of_zero_reads_no_prime():
    assert not is_p_local_unit(None, 0)
    with pytest.raises(ValueError, match="4 is not a prime"):
        is_p_local_unit(4, 3)


CLI = {
    "basis --n below 0": (["basis", "k(3)", "--n", "-1"], "--n must be non-negative"),
    "gamma --n below 0": (["gamma", "k(3)", "--n", "-1"], "--n must be non-negative"),
    "--prec below the coefficients": (["invert", "k(3)", "--coeffs", "1,3,0", "--prec", "2"],
                                      "--prec must cover the given coefficients"),
    "--coeffs 1e5000": (["invert", "k(3)", "--coeffs", "1e5000"], f"bad --coeffs value: '1e5000' {EXPONENT}"),
    "--coeffs 1E3": (["invert", "k(3)", "--coeffs", "1,1E3"], f"bad --coeffs value: '1E3' {EXPONENT}"),
    "--coeffs 2.5e-1": (["invert", "k(3)", "--coeffs", "2.5e-1"], f"bad --coeffs value: '2.5e-1' {EXPONENT}"),
    "prime above the bound": (["basis", f"k({HUGE_PRIME})", "--n", "1"], ABOVE_THE_BOUND),
    "node base above the bound": (["check", "G(999999999959)", "--l", "1"], BASE_ABOVE_THE_BOUND),
}


@pytest.mark.parametrize("argv, reason", CLI.values(), ids=CLI.keys())
def test_cli_refusal_exits_2_with_its_reason(argv, reason, capsys):
    out = io.StringIO()
    assert cli.run(argv, out=out) == 2
    err = capsys.readouterr().err
    assert out.getvalue() == "" and err == f"error: {reason}\n"


def test_cli_reads_literals_without_an_exponent():
    # 1 plus 3-adic multiples of 3: a unit of the dual algebra of k(3)
    out = io.StringIO()
    assert cli.run(["invert", "k(3)", "--coeffs", " 1 ,3/2,-3,0.75", "--format", "json"], out=out) == 0
    assert json.loads(out.getvalue())["precision"] == 4


@pytest.mark.parametrize("argv", [["basis", f"k({HUGE_PRIME})", "--n", "1"],
                                  ["check", "G(999999999959)", "--l", "1"],
                                  ["invert", "k(3)", "--coeffs", "1e5000"]],
                         ids=["huge prime", "huge node base", "1e5000"])
def test_absurd_input_is_refused_at_once_in_a_fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ktops.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("name", ["rationals", "laurent", "coalgebra", "dual", "spectra", "checks", "modules", "cli"])
def test_each_submodule_imports_alone_without_site_packages(name):
    # the package re-exports nothing: a submodule loads what it imports
    # itself, and the CLI never loads the module tables
    code = f"import sys, ktops.{name}; print(*sorted(m for m in sys.modules if m.startswith('ktops')))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert f"ktops.{name}" in loaded
    assert name == "modules" or "ktops.modules" not in loaded, loaded


# verify_regularity's failure branches, each report against the Fraction route


def _misses_a_slot() -> CoalgebraSpec:
    """The monomial basis with element 3 = 1 + w**2, which misses slot 3."""
    return CoalgebraSpec(1, lambda n: (1, {0: 1, 2: 1} if n == 3 else {n: 1}), prime=3, name="slot")


def _doped_diagonal() -> CoalgebraSpec:
    """binomial(w, n) at 3 with coordinate 2 of w**2 doubled in the memo, 4 for 2."""
    C = binomial_coalgebra(3)
    d, nz = C._int_coords(2)
    assert (d, nz) == (1, ((1, 1), (2, 2)))
    C._icoords[2] = (1, ((1, 1), (2, 4)))
    return C


def test_regularity_stops_at_a_basis_that_misses_its_extending_slot():
    report = verify_regularity(_misses_a_slot(), 6)
    assert report == regularity_by_fractions(_misses_a_slot(), 6)
    assert not report.ok and len(report.checks) == 1
    assert report.summary() == "basis shape: FAIL (n=3: element 3 misses its extending slot; not a regular basis)"


def test_regularity_names_a_failing_diagonal_identity():
    report = verify_regularity(_doped_diagonal(), 6)
    assert report == regularity_by_fractions(_doped_diagonal(), 6)
    assert report.summary().splitlines() == [
        "basis shape: ok",
        "monomial coordinates integral: ok",
        "coproduct constants integral: FAIL (element 4, entry (1,2): 11/12)",
        "diagonal identity: FAIL (element 2: diagonal product 4 != 2)",
        "last column matches monomial coordinates: FAIL (entry (1,2) of element 2: 2 != coordinate 1)",
        "counit law: FAIL (element 2, index 2: counit sums (2, 2))",
    ]
