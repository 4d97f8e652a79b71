"""Acceptance gate: the nine headline checks, one test each.

Run with -v to get one pass/fail line per criterion.  Everything here
is exact arithmetic; nothing is stubbed or sampled down below the
stated ranges.
"""
import random
import time
from fractions import Fraction
from itertools import islice

import pytest

from ktops.checks import (
    check_congruence_condition,
    check_gamma_transfer,
    check_unit_condition,
)
from ktops.coalgebra import verify_regularity
from ktops.dual import (
    DualElement,
    NotInvertibleError,
    algebra_one,
    expand,
    invert,
    multiply,
)
from ktops.laurent import LaurentPoly
from ktops.modules import (
    character_module,
    comodule_on_basis,
    to_comodule,
    torsion_annihilator,
    trivial_module,
    validate_module,
)
from ktops.rationals import nu
from ktops.spectra import (
    admissible_shifts,
    dual_theta_basis,
    make_spectrum,
    spectrum_names,
)
from oracles import product_identity_holds

THETA_SPECS = ("k(3)", "K(3)", "g(3)", "G(3)", "ko(2)", "KO(2)")
DUALITY_SPECS = THETA_SPECS + ("k(5)", "K(5)", "g(5)", "G(5)")


def test_criterion_1_regularity_all_eight_to_24():
    start = time.monotonic()
    for name in spectrum_names(3):
        report = verify_regularity(make_spectrum(name).coalgebra, 24)
        assert report.ok, f"{name}: {report.summary()}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 1 PASS: eight coalgebras regular to index 24 ({elapsed:.1f}s)")


def test_criterion_2_duality_to_16():
    for name in DUALITY_SPECS:
        sp = make_spectrum(name)
        delta = [tuple(Fraction(1 if m == n else 0) for m in range(17)) for n in range(17)]
        for n in range(17):
            e = expand(sp.coalgebra, dual_theta_basis(sp, n), 17)
            assert e.coeffs == delta[n], (name, n)
    print("criterion 2 PASS: theta duals biorthogonal for n, m <= 16 on ten spec instances")


def test_criterion_3_two_adic_valuation_closed_form():
    for i in range(1, 65):
        direct = nu(2, 3 ** i - 1)
        closed = 1 if i % 2 else 2 + nu(2, i)
        assert direct == closed, i
    print("criterion 3 PASS: closed form matches direct valuations for i <= 64")


def test_criterion_4_product_identity_symbolic():
    # node bases 2, 4, 9 and 16, each with geometric and alternating nodes
    for name in THETA_SPECS + ("g(5)", "G(5)"):
        sp = make_spectrum(name)
        for m in range(9):
            for n in range(9):
                assert product_identity_holds(sp, m, n), (name, m, n)
    print("criterion 4 PASS: factorization identity holds for m, n <= 8 over eight node sequences")


def test_criterion_5_conditions_hold_with_negative_controls():
    control_failures = 0
    for name in THETA_SPECS:
        sp = make_spectrum(name)
        for l in (1, 2, 3):
            shifts = list(islice(admissible_shifts(sp, l), 5))
            for a in range(5):
                for b in range(a + 1, 5):
                    v = check_unit_condition(sp, shifts[a], shifts[b])
                    assert v.holds and v.exact, (name, l, shifts[a], shifts[b])
            for m in shifts:
                for n in range(13):
                    v = check_congruence_condition(sp, m, n, l)
                    assert v.holds and v.exact, (name, l, m, n)
            # adversarial controls: shifts just off the admissible set
            step = shifts[0]
            if step > 1:
                for m in (step - 1, step + 1):
                    for n in (1, 2, 3):
                        v = check_congruence_condition(sp, m, n, l)
                        if not v.holds:
                            control_failures += 1
    assert control_failures >= 1
    print(f"criterion 5 PASS: all sampled cells hold; {control_failures} control cells fail as required")


def test_criterion_6_structure_constant_transfer():
    k2 = make_spectrum("k(2)")
    ko2 = make_spectrum("ko(2)")
    sweep = check_gamma_transfer(k2, ko2, 6)
    assert sweep.holds, sweep.mismatches[:3]
    # bridge identity on the basis itself, m <= 8
    w = LaurentPoly.variable()
    C = k2.coalgebra
    for m in range(9):
        lhs = C.basis_poly(2 * m) * w
        rhs = (3 ** m) * C.basis_poly(2 * m) - (2 * 3 ** m) * C.basis_poly(2 * m + 1)
        assert lhs == rhs, m
    print(f"criterion 6 PASS: both transfer formulas match on {sweep.cells} cells; bridge identity to m = 8")


def _random_unit(rng, spec, prec):
    p = spec.prime
    coeffs = [Fraction(rng.choice((1, -1, 1 + p, -1 + 2 * p)))]
    for _ in range(prec - 1):
        den = rng.choice([d for d in (1, 2, 5, 7) if d % p])
        coeffs.append(Fraction(p * rng.randint(-9, 9), den))
    return DualElement(coeffs)


def test_criterion_7_invert_twenty_units():
    rng = random.Random(20260819)
    for name in ("k(3)", "KO(2)"):
        sp = make_spectrum(name)
        C = sp.coalgebra
        one = algebra_one(C, 12)
        for _ in range(10):
            a = _random_unit(rng, sp, 12)
            inv = invert(C, a)
            assert multiply(C, a, inv) == one
            assert multiply(C, inv, a) == one
    # the standard non-unit is rejected with the monomial slot named
    C3 = make_spectrum("k(3)").coalgebra
    with pytest.raises(NotInvertibleError) as e:
        invert(C3, DualElement((1, -1, 0, 0)))
    assert e.value.slot == 1
    print("criterion 7 PASS: twenty units inverted exactly at precision 12; non-unit rejected at slot 1")


def test_criterion_8_algebra_laws_random():
    rng = random.Random(11)
    specs = [make_spectrum("k(3)").coalgebra, make_spectrum("KO(2)").coalgebra]
    for trial in range(100):
        C = specs[trial % 2]
        p = C.prime
        prec = rng.randint(3, 12)

        def rand_vec():
            dens = [d for d in (1, 2, 3, 5) if d % p]
            return DualElement(
                tuple(Fraction(rng.randint(-20, 20), rng.choice(dens)) for _ in range(prec))
            )

        a, b, c = rand_vec(), rand_vec(), rand_vec()
        assert multiply(C, multiply(C, a, b), c) == multiply(C, a, multiply(C, b, c))
        one = algebra_one(C, prec)
        assert multiply(C, a, one) == a
        assert multiply(C, one, a) == a
    print("criterion 8 PASS: associativity and unitality on 100 random triples")


def test_criterion_9_module_roundtrip_and_annihilators():
    k3 = make_spectrum("k(3)")
    ko = make_spectrum("ko(2)")
    inventory = []
    for sp in (k3, ko):
        p = sp.prime
        C = sp.coalgebra
        inventory.append((sp, trivial_module(p, 2, (p, p * p), level=3)))
        for slot in (1, 2, 3):
            inventory.append((sp, character_module(C, slot)))
        inventory.append((sp, comodule_on_basis(C, 3)))
    assert len(inventory) == 10

    torsion_examples = 0
    for sp, mod in inventory:
        C = sp.coalgebra
        assert validate_module(mod, C), (sp.name, mod)
        table = to_comodule(mod, C)
        for i in range(mod.level):
            assert table.action_matrix(i) == mod.matrices[i]
        if mod.torsion_orders:
            torsion_examples += 1
            # the search always ends at the level; the criterion asks for
            # a witness among the first ten shifts
            for s in (1, 2):
                assert torsion_annihilator(mod, sp, s).witness in islice(admissible_shifts(sp, s), 10)
    assert torsion_examples == 2
    print("criterion 9 PASS: ten modules roundtrip exactly; torsion annihilators found within ten shifts")
