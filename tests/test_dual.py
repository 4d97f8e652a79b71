import random
from fractions import Fraction

import pytest

from ktops.dual import (
    AdamsPoly,
    DualElement,
    NotIntegralError,
    NotInvertibleError,
    PrecisionError,
    algebra_one,
    expand,
    invert,
    is_unit,
    monomial_pairing,
    multiply,
)
from ktops.coalgebra import NotRegularError
from ktops.laurent import LaurentPoly
from ktops.spectra import dual_theta_basis, make_spectrum
from oracles import pair

K3 = make_spectrum("k(3)").coalgebra
KO = make_spectrum("KO(2)").coalgebra


def test_pair_against_basis():
    # <a relation>: pairing a dual vector against c_n picks coefficient n
    a = DualElement((1, 2, Fraction(1, 2), 0))
    for n in range(4):
        assert pair(K3, a, K3.basis_poly(n)) == a.coeffs[n]


def test_pair_errors_name_the_top_slot_and_refuse_first():
    # the top slot alone sets the precision f needs; a monomial outside
    # the coalgebra is refused before any pairing is tried
    a = DualElement((1, 2))
    with pytest.raises(PrecisionError, match="slot 5 needs 6 coefficients"):
        pair(K3, a, K3.basis_poly(5))
    with pytest.raises(NotRegularError):
        pair(K3, a, LaurentPoly({5: 1, -1: 1}))


def test_pair_against_monomial_uses_coords():
    a = DualElement((1, 1, 0, 0))
    lam = K3.basis_coords(2)
    want = sum((a.coeffs[n] * lam[n] for n in range(3)), Fraction(0))
    assert pair(K3, a, LaurentPoly.monomial(2)) == want
    assert monomial_pairing(K3, a, 2) == want


def test_expand_adams_operation():
    # the degree-raising operation of exponent 1 is dual to w: coefficients
    # are the coordinates of w in the basis, evaluated... psi^q pairs to q^k
    psi = AdamsPoly(Fraction(2), LaurentPoly.variable())  # evaluation at 2
    e = expand(K3, psi, 6)
    # <psi, c_n> = c_n(2); c_0 = 1, c_1 = (w-1) -> 1, c_2 = (w-1)(w-2)/6 -> 0
    assert e.coeffs[0] == 1
    assert e.coeffs[1] == 1
    assert all(v == 0 for v in e.coeffs[2:])


def test_expand_rejects_non_integral():
    # evaluation at a non-unit would give fractional coefficients
    bad = AdamsPoly(Fraction(2), LaurentPoly.monomial(0, Fraction(1, 3)))
    with pytest.raises(NotIntegralError):
        expand(K3, bad, 4)


def test_multiply_matches_functional_product():
    # multiply must agree with expanding the product of two evaluations
    f = AdamsPoly(Fraction(2), LaurentPoly.variable())          # psi
    g = AdamsPoly(Fraction(2), LaurentPoly.variable() ** 2)     # psi^2
    a, b = expand(K3, f, 8), expand(K3, g, 8)
    prod = expand(K3, AdamsPoly(Fraction(2), LaurentPoly.variable() ** 3), 8)
    assert multiply(K3, a, b) == prod


def test_multiply_min_precision():
    a = DualElement((1, 2, 3))
    b = DualElement((1, 1))
    assert multiply(K3, a, b).precision == 2


def test_algebra_one_is_identity():
    one = algebra_one(K3, 8)
    a = DualElement(tuple(Fraction(i + 1, 1) for i in range(8)))
    assert multiply(K3, one, a) == a
    assert multiply(K3, a, one) == a


def test_unit_verdict_exact_mode():
    one_plus = DualElement((1, 3, 0, 0, 0, 0))
    v = is_unit(K3, one_plus)
    assert v.unit
    minus = DualElement((1, -1, 0, 0, 0, 0))
    v = is_unit(K3, minus)
    assert not v.unit
    assert v.witness == 1


def test_unit_verdict_exact_mode_at_two():
    # one order computation serves p = 2: 9 = 1 mod 2, so the period is 1;
    # with psi the cube operation, psi + 2 is a unit on KO(2), psi - 1 is not
    psi = LaurentPoly.variable()
    v = is_unit(KO, AdamsPoly(Fraction(3), psi + 2), mode="exact")
    assert v.unit and v.exact and v.period == 1
    v = is_unit(KO, AdamsPoly(Fraction(3), psi - 1), mode="exact")
    assert not v.unit and v.exact and v.witness == 0 and v.period == 1


def test_invert_round_trip():
    a = DualElement((1, 3, 0, 9, 0, 0, 0, 0))
    inv = invert(K3, a)
    assert multiply(K3, a, inv) == algebra_one(K3, 8)
    assert multiply(K3, inv, a) == algebra_one(K3, 8)


def test_invert_rejects_known_non_unit():
    a = DualElement((1, -1, 0, 0))
    with pytest.raises(NotInvertibleError) as e:
        invert(K3, a)
    assert e.value.slot == 1
    assert e.value.pivot == 0


def test_invert_periodic_side():
    a = DualElement((1, 0, 2, 0, 0, 0, 0, 0))
    inv = invert(KO, a)
    assert multiply(KO, a, inv) == algebra_one(KO, 8)


def test_duality_peek():
    # dual theta elements expand to coordinate vectors
    sp = make_spectrum("k(3)")
    for n in range(5):
        e = expand(sp.coalgebra, dual_theta_basis(sp, n), 6)
        assert e.coeffs == tuple(Fraction(1 if m == n else 0) for m in range(6))


def test_associativity_random():
    rng = random.Random(7)

    def rand_elt(prec):
        return DualElement(
            tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))) for _ in range(prec))
        )

    for _ in range(20):
        a, b, c = (rand_elt(8) for _ in range(3))
        left = multiply(K3, multiply(K3, a, b), c)
        right = multiply(K3, a, multiply(K3, b, c))
        assert left == right
