from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktops.laurent import LaurentPoly, PoleError
from oracles import (
    NotDivisibleError,
    alternating_powers,
    exact_divide,
    geometric_powers,
    newton_coeffs,
    theta,
    theta_coords,
)

COEFF = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def poly_strategy(min_exp=-4, max_exp=6):
    return st.dictionaries(
        st.integers(min_value=min_exp, max_value=max_exp), COEFF, max_size=6
    ).map(LaurentPoly)


def test_construction_drops_zeros():
    f = LaurentPoly({2: Fraction(0), 1: Fraction(3)})
    assert set(f.support) == {1}
    assert f.coeff(2) == 0
    assert f.coeff(1) == 3


def test_rejects_floats():
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.5})


def test_arithmetic_oracle():
    w = LaurentPoly.variable()
    f = (w - 1) * (w - 2)
    assert f == LaurentPoly({2: 1, 1: -3, 0: 2})
    assert f(3) == Fraction(2)
    assert f(1) == 0
    assert f == w ** 2 - 3 * w + 2
    assert LaurentPoly.monomial(-1) * w == LaurentPoly.one()


def test_negative_exponent_evaluation_at_zero():
    f = LaurentPoly.monomial(-1)
    with pytest.raises(PoleError):
        f(0)


def test_negative_power_rejected():
    w = LaurentPoly.variable()
    with pytest.raises(ValueError):
        w ** -2  # noqa: B018


@settings(max_examples=60)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=60)
@given(poly_strategy(), poly_strategy(), st.fractions(min_value=-20, max_value=20, max_denominator=10))
def test_evaluation_is_ring_map(f, g, x):
    if x == 0 and ((f and f.low < 0) or (g and g.low < 0)):
        return
    assert (f * g)(x) == f(x) * g(x)
    assert (f + g)(x) == f(x) + g(x)


def test_substitute_power():
    f = LaurentPoly({2: 1, 0: -1})
    assert f.substitute_power(3) == LaurentPoly({6: 1, 0: -1})
    assert f.shift(-2) == LaurentPoly({0: 1, -2: -1})


def test_exact_divide_roundtrip():
    w = LaurentPoly.variable()
    f = (w - 1) * (w - 3) * (w + 2)
    assert exact_divide(f, w - 3) == (w - 1) * (w + 2)
    with pytest.raises(NotDivisibleError):
        exact_divide(f, w - 5)


def test_geometric_powers_oracle():
    z = geometric_powers(2)
    assert [z(i) for i in range(1, 6)] == [1, 2, 4, 8, 16]


def test_alternating_powers_oracle():
    # exponents 0, 1, -1, 2, -2
    z = alternating_powers(2)
    assert [z(i) for i in range(1, 6)] == [1, 2, Fraction(1, 2), 4, Fraction(1, 4)]


def test_theta_oracle():
    w = LaurentPoly.variable()
    z = geometric_powers(2)
    assert theta(0, z) == LaurentPoly.one()
    assert theta(1, z) == w - 1
    assert theta(2, z) == (w - 1) * (w - 2)
    assert theta(3, z) == (w - 1) * (w - 2) * (w - 4)


def test_theta_is_monic_of_degree_n():
    z = alternating_powers(3)
    for n in range(1, 6):
        t = theta(n, z)
        assert t.degree == n
        assert t.coeff(n) == 1


def test_newton_coeffs_reconstruct():
    w = LaurentPoly.variable()
    z = geometric_powers(3)
    f = 2 * w ** 3 - w + 5
    cs = newton_coeffs(f, z, 6)
    rebuilt = sum(
        (c * theta(i, z) for i, c in enumerate(cs)), LaurentPoly.zero()
    )
    assert rebuilt == f


def test_theta_coords_oracle():
    z = geometric_powers(2)
    w = LaurentPoly.variable()
    coords = theta_coords(w ** 2, z)
    assert len(coords) == 3
    assert sum((coords[i] * theta(i, z) for i in range(3)), LaurentPoly.zero()) == w ** 2
    with pytest.raises(ValueError):
        theta_coords(LaurentPoly.monomial(-1), z)
