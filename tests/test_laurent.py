import io
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktops import cli
from ktops.coalgebra import verify_regularity
from ktops.dual import AdamsPoly, expand, is_unit
from ktops.laurent import LaurentPoly
from ktops.spectra import dual_theta_basis, make_spectrum
from oracles import (
    NotDivisibleError,
    PoleError,
    alternating_powers,
    evaluate,
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
    assert evaluate(f, 3) == Fraction(2)
    assert evaluate(f, 1) == 0
    assert f == w ** 2 - 3 * w + 2
    assert LaurentPoly.monomial(-1) * w == LaurentPoly.one()


def test_negative_exponent_evaluation_at_zero():
    f = LaurentPoly.monomial(-1)
    with pytest.raises(PoleError):
        evaluate(f, 0)


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
    assert evaluate(f * g, x) == evaluate(f, x) * evaluate(g, x)
    assert evaluate(f + g, x) == evaluate(f, x) + evaluate(g, x)


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


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__pow__")


def test_library_routes_do_no_laurent_arithmetic(monkeypatch):
    # the library builds, reads and renders LaurentPolys but never computes
    # with them: every CLI command, expansion, unit test and regularity
    # sweep runs with the arithmetic switched off
    sp = make_spectrum("k(3)")
    unit = AdamsPoly(sp.q, 1 + 3 * LaurentPoly.variable())

    def refuse(*args):
        raise AssertionError("a library route did LaurentPoly arithmetic")

    for name in ARITHMETIC:
        monkeypatch.setattr(LaurentPoly, name, refuse)
    runs = [[cmd, s, "--n", "4"] for cmd in ("basis", "gamma") for s in ("k(3)", "KO(2)", "K(2)")]
    runs += [["product", s, "--i", "1", "--j", "2", "--prec", "5"] for s in ("k(3)", "k(2)")]
    runs += [["invert", s, "--coeffs", "1,3", "--prec", "6"] for s in ("K(3)", "K(2)")]
    runs += [["check", s, "--l", "2"] for s in ("k(3)", "G(5)", "K(2)")]
    runs += [["val2", "--max", "16"], ["gamma-transfer", "--max", "6"]]
    for argv in runs:
        for fmt in ("json", "tsv", "pretty"):
            assert cli.run(argv + ["--format", fmt], out=io.StringIO()) in (0, 1), argv
    for name in ("k(3)", "KO(2)", "G(5)"):
        s = make_spectrum(name)
        assert expand(s.coalgebra, dual_theta_basis(s, 6), 10).coeffs[6] == 1
    assert is_unit(sp.coalgebra, unit).unit
    for name in ("k(3)", "K(2)"):
        assert verify_regularity(make_spectrum(name).coalgebra, 12).ok


@pytest.mark.parametrize("coeffs, text", [
    ({}, "0"),
    ({0: -1}, "-1"),
    ({0: Fraction(-3, 6)}, "-1/2"),
    ({1: 1}, "w"),
    ({1: -1}, "-w"),
    ({2: Fraction(-1, 3), 1: 1, 0: Fraction(5, 2), -1: -1}, "-1/3*w^2 + w + 5/2 - w^-1"),
    ({4: Fraction(1, 15), 0: Fraction(-1, 15)}, "1/15*w^4 - 1/15"),
    ({-4: 7, 3: Fraction(-2, 9)}, "-2/9*w^3 + 7*w^-4"),
])
def test_render_writes_each_term_reduced_over_one_denominator(coeffs, text):
    # signs between terms, the sign of the first term only when it is -,
    # each coefficient reduced, and no coefficient 1 before a power of w
    assert str(LaurentPoly(coeffs)) == text
