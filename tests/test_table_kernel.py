"""The integer table kernel against the Fraction oracles in oracles.py."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktops.coalgebra import NotRegularError, binomial_coalgebra, monomial_coalgebra
from ktops.laurent import LaurentPoly, geometric_powers, theta
from ktops.spectra import make_spectrum, spectrum_names
from oracles import coords_by_clearing, coproduct_by_fraction_loop, monomial_coords_by_clearing

SPECTRA = list(dict.fromkeys(spectrum_names(3) + spectrum_names(5) + ["G(7)"]))
OTHERS = {
    "binomial": binomial_coalgebra,
    "monomial": lambda: monomial_coalgebra(step=2, prime=3),
    "monomial-periodic": lambda: monomial_coalgebra(step=2, prime=3, periodic=True),
}
SWEEP = SPECTRA + list(OTHERS)


def _coalgebra(name):
    """A fresh coalgebra, so every table is built by the kernel from empty."""
    if name in OTHERS:
        return OTHERS[name]()
    return make_spectrum(name).coalgebra


@pytest.mark.parametrize("name", SWEEP)
def test_basis_coords_match_clearing_oracle(name):
    C = _coalgebra(name)
    for k in C.monomial_slots(16):
        coords = C.basis_coords(k)
        assert coords == monomial_coords_by_clearing(C, k), k
        assert all(type(v) is Fraction for v in coords)


@pytest.mark.parametrize("name", SWEEP)
def test_coproduct_matches_fraction_loop_oracle(name):
    C = _coalgebra(name)
    for n in range(13):
        g = C.coproduct_matrix(n)
        assert g == coproduct_by_fraction_loop(C, n), n
        assert all(type(v) is Fraction for row in g for v in row)


def _theta_element(b, step, n):
    num = theta(n, geometric_powers(b))
    return num.substitute_power(step) * (1 / num(Fraction(b) ** n))


@pytest.mark.parametrize("name", [n for n in SPECTRA if make_spectrum(n).base is not None])
def test_memoised_theta_basis_matches_theta(name):
    sp = make_spectrum(name)
    C = sp.coalgebra
    # top index first: the lower ones are then read from the memo
    for n in range(16, -1, -1):
        want = _theta_element(sp.base, sp.step, n)
        if sp.periodic:
            want = want.shift(-sp.step * (n // 2))
        assert C.basis_poly(n) == want, n


@pytest.mark.parametrize("name", ["k(2)", "K(2)"])
def test_memoised_theta_basis_in_interleaved_bases(name):
    C = make_spectrum(name).coalgebra
    for n in range(16, -1, -2):
        want = _theta_element(9, 2, n // 2)
        if C.periodic:
            want = want.shift(-(n // 2))
        assert C.basis_poly(n) == want, n


@pytest.mark.parametrize("name", ["k(3)", "G(5)", "binomial"])
def test_coords_of_refuses_what_the_oracle_refuses(name):
    C = _coalgebra(name)
    bad = [LaurentPoly.monomial(-C.step)] if not C.periodic else []
    if C.step > 1:
        bad.append(LaurentPoly({C.step: 1, 1: Fraction(1, 2)}))
    for f in bad:
        with pytest.raises(NotRegularError):
            coords_by_clearing(C, f)
        with pytest.raises(NotRegularError):
            C.coords_of(f)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SWEEP),
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=9),
        min_size=1, max_size=9,
    ),
)
def test_coords_of_recovers_combination(name, coeffs):
    C = _coalgebra(name)
    f = sum((a * C.basis_poly(n) for n, a in enumerate(coeffs)), LaurentPoly.zero())
    want = list(coeffs)
    while want and not want[-1]:
        want.pop()
    assert C.coords_of(f) == tuple(want)
