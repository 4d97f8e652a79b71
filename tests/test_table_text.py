"""The two views of a Gamma table: Fractions and the text they print as.

Both come from one loop per table route, which hands every nonzero entry
to a maker as integers, (num, den) or num alone.  coproduct_text must
write exactly what str writes for each Fraction of coproduct_matrix, and
every zero of coproduct_matrix must be the one shared Fraction(0), which
the oracle regularity_by_fractions (tests/oracles.py) skips by identity.
verify_regularity reads a third view, integer pairs from the same loop.
"""
import contextlib
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ktops import coalgebra
from ktops.coalgebra import ThetaCoalgebra, binomial_coalgebra, monomial_coalgebra
from ktops.spectra import make_spectrum, spectrum_names

TOP = 24
USER = {
    "binomial": binomial_coalgebra,
    "monomial": lambda: monomial_coalgebra(step=2, prime=3),
    "monomial-periodic": lambda: monomial_coalgebra(step=2, prime=3, periodic=True),
    # on a negative base an odd power of b is a negative denominator
    "theta(-3) at 2": lambda: ThetaCoalgebra(-3, 1, prime=2),
    "theta(-3) at 2, periodic": lambda: ThetaCoalgebra(-3, 1, prime=2, periodic=True),
    "theta(-2) at 3": lambda: ThetaCoalgebra(-2, 1, prime=3),
    "theta(-2) at 3, periodic": lambda: ThetaCoalgebra(-2, 1, prime=3, periodic=True),
}
NAMES = list(dict.fromkeys(spectrum_names(3) + spectrum_names(5))) + list(USER)


def _coalgebra(name):
    """A fresh coalgebra, so its tables are built from empty."""
    return USER[name]() if name in USER else make_spectrum(name).coalgebra


@contextlib.contextmanager
def _no_digit_limit():
    get = getattr(sys, "get_int_max_str_digits", None)
    old = get() if get else None
    if get:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if get:
            sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("name", NAMES)
def test_text_view_is_str_of_the_fraction_view(name):
    C = _coalgebra(name)
    for n in range(TOP + 1):
        text = C.coproduct_text(n)
        assert text == tuple(tuple(str(v) for v in row) for row in C.coproduct_matrix(n)), (name, n)
        # each mirrored pair is rendered once
        assert all(text[i][j] is text[j][i] for i in range(n + 1) for j in range(i)), (name, n)


def test_text_view_is_not_memoised():
    C = make_spectrum("K(3)").coalgebra
    assert C.coproduct_text(5) == C.coproduct_text(5)
    assert C._gamma == {}


@pytest.mark.parametrize("name", ["k(3)", "KO(2)", "K(2)", "binomial"])
def test_every_zero_entry_is_the_shared_zero(name):
    C = _coalgebra(name)
    zeros = 0
    for n in range(13):
        for row in C.coproduct_matrix(n):
            for v in row:
                if v == 0:
                    assert v is coalgebra._ZERO, (name, n)
                    zeros += 1
    assert zeros


BIG = 10 ** 4999  # 5,000 digits
INTS = st.one_of(st.integers(), st.integers(min_value=-10 * BIG, max_value=10 * BIG))


@settings(max_examples=200, deadline=None)
@given(num=INTS, den=INTS.filter(bool))
@example(num=0, den=7)
@example(num=0, den=-5)
@example(num=12, den=1)
@example(num=-12, den=1)
@example(num=-12, den=8)
@example(num=12, den=-8)
@example(num=-BIG - 1, den=-1)
@example(num=3 * BIG, den=-(6 * BIG + 3))
@example(num=BIG * 7 ** 40, den=-(7 ** 41))
def test_text_maker_agrees_with_str_of_fraction(num, den):
    with _no_digit_limit():
        assert coalgebra._fraction_text(num, den) == str(Fraction(num, den))
        assert coalgebra._fraction_text(num) == str(num)
