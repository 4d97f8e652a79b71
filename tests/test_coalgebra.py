from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktops.coalgebra import (
    CoalgebraSpec,
    NotRegularError,
    binomial_coalgebra,
    monomial_coalgebra,
    verify_regularity,
)
from ktops.laurent import LaurentPoly
from ktops.spectra import make_spectrum
from oracles import coproduct_by_solve


def test_binomial_coalgebra_regular():
    C = binomial_coalgebra(prime=3)
    assert verify_regularity(C, 8).ok


def test_monomial_coalgebra_regular():
    for periodic in (False, True):
        C = monomial_coalgebra(step=2, prime=3, periodic=periodic)
        assert verify_regularity(C, 8).ok


def _binom(x, n):
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(x - i, i + 1)
    return out


def test_binomial_coproduct_expands_binom_of_product():
    # the coproduct doubles the variable multiplicatively, so the
    # structure constants must satisfy
    # binom(xy, n) = sum_{i,j} Gamma_ij^n binom(x,i) binom(y,j)
    C = binomial_coalgebra()
    for n in range(6):
        m = C.coproduct_matrix(n)
        for x in (2, 3, 7):
            for y in (1, 4, 5):
                total = Fraction(0)
                for i in range(n + 1):
                    for j in range(n + 1):
                        total += m[i][j] * _binom(x, i) * _binom(y, j)
                assert total == _binom(x * y, n)


def test_binomial_counit_hits_two_slots():
    # binom(1,0) = binom(1,1) = 1 and higher ones vanish
    C = binomial_coalgebra()
    values = [C.counit_value(n) for n in range(5)]
    assert values == [1, 1, 0, 0, 0]


def test_monomial_form_oracle_connective():
    C = make_spectrum("k(3)").coalgebra
    # c_2 = (w-1)(w-2)/((4-1)(4-2)) = (w^2-3w+2)/6
    assert C.basis_poly(2) == LaurentPoly({2: Fraction(1, 6), 1: Fraction(-1, 2), 0: Fraction(1, 3)})
    d, lam = C.monomial_form(2)
    assert d == 6
    assert lam == {2: 1, 1: -3, 0: 2}


def test_basis_coords_oracle():
    C = make_spectrum("k(3)").coalgebra
    # w^2 = 2 + 3*(w-1)/1 ... coordinates solve w^2 = sum Lambda_n c_n
    coords = C.basis_coords(2)
    total = LaurentPoly.zero()
    for n, v in enumerate(coords):
        total = total + v * C.basis_poly(n)
    assert total == LaurentPoly.monomial(2)
    # leading coordinate is the denominator of the top basis element
    assert coords[2] == 6
    assert coords[0] == 1


def test_coproduct_oracle_k3():
    C = make_spectrum("k(3)").coalgebra
    m = C.coproduct_matrix(1)
    assert m == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))


def test_coproduct_matches_dense_solve():
    for name in ("k(3)", "K(3)", "g(3)", "ko(2)", "k(2)", "K(2)"):
        C = make_spectrum(name).coalgebra
        for n in range(9):
            assert C.coproduct_matrix(n) == coproduct_by_solve(C, n)


def test_coproduct_symmetric():
    # every stock coalgebra here is cocommutative: Gamma_ij^n = Gamma_ji^n
    for name in ("k(3)", "G(3)", "ko(2)", "K(2)"):
        C = make_spectrum(name).coalgebra
        for n in range(6):
            m = C.coproduct_matrix(n)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert m[i][j] == m[j][i]


def test_counit_law_on_coproduct():
    # (eps (x) id) Delta c_n = c_n: sum_i eps(c_i) Gamma_ij^n = delta_jn
    for name in ("k(3)", "K(5)", "g(5)", "ko(2)"):
        C = make_spectrum(name).coalgebra
        for n in range(6):
            m = C.coproduct_matrix(n)
            for j in range(n + 1):
                total = sum((C.counit_value(i) * m[i][j] for i in range(n + 1)), Fraction(0))
                assert total == (1 if j == n else 0)


def test_grouplike_monomial():
    # w^k = sum lam_n c_n and Delta w^k = w^k (x) w^k force
    # sum_n lam_n Gamma_ij^n = lam_i lam_j
    C = make_spectrum("k(3)").coalgebra
    lam = C.basis_coords(3)
    bound = len(lam) - 1
    for i in range(bound + 1):
        for j in range(bound + 1):
            total = Fraction(0)
            for n in range(max(i, j), bound + 1):
                total += lam[n] * C.coproduct_matrix(n)[i][j]
            assert total == lam[i] * lam[j]


def test_irregular_basis_rejected():
    # c_1 misses the constant term window ... never contains w^0 monomial
    def basis(n):
        return LaurentPoly.monomial(n + 1) if n else LaurentPoly.one()

    C = CoalgebraSpec(step=1, basis=basis, prime=3, name="broken")
    with pytest.raises(NotRegularError):
        C.basis_poly(1)


def test_corrupted_basis_caught_by_regularity():
    good = make_spectrum("k(3)").coalgebra

    # scaling one element in either direction must be caught; note the
    # monomial coordinates stay integral under the 1/3 scaling (they
    # just pick up the 3), so the catch comes from the coproduct table
    for scale in (Fraction(3), Fraction(1, 3)):
        def corrupt(n, scale=scale):
            f = good.basis_poly(n)
            return f * scale if n == 2 else f

        C = CoalgebraSpec(step=1, basis=corrupt, prime=3, name="corrupted")
        report = verify_regularity(C, 6)
        assert not report.ok
        bad = [c.name for c in report.checks if not c.ok]
        assert "coproduct constants integral" in bad


def test_eight_stock_coalgebras_regular_small():
    from ktops.spectra import spectrum_names

    for name in spectrum_names(3):
        C = make_spectrum(name).coalgebra
        assert verify_regularity(C, 8).ok, name


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=2, max_value=40))
def test_binomial_coproduct_identity_random(n, x):
    C = binomial_coalgebra()
    m = C.coproduct_matrix(n)
    total = Fraction(0)
    for i in range(n + 1):
        for j in range(n + 1):
            total += m[i][j] * _binom(x, i) * _binom(x + 1, j)
    assert total == _binom(x * (x + 1), n)
