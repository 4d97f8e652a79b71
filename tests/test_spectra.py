from fractions import Fraction
from itertools import islice

import pytest

from ktops.coalgebra import ThetaCoalgebra
from ktops.dual import AdamsPoly, expand
from ktops.laurent import LaurentPoly
from ktops.rationals import _int_valuation
from ktops.spectra import (
    SpectrumSpec,
    admissible_shifts,
    dual_theta_basis,
    make_spectrum,
    parse_name,
    spectrum_names,
    support_step,
)
from oracles import integer_nodes, product_nodes as fraction_nodes, support_step_table, theta

W = LaurentPoly.variable()


def test_parse_name():
    assert parse_name("k(3)") == ("k", 3)
    assert parse_name("KO") == ("KO", 2)
    assert parse_name("G(5)") == ("G", 5)
    with pytest.raises(ValueError):
        parse_name("zz(7)")


def test_name_validation():
    with pytest.raises(ValueError):
        make_spectrum("k(4)")
    with pytest.raises(ValueError):
        make_spectrum("ko(3)")
    with pytest.raises(ValueError):
        make_spectrum("g(2)")
    with pytest.raises(ValueError):
        make_spectrum("k(3)", q=4)  # 4 = 2^2 is not a generator mod 9
    with pytest.raises(ValueError):
        make_spectrum("ko(2)", q=5)  # 2-local algebras are pinned to q = 3


def test_default_parameters():
    assert make_spectrum("k(3)").q == 2
    assert make_spectrum("k(5)").q == 2
    assert make_spectrum("k(7)").q == 3
    assert make_spectrum("ko(2)").q == 3
    assert make_spectrum("g(3)").base == 4


def test_connective_basis_oracles():
    # each value below was computed by hand from the root products
    k3 = make_spectrum("k(3)").coalgebra
    assert k3.basis_poly(1) == W - 1
    assert k3.basis_poly(2) == (W - 1) * (W - 2) * Fraction(1, 6)

    g3 = make_spectrum("g(3)").coalgebra
    assert g3.basis_poly(1) == (W ** 2 - 1) * Fraction(1, 3)
    assert g3.basis_poly(2) == (W ** 2 - 1) * (W ** 2 - 4) * Fraction(1, 180)

    ko = make_spectrum("ko(2)").coalgebra
    assert ko.basis_poly(1) == (W ** 2 - 1) * Fraction(1, 8)

    k2 = make_spectrum("k(2)").coalgebra
    assert k2.basis_poly(1) == (1 - W) * Fraction(1, 2)
    # f_2 = h_1, f_3 = ((3 - w)/6) h_1
    assert k2.basis_poly(2) == (W ** 2 - 1) * Fraction(1, 8)
    assert k2.basis_poly(3) == (3 - W) * (W ** 2 - 1) * Fraction(1, 48)


def test_periodic_basis_oracles():
    K3 = make_spectrum("K(3)").coalgebra
    k3 = make_spectrum("k(3)").coalgebra
    assert K3.basis_poly(1) == k3.basis_poly(1)
    assert K3.basis_poly(2) == k3.basis_poly(2) * LaurentPoly.monomial(-1)
    assert K3.basis_poly(4) == k3.basis_poly(4) * LaurentPoly.monomial(-2)

    KO = make_spectrum("KO(2)").coalgebra
    ko = make_spectrum("ko(2)").coalgebra
    assert KO.basis_poly(1) == ko.basis_poly(1)
    # exponents stay even: shift by -2 per window step
    assert KO.basis_poly(2) == ko.basis_poly(2) * LaurentPoly.monomial(-2)
    assert KO.basis_poly(3) == ko.basis_poly(3) * LaurentPoly.monomial(-2)

    K2 = make_spectrum("K(2)").coalgebra
    k2 = make_spectrum("k(2)").coalgebra
    assert K2.basis_poly(2) == k2.basis_poly(2) * LaurentPoly.monomial(-1)


def test_periodic_basis_lies_in_laurent_window():
    for name in ("K(3)", "G(3)", "KO(2)", "K(2)"):
        sp = make_spectrum(name)
        C = sp.coalgebra
        for n in range(8):
            f = C.basis_poly(n)
            lo, hi = C.window(n)
            # window bounds are in units of w**step
            assert f.low >= lo * C.step and f.degree <= hi * C.step, (name, n)


def test_even_exponents_for_real_theories():
    for name in ("ko(2)", "KO(2)"):
        C = make_spectrum(name).coalgebra
        for n in range(8):
            assert all(e % 2 == 0 for e in C.basis_poly(n).support), (name, n)


def test_dual_theta_basis_duality_spot():
    for name in ("k(3)", "K(3)", "g(3)", "G(3)", "ko(2)", "KO(2)"):
        sp = make_spectrum(name)
        for n in range(4):
            e = expand(sp.coalgebra, dual_theta_basis(sp, n), 5)
            assert e.coeffs == tuple(Fraction(1 if m == n else 0) for m in range(5)), name


THETA_FORMS = [f"{f}({p})" for p in (3, 5, 7) for f in "kKgG"] + ["ko(2)", "KO(2)"]


@pytest.mark.parametrize("name", THETA_FORMS)
def test_integer_nodes_and_dual_basis_match_fraction_oracle(name):
    sp = make_spectrum(name)
    C, b, z = sp.coalgebra, sp.base, fraction_nodes(sp)
    for count in range(41):
        e, ys = integer_nodes(sp, count)
        assert C.scale(count) == e, count
        assert C.nodes(count, range(count)) == ys, count
        assert C.nodes(count, reversed(range(count))) == ys[::-1], count
    for n in range(25):
        scale = Fraction(b) ** (n * (n // 2)) if sp.periodic else 1
        want = theta(n, z) * scale
        coeffs = C.dual_basis(n)
        assert all(type(c) is int for c in coeffs), n
        assert coeffs == [want.coeff(k) for k in range(n + 1)], n
        assert dual_theta_basis(sp, n) == AdamsPoly(Fraction(sp.q), want), n
    # nodes refuses every index above n; periodically, for odd n, the slot
    # -(n + 1)/2 of index n + 1 lies below -E_n and its node is no integer
    for n in range(25):
        with pytest.raises(ValueError):
            C.nodes(n, [n + 1])


def test_dual_theta_basis_refused_off_theta_form():
    for name in ("k(2)", "K(2)"):
        sp = make_spectrum(name)
        with pytest.raises(ValueError):
            dual_theta_basis(sp, 1)


def test_support_step_table():
    # p odd
    k3, K3 = make_spectrum("k(3)"), make_spectrum("K(3)")
    g3, G3 = make_spectrum("g(3)"), make_spectrum("G(3)")
    assert [support_step(k3, l) for l in (1, 2, 3)] == [2, 6, 18]
    assert [support_step(K3, l) for l in (1, 2, 3)] == [4, 12, 36]
    assert [support_step(g3, l) for l in (1, 2, 3)] == [1, 3, 9]
    assert [support_step(G3, l) for l in (1, 2, 3)] == [2, 6, 18]
    # p = 2
    ko, KO = make_spectrum("ko(2)"), make_spectrum("KO(2)")
    k2, K2 = make_spectrum("k(2)"), make_spectrum("K(2)")
    assert [support_step(ko, l) for l in (1, 2, 3, 4, 5)] == [1, 1, 1, 2, 4]
    assert [support_step(k2, l) for l in (1, 2, 3, 4, 5)] == [1, 1, 1, 2, 4]
    assert [support_step(KO, l) for l in (1, 2, 3, 4, 5)] == [2, 2, 2, 4, 8]
    assert [support_step(K2, l) for l in (1, 2, 3, 4, 5)] == [2, 2, 2, 4, 8]


SWEEP_FORMS = [f"{f}({p})" for p in (3, 5, 7, 11, 13) for f in "kKgG"] + ["ko(2)", "KO(2)"]


def test_support_step_derived_equals_hand_table():
    # the order of the node base mod p**l, doubled periodically, is the
    # hand table on every theta form; k(2) and K(2) keep their rows
    for name in SWEEP_FORMS + ["k(2)", "K(2)"]:
        sp = make_spectrum(name)
        for l in range(1, 7):
            assert support_step(sp, l) == support_step_table(sp, l), (name, l)


def test_node_gap_valuation_lifts_the_exponent():
    # the closed form against the valuation of the big integer b**|k| - 1
    for name in SWEEP_FORMS:
        sp = make_spectrum(name)
        for k in range(-60, 300):
            if k:
                want = _int_valuation(sp.prime, sp.base ** abs(k) - 1)
                assert sp.coalgebra.gap_valuation(k) == want, (name, k)
    with pytest.raises(ValueError, match="zero"):
        sp.coalgebra.gap_valuation(0)


def test_node_base_order_needs_a_unit_base():
    C = ThetaCoalgebra(6, 1, prime=3)
    with pytest.raises(ValueError, match="node base 6 .* prime 3"):
        C.order
    with pytest.raises(ValueError, match="prime None"):
        ThetaCoalgebra(9, 2).order
    # nu_2(3**2 - 1) = 3 is not nu_2(3 - 1) + nu_2(2): the closed form
    # would make exact verdicts of a regular coalgebra wrong
    with pytest.raises(ValueError, match="node base 3 is not 1 mod 4"):
        ThetaCoalgebra(3, 1, prime=2).order
    assert ThetaCoalgebra(9, 2, prime=2).order == (1, 3)


def test_admissible_shifts_increasing_multiples():
    k5 = make_spectrum("k(5)")
    first = list(islice(admissible_shifts(k5, 2), 4))
    assert first == [20, 40, 60, 80]


def test_spectrum_names_roundtrip():
    names = spectrum_names(3)
    assert len(names) == 8
    for name in names:
        sp = make_spectrum(name)
        assert sp.name == name


def test_spectrum_names_need_an_odd_prime():
    for p in (-3, 0, 1, 2, 4, 9, 15):
        with pytest.raises(ValueError, match="not an odd prime"):
            spectrum_names(p)
    for p in (5, 7, 10007):
        names = spectrum_names(p)
        assert len(set(names)) == 8
        assert [make_spectrum(n).name for n in names] == names


def test_spectrum_keeps_one_copy_of_the_coalgebra_facts():
    # prime, step, periodicity and node base are read off the coalgebra
    names = [n for p in (3, 5, 7) for n in spectrum_names(p)] + ["k(10007)"]
    for name in dict.fromkeys(names):
        sp = make_spectrum(name)
        C = sp.coalgebra
        assert (sp.prime, sp.step, sp.periodic) == (C.prime, C.step, C.periodic), name
        assert sp.has_theta_form == isinstance(C, ThetaCoalgebra), name
        assert sp.base == (C.base if sp.has_theta_form else None), name
    assert SpectrumSpec._fields == ("name", "family", "q", "coalgebra")
    with pytest.raises(ValueError, match="base"):
        make_spectrum("K(3)")._replace(base=4)


def test_spectrum_equality_reads_the_coalgebra():
    K3 = make_spectrum("K(3)")
    assert K3 == make_spectrum("K(3)") and hash(K3) == hash(make_spectrum("K(3)"))
    other = SpectrumSpec("K(3)", "K", 2, ThetaCoalgebra(4, 1, prime=3, periodic=True))
    assert K3.base == 2 and other.base == 4
    assert K3 != other and hash(K3) != hash(other)
    # a theta-form coalgebra is its (base, step, prime, periodic), not its name
    named = ThetaCoalgebra(2, 1, prime=3, periodic=True, name="another name")
    assert K3.coalgebra == named and hash(K3.coalgebra) == hash(named)
    assert SpectrumSpec("K(3)", "K", 2, named) == K3
    for C in (ThetaCoalgebra(2, 1, prime=3), ThetaCoalgebra(2, 1, prime=5, periodic=True),
              ThetaCoalgebra(2, 2, prime=3, periodic=True), ThetaCoalgebra(2, 1, periodic=True)):
        assert C != K3.coalgebra
    # k(2) runs on a plain CoalgebraSpec, compared by identity
    k2 = make_spectrum("k(2)")
    assert k2 == k2 and k2 != make_spectrum("k(2)")
    assert k2.coalgebra != make_spectrum("k(2)").coalgebra


def test_interleaved_bridge_identity():
    # w f_{2m} = 3^m f_{2m} - 2 3^m f_{2m+1}
    C = make_spectrum("k(2)").coalgebra
    for m in range(6):
        lhs = C.basis_poly(2 * m) * W
        rhs = (3 ** m) * C.basis_poly(2 * m) - (2 * 3 ** m) * C.basis_poly(2 * m + 1)
        assert lhs == rhs, m


def test_large_prime_builds_quickly():
    assert make_spectrum("k(10007)").q == 5
