from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktops.coalgebra import (
    BandedCoalgebra,
    CoalgebraSpec,
    NotRegularError,
    ThetaCoalgebra,
    binomial_coalgebra,
    monomial_coalgebra,
    verify_regularity,
)
from ktops.laurent import LaurentPoly
from ktops.rationals import nu
from ktops.spectra import InterleavedCoalgebra, make_spectrum, spectrum_names
from oracles import coproduct_by_solve, integral_by_gcd, newton_coords, regularity_by_fractions, spy_tables

THETA_NAMES = ("k(3)", "K(3)", "g(3)", "G(3)", "k(5)", "K(5)", "g(5)", "G(5)",
               "k(7)", "G(7)", "ko(2)", "KO(2)")


def test_binomial_coalgebra_regular():
    C = binomial_coalgebra(prime=3)
    assert verify_regularity(C, 8).ok


def test_monomial_coalgebra_regular():
    for periodic in (False, True):
        C = monomial_coalgebra(step=2, prime=3, periodic=periodic)
        assert verify_regularity(C, 8).ok


@pytest.mark.parametrize("periodic", [False, True])
def test_monomial_slots_are_the_extending_slots(periodic):
    # brute force over every slot near the window: resolvable by index
    # <= L exactly when listed, and each index resolves its own slot
    coalgebras = [monomial_coalgebra(step=2, prime=3, periodic=periodic),
                  make_spectrum("K(3)" if periodic else "k(3)").coalgebra]
    for C in coalgebras:
        for i in range(61):
            assert C.resolving_index(C.extending_slot(i)) == i
        for limit in range(61):
            want = []
            for k in range(-limit - 1, limit + 2):
                try:
                    if C.resolving_index(k) <= limit:
                        want.append(k)
                except NotRegularError:
                    pass
            assert C.monomial_slots(limit) == want, limit


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


def test_counit_law_catches_wrong_integral_entry():
    # an integral but wrong entry off the last column passes every other
    # table check, and the report gives both counit sums of the first
    # index that fails, read here from the full Fraction sums.  On the
    # stock spectra eps = e_0: (0, 1) breaks only the left sum of index 1,
    # (1, 0) only the right one; k(2) and K(2) read their tables from the
    # monomial-sum kernel.  The counit of the binomial coalgebra is e_0 +
    # e_1 and that of the periodic monomial one is 1 everywhere, so an
    # entry doped in support row 1, or in support column 1, fails there.
    # The check reads the tables _gamma_table builds, so the doped entry is
    # handed to its maker in place of the built one
    n = 3
    cases = [(lambda name=name: make_spectrum(name).coalgebra, ((0, 1), (1, 0)))
             for name in ("k(3)", "KO(2)", "G(5)", "k(2)", "K(2)")]
    cases += [(lambda: binomial_coalgebra(prime=3), ((1, 2), (2, 1))),
              (lambda: monomial_coalgebra(step=2, prime=3, periodic=True), ((1, 2), (2, 1)))]
    for make, entries in cases:
        for r, c in entries:
            C = make()
            g = [list(row) for row in make().coproduct_matrix(n)]
            g[r][c] += 1

            def doped(t, maker, zero, build=C._gamma_table, v=g[r][c], r=r, c=c):
                table = [list(row) for row in build(t, maker, zero)]
                if t == n:
                    table[r][c] = maker(v.numerator, v.denominator)
                return tuple(map(tuple, table))

            C._gamma_table = doped
            report = verify_regularity(C, 5)
            failed = {ch.name: ch.counterexample for ch in report.checks if not ch.ok}
            eps = [C.counit_value(i) for i in range(n + 1)]
            sums = [(j, sum(eps[i] * g[i][j] for i in range(n + 1)),
                     sum(eps[i] * g[j][i] for i in range(n + 1))) for j in range(n + 1)]
            want = next(f"element {n}, index {j}: counit sums ({left}, {right})"
                        for j, left, right in sums if left != (j == n) or right != (j == n))
            assert failed == {"counit law": want}, (C.name, r, c)
            if (r, c) in ((0, 1), (1, 0)):
                assert want.startswith(f"element {n}, index 1:"), C.name
            else:
                assert eps[1], C.name


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
        return (1, {n + 1: 1}) if n else (1, {0: 1})

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
            d, mono = good.monomial_form(n)
            if n != 2:
                return d, mono
            return d * scale.denominator, {k: m * scale.numerator for k, m in mono.items()}

        C = CoalgebraSpec(step=1, basis=corrupt, prime=3, name="corrupted")
        report = verify_regularity(C, 6)
        assert not report.ok
        bad = [c.name for c in report.checks if not c.ok]
        assert "coproduct constants integral" in bad


def test_verify_regularity_rejects_negative_limit():
    # a negative limit would check nothing and report ok
    with pytest.raises(ValueError, match="non-negative"):
        verify_regularity(make_spectrum("k(3)").coalgebra, -3)
    assert verify_regularity(make_spectrum("k(3)").coalgebra, 0).ok


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


def _one_element_spec(first):
    return CoalgebraSpec(step=1, basis=lambda n: first if n == 1 else (1, {n: 1}), prime=3)


def test_monomial_form_reduces_the_integer_basis():
    # zero numerators drop before the window check; sign and gcd come out
    C = _one_element_spec((-6, {0: -2, 1: 4, 2: 0}))
    assert C.monomial_form(1) == (3, {0: 1, 1: -2})
    assert C.basis_poly(1) == LaurentPoly({0: Fraction(1, 3), 1: Fraction(-2, 3)})
    assert C.counit_value(1) == Fraction(-1, 3)


def test_zero_denominator_rejected():
    C = _one_element_spec((0, {1: 1}))
    with pytest.raises(NotRegularError, match="element 1"):
        C.monomial_form(1)


def test_negative_indices_refused_by_coproduct_entry():
    # the band answers no entry with a negative index
    for name in ("K(2)", "k(3)"):
        C = make_spectrum(name).coalgebra
        for i, j, n in ((-1, 0, 3), (0, -1, 3), (0, 0, -1), (-1, -1, 0)):
            with pytest.raises(ValueError, match="start at 0"):
                C.coproduct_entry(i, j, n)
    with pytest.raises(ValueError, match="start at 0"):
        binomial_coalgebra(3).coproduct_entry(-1, 0, 3)


@pytest.mark.parametrize("name", ("k(2)", "K(2)") + THETA_NAMES)
def test_tables_vanish_above_the_band(name):
    # the band the coalgebra claims by its type: G_t[i][j] = 0 for t > i + j,
    # on every entry of the tables themselves
    C = make_spectrum(name).coalgebra
    assert isinstance(C, BandedCoalgebra)
    assert isinstance(C, InterleavedCoalgebra) == (name in ("k(2)", "K(2)"))
    for t in range(41):
        g = C.coproduct_matrix(t)
        bad = [(i, j) for i in range(t + 1) for j in range(t + 1) if t > i + j and g[i][j]]
        assert not bad, (name, t, bad[:3])


@pytest.mark.parametrize("make", [
    lambda: make_spectrum("k(2)").coalgebra,
    lambda: make_spectrum("K(2)").coalgebra,
    lambda: make_spectrum("KO(2)").coalgebra,
    lambda: make_spectrum("G(5)").coalgebra,
    lambda: binomial_coalgebra(3),
    lambda: monomial_coalgebra(step=2, prime=3, periodic=True),
])
def test_coproduct_entry_reads_the_table(make):
    # every entry, the band's zeros first on a fresh coalgebra, then the tables
    C = make()
    entries = {(i, j, n): C.coproduct_entry(i, j, n)
               for n in range(17) for i in range(17) for j in range(17)}
    for (i, j, n), v in entries.items():
        assert v == (C.coproduct_matrix(n)[i][j] if max(i, j) <= n else 0), (C.name, i, j, n)


def test_only_a_banded_coalgebra_skips_tables_above_the_band():
    # k(2) answers G_30[1][2] from its band and builds no table; a plain
    # CoalgebraSpec on the same basis builds table 30 for it.  Both read
    # G_3[2][1] off table 3 and fill G_2[3][0] in as a triangular zero
    k2 = make_spectrum("k(2)").coalgebra
    plain = CoalgebraSpec(step=1, basis=k2.basis, prime=2)
    for C, want in ((k2, [3]), (plain, [30, 3])):
        calls = spy_tables(C)
        assert C.coproduct_entry(1, 2, 30) == C.coproduct_entry(3, 0, 2) == 0
        assert C.coproduct_entry(2, 1, 3) == 1
        assert calls == want, C
    assert not isinstance(plain, BandedCoalgebra)


@pytest.mark.parametrize("base", [-1, 0, 1])
def test_degenerate_node_base_refused(base):
    # b**s repeats for |b| < 2, so no theta form is built on it
    with pytest.raises(ValueError, match=f"node base {base} repeats"):
        ThetaCoalgebra(base, 1, prime=3, periodic=True)


def test_negative_node_base_is_regular():
    assert verify_regularity(ThetaCoalgebra(-2, 1, prime=3, periodic=True), 10).ok


def _theta_coalgebras():
    # the six stock theta families: k, K, g and G at p = 3, 5, 7 with two
    # q each, ko(2) and KO(2); then negative bases, a base divisible by p
    # and one over Z
    specs = [make_spectrum(f"{f}({p})", q)
             for p, qs in ((3, (2, 5)), (5, (2, 3)), (7, (3, 5))) for f in "kKgG" for q in qs]
    specs += [make_spectrum("ko(2)"), make_spectrum("KO(2)")]
    keys = [(f"{sp.name}q{sp.q}", sp.coalgebra._key()) for sp in specs]
    keys += [(f"base{key[0]}", key) for key in (
        (-3, 1, 2, True), (-2, 1, 3, True), (-5, 2, 3, True), (6, 1, 3, False), (4, 2, None, True))]
    return [pytest.param(key, id=label) for label, key in keys]


@pytest.mark.parametrize("key", _theta_coalgebras())
def test_theta_coords_by_evaluation_match_the_elimination(key):
    # the elimination runs on a separate coalgebra, so the two routes share
    # no memo of coordinates; both give the reduced (D, pairs) form, D > 0
    evaluated, eliminated = ThetaCoalgebra(*key), ThetaCoalgebra(*key)
    for i in range(41):
        k = evaluated.extending_slot(i)
        form = evaluated._int_coords(k)
        assert form[0] > 0, k
        assert form == CoalgebraSpec._int_coords(eliminated, k), k


@pytest.mark.parametrize("prime", [None, 2, 3, 7])
def test_in_ground_ring_reads_the_denominator(prime):
    # the direct denominator test against a non-negative valuation, and
    # against membership in Z without a prime, on ints and Fractions
    C = monomial_coalgebra(step=1, prime=prime)
    values = [0, 1, -12, 2**70]
    values += [Fraction(a, b) for a in (-9, 0, 1, 5, 2**65) for b in (1, 2, 3, 4, 7, 9, 49)]
    for x in values:
        want = Fraction(x).denominator == 1 if prime is None else (x == 0 or nu(prime, x) >= 0)
        assert C.in_ground_ring(x) is want, (prime, x)


def _interleaved_node(l):
    return (-1) ** l * 3 ** (l // 2)


def _node_coalgebras():
    # each stock coalgebra with its node sequence z_l, l >= 0, written
    # here and not read from the library's basis builder
    cases = [(name, make_spectrum(name).coalgebra, _interleaved_node) for name in ("k(2)", "K(2)")]
    for name in ("k(3)", "K(3)", "g(3)", "G(3)", "ko(2)", "KO(2)"):
        sp = make_spectrum(name)
        cases.append((name, sp.coalgebra, lambda l, b=sp.base: b**l))
    cases.append(("binomial", binomial_coalgebra(3), lambda l: l))
    return [pytest.param(C, node, id=name) for name, C, node in cases]


@pytest.mark.parametrize("C,node", _node_coalgebras())
def test_newton_basis_vanishes_at_the_earlier_nodes(C, node):
    # c_n (times x**floor(n/2) when periodic), x = w**r, is 0 at z_0..z_(n-1)
    # and 1 at z_n: d_n c_n evaluated by integer Horner on monomial_form(n)
    for n in range(41):
        d, form = C.monomial_form(n)
        shift = n // 2 if C.periodic else 0
        coeffs = [0] * (n + 1)
        for k, m in form.items():
            coeffs[k + shift] = m
        for l in range(n + 1):
            z, value = node(l), 0
            for c in reversed(coeffs):
                value = value * z + c
            assert value == (d if l == n else 0), (n, l)


@pytest.mark.parametrize("C,node,top", [
    pytest.param(make_spectrum("k(2)").coalgebra, _interleaved_node, 40, id="k(2)"),
    pytest.param(binomial_coalgebra(3), lambda l: l, 30, id="binomial"),
])
def test_elimination_matches_the_node_formula(C, node, top):
    # the fraction-free elimination against coordinate n of x**k =
    # N_n(z_n) h_(k-n)(z_0..z_n); K(2) is left out, as its periodic factor
    # breaks that form
    for k in range(top + 1):
        assert list(C.basis_coords(k)) == newton_coords(node, k, k), k


def _scaled(name, index, scale, prime):
    # the stock basis with one element scaled, as a plain CoalgebraSpec; below,
    # each scale that is not a unit of the ground ring makes it irregular
    good = make_spectrum(name).coalgebra

    def basis(n):
        d, mono = good.monomial_form(n)
        if n != index:
            return d, mono
        return d * scale.denominator, {k: m * scale.numerator for k, m in mono.items()}

    return CoalgebraSpec(step=good.step, basis=basis, prime=prime, periodic=good.periodic,
                         name=f"{name} c_{index} * {scale}")


def _regularity_cases():
    # 35 coalgebras, 15 of them irregular: the stock twelve, the example user
    # coalgebras, theta forms on negative bases, a base divisible by p and
    # one over Z, and k(3) with one element scaled
    cases = [(name, lambda name=name: make_spectrum(name).coalgebra)
             for name in dict.fromkeys(spectrum_names(3) + spectrum_names(5))]
    cases += [("binomial at 3", lambda: binomial_coalgebra(3)),
              ("binomial over Z", binomial_coalgebra),
              ("monomial periodic", lambda: monomial_coalgebra(2, 3, True))]
    cases += [(f"theta{key}", lambda key=key: ThetaCoalgebra(*key))
              for key in ((-3, 1, 2, True), (-2, 1, 3, False), (3, 1, 3, True), (2, 1, None, False))]
    cases += [(f"k(3) c_{index} * {scale} at {prime}", lambda args=(index, scale, prime): _scaled("k(3)", *args))
              for index in (2, 4) for scale in (Fraction(3), Fraction(1, 3), Fraction(2), Fraction(1, 9))
              for prime in (3, None)]
    return [pytest.param(make, id=label) for label, make in cases]


@pytest.mark.parametrize("make", _regularity_cases())
def test_regularity_on_integers_matches_the_fraction_route(make):
    # each route on a fresh coalgebra, so neither reads a memo of the other;
    # the integer route writes no Fraction table
    C = make()
    report = verify_regularity(C, 12)
    assert report == regularity_by_fractions(make(), 12), C.name
    assert C._gamma == {}, C.name


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([None, 2, 3, 5]), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6).filter(bool), st.integers(0, 200), st.integers(0, 200))
def test_integral_pair_agrees_with_in_ground_ring(prime, num, den, up, shift):
    # the unreduced pair, with long runs of p (or 2) in its numerator and
    # denominator, against in_ground_ring on its Fraction, against the
    # valuation and against the reducing gcd form
    num *= (prime or 2) ** up
    den *= (prime or 2) ** shift
    C = monomial_coalgebra(step=1, prime=prime)
    x = Fraction(num, den)
    want = x.denominator == 1 if prime is None else (num == 0 or nu(prime, x) >= 0)
    assert C._integral(num, den) is C.in_ground_ring(x) is integral_by_gcd(prime, num, den) is want


@pytest.mark.parametrize("prime, num, den, want", [
    (2, 0, 2**300, True), (None, 0, -7, True), (3, 0, -81, True),
    (2, 3 * 2**64, -(2**64) * 5, True), (2, 3 * 2**63, -(2**64) * 5, False),
    (2, -(2**1000), 2**1000 * 3, True), (2, 2**999, -(2**1000), False),
    (5, 7, -3, True), (None, 12, -4, True), (None, 12, -8, False), (None, -(2**80), 2**79, True),
])
def test_integral_pair_edge_cases(prime, num, den, want):
    C = monomial_coalgebra(step=1, prime=prime)
    assert C._integral(num, den) is integral_by_gcd(prime, num, den) is want
