"""The dual algebra's pairing transforms against the Gamma contractions in oracles.py."""
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from ktops.coalgebra import binomial_coalgebra, monomial_coalgebra
from ktops.dual import (
    AdamsPoly,
    DualElement,
    PrecisionError,
    _from_pairings,
    _pairings,
    algebra_one,
    expand,
    invert,
    is_unit,
    monomial_pairing,
    multiply,
)
from ktops.laurent import LaurentPoly
from ktops.rationals import is_p_local_unit
from ktops.spectra import dual_theta_basis, make_spectrum, spectrum_names
from oracles import (
    back_transform_by_reduction,
    evaluate,
    expand_by_value_on,
    invert_by_elimination,
    is_unit_by_fractions,
    monomial_pairing_by_coords,
    multiply_by_contraction,
)

SPECTRA = list(dict.fromkeys(spectrum_names(3) + ["k(5)", "K(5)", "g(5)", "G(5)", "G(7)"]))
OTHERS = {
    "binomial": lambda: binomial_coalgebra(3),
    "monomial": lambda: monomial_coalgebra(step=2, prime=3),
    "monomial-periodic": lambda: monomial_coalgebra(step=2, prime=3, periodic=True),
}
THETA = [n for n in SPECTRA if make_spectrum(n).has_theta_form]
TOP = 12


def _algebra(name):
    """(coalgebra, operation base, spectrum or None) for a sweep name."""
    if name in OTHERS:
        return OTHERS[name](), Fraction(2), None
    sp = make_spectrum(name)
    return sp.coalgebra, Fraction(sp.q), sp


def _outcome(f, *args):
    """What f returns, or the type, message and (step, slot, pivot) of its refusal."""
    try:
        return f(*args)
    except ValueError as e:
        return (type(e), str(e), getattr(e, "step", None), getattr(e, "slot", None),
                getattr(e, "pivot", None))


def _element(rng, prec, dens):
    return DualElement(Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(prec))


def _unit(rng, C, p, prec):
    """1 + p * (small integers): every monomial pairing is 1 mod p."""
    one = algebra_one(C, prec)
    return DualElement(c + p * rng.randint(-2, 2) for c in one.coeffs)


def _non_unit(rng, C, p, a, i):
    """a with coefficient i set so that its pairing at step i is p * (small)."""
    coeffs = list(a.coeffs)
    coords = C.basis_coords(C.extending_slot(i))
    base = sum(coeffs[k] * coords[k] for k in range(i))
    coeffs[i] = (p * rng.randint(-2, 2) - base) / coords[i]
    return DualElement(coeffs)


def _inputs(rng, C, p):
    local = [d for d in (1, 2, 4, 5, 7, 11) if d % p]
    nonlocal_ = local + [p, p * p]
    prec = rng.randint(4, TOP)
    elements = [
        _element(rng, prec, local),
        _element(rng, prec, local),
        _element(rng, rng.randint(1, prec), local),
        _element(rng, prec, nonlocal_),
        _unit(rng, C, p, prec),
        _unit(rng, C, p, rng.randint(1, prec)),
    ]
    unit = _unit(rng, C, p, prec)
    elements += [_non_unit(rng, C, p, unit, i) for i in rng.sample(range(prec), min(3, prec))]
    return prec, elements


@pytest.mark.parametrize("name", SPECTRA + list(OTHERS))
def test_multiply_invert_match_contraction_oracles(name):
    C, _, _ = _algebra(name)
    p = C.prime
    rng = random.Random(name)
    refusals = 0
    for _ in range(3):
        prec, elements = _inputs(rng, C, p)
        for a in elements:
            b = rng.choice(elements)
            assert multiply(C, a, b) == multiply_by_contraction(C, a, b)
            want = _outcome(invert_by_elimination, C, a)
            assert _outcome(invert, C, a) == want
            refusals += not isinstance(want, DualElement)
            cut = rng.randint(1, prec)
            head = DualElement(a.coeffs[:cut])
            assert _outcome(invert, C, head) == _outcome(invert_by_elimination, C, head)
    assert refusals


@pytest.mark.parametrize("name", SPECTRA + list(OTHERS))
def test_pairings_and_truncated_unit_match_coordinate_sums(name):
    C, _, _ = _algebra(name)
    p = C.prime
    rng = random.Random(name)
    prec, elements = _inputs(rng, C, p)
    for a in elements:
        for k in C.monomial_slots(prec):
            assert _outcome(monomial_pairing, C, a, k) == _outcome(monomial_pairing_by_coords, C, a, k)
        want = next(
            ((False, k) for k in map(C.extending_slot, range(a.precision))
             if not is_p_local_unit(p, monomial_pairing_by_coords(C, a, k))),
            (True, None),
        )
        v = is_unit(C, a, mode="truncated")
        assert (v.unit, v.witness, v.checked, v.exact) == (*want, a.precision, False)
    with pytest.raises(PrecisionError):
        monomial_pairing(C, DualElement((1,)), C.extending_slot(1))


@pytest.mark.parametrize("name", SPECTRA + list(OTHERS))
def test_expand_matches_value_on_oracle(name):
    C, beta, sp = _algebra(name)
    p = C.prime
    rng = random.Random(name)
    polys = [
        LaurentPoly({e: rng.randint(-4, 4) for e in range(rng.randint(1, 5))}),
        LaurentPoly({0: 1, 1: Fraction(rng.randint(1, 4), p)}),
        LaurentPoly({e: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 7))) for e in range(3)}),
    ]
    cases = [AdamsPoly(beta, f) for f in polys] + [AdamsPoly(Fraction(1, 2), polys[0])]
    # a negative base: odd slots pair with negative values of beta**(rk)
    cases += [AdamsPoly(-beta, polys[0]), AdamsPoly(-beta, polys[2])]
    if sp is not None and sp.has_theta_form:
        cases += [dual_theta_basis(sp, n) for n in (0, 3, TOP - 1)]
    for a in cases:
        for prec in (1, TOP):
            assert _outcome(expand, C, a, prec) == _outcome(expand_by_value_on, C, a, prec)


@pytest.mark.parametrize("beta", [Fraction(make_spectrum("G(5)").q), Fraction(-3),
                                  Fraction(1, 2), Fraction(-2, 3)])
def test_adams_values_match_fraction_evaluation(beta):
    # integer Horner at beta**e = u / v against the oracle evaluate at the
    # Fraction beta**e, on negative, zero and positive exponents
    rng = random.Random(str(beta))
    polys = [LaurentPoly(), LaurentPoly.one(), LaurentPoly({4: Fraction(-2, 5)})]
    polys += [
        LaurentPoly({rng.randint(0, 7): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                     for _ in range(rng.randint(1, 6))})
        for _ in range(20)
    ]
    exponents = range(-6, 7)
    for f in polys:
        got = AdamsPoly(beta, f).values(exponents)
        assert all(d > 0 for _, d in got)
        assert [Fraction(x, d) for x, d in got] == [evaluate(f, beta**e) for e in exponents], f


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(SPECTRA + ["k(2)", "K(2)", "KO(2)"] + list(OTHERS)),
    coeffs=st.lists(st.tuples(st.one_of(st.just(0), st.integers(-9, 9)), st.integers(1, 12)),
                    min_size=1, max_size=TOP),
    scales=st.lists(st.integers(1, 30), min_size=TOP, max_size=TOP),
)
def test_back_transform_inverts_pairings(name, coeffs, scales):
    # the back transform reads the coefficients off the pairings, reduced
    # or carried with a further common factor in each pair, as unreduced
    # pairs (x, d), d > 0, equal to the oracle's reduced Fractions
    C, _, _ = _algebra(name)
    a = DualElement(Fraction(x, d) for x, d in coeffs)
    n = a.precision
    pi = _pairings(C, a, n)
    loose = [(x * g, d * g) for (x, d), g in zip(pi, scales)]
    for pairings in (pi, loose):
        got = list(_from_pairings(C, pairings, n))
        assert all(d > 0 for _, d in got)
        assert [Fraction(x, d) for x, d in got] == list(back_transform_by_reduction(C, pairings, n))
        assert [Fraction(x, d) for x, d in got] == list(a.coeffs)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(THETA + ["k(2)"]),
    digits=st.lists(st.integers(-2, 2), min_size=1, max_size=TOP),
    b=st.lists(st.integers(-9, 9), min_size=TOP, max_size=TOP),
)
def test_chained_inverse_on_unreduced_pairs(name, digits, b):
    # an inverse holds its coefficients as unreduced pairs whose
    # denominators p divides; inverting, multiplying and the unit and
    # pairing reads take it as it is, and agree with the Fraction oracles
    C = make_spectrum(name).coalgebra
    p, prec = C.prime, len(digits)
    one = algebra_one(C, prec)
    a = DualElement(c + p * x for c, x in zip(one.coeffs, digits))
    b = DualElement(b[:prec])
    inv = invert(C, a)
    assume(any(d % p == 0 for _, d in inv._pairs))
    assert invert(C, inv) == a
    assert multiply(C, inv, a) == one
    product = multiply(C, inv, b)
    verdict = is_unit(C, inv, mode="truncated")
    pairings = [monomial_pairing(C, inv, k) for k in C.monomial_slots(prec - 1)]
    want = invert_by_elimination(C, a)
    assert inv.coeffs == want.coeffs
    assert product == multiply_by_contraction(C, want, b)
    assert verdict == is_unit(C, DualElement(inv.coeffs), mode="truncated") and verdict.unit
    assert pairings == [monomial_pairing_by_coords(C, want, k) for k in C.monomial_slots(prec - 1)]


@pytest.mark.parametrize("name", ["k(3)", "G(5)", "KO(2)", "k(2)"])
def test_a_library_element_reads_as_its_coefficients(name):
    # equality, hash and repr read the reduced coefficients, whether the
    # element holds unreduced pairs from the library or Fractions
    sp = make_spectrum(name)
    C, p, prec = sp.coalgebra, sp.prime, 10
    one = algebra_one(C, prec)
    a = DualElement(c + p * (-1) ** n for n, c in enumerate(one.coeffs))
    made = [lambda: invert(C, a), lambda: multiply(C, a, a)]
    if sp.has_theta_form:
        made.append(lambda: expand(C, dual_theta_basis(sp, 3), prec))
    for make in made:
        x = make()
        text, h = repr(x), hash(x)
        y = DualElement(x.coeffs)
        assert make() == y and y == make()
        assert (hash(y), repr(y)) == (h, text)
        assert hash(make()) == h and repr(make()) == text
        assert len({make(), y}) == 1


def test_exact_unit_residues_match_fraction_oracle():
    # 1,500 random operation polynomials with p-local rational coefficients
    # (and some non-local ones) over four bases per spectrum, two of them
    # refused: verdict, witness and period, or the refusal, agree
    rng = random.Random(1500)
    names = ["k(3)", "K(3)", "g(3)", "G(3)", "k(5)", "G(5)", "k(7)", "K(7)", "ko(2)", "K(2)"]
    for name in names:
        sp = make_spectrum(name)
        C, p = sp.coalgebra, sp.prime
        bases = [Fraction(sp.q), Fraction(sp.q + p), Fraction(p), Fraction(1, p + 1)]
        dens = [d for d in (1, 2, 3, 4, 5, 7) if d % p] + [p]
        for _ in range(150):
            poly = LaurentPoly({
                rng.randint(0, 6): Fraction(rng.randint(-3 * p, 3 * p), rng.choice(dens))
                for _ in range(rng.randint(0, 4))
            })
            a = AdamsPoly(rng.choices(bases, weights=(3, 3, 1, 1))[0], poly)
            assert _outcome(is_unit, C, a) == _outcome(is_unit_by_fractions, C, a), (name, a)


def test_exact_unit_at_a_large_prime():
    # one period at 10007 is 10,006 residues of small integers
    C = make_spectrum("k(10007)").coalgebra
    psi = LaurentPoly.variable()
    square = is_unit(C, AdamsPoly(5, psi**2))
    assert (square.unit, square.period) == (True, 10006)
    v = is_unit(C, AdamsPoly(5, psi**2 - 25))
    assert (v.unit, v.witness) == (False, 1)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(THETA),
    f=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    g=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
def test_multiply_of_expansions_is_expansion_of_product(name, f, g):
    # two product routes: pointwise in the dual, and on the operation polynomials
    sp = make_spectrum(name)
    C = sp.coalgebra
    P = AdamsPoly(sp.q, LaurentPoly(dict(enumerate(f))))
    Q = AdamsPoly(sp.q, LaurentPoly(dict(enumerate(g))))
    prec = 8
    assert multiply(C, expand(C, P, prec), expand(C, Q, prec)) == expand(C, AdamsPoly(sp.q, P.poly * Q.poly), prec)


def _shared_lcm_steps(pi):
    """How often the back transform's lcm grows by a factor f sharing a
    prime with the lcm so far."""
    den, shared = 1, 0
    for v in pi:
        f = v.denominator // gcd(den, v.denominator)
        shared += f != 1 and gcd(f, den) != 1
        den *= f
    return shared


@pytest.mark.parametrize("name", ["G(5)", "KO(2)"])
def test_back_transform_on_shared_denominators(name):
    # coefficients over 3, 9 and 27 give pairing denominators 3**a D_k, so
    # the running lcm of the back transform grows by factors it already has
    C = make_spectrum(name).coalgebra
    p, prec = C.prime, 24
    rng = random.Random(name)
    one = algebra_one(C, prec)
    shared = 0
    for _ in range(4):
        a = DualElement(Fraction(rng.randint(-9, 9), rng.choice((1, 3, 9, 27))) for _ in range(prec))
        b = DualElement(Fraction(rng.randint(-9, 9), rng.choice((3, 9, 27))) for _ in range(prec))
        u = DualElement(c + p * Fraction(rng.randint(-4, 4), rng.choice((1, 3, 9, 27)))
                        for c in one.coeffs)
        assert multiply(C, a, b) == multiply_by_contraction(C, a, b)
        assert invert(C, u) == invert_by_elimination(C, u)
        pa, pb, pu = ([Fraction(*pair) for pair in _pairings(C, x, prec)] for x in (a, b, u))
        shared += _shared_lcm_steps([x * y for x, y in zip(pa, pb)])
        shared += _shared_lcm_steps([1 / v for v in pu])
    assert shared
