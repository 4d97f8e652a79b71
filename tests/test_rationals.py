import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ktops.rationals import (
    _int_valuation,
    as_fraction,
    check_primitive_root,
    is_p_local_unit,
    is_prime,
    least_primitive_root,
    multiplicative_order,
    nu,
)
from oracles import is_prime_by_odd_divisors, least_primitive_root_by_scan, order_by_powers

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])
RATS = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def test_as_fraction_rejects_floats():
    assert as_fraction(7) == Fraction(7)
    assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert as_fraction("2/3") == Fraction(2, 3)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(None)


def test_valuation_oracle():
    # hand-checked values
    assert nu(3, 18) == 2
    assert nu(3, Fraction(1, 3)) == -1
    assert nu(2, Fraction(48, 7)) == 4
    assert nu(5, Fraction(7, 50)) == -2
    assert nu(7, 1) == 0


def test_valuation_of_zero_rejected():
    with pytest.raises(ValueError):
        nu(3, 0)


def test_integer_valuation_of_zero_rejected():
    # 0 is divisible by every power of p; the loop must not spin on it
    for p in (2, 3, 10007):
        with pytest.raises(ValueError, match="valuation of zero is undefined"):
            _int_valuation(p, 0)
    assert _int_valuation(3, -18) == 2


@given(PRIMES, st.integers(-10**6, 10**6).filter(bool), st.integers(0, 300))
def test_integer_valuation_counts_the_divisions(p, unit, e):
    # the 2-adic bit count and the division loop against stripping p by hand
    n, want = unit * p**e, e
    while unit % p == 0:
        unit //= p
        want += 1
    assert _int_valuation(p, n) == want


@given(PRIMES, RATS, RATS)
def test_valuation_is_multiplicative(p, x, y):
    if x == 0 or y == 0:
        return
    assert nu(p, x * y) == nu(p, x) + nu(p, y)


@given(PRIMES, RATS, RATS)
def test_valuation_ultrametric(p, x, y):
    if x == 0 or y == 0 or x + y == 0:
        return
    assert nu(p, x + y) >= min(nu(p, x), nu(p, y))


def test_p_local_predicates():
    assert is_p_local_unit(3, Fraction(2, 5))
    assert not is_p_local_unit(3, 6)
    assert not is_p_local_unit(3, Fraction(1, 3))


def test_primality_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(2, 25):
        assert is_prime(n) == (n in known)
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_matches_the_odd_divisor_loop():
    # is_prime reads the whole list of prime divisors; the oracle stops at the first one
    for n in range(-3, 10**5):
        assert is_prime(n) == is_prime_by_odd_divisors(n), n


def test_multiplicative_order():
    # 2 mod 9: 2,4,8,7,5,1
    assert multiplicative_order(2, 9) == 6
    assert multiplicative_order(1, 9) == 1
    assert multiplicative_order(8, 9) == 2
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_multiplicative_order_equals_the_power_oracle():
    # prime, prime-power and composite moduli, each with residues of every
    # sign; the oracle steps through the powers
    rng = random.Random(7)
    moduli = [2, 4, 8, 9, 27, 49, 97, 125, 360, 1001, 1024, 3**7, 7919, 9973 * 2]
    moduli += [rng.randrange(2, 20000) for _ in range(60)]
    for n in moduli:
        for a in [1, -1, n - 1, *(rng.randrange(-3 * n, 3 * n) for _ in range(20))]:
            if gcd(a, n) == 1:
                assert multiplicative_order(a, n) == order_by_powers(a, n), (a, n)


def test_multiplicative_order_at_primes_near_2_to_the_31():
    # 7 generates the units mod 2**31 - 1; the powers would take 2**31 steps
    p = 2**31 - 1
    assert multiplicative_order(7, p) == p - 1
    assert multiplicative_order(7**6, p) == (p - 1) // 6
    assert multiplicative_order(-1, 100000007) == 2


def test_primitive_root_check():
    # order of 2 mod 9 is 6 = 3*2, so 2 generates
    assert check_primitive_root(3, 2)
    # 4 = 2^2 has order 3 mod 9
    assert not check_primitive_root(3, 4)
    assert check_primitive_root(5, 2)
    # 7 ≡ 2 mod 5 and 7^4 = 2401 ≡ 1 mod 25, so 7 fails mod 25
    assert not check_primitive_root(5, 7)
    with pytest.raises(ValueError):
        check_primitive_root(2, 3)
    with pytest.raises(ValueError):
        check_primitive_root(3, 6)


def test_least_primitive_root_oracle():
    assert least_primitive_root(3) == 2
    assert least_primitive_root(5) == 2
    assert least_primitive_root(7) == 3
    assert least_primitive_root(11) == 2
    assert least_primitive_root(13) == 2


@given(st.sampled_from([3, 5, 7, 11, 13]))
def test_least_primitive_root_generates(p):
    q = least_primitive_root(p)
    assert multiplicative_order(q, p * p) == p * (p - 1)


def test_primitive_root_test_is_the_order_definition():
    # q generates (Z/p**2)^x exactly when its order is p(p-1); every q in a
    # window of three p**2 periods, negatives included
    for p in filter(is_prime, range(3, 40)):
        for q in range(-p * p, 2 * p * p):
            if q % p:
                want = multiplicative_order(q, p * p) == p * (p - 1)
                assert check_primitive_root(p, q) == want, (p, q)


def test_primitive_root_at_a_large_prime():
    assert least_primitive_root(4001) == 3
    assert least_primitive_root(10007) == 5


def test_least_primitive_root_matches_the_candidate_scan():
    for p in filter(is_prime, range(3, 3000)):
        assert least_primitive_root(p) == least_primitive_root_by_scan(p), p


@pytest.mark.parametrize("p, q", [(999999929569, 61), (999999972409, 46), (999999944831, 43)])
def test_least_primitive_root_near_the_prime_bound(p, q):
    # the candidate scan tests p and factors p - 1 once per candidate, 61 times at the first
    assert least_primitive_root(p) == q
