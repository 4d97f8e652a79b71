"""Exact rational arithmetic localized at a prime.

Everything here works with arbitrary-precision integers and
fractions.Fraction; no floating point is used anywhere in the package.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or string to a Fraction: the one reader of text.
    A string is an integer, a/b or a plain decimal, blanks around allowed; an
    exponent ('1e5000') is refused, as Fraction would build 10**5000 from it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"{x!r} has an exponent; write it as an integer, a/b or a plain decimal")
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floating point values are not allowed; use Fraction")
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# the largest n trial division takes, O(sqrt n): the slowest of 3,000 primes below
# 10**12 took 3.8 s in `ktops check k(p) --l 1`, one below 3 * 10**12 7.7 s (Python 3.11, one Xeon core)
_PRIME_BOUND = 10**12


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, 1 <= n <= _PRIME_BOUND, by trial division: 2, then odd d."""
    if n > _PRIME_BOUND:
        raise ValueError(f"the prime is above the bound {_PRIME_BOUND:,} for trial division")
    out, d, step = [], 2, 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += step
        step = 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_divisors(n) == [n]


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or not _tested_prime(p):
        raise ValueError(f"{p!r} is not a prime")


# bounded memos: the gate trial-divides a p, and p - 1 is factored, once
_tested_prime = lru_cache(64)(is_prime)


@lru_cache(64)
def _unit_primes(p: int) -> tuple[int, ...]:
    return tuple(_prime_divisors(p - 1))


def _int_valuation(p: int, n: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p == 2:  # the lowest set bit, one pass over n
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def nu(p: int, x) -> int:
    """The exponent of p in the rational x.

    nu(p, a/b) = nu(p, a) - nu(p, b) for a/b in lowest terms.  The
    valuation of zero is undefined and raises ValueError rather than
    returning a sentinel.
    """
    _check_prime(p)
    x = as_fraction(x)
    return _int_valuation(p, abs(x.numerator)) - _int_valuation(p, x.denominator)


def _is_unit_pair(p: int, x: int, d: int) -> bool:
    """Whether x / d, d != 0, is a unit of the p-local integers: x != 0 and nu_p(x) == nu_p(d)."""
    return x != 0 and _int_valuation(p, x) == _int_valuation(p, d)


def is_p_local_unit(p: int, x) -> bool:
    """True when x is invertible in the p-local integers: x != 0 and nu(p, x) == 0."""
    x = as_fraction(x)
    if x:
        _check_prime(p)
    return _is_unit_pair(p, x.numerator, x.denominator)


def multiplicative_order(a: int, modulus: int) -> int:
    """Least t >= 1 with a**t == 1 mod modulus; a must be coprime to modulus.

    The order divides phi(modulus), so it is phi(modulus) stripped of each
    prime divisor r while a**(t/r) is still 1: two trial divisions and a
    few pow calls, so a prime modulus near 2**31 answers at once.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    a %= modulus
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible mod {modulus}")
    t = modulus
    for r in _prime_divisors(modulus):
        t = t // r * (r - 1)
    return _strip_order(a, modulus, t, _prime_divisors(t))


def _order_mod_prime(a: int, p: int) -> int:
    """multiplicative_order(a, p), p a prime through the gate, p not dividing a."""
    return _strip_order(a % p, p, p - 1, _unit_primes(p))


def _strip_order(a: int, modulus: int, t: int, primes) -> int:
    for r in primes:
        while t % r == 0 and pow(a, t // r, modulus) == 1:
            t //= r
    return t


def _generator_test(p: int):
    """The test whether q generates the units mod p**2, p an odd prime."""
    _check_prime(p)
    if p == 2:
        raise ValueError("primitive-root test is undefined for p = 2")
    order, rs = p * (p - 1), [p, *_unit_primes(p)]
    return lambda q: all(pow(q, order // r, p * p) != 1 for r in rs)


def check_primitive_root(p: int, q: int) -> bool:
    """Whether q generates the unit group mod p**2, for an odd prime p.

    That is multiplicative_order(q, p**2) == p(p-1), which holds exactly
    when q**(p(p-1)/r) != 1 mod p**2 for every prime r | p(p-1).  The
    2-local constructions fix their own Adams parameter, so p = 2 is
    rejected rather than answered.
    """
    generates = _generator_test(p)
    if q % p == 0:
        raise ValueError("q must not be divisible by p")
    return generates(q)


def least_primitive_root(p: int) -> int:
    """Smallest q >= 2 generating the units mod p**2 (p an odd prime)."""
    generates = _generator_test(p)
    return next(q for q in count(2) if q % p and generates(q))
