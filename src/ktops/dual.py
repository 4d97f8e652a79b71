"""The topological dual algebra of a regular coalgebra.

Elements of the dual are infinite sums sum_n r_n a_n where a_n is the
functional picking the n-th basis coordinate.  A DualElement stores the
first N coefficients, which pins the element down modulo the ideal of
functionals vanishing on basis indices below N; all operations below
are exact on that coset.  An AdamsPoly is the other way of presenting
an element: a polynomial P evaluated at the operation that sends f(w)
to f(beta), so that pairing with f gives sum_j p_j f(beta**j).

Products, inverses and expansions run through the pairings with the
grouplike monomials.  Since Delta(w**(rk)) = w**(rk) (x) w**(rk), pairing
with w**(rk) is an algebra map:

    <a b, w**(rk)> = <a, w**(rk)> <b, w**(rk)>,

and the identity (the counit) pairs to 1 with every monomial.  At
precision N the N pairings pi_i = <a, w**(r k_i)>, k_i = extending_slot(i),
and the N coefficients determine each other: pi_i reads coefficients
0..i through the coordinates of w**(r k_i), and coefficient t is the
pairing with c_t = (1/d_t) sum_k m_{t,k} w**(rk), whose slots all have
resolving index <= t.  So a product multiplies pairings pointwise, an
inverse takes their reciprocals, and an AdamsPoly's pairings are its
values at beta**(r k_i).  The Gamma-table contractions these replace,
and the pairing with a LaurentPoly, are oracles in tests/oracles.py.

A pairing is carried as an integer pair (x, d), d > 0, standing for
x / d and not reduced: a product multiplies pairs componentwise, an
inverse swaps them, and an operation polynomial is evaluated only by
integer Horner at beta**e = u / v (AdamsPoly.values), which reads its
items and does no LaurentPoly arithmetic.  The back transform reduces
each pair once and builds one Fraction per coefficient.

AdamsPoly is immutable and compared by (beta, poly); UnitVerdict is an
immutable NamedTuple compared by value.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

from .coalgebra import CoalgebraSpec
from .laurent import LaurentPoly
from .rationals import _int_valuation, as_fraction, multiplicative_order

Pair = tuple[int, int]


class PrecisionError(ValueError):
    pass


class NotIntegralError(ValueError):
    pass


class NotInvertibleError(ValueError):
    def __init__(self, step: int, slot: int, pivot: Fraction):
        self.step = step
        self.slot = slot
        self.pivot = pivot
        super().__init__(
            f"not invertible at step {step}: pairing against monomial slot {slot} gives {pivot}"
        )


class DualElement:
    """A truncated coefficient vector in the dual topological basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs = tuple(as_fraction(v) for v in coeffs)
        if not self.coeffs:
            raise ValueError("a dual element needs precision at least 1")

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @classmethod
    def unit_vector(cls, n: int, precision: int) -> "DualElement":
        if not 0 <= n < precision:
            raise ValueError(f"unit vector index {n} is negative" if n < 0 else
                             "unit vector index must sit below the precision")
        return cls(tuple(1 if i == n else 0 for i in range(precision)))

    def __eq__(self, other):
        return isinstance(other, DualElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"DualElement({list(self.coeffs)!r})"


class AdamsPoly:
    """A polynomial in the degree-raising operation of base beta.

    poly is an ordinary polynomial in a formal variable X standing for
    the operation f(w) -> f(beta); its j-th power pairs with f as
    f(beta**j), so the whole element pairs as sum_j p_j f(beta**j).
    Immutable, and compared and hashed by (beta, poly).
    """

    def __init__(self, beta: Fraction, poly: LaurentPoly):
        beta = as_fraction(beta)
        if beta == 0:
            raise ValueError("the operation base must be nonzero")
        if not poly.is_zero and poly.low < 0:
            raise ValueError("an operation polynomial has no negative powers")
        self.__dict__.update(beta=beta, poly=poly)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to AdamsPoly.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete AdamsPoly.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.beta, self.poly) == (other.beta, other.poly)

    def __hash__(self):
        return hash((self.beta, self.poly))

    def __repr__(self):
        return f"AdamsPoly(beta={self.beta!r}, poly={self.poly!r})"

    def values(self, exponents: Iterable[int]) -> list[Pair]:
        """P(beta**e) for each e, as integer pairs (x, d) with d > 0.

        P = (1/D) sum_j N_j X**j over integers and beta**e = u / v with
        v > 0, so P(beta**e) = (sum_j N_j u**j v**(deg - j)) / (D v**deg),
        whose numerator one Horner pass over the N_j builds.
        """
        if self.poly.is_zero:
            return [(0, 1) for _ in exponents]
        deg = self.poly.degree
        den = lcm(*(c.denominator for _, c in self.poly.items()))
        nums = [0] * (deg + 1)
        for j, c in self.poly.items():
            nums[j] = c.numerator * (den // c.denominator)
        top = nums.pop()
        nums.reverse()
        out = []
        for e in exponents:
            u, v = self.beta.numerator, self.beta.denominator
            if e < 0:
                u, v, e = v, u, -e
                if v < 0:
                    u, v = -u, -v
            u, v = u**e, v**e
            acc, vk = top, 1
            for n in nums:
                vk *= v
                acc = acc * u + n * vk
            out.append((acc, den * vk))
        return out


class UnitVerdict(NamedTuple):
    unit: bool
    exact: bool
    witness: int | None = None
    period: int | None = None
    checked: int | None = None

    def __bool__(self):
        return self.unit


def _require_prime(spec: CoalgebraSpec) -> int:
    if spec.prime is None:
        raise ValueError("this operation needs a p-local coalgebra")
    return spec.prime


def _pairings(spec: CoalgebraSpec, a: DualElement, count: int, start: int = 0) -> list[Pair]:
    """The pairings pi_i = <a, w**(r k_i)> for k_i = extending_slot(i), start <= i < count.

    Slot k_i is resolved by basis indices <= i, so pi_i reads only the
    first i + 1 coefficients of a.  With the first count coefficients
    over one denominator L, r_n = N_n / L, and the cached monomial
    coordinates A_k / D_k, each pairing is the unreduced pair
    (sum_n N_n A_(k, n), L D_k).
    """
    cs = a.coeffs[:count]
    den = lcm(*(c.denominator for c in cs))
    nums = [c.numerator * (den // c.denominator) for c in cs]
    out = []
    for i in range(start, count):
        d, nz = spec._int_coords(spec.extending_slot(i))
        out.append((sum(nums[n] * v for n, v in nz), den * d))
    return out


def _from_pairings(spec: CoalgebraSpec, pi: list[Pair], count: int) -> Iterator[Fraction]:
    """The coefficients, in index order, of the element with pairings pi.

    Each pairing is an integer pair (x, d), d > 0, standing for x / d,
    and need not be reduced.  Coefficient t is the pairing against
    c_t = (1/d_t) sum_k m_{t,k} w**(rk), that is
    (1/d_t) sum_k m_{t,k} pi_{i(k)} with i(k) the resolving index of
    slot k.  Every slot of window(t) has i(k) <= t, so the first count
    pairings fix the first count coefficients.

    Each pair is reduced once, and the pairings are read over their
    running lcm L_t = f_0 f_1 ... f_t, f_i the factor pi_i's reduced
    denominator adds.  Each is stored once, as the numerator b_i it has
    over L_i; over L_t it is b_i f_(i+1) ... f_t.  So coefficient t is
    acc / (d_t L_t), the one Fraction built per coefficient, with acc
    built by one Horner pass over i <= t,

        acc = acc f_i + m_(t, s_i) b_i,   s_i = extending_slot(i),

    instead of rescaling every stored numerator each time L grows.
    """
    den = 1
    fs: list[int] = []
    nums: list[int] = []
    slots: list[int] = []
    for t in range(count):
        x, dx = pi[t]
        g = gcd(x, dx)
        if g != 1:
            x, dx = x // g, dx // g
        f = dx // gcd(den, dx)
        den *= f
        fs.append(f)
        nums.append(x * (den // dx))
        slots.append(spec.extending_slot(t))
        d, mono = spec.monomial_form(t)
        acc = 0
        for f, b, s in zip(fs, nums, slots):
            if f != 1:
                acc *= f
            m = mono.get(s)
            if m:
                acc += m * b
        yield Fraction(acc, d * den)


def _is_unit_pair(p: int, x: int, d: int) -> bool:
    """Whether x / d is a unit of the p-local integers: x != 0 and nu_p(x) == nu_p(d)."""
    return x != 0 and _int_valuation(p, x) == _int_valuation(p, d)


def expand(spec: CoalgebraSpec, a: AdamsPoly, precision: int) -> DualElement:
    """Coefficients of an operation polynomial in the dual basis.

    The n-th coefficient is the pairing against basis element n.  A
    coefficient outside the ground ring means the element does not lie
    in the dual algebra over that ring, which is an error rather than a
    value.  The polynomial is evaluated once per monomial slot and the
    coefficients are read off by the back transform.
    """
    pi = a.values([spec.step * spec.extending_slot(i) for i in range(precision)])
    out = []
    for n, v in enumerate(_from_pairings(spec, pi, precision)):
        if not spec.in_ground_ring(v):
            raise NotIntegralError(
                f"coefficient {n} is {v}, not integral over the ground ring"
            )
        out.append(v)
    return DualElement(out)


def multiply(spec: CoalgebraSpec, a: DualElement, b: DualElement) -> DualElement:
    """Product in the dual algebra, exact at the shared precision.

    Pairing with a grouplike monomial is an algebra map, so the product
    pairs with each monomial as the product of the factors' pairings.
    Coefficient n of the product only involves coefficients i, j <= n of
    the factors, so truncation commutes with multiplication.
    """
    n = min(a.precision, b.precision)
    pi = [(x * y, d * e) for (x, d), (y, e) in zip(_pairings(spec, a, n), _pairings(spec, b, n))]
    return DualElement(_from_pairings(spec, pi, n))


def monomial_pairing(spec: CoalgebraSpec, a: DualElement, k: int) -> Fraction:
    """The pairing of a against the monomial w**(rk), when resolvable."""
    need = spec.resolving_index(k) + 1
    if need > a.precision:
        raise PrecisionError(
            f"monomial slot {k} needs {need} coefficients; only {a.precision} known"
        )
    # k is extending_slot(need - 1), the last pairing of precision need
    (x, d), = _pairings(spec, a, need, need - 1)
    return Fraction(x, d)


def is_unit(spec: CoalgebraSpec, a, mode: str = "auto") -> UnitVerdict:
    """Whether a is invertible in the dual algebra.

    An element is a unit exactly when its pairing against every
    monomial w**(rk) is a unit of the ground ring.  For an AdamsPoly
    with integer base coprime to p those pairings are P evaluated at
    powers of beta**r.  P has p-integral coefficients, so a value is a
    unit exactly when its residue mod p is nonzero, and that residue is
    P mod p evaluated at (beta**r)**j mod p: one period of j, the order
    of beta**r mod p, gives an exact verdict.  For a truncated element
    only the monomials resolvable below the precision can be checked,
    so the verdict is a bounded one.
    """
    p = _require_prime(spec)
    if mode not in ("auto", "exact", "truncated"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if isinstance(a, AdamsPoly) else "truncated"

    if mode == "exact":
        if not isinstance(a, AdamsPoly):
            raise ValueError("the exact unit test needs the operation-polynomial form")
        beta = a.beta
        if beta.denominator != 1 or beta.numerator % p == 0:
            raise ValueError(
                "periodicity unavailable: the exact test needs an integer base coprime to p"
            )
        for _, v in a.poly.items():
            if not spec.in_ground_ring(v):
                raise NotIntegralError(f"coefficient {v} is not integral, unit test undefined")
        base = pow(int(beta), spec.step, p)
        t = multiplicative_order(base, p)
        # P mod p, one residue a * b**-1 per coefficient a / b
        res = [(e, v.numerator * pow(v.denominator, -1, p)) for e, v in a.poly.items()]
        x = 1
        for j in range(t):
            if sum(r * pow(x, e, p) for e, r in res) % p == 0:
                return UnitVerdict(unit=False, exact=True, witness=j, period=t)
            x = x * base % p
        return UnitVerdict(unit=True, exact=True, period=t)

    if isinstance(a, AdamsPoly):
        raise ValueError("the truncated unit test needs a truncated element")
    n = a.precision
    for i, (x, d) in enumerate(_pairings(spec, a, n)):
        if not _is_unit_pair(p, x, d):
            return UnitVerdict(unit=False, exact=False, witness=spec.extending_slot(i), checked=n)
    return UnitVerdict(unit=True, exact=False, checked=n)


def invert(spec: CoalgebraSpec, a: DualElement) -> DualElement:
    """The inverse of a unit, exact at a's precision.

    Coefficient n of the inverse reads only coefficients <= n of a, so
    truncating a first truncates the inverse.  The inverse pairs with
    each monomial as the reciprocal of a's pairing.  Pairings are
    checked in index order: step i resolves slot extending_slot(i), and
    a pairing there that is not a unit of the ground ring is reported
    with its step and slot as the pivot.  This is the divisor that
    coefficient-by-coefficient elimination meets at step i, since the
    last column of the step-i structure constants is the coordinate
    vector of that slot's monomial.
    """
    p = _require_prime(spec)
    n = a.precision
    for v in a.coeffs:
        if not spec.in_ground_ring(v):
            raise NotIntegralError(f"coefficient {v} is not integral over the ground ring")
    pi = _pairings(spec, a, n)
    for i, (x, d) in enumerate(pi):
        if not _is_unit_pair(p, x, d):
            raise NotInvertibleError(i, spec.extending_slot(i), Fraction(x, d))
    return DualElement(_from_pairings(spec, [(d, x) if x > 0 else (-d, -x) for x, d in pi], n))


def algebra_one(spec: CoalgebraSpec, precision: int) -> DualElement:
    """The multiplicative identity: the counit, written in the dual basis."""
    return DualElement(tuple(spec.counit_value(n) for n in range(precision)))
