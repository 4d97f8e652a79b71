"""The topological dual algebra of a regular coalgebra.

Elements of the dual are infinite sums sum_n r_n a_n, a_n the functional
picking the n-th basis coordinate.  A DualElement stores the first N
coefficients, which fix the element modulo the functionals vanishing on
basis indices below N; all operations below are exact on that coset.
An AdamsPoly is a polynomial P in the operation f(w) -> f(beta), so that
pairing with f gives sum_j p_j f(beta**j).

Products, inverses and expansions run through the pairings with the
grouplike monomials.  Since Delta(w**(rk)) = w**(rk) (x) w**(rk), pairing
with w**(rk) is an algebra map, <a b, w**(rk)> = <a, w**(rk)> <b, w**(rk)>,
and the counit pairs to 1 with every monomial.  At precision N the N
pairings pi_i = <a, w**(r k_i)>, k_i = extending_slot(i), and the N
coefficients determine each other: pi_i reads coefficients 0..i, and
coefficient t is the pairing with c_t, whose slots all have resolving
index <= t.  The Gamma-table contractions these replace are oracles in
tests/oracles.py.

Pairings and coefficients are integer pairs (x, d), d > 0, for x / d,
unreduced: every reader scales a pair to a common denominator or tests
it in any terms, so no reader needs lowest terms.  A product multiplies
pairings, an inverse swaps them, and an operation polynomial is
evaluated by integer Horner at beta**e = u / v (AdamsPoly.values).  The
back transform reduces each pairing; coefficients are reduced to
Fractions only when .coeffs is read.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

from .coalgebra import CoalgebraSpec, _require_prime
from .laurent import LaurentPoly
from .rationals import _is_unit_pair, _order_mod_prime, as_fraction

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
    """A truncated coefficient vector in the dual topological basis.

    The library's results hold pairs (x, d), d > 0, unreduced; .coeffs
    reduces them to Fractions on first read, and keeps those instead.
    """

    __slots__ = ("_held", "_coeffs")

    def __init__(self, coeffs: Iterable):
        self._hold(None, tuple(map(as_fraction, coeffs)))

    @classmethod
    def _of_pairs(cls, pairs: Iterable[Pair]) -> "DualElement":
        self = object.__new__(cls)
        self._hold(tuple(pairs), None)
        return self

    def _hold(self, pairs, coeffs) -> None:
        self._held, self._coeffs = pairs, coeffs
        if not (pairs or coeffs):
            raise ValueError("a dual element needs precision at least 1")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs, self._held = tuple(Fraction(x, d) for x, d in self._held), None
        return self._coeffs

    @property
    def _pairs(self):
        if self._coeffs is None:
            return self._held
        return [(c.numerator, c.denominator) for c in self._coeffs]

    @property
    def precision(self) -> int:
        return len(self._held or self._coeffs)

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


def _pairings(spec: CoalgebraSpec, a: DualElement, count: int, start: int = 0) -> list[Pair]:
    """The pairings pi_i = <a, w**(r k_i)> for k_i = extending_slot(i), start <= i < count.

    pi_i reads only the first i + 1 coefficients of a.  With them over
    one denominator L, r_n = N_n / L, and the monomial coordinates
    A_k / D_k, each pairing is the pair (sum_n N_n A_(k, n), L D_k).
    """
    cs = a._pairs[:count]
    den = lcm(*(d for _, d in cs))
    nums = [x * (den // d) for x, d in cs]
    out = []
    for i in range(start, count):
        d, nz = spec._int_coords(spec.extending_slot(i))
        out.append((sum(nums[n] * v for n, v in nz), den * d))
    return out


def _from_pairings(spec: CoalgebraSpec, pi: list[Pair], count: int) -> Iterator[Pair]:
    """The coefficients, in index order, of the element with pairings pi.

    Coefficient t is the pairing against c_t = (1/d_t) sum_k m_{t,k} w**(rk),
    that is (1/d_t) sum_k m_{t,k} pi_{i(k)}, i(k) <= t the resolving
    index of slot k.

    Each pairing is reduced and read over the running lcm
    L_t = f_0 f_1 ... f_t, f_i the factor its denominator adds, as its
    numerator b_i over L_i.  Coefficient t is the pair (acc, d_t L_t),
    unreduced (the gcd is small; DualElement.coeffs reduces it),
    acc = acc f_i + m_(t, s_i) b_i over i <= t, s_i = extending_slot(i).
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
        yield acc, d * den


def expand(spec: CoalgebraSpec, a: AdamsPoly, precision: int) -> DualElement:
    """Coefficients of an operation polynomial in the dual basis.

    The n-th coefficient is the pairing against basis element n; one
    outside the ground ring is an error, as the element is then not in
    the dual algebra over that ring.  P is evaluated once per monomial
    slot and the coefficients read off by the back transform.
    """
    pi = a.values([spec.step * spec.extending_slot(i) for i in range(precision)])
    out = []
    for n, (x, d) in enumerate(_from_pairings(spec, pi, precision)):
        if not spec._integral(x, d):
            raise NotIntegralError(
                f"coefficient {n} is {Fraction(x, d)}, not integral over the ground ring"
            )
        out.append((x, d))
    return DualElement._of_pairs(out)


def multiply(spec: CoalgebraSpec, a: DualElement, b: DualElement) -> DualElement:
    """Product in the dual algebra, exact at the shared precision.

    Pairing with a grouplike monomial is an algebra map, so the product
    pairs with each monomial as the product of the factors' pairings.
    Coefficient n of the product only involves coefficients i, j <= n of
    the factors, so truncation commutes with multiplication.
    """
    n = min(a.precision, b.precision)
    pi = [(x * y, d * e) for (x, d), (y, e) in zip(_pairings(spec, a, n), _pairings(spec, b, n))]
    return DualElement._of_pairs(_from_pairings(spec, pi, n))


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

    It is one exactly when its pairing with every monomial w**(rk) is a
    unit of the ground ring.  For an AdamsPoly with integer base coprime
    to p those pairings are P at (beta**r)**j, a unit exactly when P mod p
    at (beta**r)**j mod p is nonzero: one period of j is an exact verdict.
    A truncated element checks the monomials resolvable below its
    precision, a bounded verdict.  The type of a picks the route; mode
    must be "auto" or the route's name, "exact" or "truncated".
    """
    p = _require_prime(spec)
    route = "exact" if isinstance(a, AdamsPoly) else "truncated"
    if mode not in ("auto", route):
        raise ValueError(f"mode {mode!r} does not match {type(a).__name__}'s route, {route!r}")
    if route == "exact":
        beta = a.beta
        if beta.denominator != 1 or beta.numerator % p == 0:
            raise ValueError(
                "periodicity unavailable: the exact test needs an integer base coprime to p"
            )
        for _, v in a.poly.items():
            if not spec.in_ground_ring(v):
                raise NotIntegralError(f"coefficient {v} is not integral, unit test undefined")
        base = pow(int(beta), spec.step, p)
        t = _order_mod_prime(base, p)
        # P mod p, one residue a * b**-1 per coefficient a / b
        res = [(e, v.numerator * pow(v.denominator, -1, p)) for e, v in a.poly.items()]
        x = 1
        for j in range(t):
            if sum(r * pow(x, e, p) for e, r in res) % p == 0:
                return UnitVerdict(unit=False, exact=True, witness=j, period=t)
            x = x * base % p
        return UnitVerdict(unit=True, exact=True, period=t)

    n = a.precision
    for i, (x, d) in enumerate(_pairings(spec, a, n)):
        if not _is_unit_pair(p, x, d):
            return UnitVerdict(unit=False, exact=False, witness=spec.extending_slot(i), checked=n)
    return UnitVerdict(unit=True, exact=False, checked=n)


def invert(spec: CoalgebraSpec, a: DualElement) -> DualElement:
    """The inverse of a unit, exact at a's precision.

    Coefficient n of the inverse reads only coefficients <= n of a, and
    its pairings are the reciprocals of a's.  Step i resolves slot
    extending_slot(i); a pairing there that is not a unit of the ground
    ring is reported as the pivot, the divisor that elimination meets at
    step i (the last column of G_i is that monomial's coordinates).
    """
    p = _require_prime(spec)
    n = a.precision
    for x, d in a._pairs:
        if not spec._integral(x, d):
            raise NotIntegralError(f"coefficient {Fraction(x, d)} is not integral over the ground ring")
    pi = _pairings(spec, a, n)
    for i, (x, d) in enumerate(pi):
        if not _is_unit_pair(p, x, d):
            raise NotInvertibleError(i, spec.extending_slot(i), Fraction(x, d))
    return DualElement._of_pairs(_from_pairings(spec, [(d, x) if x > 0 else (-d, -x) for x, d in pi], n))


def algebra_one(spec: CoalgebraSpec, precision: int) -> DualElement:
    """The multiplicative identity: the counit, written in the dual basis."""
    return DualElement(tuple(spec.counit_value(n) for n in range(precision)))
