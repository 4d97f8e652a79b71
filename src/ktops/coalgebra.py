"""Regular coalgebras of (Laurent) polynomials and their coefficient tables.

A coalgebra here is the span, over Z or over the p-local integers, of
one basis polynomial per index n >= 0 inside Q[w**r, w**-r], with the
variable w grouplike: the comultiplication sends w**k to w**k (x) w**k.
Regularity means the basis element of index n occupies exactly the
degree window of index n and that every monomial w**(rk) lies in the
span with coefficients in the ground ring.

Connective case: element n has exponents inside {0, r, ..., nr} and
exact degree nr.  Periodic case: element n has exponents inside
r*[-floor(n/2), ceil(n/2)] and a nonzero coefficient on the one slot
that window adds over the window of element n-1.

Three coefficient tables are derived from the basis and memoized:

* monomial_form(n): the pair (d_n, m) writing element n as
  (1/d_n) * sum_k m_k w**(rk) with integer m_k, d_n > 0 and
  gcd({m_k}, d_n) = 1;
* basis_coords(k): the coordinates of the monomial w**(rk) in the
  basis (exact rationals; regularity asks them to be integral);
* coproduct_matrix(n): the structure constants of the comultiplication,
  i.e. the matrix G with Delta(c_n) = sum G[i][j] c_i (x) c_j.

The tables are built on Python ints.  The coordinates of a monomial are
found by fraction-free elimination and kept as integers over one
denominator, their lcm; each Gamma table is summed as integers over one
denominator for the whole table.  A Fraction is made once per entry
handed out, and every zero entry is one shared Fraction(0).  The older
route, which clears a LaurentPoly remainder one Fraction operation at a
time, is kept in tests/oracles.py as the oracle the kernel is checked
against.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .laurent import LaurentPoly
from .rationals import is_p_local_integer, is_prime


_ZERO = Fraction(0)


class NotRegularError(ValueError):
    pass


@dataclass(eq=False)
class CoalgebraSpec:
    """A choice of ground ring, exponent step and basis polynomials."""

    step: int
    basis: Callable[[int], LaurentPoly]
    prime: int | None = None
    periodic: bool = False
    name: str = ""
    _poly: dict = field(default_factory=dict, repr=False)
    _mono: dict = field(default_factory=dict, repr=False)
    _icoords: dict = field(default_factory=dict, repr=False)
    _coords: dict = field(default_factory=dict, repr=False)
    _gamma: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("the exponent step must be a positive integer")
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"{self.prime!r} is not a prime")

    # ------------------------------------------------------------------
    # windows and slots
    # ------------------------------------------------------------------

    def window(self, n: int) -> tuple[int, int]:
        """Slot range (lo, hi) that basis element n may occupy."""
        if self.periodic:
            return (-(n // 2), (n + 1) // 2)
        return (0, n)

    def resolving_index(self, k: int) -> int:
        """Least basis index whose window contains slot k."""
        if not self.periodic:
            if k < 0:
                raise NotRegularError("negative exponents need a periodic coalgebra")
            return k
        if k == 0:
            return 0
        return 2 * k - 1 if k > 0 else -2 * k

    def extending_slot(self, n: int) -> int:
        """The one slot that the window of element n adds over element n-1."""
        if not self.periodic:
            return n
        if n == 0:
            return 0
        return (n + 1) // 2 if n % 2 else -(n // 2)

    # ------------------------------------------------------------------
    # basis access and validation
    # ------------------------------------------------------------------

    def basis_poly(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("basis indices start at 0")
        if n in self._poly:
            return self._poly[n]
        c = self.basis(n)
        if n == 0:
            if c != LaurentPoly.one():
                raise NotRegularError("basis element 0 must be the constant 1")
        else:
            lo, hi = self.window(n)
            r = self.step
            for e in c.support:
                if e % r or not (lo <= e // r <= hi):
                    raise NotRegularError(
                        f"element {n} has exponent {e} outside its window; not a regular basis"
                    )
            if c.coeff(r * self.extending_slot(n)) == 0:
                raise NotRegularError(
                    f"element {n} misses its extending slot; not a regular basis"
                )
        self._poly[n] = c
        return c

    def in_ground_ring(self, x: Fraction) -> bool:
        if self.prime is None:
            return Fraction(x).denominator == 1
        return is_p_local_integer(self.prime, x)

    def counit_value(self, n: int) -> Fraction:
        """Value of the counit on basis element n (evaluation at w = 1)."""
        return self.basis_poly(n)(1)

    # ------------------------------------------------------------------
    # coefficient tables
    # ------------------------------------------------------------------

    def monomial_form(self, n: int) -> tuple[int, dict[int, int]]:
        """Write element n as (1/d) * sum_k m_k w**(rk); returns (d, {k: m_k}).

        d is the positive lcm of the coefficient denominators, which
        makes gcd({m_k}, d) = 1 automatic.
        """
        if n in self._mono:
            return self._mono[n]
        c = self.basis_poly(n)
        d = lcm(*(v.denominator for _, v in c.items())) if not c.is_zero else 1
        form = (d, {e // self.step: v.numerator * (d // v.denominator) for e, v in c.items()})
        self._mono[n] = form
        return form

    def coords_of(self, f: LaurentPoly) -> tuple[Fraction, ...]:
        """Coordinates of f in the basis, as a dense tuple from index 0.

        Raises NotRegularError when f is not in the span.
        """
        if f.is_zero:
            return ()
        den = lcm(*(v.denominator for _, v in f.items()))
        slots = {}
        for e, v in f.items():
            if e % self.step:
                raise NotRegularError(f"exponent {e} is not a multiple of the step {self.step}")
            slots[e // self.step] = v.numerator * (den // v.denominator)
        d, nums = self._int_coords(slots, den)
        return tuple(Fraction(a, d) if a else _ZERO for a in nums)

    def _int_coords(self, slots: dict[int, int], den: int) -> tuple[int, list[int]]:
        """Coordinates of (1/den) * sum_k slots[k] w**(rk) as (D, [A_0, ...]).

        The coordinate on index n is A_n / D with D > 0 the lcm of their
        denominators.  Fraction-free elimination: the remainder is kept
        as integers R over one denominator, and the extremal slot of R,
        which only the highest-index contributing basis element can
        reach, is cleared with that element's integer monomial form.
        """
        rem = dict(slots)
        out: dict[int, tuple[int, int]] = {}
        while rem:
            n = max(self.resolving_index(k) for k in rem)
            k = self.extending_slot(n)
            d_n, mono = self.monomial_form(n)
            # x = R_k d_n / (den m_k) clears slot k; with a / b = R_k / m_k
            # in lowest terms, x c_n = (a / (den b)) M for M = d_n c_n
            g = gcd(rem[k], mono[k])
            a, b = rem[k] // g, mono[k] // g
            out[n] = (a * d_n, den * b)
            if b != 1:
                for j in rem:
                    rem[j] *= b
            for j, m in mono.items():
                v = rem.get(j, 0) - a * m
                if v:
                    rem[j] = v
                else:
                    del rem[j]
            den *= b
            g = gcd(den, *rem.values()) if rem else 1
            if g != 1:
                den //= g
                for j in rem:
                    rem[j] //= g
        for n, (a, b) in out.items():
            g = gcd(a, b)
            out[n] = (a // g, b // g)
        d = lcm(*(b for _, b in out.values()))
        nums = [0] * (max(out) + 1)
        for n, (a, b) in out.items():
            nums[n] = a * (d // b)
        return d, nums

    def _monomial_int_coords(self, k: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """basis_coords(k) as (D, ((i, A_i), ...)) over the nonzero A_i."""
        if k in self._icoords:
            return self._icoords[k]
        d, nums = self._int_coords({k: 1}, 1)
        form = (d, tuple((i, a) for i, a in enumerate(nums) if a))
        self._icoords[k] = form
        return form

    def basis_coords(self, k: int) -> tuple[Fraction, ...]:
        """Coordinates of the monomial w**(rk) in the basis.

        The tuple has length resolving_index(k) + 1; regularity asks
        every entry to lie in the ground ring.
        """
        if k in self._coords:
            return self._coords[k]
        d, nz = self._monomial_int_coords(k)
        coords = [_ZERO] * (self.resolving_index(k) + 1)
        for i, a in nz:
            coords[i] = Fraction(a, d)
        coords = tuple(coords)
        self._coords[k] = coords
        return coords

    def coproduct_matrix(self, n: int) -> tuple[tuple[Fraction, ...], ...]:
        """Structure constants G with Delta(c_n) = sum_{i,j} G[i][j] c_i (x) c_j.

        Since w is grouplike, Delta(c_n) = (1/d) sum_k m_k w**(rk) (x) w**(rk);
        expanding each monomial through basis_coords gives
        G[i][j] = sum_k coords_k[i] * coords_k[j] * m_k / d.  Each term is
        symmetric in i and j, so only i <= j is summed.  With
        coords_k = A_k / D_k and L the lcm of the D_k**2, the sum runs on
        integers and G[i][j] = (sum_k m_k (L / D_k**2) A_ki A_kj) / (d L).
        """
        if n in self._gamma:
            return self._gamma[n]
        d, mono = self.monomial_form(n)
        forms = [(mk, *self._monomial_int_coords(k)) for k, mk in mono.items()]
        big = lcm(*(dk * dk for _, dk, _ in forms))
        size = n + 1
        acc = [[0] * size for _ in range(size)]
        for mk, dk, nz in forms:
            scale = mk * (big // (dk * dk))
            for t, (i, a) in enumerate(nz):
                row = acc[i]
                sa = scale * a
                for j, b in nz[t:]:
                    row[j] += sa * b
        den = d * big
        g = [[_ZERO] * size for _ in range(size)]
        for i, row in enumerate(acc):
            for j in range(i, size):
                if row[j]:
                    g[i][j] = g[j][i] = Fraction(row[j], den)
        out = tuple(tuple(row) for row in g)
        self._gamma[n] = out
        return out

    def coproduct_entry(self, i: int, j: int, n: int) -> Fraction:
        """G[i][j] of element n, with the triangular zeros filled in."""
        if i > n or j > n:
            return Fraction(0)
        return self.coproduct_matrix(n)[i][j]

    def monomial_slots(self, limit: int) -> list[int]:
        """All slots k whose monomial is resolvable by basis indices <= limit."""
        if not self.periodic:
            return list(range(limit + 1))
        ks = [0]
        for k in range(1, limit + 1):
            if self.resolving_index(k) <= limit:
                ks.append(k)
            if self.resolving_index(-k) <= limit:
                ks.append(-k)
        return sorted(ks)


# ----------------------------------------------------------------------
# regularity verification
# ----------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    counterexample: str = ""


@dataclass
class RegularityReport:
    limit: int
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else f"FAIL ({c.counterexample})"
            lines.append(f"{c.name}: {status}")
        return "\n".join(lines)


def verify_regularity(spec: CoalgebraSpec, limit: int) -> RegularityReport:
    """Run every regularity check on basis indices and monomials up to limit."""
    checks: list[CheckResult] = []

    bad = ""
    for n in range(limit + 1):
        try:
            spec.basis_poly(n)
        except NotRegularError as e:
            bad = f"n={n}: {e}"
            break
    checks.append(CheckResult("basis shape", not bad, bad))
    if bad:
        return RegularityReport(limit, checks)

    slots = spec.monomial_slots(limit)

    bad = ""
    for k in slots:
        coords = spec.basis_coords(k)
        for n, v in enumerate(coords):
            if not spec.in_ground_ring(v):
                bad = f"monomial k={k}, index {n}: coordinate {v}"
                break
        if bad:
            break
    checks.append(CheckResult("monomial coordinates integral", not bad, bad))

    bad = ""
    for n in range(limit + 1):
        g = spec.coproduct_matrix(n)
        for i in range(n + 1):
            for j in range(n + 1):
                if not spec.in_ground_ring(g[i][j]):
                    bad = f"element {n}, entry ({i},{j}): {g[i][j]}"
                    break
            if bad:
                break
        if bad:
            break
    checks.append(CheckResult("coproduct constants integral", not bad, bad))

    bad = ""
    for i in range(limit + 1):
        d, mono = spec.monomial_form(i)
        ki = spec.extending_slot(i)
        coords = spec.basis_coords(ki)
        if coords[i] * mono.get(ki, 0) != d:
            bad = f"element {i}: diagonal product {coords[i] * mono.get(ki, 0)} != {d}"
            break
    checks.append(CheckResult("diagonal identity", not bad, bad))

    bad = ""
    for i in range(limit + 1):
        g = spec.coproduct_matrix(i)
        coords = spec.basis_coords(spec.extending_slot(i))
        for n in range(i + 1):
            if g[n][i] != coords[n]:
                bad = f"entry ({n},{i}) of element {i}: {g[n][i]} != coordinate {coords[n]}"
                break
        if bad:
            break
    checks.append(CheckResult("last column matches monomial coordinates", not bad, bad))

    bad = ""
    eps = [spec.counit_value(i) for i in range(limit + 1)]
    for n in range(limit + 1):
        g = spec.coproduct_matrix(n)
        for j in range(n + 1):
            left = sum(eps[i] * g[i][j] for i in range(n + 1))
            right = sum(eps[i] * g[j][i] for i in range(n + 1))
            want = Fraction(1 if j == n else 0)
            if left != want or right != want:
                bad = f"element {n}, index {j}: counit sums ({left}, {right})"
                break
        if bad:
            break
    checks.append(CheckResult("counit law", not bad, bad))

    return RegularityReport(limit, checks)


# ----------------------------------------------------------------------
# stock examples
# ----------------------------------------------------------------------


def binomial_coalgebra(prime: int | None = None) -> CoalgebraSpec:
    """Integer-valued polynomials: basis element n is binomial(w, n)."""

    def basis(n: int) -> LaurentPoly:
        out = LaurentPoly.one()
        w = LaurentPoly.variable()
        for i in range(n):
            out = out * (w - i)
        return out * Fraction(1, _factorial(n))

    return CoalgebraSpec(step=1, basis=basis, prime=prime, name="binomial")


def monomial_coalgebra(step: int = 1, prime: int | None = None, periodic: bool = False) -> CoalgebraSpec:
    """The plain monomial basis: element n is w**(rn), or the windowed
    monomial in the periodic case."""

    def basis(n: int) -> LaurentPoly:
        k = ((n + 1) // 2 if n % 2 else -(n // 2)) if periodic else n
        return LaurentPoly.monomial(step * k)

    return CoalgebraSpec(step=step, basis=basis, prime=prime, periodic=periodic, name="monomial")


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out
