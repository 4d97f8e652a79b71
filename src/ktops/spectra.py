"""The eight stock operation algebras and their coalgebras.

Six of them carry a theta-product basis: the basis polynomials are
normalized products prod_{i<n} (w**r - b**i) on an exponent grid of
step r, with b a power of the Adams parameter q.  The remaining two
(the 2-local complex theories) interleave the real basis with odd
companions and have no single product form; their dual-side questions
are answered through the coalgebra tables instead.

Every basis is built on integers in its monomial form (d, {k: m_k});
the node products are grown one linear factor at a time by
ktops.laurent.times_linear.  The six theta-form algebras are
coalgebra.ThetaCoalgebra on their node base, which builds the basis,
the Gamma tables by a Newton recursion on the dual basis, and owns every
fact of the node sequence (nodes, order, gap_valuation, product_row).
The interleaved bases of k(2) and K(2) read the base-9 theta basis of the
real theory; their coalgebra is an InterleavedCoalgebra, which runs the
monomial-sum kernel of CoalgebraSpec, compares by identity, and proves
on its node sequence 1, -1, 3, -3, 9, ... that its tables vanish above
the band n > i + j, so coproduct_entry builds no table there.
SpectrumSpec only names a coalgebra: its prime, step, periodicity and
node base are the coalgebra's.  It is an immutable NamedTuple compared
by value, the coalgebra by that coalgebra's own equality.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, NamedTuple

from .coalgebra import BandedCoalgebra, Basis, CoalgebraSpec, ThetaCoalgebra
from .dual import AdamsPoly
from .laurent import LaurentPoly, times_linear
from .rationals import check_primitive_root, is_prime, least_primitive_root

_NAME = re.compile(r"^(KO|ko|K|k|G|g)(?:\((\d+)\))?$")

# the node base 9 = q**2 of ko(2) and KO(2), q pinned to 3: k(2) and K(2)
# build their basis on it and keep its admissible steps
_REAL_NODES = ThetaCoalgebra(9, 2, prime=2)


class SpectrumSpec(NamedTuple):
    """One of the stock algebras: a name and Adams parameter q bundled
    with its coalgebra, which holds everything else.

    Equality and the hash read all four fields.  A ThetaCoalgebra
    compares by its base, step, prime and periodicity, so two
    make_spectrum("K(3)") are equal and a spec over another node base is
    not; the coalgebras of k(2) and K(2) are InterleavedCoalgebras,
    compared by identity like any CoalgebraSpec, so two
    make_spectrum("k(2)") are not equal.
    """

    name: str
    family: str
    q: int
    coalgebra: CoalgebraSpec

    # read off the coalgebra, so no second copy can disagree with it;
    # base is the node base b of the theta form, or None
    prime = property(lambda self: self.coalgebra.prime)
    step = property(lambda self: self.coalgebra.step)
    periodic = property(lambda self: self.coalgebra.periodic)
    has_theta_form = property(lambda self: isinstance(self.coalgebra, ThetaCoalgebra))
    base = property(lambda self: self.coalgebra.base if self.has_theta_form else None)

    def __repr__(self):
        return f"SpectrumSpec({self.name!r}, q={self.q})"


def parse_name(name: str) -> tuple[str, int]:
    """Split a spectrum name into family letter(s) and prime.

    The prime may be omitted; the real theories then default to 2 and
    everything else to 3.
    """
    m = _NAME.match(name.strip())
    if not m:
        raise ValueError(
            f"unrecognized spectrum name {name!r}; expected one of "
            "K(p), k(p), G(p), g(p), KO, ko"
        )
    family = m.group(1)
    if m.group(2) is None:
        p = 2 if family in ("KO", "ko") else 3
    else:
        p = int(m.group(2))
    return family, p


def _interleaved_basis(real: ThetaCoalgebra, q: int, periodic: bool) -> Basis:
    # even slots reuse the real basis h_m in w**2; odd slots multiply in the
    # degree-one factor (q**m - w) / (2 q**m) = (w - q**m) / (-2 q**m), which
    # kills w = q**m and keeps the coefficients 2-locally integral; the
    # periodic element n moves down by floor(n/2) slots
    def basis(n: int):
        m, odd = divmod(n, 2)
        den, h = real.basis(m)
        h = {2 * e: c for e, c in h.items()}
        if odd:
            dense = [h.get(j, 0) for j in range(2 * m + 1)]
            den, h = -2 * q**m * den, dict(enumerate(times_linear(dense, q**m)))
        shift = n // 2 if periodic else 0
        return den, {k - shift: c for k, c in h.items()}

    return basis


class InterleavedCoalgebra(BandedCoalgebra):
    """The coalgebra of k(2), or of K(2) when periodic: the base-9 theta
    basis h_m of the real theory in w**2 at the even indices and its odd
    companions (_interleaved_basis, q = 3), at step 1 and the prime 2.
    It has no product form, so its coordinates come from the elimination
    and its tables from the monomial-sum kernel of CoalgebraSpec, and it
    compares by identity.

    Band: G_t[m][n] = 0 for t > m + n, so coproduct_entry builds no
    table there.  Proof, on the node sequence z_1, z_2, ... = 1, -1, 3,
    -3, 9, -9, ..., that is z_(2i+1) = 3**i and z_(2i+2) = -3**i:

    * c_n vanishes at z_1..z_n and not at z_(n+1).  Periodically this is
      said of c_n times w**floor(n/2), which moves no zero, as w is a
      unit at every node.  c_2m = h_m(w**2), h_m(x) = prod_(i<m)
      (x - 9**i) / (9**m - 9**i), vanishes at w = +-3**i, i < m, that is
      at z_1..z_2m, and is 1 at z_(2m+1) = 3**m; c_(2m+1) = c_2m (w - 3**m)
      / (-2 3**m) vanishes at z_(2m+1) too and is 1 at z_(2m+2) = -3**m.
    * z_a z_b = z_c with c <= a + b - 1.  For z_a = +-3**i and
      z_b = +-3**j, a >= 2i + 1 and b >= 2j + 1; z_a z_b = +-3**(i+j)
      sits at c = 2(i+j) + 1, or at 2(i+j) + 2 when its sign is minus,
      which needs one of a, b even, so that a + b - 1 >= 2(i+j) + 2.
    * w is grouplike, so w (x) w -> (x, y) sends Delta(c_t) to
      c_t(xy) = sum_(i,j) G_t[i][j] c_i(x) c_j(y).  At x = z_(a+1) and
      y = z_(b+1), a, b <= t, that is V_t = L G_t L^T with
      V_t[a][b] = c_t(z_(a+1) z_(b+1)) and L[a][i] = c_i(z_(a+1)), lower
      triangular with a nonzero diagonal by the first point.  So
      G_t = L^-1 V_t L^-T, and as L^-1 is lower triangular, G_t[m][n]
      reads only the V_t[a][b] with a <= m and b <= n: values of c_t at
      z_c, c <= a + b + 1 <= m + n + 1 by the second point.  For
      t > m + n these are zeros of c_t, so G_t[m][n] = 0.
    """

    def __init__(self, periodic: bool = False, name: str = ""):
        super().__init__(step=1, basis=_interleaved_basis(_REAL_NODES, 3, periodic),
                         prime=2, periodic=periodic, name=name)


def make_spectrum(name: str, q: int | None = None) -> SpectrumSpec:
    """Build one of the stock algebras by name, e.g. "k(3)" or "KO".

    The family letter fixes the rest: K, G and KO are periodic, k, g and
    ko connective.  q is the Adams parameter.  For odd p it must
    generate the units mod p**2 and defaults to the least such
    generator; 2-locally it is pinned to 3.
    """
    family, p = parse_name(name)
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    periodic = family in ("K", "G", "KO")
    if family in ("KO", "ko") and p != 2:
        raise ValueError("the real theories are 2-local only")
    if family in ("G", "g") and p == 2:
        raise ValueError("the summand theories need an odd prime")

    if p == 2:
        if q is None:
            q = 3
        if q != 3:
            raise ValueError("2-local algebras are built on the cube operation; q must be 3")
    else:
        if q is None:
            q = least_primitive_root(p)
        if not check_primitive_root(p, q):
            raise ValueError(f"q = {q} does not generate the units mod {p}**2")

    canonical = f"{family}({p})"
    if family in ("K", "k") and p == 2:
        coalg = InterleavedCoalgebra(periodic=periodic, name=canonical)
    else:
        if family in ("K", "k"):
            step, base = 1, q
        elif family in ("G", "g"):
            step, base = p - 1, q ** (p - 1)
        else:
            step, base = 2, q * q
        coalg = ThetaCoalgebra(base, step, prime=p, periodic=periodic, name=canonical)
    return SpectrumSpec(name=canonical, family=family, q=q, coalgebra=coalg)


def spectrum_names(p_odd: int = 3) -> list[str]:
    """Canonical names of the eight stock algebras at a chosen odd prime."""
    if p_odd == 2 or not is_prime(p_odd):
        raise ValueError(f"{p_odd} is not an odd prime")
    return [
        f"K({p_odd})",
        f"k({p_odd})",
        f"G({p_odd})",
        f"g({p_odd})",
        "KO(2)",
        "ko(2)",
        "K(2)",
        "k(2)",
    ]


def dual_theta_basis(spec: SpectrumSpec, n: int) -> AdamsPoly:
    """The n-th element of the product-form topological basis of the dual,
    ThetaCoalgebra.dual_basis(n) in the degree-raising operation T.

    Connectively this is the plain product prod_{i<n} (T - b**i); in the
    periodic case the nodes walk outward through 0, 1, -1, 2, -2, ... and
    the product is rescaled by sigma_n so that pairing against the
    coalgebra basis is the identity matrix.
    """
    C = spec.coalgebra
    if not isinstance(C, ThetaCoalgebra):
        raise ValueError(f"{spec.name} has no product-form basis; work through the coalgebra tables")
    return AdamsPoly(Fraction(spec.q), LaurentPoly(dict(enumerate(C.dual_basis(n)))))


def support_step(spec: SpectrumSpec, l: int) -> int:
    """Step of the arithmetic progression of admissible shifts at depth l.

    Depth l admissibility asks the unit and congruence conditions mod
    p**l; admissible_shifts yields the positive multiples of the value
    returned here, d = o p**max(0, l - v) with (o, v) = ThetaCoalgebra.order:
    the order of b mod p**l, doubled when the spectrum is periodic.

    Theorem: if d | m, every value the short-cut reads has valuation >= l
    at every n, so no expansion is needed.  The short-cut reads the slot
    gaps |s_(m+k) - s_k|, s_i = ThetaCoalgebra.extending_slot(i), and a
    node difference with slot gap g is a unit times b**g - 1 (see
    checks.check_congruence_condition).  Connectively s_i = i, so every
    gap is m, and u = 0.  Periodically m = 2c, every gap is c, and
    u = -c(n + 2 floor(n/2)).  ord_(p**l)(b) divides m, resp. c.  The
    conditions admit more than the step: odd shifts pass on G(3) and G(5)
    at l = 1 and on KO(2) at l <= 3, decided by the expansion.

    k(2) and K(2), with no product form, keep the rows of base 9 (ko(2), KO(2)),
    too lax there: `ktops check k(2) --l 3` fails 27 of 120 admissible cells.
    They are told apart by their coalgebra, an InterleavedCoalgebra; any
    other coalgebra without a product form has no step: ValueError.
    """
    if l < 1:
        raise ValueError("the depth must be a positive integer")
    C = nodes = spec.coalgebra
    if isinstance(C, InterleavedCoalgebra):
        nodes = _REAL_NODES
    elif not isinstance(C, ThetaCoalgebra):
        raise ValueError(f"{spec.name} has no product-form basis, so no admissible step")
    o, v = nodes.order
    d = o * C.prime ** max(0, l - v)
    return 2 * d if C.periodic else d


def admissible_shifts(spec: SpectrumSpec, l: int) -> Iterator[int]:
    """Positive shifts admissible at depth l, in increasing order."""
    d = support_step(spec, l)
    m = d
    while True:
        yield m
        m += d
