"""The eight stock operation algebras and their coalgebras.

Every stock basis is a Newton basis on a sequence of integer nodes z_l,
l >= 0: element n is c_n = N_n(x) / N_n(z_n), N_n(x) = prod_(l<n)
(x - z_l), x = w**r, times x**(-floor(n/2)) in the periodic theories.
coalgebra._node_basis builds it on integers in its monomial form
(d, {k: m_k}), growing the node products one linear factor at a time
by ktops.laurent.times_linear.  Six of the algebras carry a theta-product
basis, on the nodes z_l = b**l with b a power of the Adams parameter q:
they are coalgebra.ThetaCoalgebra on their node base, which builds the
basis, the Gamma tables by a Newton recursion on the dual basis, and
owns every fact of the node sequence (nodes, order, gap_valuation,
product_row).  The remaining two (the 2-local complex theories k(2) and
K(2)) are built on the nodes z_l = (-1)**l 3**floor(l/2), that is 1, -1,
3, -3, 9, ..., whose dual basis has no single product form; their
dual-side questions are answered through the coalgebra tables instead.
Their coalgebra is an InterleavedCoalgebra, which runs the monomial-sum
kernel of CoalgebraSpec, compares by identity, and proves on its nodes
that its tables vanish above the band n > i + j, so coproduct_entry
builds no table there.
SpectrumSpec only names a coalgebra: its prime, step, periodicity and
node base are the coalgebra's.  It is an immutable NamedTuple compared
by value, the coalgebra by that coalgebra's own equality.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from typing import Iterator, NamedTuple

from .coalgebra import BandedCoalgebra, CoalgebraSpec, ThetaCoalgebra, _node_basis
from .dual import AdamsPoly
from .laurent import LaurentPoly
from .rationals import _check_prime, check_primitive_root, is_prime, least_primitive_root

_NAME = re.compile(r"^(KO|ko|K|k|G|g)(?:\((\d+)\))?$")

# the most bits, read as (p - 1) * bitlen(q), of the node base q**(p-1) of G(p)
# and g(p): the slowest CLI command at --n 1 took 3.5 s at 1,000,016 (p = 500009,
# q = 3), `basis G(1000003) --n 1` 5.5 s at 2,000,004 (Python 3.11, one Xeon core)
_BASE_BITS = 10**6

# the node base 9 = q**2 of ko(2) and KO(2), q pinned to 3: support_step
# reads the admissible steps of k(2) and K(2) off it
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


class InterleavedCoalgebra(BandedCoalgebra):
    """The coalgebra of k(2), or of K(2) when periodic: the Newton basis
    (coalgebra._node_basis) on the nodes z_l = (-1)**l 3**floor(l/2), that
    is z_0, z_1, ... = 1, -1, 3, -3, 9, -9, ..., at step 1 and the prime
    2.  As N_2m(w) = prod_(i<m) (w**2 - 9**i), its even elements are, up
    to the periodic factor, the base-9 theta basis of ko(2) in w**2.  Its
    dual basis has no product form, so its coordinates come from the
    elimination and its tables from the monomial-sum kernel of
    CoalgebraSpec, and it compares by identity.

    Band: G_t[m][n] = 0 for t > m + n, so coproduct_entry builds no
    table there.  Proof:

    * c_n vanishes at z_0..z_(n-1) and is 1 at z_n, as every Newton
      basis does (_node_basis); periodically this is said of c_n times
      w**floor(n/2), which moves no zero, as no node is 0.
    * z_a z_b = z_c with c <= a + b.  For z_a = +-3**i and z_b = +-3**j,
      a >= 2i and b >= 2j; z_a z_b = +-3**(i+j) sits at c = 2(i+j), or
      at 2(i+j) + 1 when its sign is minus, which needs one of a, b odd,
      so that a + b >= 2(i+j) + 1.
    * w is grouplike, so w (x) w -> (x, y) sends Delta(c_t) to
      c_t(xy) = sum_(i,j) G_t[i][j] c_i(x) c_j(y).  At x = z_a and
      y = z_b, a, b <= t, that is V_t = L G_t L^T with
      V_t[a][b] = c_t(z_a z_b) and L[a][i] = c_i(z_a), lower triangular
      with a nonzero diagonal by the first point.  So
      G_t = L^-1 V_t L^-T, and as L^-1 is lower triangular, G_t[m][n]
      reads only the V_t[a][b] with a <= m and b <= n: values of c_t at
      z_c, c <= a + b <= m + n by the second point.  For t > m + n these
      are zeros of c_t, so G_t[m][n] = 0.
    """

    def __init__(self, periodic: bool = False, name: str = ""):
        super().__init__(step=1, basis=_node_basis(lambda l: (-1) ** l * 3 ** (l // 2), periodic),
                         prime=2, periodic=periodic, name=name)


def make_spectrum(name: str, q: int | None = None) -> SpectrumSpec:
    """Build one of the stock algebras by name, e.g. "k(3)" or "KO".

    The family letter fixes the rest: K, G and KO are periodic, k, g and
    ko connective.  q is the Adams parameter.  For odd p it must
    generate the units mod p**2 and defaults to the least such
    generator; 2-locally it is pinned to 3.
    """
    family, p = parse_name(name)
    _check_prime(p)
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
        elif not check_primitive_root(p, q):
            raise ValueError(f"q = {q} does not generate the units mod {p}**2")

    canonical = f"{family}({p})"
    if family in ("K", "k") and p == 2:
        coalg = InterleavedCoalgebra(periodic=periodic, name=canonical)
    else:
        if family in ("K", "k"):
            step, base = 1, q
        elif family in ("G", "g"):
            if (p - 1) * q.bit_length() > _BASE_BITS:
                raise ValueError(f"the node base q**(p-1) is above the bound of {_BASE_BITS:,} bits")
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
    """Positive shifts admissible at depth l, in increasing order; support_step refuses at the call."""
    d = support_step(spec, l)
    return count(d, d)
