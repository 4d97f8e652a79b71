"""The eight stock operation algebras and their coalgebras.

Six of them carry a theta-product basis: the basis polynomials are
normalized products prod_{i<n} (w**r - b**i) on an exponent grid of
step r, with b a power of the Adams parameter q.  The remaining two
(the 2-local complex theories) interleave the real basis with odd
companions and have no single product form; their dual-side questions
are answered through the coalgebra tables instead.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .coalgebra import CoalgebraSpec
from .dual import AdamsPoly
from .laurent import LaurentPoly, alternating_powers, geometric_powers, theta
from .rationals import check_primitive_root, is_prime, least_primitive_root

_NAME = re.compile(r"^(KO|ko|K|k|G|g)(?:\((\d+)\))?$")

FAMILIES = ("K", "k", "G", "g", "KO", "ko")


@dataclass(frozen=True)
class SpectrumSpec:
    """One of the stock algebras, bundled with its coalgebra."""

    name: str
    family: str
    prime: int
    q: int
    step: int
    periodic: bool
    base: int | None
    coalgebra: CoalgebraSpec = field(compare=False)

    @property
    def has_theta_form(self) -> bool:
        return self.base is not None

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


def _theta_basis(step: int, b: int) -> Callable[[int], LaurentPoly]:
    # integer coefficients of theta_n(x) = prod_{i<n} (x - b**i), constant
    # term first, each one linear factor on the last
    thetas = [[1]]

    def basis(n: int) -> LaurentPoly:
        while len(thetas) <= n:
            t, z = thetas[-1], b ** (len(thetas) - 1)
            thetas.append([u - z * v for u, v in zip([0] + t, t + [0])])
        num = thetas[n]
        x, den = b**n, 0
        for c in reversed(num):
            den = den * x + c
        return LaurentPoly({step * e: Fraction(c, den) for e, c in enumerate(num) if c})

    return basis


def _interleaved_basis(b: int, q: int) -> Callable[[int], LaurentPoly]:
    # even slots reuse the real basis h_m; odd slots multiply in the
    # degree-one factor (q**m - w) / (2 q**m), which kills w = q**m and
    # keeps the coefficients 2-locally integral
    even = _theta_basis(2, b)

    def basis(n: int) -> LaurentPoly:
        m, odd = divmod(n, 2)
        h = even(m)
        if not odd:
            return h
        factor = (LaurentPoly({0: Fraction(q) ** m}) - LaurentPoly.variable()) * Fraction(
            1, 2 * q**m
        )
        return factor * h

    return basis


def _periodic_wrap(step: int, conn: Callable[[int], LaurentPoly]) -> Callable[[int], LaurentPoly]:
    def basis(n: int) -> LaurentPoly:
        return conn(n).shift(-step * (n // 2))

    return basis


def make_spectrum(name: str, q: int | None = None, periodic: bool | None = None) -> SpectrumSpec:
    """Build one of the stock algebras by name, e.g. "k(3)" or "KO".

    q is the Adams parameter.  For odd p it must generate the units
    mod p**2 and defaults to the least such generator; 2-locally it is
    pinned to 3.
    """
    family, p = parse_name(name)
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    if periodic is None:
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
    if family in ("K", "k"):
        if p == 2:
            step, base = 1, None
            conn = _interleaved_basis(q * q, q)
        else:
            step, base = 1, q
            conn = _theta_basis(1, q)
    elif family in ("G", "g"):
        step = p - 1
        base = q ** (p - 1)
        conn = _theta_basis(step, base)
    else:
        step, base = 2, q * q
        conn = _theta_basis(2, q * q)

    basis = _periodic_wrap(step, conn) if periodic else conn
    coalg = CoalgebraSpec(step=step, basis=basis, prime=p, periodic=periodic, name=canonical)
    return SpectrumSpec(
        name=canonical,
        family=family,
        prime=p,
        q=q,
        step=step,
        periodic=periodic,
        base=base,
        coalgebra=coalg,
    )


def spectrum_names(p_odd: int = 3) -> list[str]:
    """Canonical names of the eight stock algebras at a chosen odd prime."""
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
    """The n-th element of the product-form topological basis of the dual.

    Connectively this is the plain product prod_{i<n} (T - b**i) in the
    degree-raising operation T; in the periodic case the nodes walk
    outward through 0, 1, -1, 2, -2, ... and the product is rescaled by
    b**(n * floor(n/2)) so that pairing against the coalgebra basis is
    the identity matrix.
    """
    if spec.base is None:
        raise ValueError(
            f"{spec.name} has no product-form dual basis; work through the coalgebra tables"
        )
    if n < 0:
        raise ValueError("basis indices start at 0")
    b = spec.base
    if spec.periodic:
        poly = theta(n, alternating_powers(b)) * (Fraction(b) ** (n * (n // 2)))
    else:
        poly = theta(n, geometric_powers(b))
    return AdamsPoly(Fraction(spec.q), poly)


def support_step(spec: SpectrumSpec, l: int) -> int:
    """Step of the arithmetic progression of admissible shifts at depth l.

    Depth l admissibility asks the unit and congruence conditions mod
    p**l; the admissible positive shifts form the positive multiples of
    the value returned here.
    """
    if l < 1:
        raise ValueError("the depth must be a positive integer")
    p = spec.prime
    f, per = spec.family, spec.periodic
    if p != 2:
        d = p ** (l - 1) if f in ("G", "g") else p ** (l - 1) * (p - 1)
        return 2 * d if per else d
    if f in ("KO", "K"):
        return 2 ** max(1, l - 2)
    return 2 ** max(0, l - 3)


def admissible_shifts(spec: SpectrumSpec, l: int) -> Iterator[int]:
    """Positive shifts admissible at depth l, in increasing order."""
    d = support_step(spec, l)
    m = d
    while True:
        yield m
        m += d
