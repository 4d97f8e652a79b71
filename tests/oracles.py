"""Slow, independent routes to the tables and the congruence, kept as test oracles.

The library builds its tables on integers over one denominator per
monomial or per table (see ktops.coalgebra).  The routes here compute
the same tables one Fraction operation at a time, the way the library
once did, so that a disagreement with the fast kernel is caught:

* coords_by_clearing: coordinates by repeatedly clearing the extremal
  slot of a LaurentPoly remainder;
* coproduct_by_fraction_loop: structure constants summed entry by entry
  over coordinates from coords_by_clearing;
* coproduct_by_solve: structure constants from a dense linear solve in
  the two-variable monomial basis;
* regularity_by_fractions: verify_regularity on the Fraction views,
  coproduct_matrix and basis_coords, tested by in_ground_ring and
  compared as Fractions; the library reads the integer pairs the tables
  and coordinates are built from.

The product nodes and node products (ktops.coalgebra.ThetaCoalgebra.nodes
and ktops.laurent.times_linear) run on integers scaled by a power of b;
the reference here is the Fraction form they replace:

* geometric_powers, alternating_powers: the Fraction nodes z_i = b**(i-1)
  and b**0, b**1, b**-1, b**2, ...;
* integer_nodes: those nodes times b**E, E = floor(count/2) periodically,
  the integers the library's node formula must give;
* theta: the monic product prod_{i=1..n} (X - z_i) as a LaurentPoly.

The library builds, reads and renders a LaurentPoly but never evaluates
one; the oracles below that need a value take it here:

* evaluate: f(x) summed monomial by monomial over Fractions; PoleError
  at x = 0 when f has a negative exponent.

Every stock basis, and the binomial one, is a Newton basis on integer
nodes z_l, l >= 0 (ktops.coalgebra._node_basis).  The fraction-free
elimination finds the coordinates of a monomial in it; the route here
reads them off the node formula instead:

* newton_coords: coordinate n of x**k as N_n(z_n) h_(k-n)(z_0, ..., z_n),
  h the complete homogeneous polynomial, by its recurrence in the nodes.

The congruence expansion (ktops.checks) runs on integer nodes; the
expansion here works on the product nodes themselves, in LaurentPoly
and Fractions, and the literal reading works on the Gamma tables:

* exact_divide, newton_coeffs, theta_coords: polynomial division and
  coordinates in the basis theta_0, theta_1, ... over a node sequence;
* cross_check_coefficients: Newton coordinates of
  theta_m theta_n - theta_{m+n} over the product nodes, by newton_coeffs;
* table_congruence: a_m a_n = a_{m+n} mod p**l read literally off the
  structure constants, nu(Gamma[m,n->t] - delta_{t,m+n}) for each t.

The table verdicts of spectra without a product form (k(2) and K(2))
read the targets above m + n as zeros of the band, building no table;
the routes here read every table up to the bound, as the library once
did:

* gamma_congruence_by_tables: the loop of checks._gamma_congruence on
  coproduct_matrix(t)[m][n] for every target t <= max(20, m + n);
* coalgebra_conditions_by_tables: check_coalgebra_conditions with that
  loop for its product side;
* spy_tables: records the target of every coproduct_matrix call on one
  coalgebra, so a test can see which tables a route builds.

The verdicts (ktops.checks) read node slots and one fact about the node
base, (ord_p(b), nu_p(b**ord_p(b) - 1)), before any expansion.  The
routes here build the integer nodes of integer_nodes as big powers of
b and read them directly, as the library once did:

* unit_condition_by_nodes: the degree n-m node product evaluated at
  b**j, one factor b**(j+E) - y_i at a time, for j over one period;
* congruence_by_nodes: the diagonal b**|u| - 1, the node differences
  y_{n-i} - y_{m+n-i} and, past them, the complete expansion by
  expansion_by_division;
* expansion_by_division: all m + n coordinates of
  theta_m theta_n - theta_{m+n}, from theta_m, theta_n and theta_{m+n}
  built over all m + n integer nodes by times_linear, one synthetic
  division by Y - y_i per coordinate; the library runs the Newton step
  of the Gamma recursion along one row on 2 min(m, n) nodes instead;
* product_identity_holds: theta_{m+n} as theta_m theta_n plus
  corrections, each with a node difference y_{n-i} - y_{m+n-i} as a
  factor, on integer coefficient lists; the node short-cut once rested
  on it, and check_congruence_condition now proves it by the Newton step;
* support_step_table: the hand table of admissible steps, keyed on the
  family letter.

The unit condition finds the residue its slots miss in closed form, and
the node short-cut reads two slot gaps.  The routes here read the slots
the long way, as the library once did:

* unit_condition_by_slot_residues: the set of residues mod ord_p(b) of
  the first min(n - m, ord_p(b)) slots, and a scan of every residue for
  the least one missed;
* shortcut_by_all_gaps: the diagonal and the node short-cut with the
  least gap valuation taken over all n slot gaps.

The dual algebra (ktops.dual) multiplies, inverts and expands through
the pairings with grouplike monomials.  The routes here contract the
Gamma tables coefficient by coefficient instead:

* multiply_by_contraction: coefficient t of a b as sum G_t[i][j] a_i b_j;
* invert_by_elimination: the inverse solved coefficient by coefficient,
  with the step-i pivot taken from the last column of G_i;
* value_on: an operation polynomial paired with a LaurentPoly, P at
  beta**e summed over its monomials w**e, by evaluate;
  the library evaluates P only by integer Horner (AdamsPoly.values);
* pair: a dual element paired with a LaurentPoly, by value_on or, for a
  truncated element, by linearity over its monomial pairings;
* expand_by_value_on: coefficient n as P paired with basis element n;
* is_unit_by_fractions: the exact unit test on the Fraction values
  P((beta**r)**j) over one period of j; the library reads their
  residues mod p;
* monomial_pairing_by_coords: the pairing with w**(rk) summed over the
  Fraction coordinates from basis_coords;
* back_transform_by_reduction: the coefficients from the pairings, each
  one reduced to a Fraction as it is made; the library's back transform
  (ktops.dual._from_pairings) yields them as unreduced integer pairs.

The integrality gate on an unreduced pair (ktops.coalgebra.CoalgebraSpec
._integral) compares p-valuations: p**nu_p(den) must divide num.  The
route here reduces the pair first, as the library once did:

* integral_by_gcd: num / den in Z, or in Z_(p) when p does not divide
  den or its reduced denominator den / gcd(num, den).

The multiplicative order (ktops.rationals.multiplicative_order) strips the
prime divisors of phi(modulus).  The route here steps through the powers:

* order_by_powers: a, a**2, ... mod the modulus until 1; the unit
  oracles above read their period from it.

Primality (ktops.rationals.is_prime) asks whether n is its own only prime
divisor, and least_primitive_root tests p and factors p - 1 once for all
candidates.  The routes here are the loops the library once ran:

* is_prime_by_odd_divisors: 2, then every odd d with d*d <= n, stopping
  at the first divisor;
* least_primitive_root_by_scan: check_primitive_root on each candidate
  q = 2, 3, ..., which tests p and factors p - 1 anew every time.

Module tables (ktops.modules) are validated on integer matrices over one
p-unit denominator.  The route here checks the same axioms, in the same
order, one Fraction operation at a time:

* validate_module_by_fractions: the counit law, the torsion columns and
  every relation M_i M_j = sum_n G[i,j -> n] M_n, each side built entry
  by entry (_mat_mul, _combination) and compared by _first_mismatch.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import gcd
from typing import Callable, Iterator

from ktops.coalgebra import _ZERO, CheckResult, CoalgebraSpec, NotRegularError, RegularityReport
from ktops.dual import (
    AdamsPoly,
    DualElement,
    NotIntegralError,
    NotInvertibleError,
    PrecisionError,
    UnitVerdict,
    monomial_pairing,
)
from ktops.laurent import LaurentPoly, times_linear
from ktops.modules import FGModule, Matrix, ModuleVerdict, _identity, _malformed
from ktops.checks import ConditionVerdict, _monomial_divisibility
from ktops.rationals import _int_valuation, as_fraction, check_primitive_root, is_p_local_unit, nu
from ktops.spectra import SpectrumSpec


def solve(matrix, rhs):
    """Solve matrix @ x = rhs exactly by Gaussian elimination.

    matrix is a list of rows of Fractions (square), rhs a list of
    Fractions.  Returns the solution vector, or None when the matrix is
    singular.
    """
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        support = [(c, w) for c, w in enumerate(a[col]) if w]
        for r in range(n):
            if r != col and a[r][col]:
                row, f = a[r], a[r][col]
                for c, w in support:
                    row[c] -= f * w
    return [a[r][n] for r in range(n)]


def coords_by_clearing(spec: CoalgebraSpec, f: LaurentPoly) -> tuple[Fraction, ...]:
    """Coordinates of f in the basis of spec, as a dense tuple from index 0.

    Clears the extremal slot of the remainder, which only the
    highest-index contributing basis element can reach, one Fraction
    operation at a time.  Raises NotRegularError when f is not in the span.
    """
    if f.is_zero:
        return ()
    r = spec.step
    out: dict[int, Fraction] = {}
    rem = f
    top = -1
    while not rem.is_zero:
        slots = []
        for e in rem.support:
            if e % r:
                raise NotRegularError(f"exponent {e} is not a multiple of the step {r}")
            slots.append(e // r)
        n = max(spec.resolving_index(k) for k in slots)
        k = spec.extending_slot(n)
        c = spec.basis_poly(n)
        coeff = rem.coeff(r * k) / c.coeff(r * k)
        out[n] = coeff
        rem = rem - coeff * c
        top = max(top, n)
    return tuple(out.get(i, Fraction(0)) for i in range(top + 1))


def monomial_coords_by_clearing(spec: CoalgebraSpec, k: int) -> tuple[Fraction, ...]:
    """basis_coords(k) through coords_by_clearing, padded to resolving_index(k) + 1."""
    coords = coords_by_clearing(spec, LaurentPoly.monomial(spec.step * k))
    return coords + (Fraction(0),) * (spec.resolving_index(k) + 1 - len(coords))


def coproduct_by_fraction_loop(spec: CoalgebraSpec, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """G[i][j] = sum_e v_e * coords_e[i] * coords_e[j] over c_n = sum_e v_e w**e,
    summed in Fractions."""
    size = n + 1
    g = [[Fraction(0)] * size for _ in range(size)]
    for e, v in spec.basis_poly(n).items():
        coords = monomial_coords_by_clearing(spec, e // spec.step)
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                g[i][j] += v * a * b
    return tuple(tuple(row) for row in g)


def coproduct_by_solve(spec: CoalgebraSpec, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Structure constants of element n from a dense linear solve in the
    two-variable monomial basis."""
    d, mono = spec.monomial_form(n)
    lo, hi = spec.window(n)
    slots = list(range(lo, hi + 1))
    polys = [spec.basis_poly(i) for i in range(n + 1)]
    r = spec.step
    unknowns = [(i, j) for i in range(n + 1) for j in range(n + 1)]
    rows, rhs = [], []
    for s in slots:
        for t in slots:
            rows.append(
                [polys[i].coeff(r * s) * polys[j].coeff(r * t) for (i, j) in unknowns]
            )
            rhs.append(Fraction(mono.get(s, 0), d) if s == t else Fraction(0))
    sol = solve(rows, rhs)
    if sol is None:
        raise NotRegularError("basis is not a basis: tensor expansion is singular")
    g = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for (i, j), v in zip(unknowns, sol):
        g[i][j] = v
    return tuple(tuple(row) for row in g)


def regularity_by_fractions(spec: CoalgebraSpec, limit: int) -> RegularityReport:
    """verify_regularity read off the Fraction views of the tables: every
    coordinate and every table entry tested by in_ground_ring, the shared
    zero skipped by identity, and the comparisons made as Fractions."""
    if limit < 0:
        raise ValueError("the limit must be non-negative")
    checks: list[CheckResult] = []

    bad = ""
    for n in range(limit + 1):
        try:
            spec.monomial_form(n)
        except NotRegularError as e:
            bad = f"n={n}: {e}"
            break
    checks.append(CheckResult("basis shape", not bad, bad))
    if bad:
        return RegularityReport(limit, checks)

    bad = next((
        f"monomial k={k}, index {n}: coordinate {v}"
        for k in spec.monomial_slots(limit)
        for n, v in enumerate(spec.basis_coords(k))
        if not spec.in_ground_ring(v)
    ), "")
    checks.append(CheckResult("monomial coordinates integral", not bad, bad))

    bad = next((
        f"element {n}, entry ({i},{j}): {v}"
        for n in range(limit + 1)
        for i, row in enumerate(spec.coproduct_matrix(n))
        for j, v in enumerate(row)
        # both table routes hand out one shared zero, and zero is integral
        if v is not _ZERO and not spec.in_ground_ring(v)
    ), "")
    checks.append(CheckResult("coproduct constants integral", not bad, bad))

    bad = ""
    for i in range(limit + 1):
        d, mono = spec.monomial_form(i)
        ki = spec.extending_slot(i)
        lam = spec.basis_coords(ki)[i] * mono[ki]
        if lam != d:
            bad = f"element {i}: diagonal product {lam} != {d}"
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
    support = [i for i, e in enumerate(eps) if e]
    for n in range(limit + 1):
        # sums eps_i G[i][j] (left) and eps_i G[j][i] (right) over i with eps_i != 0
        g = spec.coproduct_matrix(n)
        left, right = [0] * (n + 1), [0] * (n + 1)
        for i in (i for i in support if i <= n):
            for j, row in enumerate(g):
                if g[i][j]:
                    left[j] += eps[i] * g[i][j]
                if row[i]:
                    right[j] += eps[i] * row[i]
        for j in range(n + 1):
            want = 1 if j == n else 0
            if left[j] != want or right[j] != want:
                bad = f"element {n}, index {j}: counit sums ({left[j]}, {right[j]})"
                break
        if bad:
            break
    checks.append(CheckResult("counit law", not bad, bad))

    return RegularityReport(limit, checks)


def geometric_powers(base):
    """The root sequence z_i = base**(i-1), i >= 1."""
    b = Fraction(base)
    return functools.cache(lambda i: b ** (i - 1))


def alternating_powers(base):
    """The root sequence z_i = base**((-1)**i * floor(i/2)).

    The exponents run 0, 1, -1, 2, -2, ... so that the first n of them
    always form a block of consecutive integers.
    """
    b = Fraction(base)
    return functools.cache(lambda i: b ** ((i // 2) if i % 2 == 0 else -(i // 2)))


def theta(n: int, z) -> LaurentPoly:
    """The monic degree-n product prod_{i=1..n} (X - z_i) over the nodes i -> z_i."""
    if n < 0:
        raise ValueError("theta is defined for n >= 0")
    out = LaurentPoly.one()
    x = LaurentPoly.variable()
    for i in range(1, n + 1):
        out = out * (x - LaurentPoly({0: z(i)}))
    return out


class PoleError(ZeroDivisionError):
    pass


def evaluate(f: LaurentPoly, x) -> Fraction:
    """f at x, one monomial at a time; PoleError at 0 if f has a negative exponent."""
    x = as_fraction(x)
    if x == 0 and f and f.low < 0:
        raise PoleError("evaluation at zero hits a pole")
    return sum((v * x**e for e, v in f.items()), Fraction(0))


class NotDivisibleError(ValueError):
    pass


def exact_divide(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The quotient f/g when g divides f exactly; NotDivisibleError otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return LaurentPoly.zero()
    # Shift both into ordinary polynomials, divide, shift back.
    sf, sg = f.low, g.low
    num = {e - sf: v for e, v in f.items()}
    den = {e - sg: v for e, v in g.items()}
    dg = max(den)
    lead = den[dg]
    quo = {}
    while num:
        dn = max(num)
        if dn < dg:
            raise NotDivisibleError("polynomials do not divide exactly")
        q = num[dn] / lead
        quo[dn - dg] = q
        for e, v in den.items():
            e2 = e + dn - dg
            r = num.get(e2, Fraction(0)) - q * v
            if r:
                num[e2] = r
            else:
                num.pop(e2, None)
    return LaurentPoly({e + sf - sg: v for e, v in quo.items()})


def newton_coeffs(f: LaurentPoly, z, count: int) -> list[Fraction]:
    """First `count` coordinates of f in the basis theta_0, theta_1, ....

    z is the node sequence i -> z_i, i >= 1.  Extracted bottom-up: the
    coordinate of theta_k is the value at z_{k+1} of the running
    quotient, which is then divided by (X - z_{k+1}).  Exact at every step.
    """
    x = LaurentPoly.variable()
    out = []
    cur = f
    for k in range(count):
        v = evaluate(cur, z(k + 1))
        out.append(v)
        cur = exact_divide(cur - LaurentPoly({0: v}), x - LaurentPoly({0: z(k + 1)}))
        if cur.is_zero:
            out.extend([Fraction(0)] * (count - k - 1))
            break
    return out


def theta_coords(f: LaurentPoly, z) -> list[Fraction]:
    """All coordinates of a polynomial f in the basis theta_0, theta_1, ...."""
    if f.is_zero:
        return []
    if f.low < 0:
        raise ValueError("theta coordinates are defined for ordinary polynomials")
    return newton_coeffs(f, z, f.degree + 1)


def newton_coords(node: Callable[[int], int], k: int, top: int) -> list[int]:
    """Coordinates 0..top of x**k in the Newton basis on the integer nodes
    z_l = node(l), l >= 0, c_n = N_n(x) / N_n(z_n), N_n(x) = prod_(l<n)
    (x - z_l), by the node formula rather than by elimination.

    x**k = sum_n h_(k-n)(z_0, ..., z_n) N_n(x), the divided differences of
    x**k being the complete homogeneous polynomials h (zero in negative
    degree), so coordinate n is N_n(z_n) h_(k-n)(z_0, ..., z_n).  h is
    built by h_d(z_0..z_n) = h_d(z_0..z_(n-1)) + z_n h_(d-1)(z_0..z_n).
    """
    h = [1] + [0] * k  # h_d of no nodes
    zs, out = [], []
    for n in range(top + 1):
        z = node(n)
        for d in range(1, k + 1):
            h[d] += z * h[d - 1]
        scale = 1
        for y in zs:
            scale *= z - y
        zs.append(z)
        out.append(scale * h[k - n] if n <= k else 0)
    return out


def product_nodes(spec: SpectrumSpec):
    """The Fraction product nodes z_i of a theta-form spectrum, i >= 1."""
    return (alternating_powers if spec.periodic else geometric_powers)(spec.base)


def integer_nodes(spec: SpectrumSpec, count: int) -> tuple[int, list[int]]:
    """(E, [y_0, ..., y_(count-1)]): the Fraction nodes z_1..z_count of
    product_nodes times b**E, E = count // 2 periodically and 0
    connectively, so that each is an integer."""
    if spec.base is None:
        raise ValueError(f"{spec.name} has no product form")
    e = count // 2 if spec.periodic else 0
    z, scale = product_nodes(spec), Fraction(spec.base) ** e
    ys = [scale * z(i) for i in range(1, count + 1)]
    assert all(y.denominator == 1 for y in ys), (spec.name, count)
    return e, [y.numerator for y in ys]


def theta_table(spec: SpectrumSpec, top: int) -> list[LaurentPoly]:
    """theta_0, ..., theta_top over the product nodes, each one linear
    factor on the last (theta_k equals theta(k, product_nodes(spec)))."""
    z = product_nodes(spec)
    x = LaurentPoly.variable()
    out = [LaurentPoly.one()]
    for i in range(1, top + 1):
        out.append(out[-1] * (x - z(i)))
    return out


def cross_check_coefficients(
    spec: SpectrumSpec, thetas: list[LaurentPoly], m: int, n: int, count: int
) -> list[Fraction]:
    """First `count` coordinates of theta_m theta_n - theta_{m+n} in the
    basis theta_0, theta_1, ..., expanded one Fraction at a time by
    newton_coeffs; thetas is theta_table(spec, top) with top >= m + n."""
    diff = thetas[m] * thetas[n] - thetas[m + n]
    return newton_coeffs(diff, product_nodes(spec), count)


def table_congruence(spec: SpectrumSpec, m: int, n: int, l: int) -> tuple[bool, int | None, int | None]:
    """(holds, witness target, least valuation) of the congruence at depth l.

    Reads nu(Gamma[m,n->t] - delta_{t,m+n}) from coproduct_entry for the
    diagonal t = m + n first and then t = 0, 1, ..., m + n + 4; the
    witness is the first target read with valuation < l and the least
    valuation is taken over every nonzero value read."""
    gamma = spec.coalgebra.coproduct_entry
    worst = witness = None
    for t in [m + n] + [t for t in range(m + n + 5) if t != m + n]:
        g = gamma(m, n, t) - (t == m + n)
        if not g:
            continue
        v = nu(spec.prime, g)
        if worst is None or v < worst:
            worst = v
        if v < l and witness is None:
            witness = t
    return witness is None, witness, worst


def gamma_congruence_by_tables(spec: SpectrumSpec, condition: str, m: int, n: int, l: int) -> ConditionVerdict:
    """The table verdict of checks._gamma_congruence with Gamma[m,n->t] read
    as coproduct_matrix(t)[m][n], zero where m or n is above t, for every
    target t up to the bound max(20, m + n): the band's zeros are read off
    their tables too."""
    bound = max(20, m + n)

    def gamma(m, n, t):
        return spec.coalgebra.coproduct_matrix(t)[m][n] if max(m, n) <= t else 0

    def verdict(ok, witness=None):
        return ConditionVerdict(spec.name, condition, ok, False, m, n, level=l,
                                witness=witness, min_valuation=min_val, checked=bound)

    min_val: int | None = None
    for t in [m + n] + [t for t in range(bound + 1) if t != m + n]:
        v = gamma(m, n, t)
        g = v - 1 if t == m + n else v
        if not g:
            continue
        val = nu(spec.prime, g)
        if min_val is None or val < min_val:
            min_val = val
        if val < l:
            return verdict(False, {"part": "product", "target": t, "value": str(v)})
    return verdict(True)


def coalgebra_conditions_by_tables(spec: SpectrumSpec, m: int, n: int, l: int) -> ConditionVerdict:
    """check_coalgebra_conditions with its product side read by
    gamma_congruence_by_tables; the unit side reads no Gamma table."""
    if m < n:
        slot, bound = _monomial_divisibility(spec, n - m)
        if slot is not None:
            return ConditionVerdict(spec.name, "coalgebra", False, False, m, n, level=l,
                                    witness={"part": "unit", "slot": slot}, checked=bound)
    return gamma_congruence_by_tables(spec, "coalgebra", m, n, l)


def spy_tables(C: CoalgebraSpec) -> list[int]:
    """The targets of every coproduct_matrix call on C from now on."""
    calls, tables = [], C.coproduct_matrix
    C.coproduct_matrix = lambda n: calls.append(n) or tables(n)
    return calls


def order_by_powers(a: int, modulus: int) -> int:
    """Least t >= 1 with a**t == 1 mod modulus, by stepping through the
    powers of a; a must be coprime to modulus."""
    t, x = 1, a % modulus
    while x != 1:
        x = x * a % modulus
        t += 1
    return t


def is_prime_by_odd_divisors(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def least_primitive_root_by_scan(p: int) -> int:
    q = 2
    while True:
        if q % p != 0 and check_primitive_root(p, q):
            return q
        q += 1


def unit_condition_by_nodes(spec: SpectrumSpec, m: int, n: int) -> ConditionVerdict:
    """The unit condition on a product-form spectrum, on the integer nodes:
    the cell fails at the first j < ord_p(b) for which p divides none of
    b**(j+E) - y_i, i <= n - m."""
    e, ys = integer_nodes(spec, n - m)
    b, p = spec.base, spec.prime
    period = order_by_powers(b % p, p)
    for j in range(period):
        x = b ** (j + e)
        if all((x - y) % p for y in ys):
            return ConditionVerdict(spec.name, "unit", False, True, m, n, witness=j, checked=period)
    return ConditionVerdict(spec.name, "unit", True, True, m, n, checked=period)


def congruence_by_nodes(spec: SpectrumSpec, m: int, n: int, l: int) -> ConditionVerdict:
    """The congruence on a product-form spectrum, on the integer nodes: the
    diagonal b**|u| - 1, then the node differences y_{n-i} - y_{m+n-i},
    then the complete expansion, each valuation taken of a big integer."""
    p = spec.prime
    _, ys = integer_nodes(spec, m + n)
    u = m * (m // 2) + n * (n // 2) - (m + n) * ((m + n) // 2) if spec.periodic else 0
    diag = spec.base ** abs(u) - 1
    vals = [_int_valuation(p, diag)] if diag else []

    def verdict(holds, witness=None):
        return ConditionVerdict(spec.name, "congruence", holds, True, m, n, level=l,
                                witness=witness, min_valuation=min(vals, default=None))

    if vals and vals[0] < l:
        return verdict(False, m + n)
    diffs = (ys[n - i - 1] - ys[m + n - i - 1] for i in range(n))
    diffs = [_int_valuation(p, d) for d in diffs if d]
    if min(diffs, default=l) >= l:
        vals += diffs
        return verdict(True)
    coords = expansion_by_division(p, ys, m, n)
    vals += [v for v in coords if v is not None]
    bad = next((t for t, v in enumerate(coords) if v is not None and v < l), None)
    return verdict(bad is None, bad)


def expansion_by_division(p: int, ys: list[int], m: int, n: int) -> list[int | None]:
    """Valuations of all m + n coordinates of theta_m theta_n - theta_{m+n}
    in the basis theta_0, theta_1, ... (None for a zero coordinate); the
    difference has degree below m + n, so these are all of them.

    The expansion runs on the integer nodes ys = y_1, ..., y_{m+n}, with
    y_i = b**E z_i.  With theta'_k = prod_{i<=k} (Y - y_i) we have
    theta_k(X) = b**(-kE) theta'_k(b**E X), so the k-th coordinate is
    b**((k-m-n)E) times the k-th coordinate of
    theta'_m theta'_n - theta'_{m+n} in the basis theta'_k, an integer.
    b is a p-adic unit, so both have the same zeroness and valuation.
    """
    # integer coefficients of theta'_k, constant term first, one linear
    # factor at a time; only theta'_m, theta'_n and theta'_{m+n} are kept
    t = tm = tn = [1]
    for k, y in enumerate(ys, 1):
        t = times_linear(t, y)
        if k == m:
            tm = t
        if k == n:
            tn = t
    diff = [-c for c in t]
    for i, a in enumerate(tm):
        for j, c in enumerate(tn):
            diff[i + j] += a * c
    out = []
    for y in ys:
        # one synthetic-division pass by (Y - y): the last value is the
        # remainder, the next coordinate; the others are the quotient
        acc, quo = 0, []
        for a in reversed(diff):
            acc = acc * y + a
            quo.append(acc)
        g = quo.pop()
        diff = quo[::-1]
        out.append(_int_valuation(p, g) if g else None)
    return out


def product_identity_holds(spec: SpectrumSpec, m: int, n: int) -> bool:
    """The exact polynomial identity behind the congruence short-cut.

    The product of the degree-m and degree-n node polynomials differs
    from the degree-(m+n) one by a sum of corrections, each carrying a
    node difference y_{n-i} - y_{m+n-i} as a factor:

        T_{m+n} = T_m T_n + sum_{i<n} (y_{n-i} - y_{m+n-i})
                  * prod_{k=n-i+1..n} (X - y_k) * T_{m+n-i-1}

    Checked on integer coefficient lists over integer_nodes, built by
    times_linear as the expansion builds them; the identity is homogeneous
    of degree m + n, so scaling the nodes by b**E does not change it.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be non-negative")
    _, ys = integer_nodes(spec, m + n)
    thetas = list(accumulate(ys, times_linear, initial=[1]))
    # T_m T_n is T_m times the n linear factors of T_n
    rhs = reduce(times_linear, ys[:n], thetas[m])
    for i in range(n):
        term = reduce(times_linear, ys[n - i:n], thetas[m + n - i - 1])
        d = ys[n - i - 1] - ys[m + n - i - 1]
        for k, c in enumerate(term):
            rhs[k] += d * c
    return rhs == thetas[m + n]


def unit_condition_by_slot_residues(spec: SpectrumSpec, m: int, n: int) -> ConditionVerdict:
    """The unit condition on a product-form spectrum by slot residues: the
    residues mod o = ord_p(b) of s_i = extending_slot(i), i < min(n - m, o),
    and the least j < o among none of them, the witness."""
    C = spec.coalgebra
    o, _ = C.order
    hit = {C.extending_slot(i) % o for i in range(min(n - m, o))}
    j = next((j for j in range(o) if j not in hit), None)
    return ConditionVerdict(spec.name, "unit", j is None, True, m, n, witness=j, checked=o)


def shortcut_by_all_gaps(spec: SpectrumSpec, m: int, n: int, l: int) -> ConditionVerdict | None:
    """The congruence on a product-form spectrum where the diagonal or the
    node short-cut decides it, the short-cut reading gap_valuation of every
    slot gap |s_(m+k) - s_k|, k < n; None where the two leave the cell to
    the expansion."""
    C = spec.coalgebra
    gap, slot = C.gap_valuation, C.extending_slot
    u = m * C.scale(m) + n * C.scale(n) - (m + n) * C.scale(m + n)
    vals = [gap(u)] if u else []

    def verdict(holds, witness=None):
        return ConditionVerdict(spec.name, "congruence", holds, True, m, n, level=l,
                                witness=witness, min_valuation=min(vals, default=None))

    if vals and vals[0] < l:
        return verdict(False, m + n)
    diffs = [gap(g) for g in (abs(slot(m + k) - slot(k)) for k in range(n)) if g]
    if min(diffs, default=l) < l:
        return None
    vals += diffs
    return verdict(True)


def support_step_table(spec: SpectrumSpec, l: int) -> int:
    """The hand table of admissible steps at depth l: (p - 1) p**(l-1) for
    k and K, p**(l-1) for g and G, doubled periodically at odd p;
    2**max(1, l-2) for KO and K, 2**max(0, l-3) for ko and k at p = 2."""
    p = spec.prime
    f, per = spec.family, spec.periodic
    if p != 2:
        d = p ** (l - 1) if f in ("G", "g") else p ** (l - 1) * (p - 1)
        return 2 * d if per else d
    if f in ("KO", "K"):
        return 2 ** max(1, l - 2)
    return 2 ** max(0, l - 3)


def multiply_by_contraction(spec: CoalgebraSpec, a: DualElement, b: DualElement) -> DualElement:
    """Product in the dual: coefficient t is sum_{i,j <= t} G_t[i][j] a_i b_j."""
    n = min(a.precision, b.precision)
    out = []
    for t in range(n):
        g = spec.coproduct_matrix(t)
        total = Fraction(0)
        for i in range(t + 1):
            ai = a.coeffs[i]
            if not ai:
                continue
            row = g[i]
            for j in range(t + 1):
                if b.coeffs[j]:
                    total += ai * row[j] * b.coeffs[j]
        out.append(total)
    return DualElement(out)


def invert_by_elimination(spec: CoalgebraSpec, a: DualElement) -> DualElement:
    """The inverse, coefficient s_i forced at step i so that coefficient i
    of a * s matches the counit; the divisor is sum_k a_k G_i[k][i]."""
    if spec.prime is None:
        raise ValueError("this operation needs a p-local coalgebra")
    p = spec.prime
    n = a.precision
    for v in a.coeffs:
        if not spec.in_ground_ring(v):
            raise NotIntegralError(f"coefficient {v} is not integral over the ground ring")
    s = [Fraction(0)] * n
    prod = [Fraction(0)] * n  # coefficients of a * s so far
    for i in range(n):
        g = spec.coproduct_matrix(i)
        pivot = sum((a.coeffs[k] * g[k][i] for k in range(i + 1)), Fraction(0))
        if not is_p_local_unit(p, pivot):
            raise NotInvertibleError(i, spec.extending_slot(i), pivot)
        target = spec.counit_value(i)
        s[i] = (target - prod[i]) / pivot
        if s[i]:
            for t in range(i, n):
                gt = spec.coproduct_matrix(t)
                prod[t] += s[i] * sum(
                    (a.coeffs[k] * gt[k][i] for k in range(t + 1)), Fraction(0)
                )
    return DualElement(s)


def value_on(a: AdamsPoly, f: LaurentPoly) -> Fraction:
    """a paired with a Laurent polynomial: sum over monomials of P(beta**e)."""
    return sum((v * evaluate(a.poly, a.beta**e) for e, v in f.items()), Fraction(0))


def pair(spec: CoalgebraSpec, a, f: LaurentPoly) -> Fraction:
    """The pairing of a dual element against a polynomial in the coalgebra.

    An operation polynomial pairs by value_on.  A truncated element
    pairs by linearity over f's monomials, top slot first: that one
    alone decides the precision f needs.
    """
    if isinstance(a, AdamsPoly):
        return value_on(a, f)
    r = spec.step
    for e in f.support:
        if e % r:
            raise NotRegularError(f"exponent {e} is not a multiple of the step {r}")
    slots = sorted((e // r for e in f.support), key=spec.resolving_index, reverse=True)
    return sum((f.coeff(r * k) * monomial_pairing(spec, a, k) for k in slots), Fraction(0))


def expand_by_value_on(spec: CoalgebraSpec, a: AdamsPoly, precision: int) -> DualElement:
    """Coefficient n is a paired with basis element n, one monomial at a time."""
    out = []
    for n in range(precision):
        v = value_on(a, spec.basis_poly(n))
        if not spec.in_ground_ring(v):
            raise NotIntegralError(
                f"coefficient {n} is {v}, not integral over the ground ring"
            )
        out.append(v)
    return DualElement(out)


def is_unit_by_fractions(spec: CoalgebraSpec, a: AdamsPoly) -> UnitVerdict:
    """The exact unit test: P at the Fraction base**j, base = beta**r, for
    j below ord_p(base), each value tested for a p-adic unit."""
    p = spec.prime
    beta = a.beta
    if beta.denominator != 1 or beta.numerator % p == 0:
        raise ValueError(
            "periodicity unavailable: the exact test needs an integer base coprime to p"
        )
    for _, v in a.poly.items():
        if not spec.in_ground_ring(v):
            raise NotIntegralError(f"coefficient {v} is not integral, unit test undefined")
    base = int(beta) ** spec.step
    t = order_by_powers(base, p)
    for j in range(t):
        v = evaluate(a.poly, Fraction(base) ** j)
        if not is_p_local_unit(p, v):
            return UnitVerdict(unit=False, exact=True, witness=j, period=t)
    return UnitVerdict(unit=True, exact=True, period=t)


def monomial_pairing_by_coords(spec: CoalgebraSpec, a: DualElement, k: int) -> Fraction:
    """The pairing of a with w**(rk), summed over the Fraction coordinates."""
    coords = spec.basis_coords(k)
    if len(coords) > a.precision:
        raise PrecisionError(
            f"monomial slot {k} needs {len(coords)} coefficients; only {a.precision} known"
        )
    return sum((r * c for r, c in zip(a.coeffs, coords)), Fraction(0))


def back_transform_by_reduction(spec: CoalgebraSpec, pi: list[tuple[int, int]], count: int) -> Iterator[Fraction]:
    """The coefficients of the element with pairings pi, pairs (x, d), d > 0,
    in any terms: coefficient t is (1/d_t) sum_k m_{t,k} pi_{i(k)}, summed
    over the running lcm L_t of the reduced pairings by one Horner pass,
    and built as one reduced Fraction acc / (d_t L_t) per coefficient."""
    den = 1
    fs: list[int] = []
    nums: list[int] = []
    slots: list[int] = []
    for t in range(count):
        x, dx = pi[t]
        g = gcd(x, dx)
        x, dx = x // g, dx // g
        f = dx // gcd(den, dx)
        den *= f
        fs.append(f)
        nums.append(x * (den // dx))
        slots.append(spec.extending_slot(t))
        d, mono = spec.monomial_form(t)
        acc = 0
        for f, b, s in zip(fs, nums, slots):
            acc = acc * f + mono.get(s, 0) * b
        yield Fraction(acc, d * den)


def integral_by_gcd(prime: int | None, num: int, den: int) -> bool:
    """Whether num / den, den != 0, lies in Z (prime None) or in Z_(prime),
    by one gcd on the pair when the prime divides den."""
    if prime is None:
        return num % den == 0
    return den % prime != 0 or den // gcd(num, den) % prime != 0


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _combination(mod: FGModule, weight: Callable[[int], Fraction]) -> list[list[Fraction]]:
    """sum_n weight(n) M_n over the table, skipping the zero weights."""
    d = mod.dimension
    out = [[Fraction(0)] * d for _ in range(d)]
    for n, m in enumerate(mod.matrices):
        w = weight(n)
        if w:
            for r in range(d):
                out[r] = [x + w * y for x, y in zip(out[r], m[r])]
    return out


def _first_mismatch(mod: FGModule, lhs, rhs) -> tuple[int, int] | None:
    """The first entry (r, c) where lhs and rhs differ as maps of the module.

    Free rows must agree exactly, torsion rows modulo the row's order.
    """
    p = mod.prime
    for r, e in enumerate(mod.row_exponents):
        for c, (x, y) in enumerate(zip(lhs[r], rhs[r])):
            if x != y and (e is None or nu(p, x - y) < e):
                return r, c
    return None


def validate_module_by_fractions(mod: FGModule, spec: CoalgebraSpec) -> ModuleVerdict:
    """validate_module with every law built and compared in Fractions."""
    p = mod.prime
    if spec.prime not in (None, p):
        return ModuleVerdict(False, "prime mismatch between module and coalgebra")
    d = mod.dimension
    bad = _malformed(mod)
    if bad is not None:
        return ModuleVerdict(False, *bad)
    miss = _first_mismatch(mod, _combination(mod, spec.counit_value), _identity(d))
    if miss is not None:
        r, c = miss
        return ModuleVerdict(False, f"the counit does not act as the identity at entry ({r},{c})",
                             {"row": r, "col": c})

    # a torsion generator is killed by its order, so its image has no
    # free component and its torsion components respect the orders
    exps = mod.row_exponents
    for i, m in enumerate(mod.matrices):
        for c in range(mod.free_rank, d):
            for r in range(d):
                v = m[r][c]
                if not v:
                    continue
                if exps[r] is None:
                    return ModuleVerdict(
                        False,
                        f"matrix {i} sends torsion generator {c} into the free part",
                        {"i": i, "row": r, "col": c},
                    )
                if exps[r] > exps[c] and nu(p, v) < exps[r] - exps[c]:
                    return ModuleVerdict(
                        False,
                        f"matrix {i} entry ({r},{c}) violates the torsion orders",
                        {"i": i, "row": r, "col": c},
                    )

    k = mod.level
    for i in range(k):
        for j in range(k):
            lhs = _mat_mul(mod.matrices[i], mod.matrices[j])
            rhs = _combination(mod, lambda n: spec.coproduct_entry(i, j, n))
            miss = _first_mismatch(mod, lhs, rhs)
            if miss is not None:
                r, c = miss
                return ModuleVerdict(
                    False,
                    f"relation ({i},{j}) fails at entry ({r},{c})",
                    {"i": i, "j": j, "row": r, "col": c,
                     "lhs": str(lhs[r][c]), "rhs": str(rhs[r][c])},
                )
    return ModuleVerdict(True)
