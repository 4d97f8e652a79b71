"""Slow, independent routes to the coalgebra tables, kept as test oracles.

The library builds its tables on integers over one denominator per
monomial or per table (see ktops.coalgebra).  The routes here compute
the same tables one Fraction operation at a time, the way the library
once did, so that a disagreement with the fast kernel is caught:

* coords_by_clearing: coordinates by repeatedly clearing the extremal
  slot of a LaurentPoly remainder;
* coproduct_by_fraction_loop: structure constants summed entry by entry
  over coordinates from coords_by_clearing;
* coproduct_by_solve: structure constants from a dense linear solve in
  the two-variable monomial basis.
"""
from __future__ import annotations

from fractions import Fraction

from ktops.coalgebra import CoalgebraSpec, NotRegularError
from ktops.laurent import LaurentPoly


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
