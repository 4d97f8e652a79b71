"""Finite models of discrete modules and the module/comodule dictionary.

A module finitely generated over the p-local integers splits as free
part plus cyclic torsion summands.  We present an action of the dual
algebra on such a module by square matrices M_0 .. M_{K-1}, one per
topological basis element, with everything from index K onward acting
as zero.  Such a table is discrete by construction; validity means the
matrices satisfy the same relations as the basis elements themselves,
with congruences read against each row's torsion modulus.

Columns index source generators and rows index targets, so column g of
M_i is the image of generator g.  Free generators come first, then the
torsion generators in the order of torsion_orders.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .coalgebra import CoalgebraSpec
from .rationals import as_fraction, is_prime, nu
from .spectra import SpectrumSpec, admissible_shifts

Matrix = tuple[tuple[Fraction, ...], ...]


def _freeze(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


def _identity(d: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d))


def _zero(d: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class FGModule:
    """An action table on a finitely generated p-local module."""

    prime: int
    free_rank: int
    torsion_orders: tuple[int, ...]
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "torsion_orders", tuple(int(t) for t in self.torsion_orders))
        object.__setattr__(self, "matrices", tuple(_freeze(m) for m in self.matrices))
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime!r} is not a prime")
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for t in self.torsion_orders:
            e = _power_exponent(t, self.prime)
            if e is None or e < 1:
                raise ValueError(f"torsion order {t} is not a positive power of {self.prime}")
        if not self.matrices:
            raise ValueError("an action table needs at least the identity matrix")

    @property
    def dimension(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    @property
    def level(self) -> int:
        """Index from which every basis element acts as zero."""
        return len(self.matrices)

    def matrix(self, i: int) -> Matrix:
        if i < self.level:
            return self.matrices[i]
        return _zero(self.dimension)

    def row_modulus(self, r: int) -> int | None:
        """Torsion modulus of row r; None on the free part."""
        if r < self.free_rank:
            return None
        return self.torsion_orders[r - self.free_rank]


def _power_exponent(t: int, p: int) -> int | None:
    if t < 1:
        return None
    e = 0
    while t % p == 0:
        t //= p
        e += 1
    return e if t == 1 else None


def _entries_congruent(x: Fraction, y: Fraction, p: int, modulus: int | None) -> bool:
    d = x - y
    if not d:
        return True
    if modulus is None:
        return False
    return nu(p, d) >= _power_exponent(modulus, p)


@dataclass(frozen=True)
class ModuleVerdict:
    ok: bool
    reason: str = ""
    cell: dict | None = None

    def __bool__(self):
        return self.ok


def validate_module(mod: FGModule, spec: CoalgebraSpec) -> ModuleVerdict:
    """Check the action table invariants against a coalgebra's constants.

    Shape and integrality first, then the torsion-column constraints,
    then every relation M_i M_j = sum_n G[i,j -> n] M_n for i, j below
    the level, compared exactly on free rows and modulo the row's
    torsion order on torsion rows.  The first violated relation is
    reported with its cell.
    """
    p = mod.prime
    if spec.prime not in (None, p):
        return ModuleVerdict(False, "prime mismatch between module and coalgebra")
    d = mod.dimension
    for i, m in enumerate(mod.matrices):
        if len(m) != d or any(len(row) != d for row in m):
            return ModuleVerdict(False, f"matrix {i} is not {d} by {d}", {"i": i})
        for r in range(d):
            for c in range(d):
                if m[r][c].denominator % p == 0:
                    return ModuleVerdict(
                        False,
                        f"matrix {i} entry ({r},{c}) is not p-locally integral",
                        {"i": i, "row": r, "col": c},
                    )
    if mod.matrices[0] != _identity(d):
        return ModuleVerdict(False, "the index-0 matrix must be the identity")

    # a torsion generator is killed by its order, so its image has no
    # free component and its torsion components respect the orders
    for i, m in enumerate(mod.matrices):
        for c in range(mod.free_rank, d):
            e_c = _power_exponent(mod.torsion_orders[c - mod.free_rank], p)
            for r in range(d):
                v = m[r][c]
                if not v:
                    continue
                if r < mod.free_rank:
                    return ModuleVerdict(
                        False,
                        f"matrix {i} sends torsion generator {c} into the free part",
                        {"i": i, "row": r, "col": c},
                    )
                e_r = _power_exponent(mod.torsion_orders[r - mod.free_rank], p)
                if e_r > e_c and nu(p, v) < e_r - e_c:
                    return ModuleVerdict(
                        False,
                        f"matrix {i} entry ({r},{c}) violates the torsion orders",
                        {"i": i, "row": r, "col": c},
                    )

    k = mod.level
    for i in range(k):
        for j in range(k):
            lhs = _mat_mul(mod.matrices[i], mod.matrices[j])
            rhs = [[Fraction(0)] * d for _ in range(d)]
            for n in range(k):
                g = spec.coproduct_entry(i, j, n)
                if not g:
                    continue
                mn = mod.matrices[n]
                for r in range(d):
                    for c in range(d):
                        rhs[r][c] += g * mn[r][c]
            for r in range(d):
                modulus = mod.row_modulus(r)
                for c in range(d):
                    if not _entries_congruent(lhs[r][c], rhs[r][c], p, modulus):
                        return ModuleVerdict(
                            False,
                            f"relation ({i},{j}) fails at entry ({r},{c})",
                            {"i": i, "j": j, "row": r, "col": c,
                             "lhs": str(lhs[r][c]), "rhs": str(rhs[r][c])},
                        )
    return ModuleVerdict(True)


@dataclass(frozen=True)
class CoactionTable:
    """The coaction rho(x_g) = sum_n (M_n x_g) (x) c_n, as a dense table.

    vectors[g][n] is the coefficient column of generator g under the
    n-th action matrix; the counit law and coassociativity are checked
    at construction time by to_comodule.
    """

    module: FGModule
    vectors: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def action_matrix(self, i: int) -> Matrix:
        """Recover M_i from the table: pair the coaction against a_i."""
        d = self.module.dimension
        if i >= self.module.level:
            return _zero(d)
        return tuple(tuple(self.vectors[g][i][r] for g in range(d)) for r in range(d))


def to_comodule(mod: FGModule, spec: CoalgebraSpec) -> CoactionTable:
    """Turn a valid action table into its coaction table.

    The sum rho(x) = sum_n a_n x (x) c_n has only the first K terms
    since everything later acts as zero.  Refuses invalid input, and
    asserts the counit law sum_n eps(c_n) M_n = 1 after building.
    """
    verdict = validate_module(mod, spec)
    if not verdict.ok:
        raise ValueError(f"not a valid module table: {verdict.reason}")
    d = mod.dimension
    vectors = tuple(
        tuple(tuple(mod.matrices[n][r][g] for r in range(d)) for n in range(mod.level))
        for g in range(d)
    )
    table = CoactionTable(mod, vectors)
    total = [[Fraction(0)] * d for _ in range(d)]
    for n in range(mod.level):
        e = spec.counit_value(n)
        if not e:
            continue
        for r in range(d):
            for c in range(d):
                total[r][c] += e * mod.matrices[n][r][c]
    for r in range(d):
        modulus = mod.row_modulus(r)
        for c in range(d):
            want = Fraction(1 if r == c else 0)
            if not _entries_congruent(total[r][c], want, mod.prime, modulus):
                raise ValueError(f"counit law fails at ({r},{c})")
    return table


@dataclass(frozen=True)
class AnnihilatorSearch:
    witness: int | None
    tried: tuple[int, ...]
    pigeonhole: tuple[int, int] | None

    def __bool__(self):
        return self.witness is not None


def torsion_annihilator(mod: FGModule, spec: SpectrumSpec, s: int, tries: int = 10) -> AnnihilatorSearch:
    """Search the depth-s admissible shifts for one killing the torsion.

    Walks m through the admissible set in increasing order and returns
    the first m whose matrix vanishes on the torsion block (mod the row
    orders).  Past the table's level everything acts as zero, so for a
    valid table the search succeeds as soon as the shifts reach that
    far; a failure certifies the input is not a discrete-module table.
    Also reports the first pair of shifts with equal torsion action, in
    the spirit of the pigeonhole step of the finiteness argument.
    Raises ValueError, naming the matrix and the entry, on a table that
    is not square or not p-locally integral.
    """
    if s < 1:
        raise ValueError("the torsion exponent must be a positive integer")
    p = mod.prime
    lo = mod.free_rank
    d = mod.dimension
    for i, m in enumerate(mod.matrices):
        if len(m) != d or any(len(row) != d for row in m):
            raise ValueError(f"matrix {i} is not {d} by {d}")
        for r, row in enumerate(m):
            for c, v in enumerate(row):
                if v.denominator % p == 0:
                    raise ValueError(
                        f"matrix {i} entry ({r},{c}) is {v}, not {p}-locally integral"
                    )

    def torsion_block(m: int) -> tuple:
        mat = mod.matrix(m)
        out = []
        for r in range(lo, d):
            e_r = _power_exponent(mod.torsion_orders[r - lo], p)
            for c in range(lo, d):
                v = mat[r][c]
                out.append(_reduce_mod(v, p, e_r))
        return tuple(out)

    zero = tuple(
        Fraction(0)
        for r in range(lo, d)
        for _ in range(lo, d)
    )
    seen: dict[tuple, int] = {}
    tried = []
    pigeonhole = None
    for m in islice(admissible_shifts(spec, s), tries):
        tried.append(m)
        block = torsion_block(m)
        if block == zero:
            return AnnihilatorSearch(m, tuple(tried), pigeonhole)
        if pigeonhole is None:
            if block in seen:
                pigeonhole = (seen[block], m)
            else:
                seen[block] = m
    return AnnihilatorSearch(None, tuple(tried), pigeonhole)


def _reduce_mod(v: Fraction, p: int, e: int) -> Fraction:
    """Canonical representative of a p-local integer mod p**e."""
    q = p**e
    num, den = v.numerator, v.denominator
    inv = pow(den, -1, q)
    return Fraction((num * inv) % q)


# ----------------------------------------------------------------------
# stock constructors
# ----------------------------------------------------------------------

def trivial_module(prime: int, free_rank: int = 1, torsion_orders: Sequence[int] = (), level: int = 1) -> FGModule:
    """Everything above index 0 acts as zero."""
    d = free_rank + len(torsion_orders)
    mats = [_identity(d)] + [_zero(d) for _ in range(level - 1)]
    return FGModule(prime, free_rank, tuple(torsion_orders), tuple(mats))


def character_module(spec: CoalgebraSpec, slot: int) -> FGModule:
    """Rank one, with each basis element acting by its monomial pairing.

    The monomial w**(r*slot) is grouplike, so pairing against it is an
    algebra map to the ground ring; the action of a_i is the scalar
    coordinate of that monomial on basis index i.  Zero from the slot's
    resolving index onward, hence discrete.
    """
    if spec.prime is None:
        raise ValueError("a character module needs a p-local coalgebra")
    coords = spec.basis_coords(slot)
    mats = tuple(((c,),) for c in coords)
    return FGModule(spec.prime, 1, (), mats)


def comodule_on_basis(spec: CoalgebraSpec, n: int) -> FGModule:
    """The span of basis elements 0..n as a module over the dual.

    Action of a_i on generator j lands on generator m with coefficient
    the structure constant G[m, i -> j]; triangularity kills indices
    above n, so the level is n + 1.
    """
    if spec.prime is None:
        raise ValueError("the stock comodule needs a p-local coalgebra")
    d = n + 1
    mats = []
    for i in range(d):
        mats.append(
            tuple(tuple(spec.coproduct_entry(m, i, j) for j in range(d)) for m in range(d))
        )
    return FGModule(spec.prime, d, (), tuple(mats))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def module_to_dict(mod: FGModule) -> dict:
    return {
        "prime": mod.prime,
        "free_rank": mod.free_rank,
        "torsion_orders": list(mod.torsion_orders),
        "matrices": [[[str(v) for v in row] for row in m] for m in mod.matrices],
    }


def module_from_dict(data: dict) -> FGModule:
    """Rebuild a module table from the layout module_to_dict writes.

    Raises ValueError naming the first key that is missing or ill-typed:
    prime and free_rank are integers, torsion_orders a list of integers,
    matrices a list of matrices, each a list of rows of rationals
    written as strings or integers.
    """
    if not isinstance(data, dict):
        raise ValueError("a module table must be an object with keys "
                         "prime, free_rank, torsion_orders, matrices")

    def get(key, parse):
        if key not in data:
            raise ValueError(f"module table has no {key!r} key")
        try:
            return parse(data[key])
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise ValueError(f"module table key {key!r} is ill-typed: {e}") from None

    return FGModule(
        prime=get("prime", _json_int),
        free_rank=get("free_rank", _json_int),
        torsion_orders=get("torsion_orders", lambda ts: tuple(_json_int(t) for t in _json_list(ts))),
        matrices=get("matrices", lambda ms: tuple(
            tuple(tuple(_json_rational(v) for v in _json_list(row)) for row in _json_list(m))
            for m in _json_list(ms)
        )),
    )


def _json_int(v) -> int:
    if type(v) is not int:
        raise TypeError(f"{v!r} is not an integer")
    return v


def _json_list(v) -> list | tuple:
    if type(v) not in (list, tuple):
        raise TypeError(f"{v!r} is not a list")
    return v


def _json_rational(v) -> Fraction:
    if type(v) not in (str, int, Fraction):
        raise TypeError(f"{v!r} is not a rational written as a string or an integer")
    return Fraction(v)


def module_to_json(mod: FGModule) -> str:
    return json.dumps(module_to_dict(mod), sort_keys=True)


def module_from_json(text: str) -> FGModule:
    return module_from_dict(json.loads(text))
