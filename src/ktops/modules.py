"""Finite models of discrete modules and the module/comodule dictionary.

A module finitely generated over the p-local integers splits as free
part plus cyclic torsion summands.  We present an action of the dual
algebra on such a module by square matrices M_0 .. M_{K-1}, one per
topological basis element, with everything from index K onward acting
as zero.  Such a table is discrete by construction; validity means the
unit acts as the identity (the counit law sum_n eps(c_n) M_n = 1) and
the matrices satisfy the same relations as the basis elements
themselves, both read against each row's torsion modulus.  Everything
is checked by validate_module; to_comodule only validates and wraps.
validate_module works on integer matrices: each law is scaled by p-adic
units and by the lcm L of its denominators, torsion rows mod p**(e + nu_p(L)).
On a theta-form coalgebra whose node base is a unit at its prime the k**2
relations of a level-k table follow from k Newton steps
M_(n+1) = (sigma_(n+1)/sigma_n) M_n (A - y_n), A = y_0 + M_1/sigma_1, M_k = 0,
which validate_module checks instead; _newton_steps holds the proof.

Columns index source generators and rows index targets, so column g of
M_i is the image of generator g.  Free generators come first, then the
torsion generators in the order of torsion_orders.

FGModule is immutable and compared by its four defining fields;
ModuleVerdict, CoactionTable and AnnihilatorSearch are immutable
NamedTuples compared by value.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .coalgebra import CoalgebraSpec, ThetaCoalgebra
from .rationals import _int_valuation, as_fraction, is_prime
from .spectra import SpectrumSpec, admissible_shifts

Matrix = tuple[tuple[Fraction, ...], ...]


def _freeze(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


def _identity(d: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d))


def _zero(d: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))


class FGModule:
    """An action table on a finitely generated p-local module.

    row_exponents[r] is e with torsion order p**e on a torsion row r,
    None on a free row.  Immutable, and compared and hashed by prime,
    free_rank, torsion_orders and matrices; row_exponents is derived
    from them.
    """

    def __init__(self, prime: int, free_rank: int, torsion_orders: tuple[int, ...],
                 matrices: tuple[Matrix, ...]):
        torsion_orders = tuple(int(t) for t in torsion_orders)
        matrices = tuple(_freeze(m) for m in matrices)
        if not is_prime(prime):
            raise ValueError(f"{prime!r} is not a prime")
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for t in torsion_orders:
            if t < 2 or prime ** _int_valuation(prime, t) != t:
                raise ValueError(f"torsion order {t} is not a positive power of {prime}")
        if not matrices:
            raise ValueError("an action table needs at least the identity matrix")
        exps = tuple(_int_valuation(prime, t) for t in torsion_orders)
        self.__dict__.update(prime=prime, free_rank=free_rank, torsion_orders=torsion_orders,
                             matrices=matrices, row_exponents=(None,) * free_rank + exps)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to FGModule.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete FGModule.{name}")

    def _key(self) -> tuple:
        return self.prime, self.free_rank, self.torsion_orders, self.matrices

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"FGModule(prime={self.prime!r}, free_rank={self.free_rank!r}, "
                f"torsion_orders={self.torsion_orders!r}, matrices={self.matrices!r})")

    @property
    def dimension(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    @property
    def level(self) -> int:
        """Index from which every basis element acts as zero."""
        return len(self.matrices)

    def matrix(self, i: int) -> Matrix:
        if i < 0:
            raise ValueError("basis indices start at 0")
        if i < self.level:
            return self.matrices[i]
        return _zero(self.dimension)


def _malformed(mod: FGModule) -> tuple[str, dict] | None:
    """The first flaw in the shape or integrality of an action table.

    (reason, cell) naming matrix i when it is not square of the module's
    dimension, or its entry (r, c) when that is not p-locally integral;
    None when every matrix is well formed.  Matrices are scanned in
    order, each for its shape before its entries.
    """
    d, p = mod.dimension, mod.prime
    for i, m in enumerate(mod.matrices):
        if len(m) != d or any(len(row) != d for row in m):
            return f"matrix {i} is not {d} by {d}", {"i": i}
        for r, row in enumerate(m):
            for c, v in enumerate(row):
                if v.denominator % p == 0:
                    return (f"matrix {i} entry ({r},{c}) is {v}, not {p}-locally integral",
                            {"i": i, "row": r, "col": c})
    return None


class ModuleVerdict(NamedTuple):
    ok: bool
    reason: str = ""
    cell: dict | None = None

    def __bool__(self):
        return self.ok


def validate_module(mod: FGModule, spec: CoalgebraSpec) -> ModuleVerdict:
    """Check the module axioms of an action table against a coalgebra.

    In order: shape and integrality; the counit law
    sum_n eps(c_n) M_n = 1, which says the unit of the dual algebra acts
    as the identity; the torsion-column constraints; then every relation
    M_i M_j = sum_n G[i,j -> n] M_n for i, j below the level.  The counit
    law and the relations are compared exactly on free rows and modulo
    the row's torsion order on torsion rows.  The first failure is
    reported with its cell.

    Past the integrality scan the work is on integers: A_n = D M_n, D the
    lcm of the entry denominators (a p-adic unit), and each law is
    multiplied by the lcm L of its coefficient denominators:
    sum_n (L eps_n) A_n = L D 1 and L A_i A_j = D sum_n (L G[i,j -> n]) A_n.
    L may hold p on a coalgebra without a prime, so a torsion row of
    order p**e compares modulo p**(e + nu_p(L)).  A failed relation
    reports its sides unscaled, as lhs/D**2 and rhs/(L D).

    The k**2 relations (k the level) are the definition, and
    _relation_scan checks them on every coalgebra but one kind: on a
    ThetaCoalgebra with a prime that does not divide its base, k Newton
    steps decide the same verdict (_newton_steps, which holds the proof).
    Only when a step fails is the relation scan run, to name the first
    failing relation and its cell.
    """
    p = mod.prime
    if spec.prime not in (None, p):
        return ModuleVerdict(False, "prime mismatch between module and coalgebra")
    bad = _malformed(mod)
    if bad is not None:
        return ModuleVerdict(False, *bad)
    d, k, exps = mod.dimension, mod.level, mod.row_exponents
    den, a = _integer_table(mod)

    big, eps, qs = _scaled(p, exps, [spec.counit_value(n) for n in range(k)])
    for r in range(d):
        c = _miss(_combination(a, eps, r, d), [big * den * (col == r) for col in range(d)], qs[r])
        if c is not None:
            return ModuleVerdict(False, f"the counit does not act as the identity at entry ({r},{c})",
                                 {"row": r, "col": c})

    # a torsion generator is killed by its order, so its image has no
    # free component and its torsion components respect the orders
    for i, m in enumerate(a):
        for c in range(mod.free_rank, d):
            for r in range(d):
                v = m[r][c]
                if v and exps[r] is None:
                    why = f"sends torsion generator {c} into the free part"
                elif v and exps[r] > exps[c] and v % p ** (exps[r] - exps[c]):
                    why = f"entry ({r},{c}) violates the torsion orders"
                else:
                    continue
                return ModuleVerdict(False, f"matrix {i} {why}", {"i": i, "row": r, "col": c})

    if (isinstance(spec, ThetaCoalgebra) and spec.prime is not None and spec.base % p
            and _newton_steps(spec, mod, den, a)):
        return ModuleVerdict(True)
    return _relation_scan(spec, mod, den, a)


def _integer_table(mod: FGModule) -> tuple[int, list[list[list[int]]]]:
    """(D, [A_0, ...]) with A_n = D M_n, D the lcm of the entry denominators."""
    den = lcm(*(v.denominator for m in mod.matrices for row in m for v in row))
    return den, [[[v.numerator * (den // v.denominator) for v in row] for row in m]
                 for m in mod.matrices]


def _scaled(p: int, exps, weights: list[Fraction]) -> tuple[int, list[int], list[int | None]]:
    """L, the weights times L, and the row moduli p**(e + nu_p(L)), None if free."""
    big = lcm(*(w.denominator for w in weights))
    s = _int_valuation(p, big)
    return (big, [w.numerator * (big // w.denominator) for w in weights],
            [None if e is None else p ** (e + s) for e in exps])


def _miss(xs: list[int], ys: list[int], q: int | None) -> int | None:
    """First column where two scaled rows differ: exactly, or mod q."""
    return next((c for c, (x, y) in enumerate(zip(xs, ys))
                 if x != y and (q is None or (x - y) % q)), None)


def _combination(a: list, ws: list[int], r: int, d: int) -> list[int]:
    """Row r of sum_n ws[n] A_n."""
    out = [0] * d
    for w, m in zip(ws, a):
        if w:
            out = [x + w * y for x, y in zip(out, m[r])]
    return out


def _relation_scan(spec: CoalgebraSpec, mod: FGModule, den: int, a: list) -> ModuleVerdict:
    """Every relation M_i M_j = sum_n G[i,j -> n] M_n, i, j below the level,
    on the integer table (D, A) of _integer_table; the first failure with
    its cell and both sides unscaled."""
    p, d, k, exps = mod.prime, mod.dimension, mod.level, mod.row_exponents
    gammas = [spec.coproduct_matrix(n) for n in range(k)]
    cols = [list(zip(*m)) for m in a]
    for i in range(k):
        for j in range(k):
            big, gs, qs = _scaled(p, exps, [g[i][j] if n >= max(i, j) else Fraction(0)
                                            for n, g in enumerate(gammas)])
            for r in range(d):
                prod = [sum(map(mul, a[i][r], col)) for col in cols[j]]
                comb = _combination(a, gs, r, d)
                c = _miss([big * x for x in prod], [den * y for y in comb], qs[r])
                if c is not None:
                    return ModuleVerdict(False, f"relation ({i},{j}) fails at entry ({r},{c})", {
                        "i": i, "j": j, "row": r, "col": c,
                        "lhs": str(Fraction(prod[c], den * den)),
                        "rhs": str(Fraction(comb[c], big * den))})
    return ModuleVerdict(True)


def _newton_steps(C: ThetaCoalgebra, mod: FGModule, den: int, a: list) -> bool:
    """Whether a table that passed the counit and torsion-column scans
    satisfies every relation of a theta-form coalgebra, by k Newton steps.

    C has a prime p that does not divide its base b.  With A = y_0 + M_1 /
    sigma_1 (y_0 = sigma_1 = 1), the steps are

        M_(n+1) = (sigma_(n+1) / sigma_n) M_n (A - y_n),   n < k,   M_k = 0,

    compared as the relations are: exactly on free rows, modulo p**e on a
    torsion row of order p**e.  They hold exactly when all k**2 relations
    do.  Proof, in End(M) of the module M, where the torsion-column scan
    makes each M_n a well-defined endomorphism and row-wise comparison
    is equality of endomorphisms:

    * the counit is eps(c_n) = delta_n0, since c_n vanishes at the node
      w = 1 for n >= 1, so the counit law reads M_0 = 1;
    * on the dual basis a_n = sigma_n theta_n(T) (coalgebra.ThetaCoalgebra),
      theta_n (T - y_0) = theta_(n+1) + (y_n - y_0) theta_n gives the band
      a_n a_1 = (y_n - y_0) a_n + (sigma_n / sigma_(n+1)) a_(n+1), so the
      relation (n, 1) is the step n, with M_1 = A - y_0;
    * conversely the steps give M_n = sigma_n theta_n(A) for every n, zero
      from k on.  The product identity a_i a_j = sum_n G[i,j -> n] a_n holds
      in Q[T], with every coefficient p-local (b is a p-adic unit), so it
      holds at A in End(M): every relation (i, j) holds.

    On integers (ThetaCoalgebra), with A_n = D M_n and the nodes y'_l =
    b**E y_l of C.nodes(k, .), E = C.scale(k), step n reads D b**E A_(n+1)
    = b**g_n A_n (b**E A_1 + D (y'_0 - y'_n)), b**g_n = sigma_(n+1) /
    sigma_n.  D, b**E and b**g_n are p-adic units, and each step checks
    against the table's own A_(n+1), so no entry grows.
    """
    p, d, k, exps = mod.prime, mod.dimension, mod.level, mod.row_exponents
    b = C.base
    ys, unit = C.nodes(k, range(k)), b ** C.scale(k)
    zero = [[0] * d for _ in range(d)]
    mats = [*a, zero]
    # rows of b**E A_1, sparse; A_1 = 0 at level 1
    one = [[(c, unit * v) for c, v in enumerate(row) if v] for row in mats[1]]
    t = [n * C.scale(n) for n in range(k + 1)]  # sigma_n = b**t_n
    qs = [None if x is None else p**x for x in exps]
    for n in range(k):
        g, shift = b ** (t[n + 1] - t[n]), den * (ys[0] - ys[n])
        for r, row in enumerate(mats[n]):
            acc = [shift * v for v in row]
            for s, v in enumerate(row):
                if v:
                    for c, w in one[s]:
                        acc[c] += v * w
            lhs = [den * unit * x for x in mats[n + 1][r]]
            if _miss(lhs, [g * x for x in acc], qs[r]) is not None:
                return False
    return True


class CoactionTable(NamedTuple):
    """The coaction rho(x_g) = sum_n (M_n x_g) (x) c_n of a valid table.

    Column g of M_n is the coefficient of c_n in rho(x_g), so the table
    is held as its module; only to_comodule builds one, after
    validate_module has checked the counit law and coassociativity.
    """

    module: FGModule

    def action_matrix(self, i: int) -> Matrix:
        """Recover M_i from the table: pair the coaction against a_i."""
        return self.module.matrix(i)


def to_comodule(mod: FGModule, spec: CoalgebraSpec) -> CoactionTable:
    """Turn a valid action table into its coaction table.

    The sum rho(x) = sum_n a_n x (x) c_n has only the first K terms
    since everything later acts as zero.  Refuses invalid input.
    """
    verdict = validate_module(mod, spec)
    if not verdict.ok:
        raise ValueError(f"not a valid module table: {verdict.reason}")
    return CoactionTable(mod)


class AnnihilatorSearch(NamedTuple):
    witness: int


def torsion_annihilator(mod: FGModule, spec: SpectrumSpec, s: int) -> AnnihilatorSearch:
    """The first depth-s admissible shift that kills the torsion.

    Walks m through the admissible shifts in increasing order and
    returns the first m whose matrix vanishes on the torsion block (mod
    the row orders).  Past the table's level everything acts as zero, so
    the walk ends at the latest at the first shift at or past the level.
    Raises ValueError, naming the matrix and the entry, on a table that
    is not square or not p-locally integral, and, naming both primes, on
    a spectrum of another prime.
    """
    if s < 1:
        raise ValueError("the torsion exponent must be a positive integer")
    p = mod.prime
    if spec.prime != p:
        raise ValueError(f"prime mismatch between module ({p}) and spectrum {spec.name} ({spec.prime})")
    bad = _malformed(mod)
    if bad is not None:
        raise ValueError(bad[0])
    lo, d, exps = mod.free_rank, mod.dimension, mod.row_exponents

    def kills_torsion(m: int) -> bool:
        # every denominator is prime to p, so v = 0 mod p**e iff p**e divides its numerator
        mat = mod.matrix(m)
        return all(mat[r][c].numerator % p ** exps[r] == 0 for r in range(lo, d) for c in range(lo, d))

    return AnnihilatorSearch(next(m for m in admissible_shifts(spec, s)
                                  if m >= mod.level or kills_torsion(m)))


# ----------------------------------------------------------------------
# stock constructors
# ----------------------------------------------------------------------

def trivial_module(prime: int, free_rank: int = 1, torsion_orders: Sequence[int] = (), level: int = 1) -> FGModule:
    """Everything above index 0 acts as zero."""
    if level < 1:
        raise ValueError("the level must be a positive integer")
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
