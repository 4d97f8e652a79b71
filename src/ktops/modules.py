"""Finite models of discrete modules and the module/comodule dictionary.

A module finitely generated over the p-local integers splits as free
part plus cyclic torsion summands.  We present an action of the dual
algebra on such a module by square matrices M_0 .. M_{K-1}, one per
topological basis element, with everything from index K onward acting
as zero.  Such a table is discrete by construction; validity means the
unit acts as the identity (the counit law sum_n eps(c_n) M_n = 1) and
the matrices satisfy the same relations as the basis elements
themselves, both read against each row's torsion modulus.
validate_module checks it all; to_comodule only validates and wraps.

Columns index source generators and rows index targets, so column g of
M_i is the image of generator g.  Free generators come first, then the
torsion generators in the order of torsion_orders.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .coalgebra import CoalgebraSpec, ThetaCoalgebra, _require_prime
from .rationals import _check_prime, _int_valuation, as_fraction
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

    row_exponents[r] is e with torsion order p**e on a torsion row r, None
    on a free row.  Immutable, compared and hashed by the other four fields.
    """

    def __init__(self, prime: int, free_rank: int, torsion_orders: tuple[int, ...],
                 matrices: tuple[Matrix, ...]):
        torsion_orders = tuple(torsion_orders)
        _check_prime(prime)
        for what, v in (("free rank", free_rank), *(("torsion order", t) for t in torsion_orders)):
            if type(v) is not int:
                raise ValueError(f"{what} {v!r} is not an integer")
        matrices = tuple(_freeze(m) for m in matrices)
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
    """(reason, cell) for the first matrix i, in order, that is not square
    of the module's dimension or has an entry (r, c) that is not
    p-locally integral, shape before entries; None when all are sound."""
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

    In order: shape and integrality; the counit law sum_n eps(c_n) M_n = 1
    (the unit acts as the identity); the torsion columns; then every
    relation M_i M_j = sum_n G[i,j -> n] M_n, i, j below the level k.
    Laws compare exactly on free rows and modulo the torsion order on
    torsion rows.  The first failure is reported with its cell.

    Past the integrality scan the work is on integers: A_n = D M_n, D the
    lcm of the entry denominators (a p-adic unit), and each law is scaled
    by the lcm L of its coefficient denominators: sum_n (L eps_n) A_n =
    L D 1 and L A_i A_j = D sum_n (L G[i,j -> n]) A_n.  L may hold p on a
    coalgebra without a prime, so a torsion row of order p**e compares
    modulo p**(e + nu_p(L)).

    The k**2 relations are the definition; three routes decide them, each
    proven in its helper:

    * on a ThetaCoalgebra whose prime does not divide its base, k Newton
      steps M_(n+1) = (sigma_(n+1)/sigma_n) M_n (A - y_n) (_newton_steps);
      when step n is the first to fail, relation (1, n) names the cell;
    * on any other coalgebra, a table without torsion rows by the
      idempotents of its coaction (_idempotents_hold); when one fails, so
      does a relation, and the full scan names the cell;
    * every other table by all k**2 relations (_relation_scan).
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

    if isinstance(spec, ThetaCoalgebra) and spec.prime is not None and spec.base % p:
        n = _newton_steps(spec, mod, den, a)
        return ModuleVerdict(True) if n is None else _relation_scan(spec, mod, den, a, [(1, n)])
    if not mod.torsion_orders and _idempotents_hold(spec, mod, den, a):
        return ModuleVerdict(True)
    return _relation_scan(spec, mod, den, a, product(range(k), repeat=2))


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


def _relation_scan(spec: CoalgebraSpec, mod: FGModule, den: int, a: list, pairs: Iterable) -> ModuleVerdict:
    """The relations (i, j) for the pairs in order, on the integer table
    (D, A); the first failure with its cell
    and both sides unscaled, as lhs/D**2 and rhs/(L D)."""
    p, d, k, exps = mod.prime, mod.dimension, mod.level, mod.row_exponents
    gammas = [spec.coproduct_matrix(n) for n in range(k)]
    cols = [list(zip(*m)) for m in a]
    for i, j in pairs:
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


def _idempotents_hold(spec: CoalgebraSpec, mod: FGModule, den: int, a: list) -> bool:
    """Whether a table with no torsion rows that passed the integrality and
    counit scans satisfies every relation: N_k**2 = N_k for every k.

    With (d_n, m_n) = monomial_form(n), the coaction rho(x) = sum_n M_n x
    (x) c_n is sum_k N_k x (x) w**(rk), N_k = sum_n (m_(n,k) / d_n) M_n,
    k over the extending slots below the level.  Proof, over Q, as free
    rows compare exactly:

    * the relations are the coefficients of c_i (x) c_j in (rho (x) 1) rho
      = (1 (x) Delta) rho, so they hold exactly when rho is coassociative;
    * these w**(rk) are grouplike and span the c_n (regularity), so that
      reads N_k N_l = delta_kl N_k, and the counit law sum_k N_k = 1;
    * idempotents summing to 1 are orthogonal in characteristic 0: trace
      is rank, so the ranks sum to the dimension, the images form a
      direct sum, and N_l x = x gives N_k x = 0 for k != l.

    On integers B_k = sum_n m_(n,k) (L / d_n) A_n = L D N_k, L the lcm of
    the d_n, and the test is B_k**2 = L D B_k.  A torsion row compares
    modulo p**e while p may divide a d_n, so it keeps the relation scan.
    """
    k, d = mod.level, mod.dimension
    forms = [spec.monomial_form(n) for n in range(k)]
    big = lcm(*(dn for dn, _ in forms))
    weights = {}
    for n, (dn, mono) in enumerate(forms):
        for slot, m in mono.items():
            weights.setdefault(slot, [0] * k)[n] = m * (big // dn)
    big *= den
    for ws in weights.values():
        b = [_combination(a, ws, r, d) for r in range(d)]
        sparse = [[(c, v) for c, v in enumerate(row) if v] for row in b]
        if any(_add_product(row, sparse, [0] * d) != [big * v for v in row] for row in b):
            return False
    return True


def _add_product(row: list[int], sparse: list, acc: list[int]) -> list[int]:
    """acc plus row times the matrix whose rows are sparse [(c, v), ...]."""
    for s, v in enumerate(row):
        if v:
            for c, w in sparse[s]:
                acc[c] += v * w
    return acc


def _newton_steps(C: ThetaCoalgebra, mod: FGModule, den: int, a: list) -> int | None:
    """The first of k Newton steps that a table which passed the counit and
    torsion-column scans fails, or None when all hold.

    C has a prime p that does not divide its base b.  With A = y_0 + M_1 /
    sigma_1 (y_0 = sigma_1 = 1), the steps are

        M_(n+1) = (sigma_(n+1) / sigma_n) M_n (A - y_n),   n < k,   M_k = 0,

    compared as the relations are.  They hold exactly when all k**2
    relations do.  Proof, in End(M), where the torsion-column scan makes
    each M_n an endomorphism and row-wise comparison is equality:

    * eps(c_n) = delta_n0, as c_n vanishes at the node w = 1 for n >= 1,
      so the counit law reads M_0 = 1;
    * on the dual basis a_n = sigma_n theta_n(T) (coalgebra.ThetaCoalgebra),
      theta_n (T - y_0) = theta_(n+1) + (y_n - y_0) theta_n gives the band
      a_n a_1 = (y_n - y_0) a_n + (sigma_n / sigma_(n+1)) a_(n+1), so the
      relation (n, 1) is the step n, with M_1 = A - y_0;
    * conversely the steps give M_n = sigma_n theta_n(A) for every n, zero
      from k on.  The product identity a_i a_j = sum_n G[i,j -> n] a_n holds
      in Q[T], with every coefficient p-local (b is a p-adic unit), so it
      holds at A in End(M): every relation (i, j) holds.

    When step n is the first to fail, relation (1, n) is the scan's first
    failing relation (order i, then j), at the step's first failing entry:

    * the relations (0, j) hold, as a_0 is the unit and M_0 = 1;
    * step 0, M_1 = M_0 (A - y_0), always holds, so n >= 1;
    * steps 0 .. n-1 make M_t = sigma_t theta_t(A) for t <= n.  So the
      relations (1, j) with j < n hold, their targets being at most n by
      the band, and M_1 M_n = M_n M_1;
    * relation (1, n) is then step n times the p-adic unit
      sigma_n / sigma_(n+1), entry by entry modulo each row's order, so
      its failing entries are those of step n.

    On integers, with the nodes y'_l = b**E y_l of C.nodes(k, .), E =
    C.scale(k), step n reads D b**E A_(n+1) = b**g_n A_n (b**E A_1 +
    D (y'_0 - y'_n)), b**g_n = sigma_(n+1) / sigma_n, all p-adic units;
    each step checks against the table's own A_(n+1), so no entry grows.
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
            acc = _add_product(row, one, [shift * v for v in row])
            lhs = [den * unit * x for x in mats[n + 1][r]]
            if _miss(lhs, [g * x for x in acc], qs[r]) is not None:
                return n
    return None


class CoactionTable(NamedTuple):
    """The coaction rho(x_g) = sum_n (M_n x_g) (x) c_n of a valid table,
    held as its module: column g of M_n is the coefficient of c_n in
    rho(x_g).  Only to_comodule builds one, after validate_module."""

    module: FGModule

    def action_matrix(self, i: int) -> Matrix:
        """Recover M_i from the table: pair the coaction against a_i."""
        return self.module.matrix(i)


def to_comodule(mod: FGModule, spec: CoalgebraSpec) -> CoactionTable:
    """The coaction table of a valid action table; refuses an invalid one."""
    verdict = validate_module(mod, spec)
    if not verdict.ok:
        raise ValueError(f"not a valid module table: {verdict.reason}")
    return CoactionTable(mod)


class AnnihilatorSearch(NamedTuple):
    witness: int


def torsion_annihilator(mod: FGModule, spec: SpectrumSpec, s: int) -> AnnihilatorSearch:
    """The first depth-s admissible shift m whose matrix vanishes on the
    torsion block (mod the row orders); at the latest the first shift at
    or past the level, where everything acts as zero.  Raises ValueError,
    naming the matrix and entry, on a table that is not square or not
    p-locally integral, and, naming both primes, on another prime.
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
    # built as FGModule reads them, after it has checked the sizes
    mats = (_identity(d) if i == 0 else _zero(d) for i in range(level))
    return FGModule(prime, free_rank, tuple(torsion_orders), mats)


def character_module(spec: CoalgebraSpec, slot: int) -> FGModule:
    """Rank one, a_i acting by the coordinate of the grouplike w**(r*slot)
    on index i (pairing with it is an algebra map); zero from the slot's
    resolving index on, hence discrete."""
    return FGModule(_require_prime(spec), 1, (), tuple(((c,),) for c in spec.basis_coords(slot)))


def comodule_on_basis(spec: CoalgebraSpec, n: int) -> FGModule:
    """The span of basis elements 0..n: a_i sends generator j to m with
    coefficient G[m, i -> j]; triangularity makes the level n + 1."""
    p, d = _require_prime(spec), n + 1
    mats = (tuple(tuple(spec.coproduct_entry(m, i, j) for j in range(d)) for m in range(d))
            for i in range(d))
    return FGModule(p, d, (), tuple(mats))


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
    prime and free_rank are integers, torsion_orders a list of them,
    matrices lists of rows of rationals written as strings or integers.
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
    return as_fraction(v)


def module_to_json(mod: FGModule) -> str:
    return json.dumps(module_to_dict(mod), sort_keys=True)


def module_from_json(text: str) -> FGModule:
    return module_from_dict(json.loads(text))
