"""Mechanical verification of the discreteness criteria.

Two conditions control when the dual algebra of a regular coalgebra has
discrete = locally-finitely-generated module theory.  For a depth l and
a set of admissible shifts:

(1) unit condition: for shifts m < n, the element dual to basis slot
    n - m must differ from 1 by a non-unit everywhere, i.e. all its
    monomial pairings lie in p Z_(p);
(2) congruence condition: products of dual basis elements a_m a_n must
    agree with a_{m+n} mod p**l, i.e. nu(Gamma[m,n->t] - delta_{t,m+n})
    >= l for every target t.

For the product-form algebras both conditions are decided exactly: (1)
is periodic in the evaluation exponent mod p, and (2) is the complete
expansion of a_m a_n - a_{m+n} in the dual basis, after a diagonal test
and a short-cut over differences of the product nodes that can only
prove it.  The nodes are z_l = b**s_l, s_l = extending_slot(l), l >= 0,
for a p-adic unit b: p | b**j - z_l exactly when ord_p(b) | j - s_l, and
z_a - z_b is a unit times b**(s_b - s_a) - 1, whose valuation is
ThetaCoalgebra.gap_valuation.  The unit condition, the diagonal and
the short-cut read only these slot facts, each in a number of reads
that depends on neither the cell nor the order of b: the unit
condition finds the residue the slots miss in closed form, and the
short-cut's least node difference is always among the first two (the
proofs are in the docstrings of the two conditions).  The expansion
and the short-cut's proof both rest on the Newton step of the Gamma
recursion (ThetaCoalgebra._gamma_table), theta_t (T - y) =
theta_(t+1) + (y_t - y) theta_t; the expansion is
ThetaCoalgebra.product_row, which runs it along one row on 2 min(m, n)
integer nodes, and this module takes the valuations of its
coordinates.  The 2-local complex theories have no product form, so
both conditions are read off the coalgebra coefficient tables up to a
stated bound; their tables vanish above the band t > m + n
(spectra.InterleavedCoalgebra), so the targets above m + n are read as
zeros of the band, building no table.

ConditionVerdict, SweepReport and ConditionReport are immutable
NamedTuples compared by value; condition_report relabels a verdict with
_replace.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import gcd
from typing import NamedTuple

from .coalgebra import ThetaCoalgebra, _require_prime
from .rationals import _int_valuation, nu
from .spectra import SpectrumSpec, admissible_shifts


class ConditionVerdict(NamedTuple):
    """Outcome of checking one condition for one cell (m, n, l)."""

    spectrum: str
    condition: str
    holds: bool
    exact: bool
    m: int
    n: int | None = None
    level: int | None = None
    witness: object = None
    min_valuation: int | None = None
    checked: object = None
    control: bool = False

    def __bool__(self):
        return self.holds

    def as_dict(self) -> dict:
        return {
            "spectrum": self.spectrum,
            "condition": self.condition,
            "verdict": "holds" if self.holds else "fails",
            "exact": self.exact,
            "m": self.m,
            "n": self.n,
            "l": self.level,
            "witness": self.witness,
            "min_valuation": self.min_valuation,
            "checked": self.checked,
            "control": self.control,
        }

    def describe(self) -> str:
        word = "holds" if self.holds else "FAILS"
        where = f"m={self.m}" + (f", n={self.n}" if self.n is not None else "")
        if self.level is not None:
            where += f", l={self.level}"
        tail = "" if self.exact else " (bounded)"
        if not self.holds and self.witness is not None:
            tail += f" witness={self.witness}"
        ctl = " [control]" if self.control else ""
        return f"{self.spectrum} {self.condition} {where}: {word}{tail}{ctl}"


# the coalgebra-table routes read monomial slots and targets up to
# max(_TABLE_BOUND, the index they decide)
_TABLE_BOUND = 20

# condition_report pairs each sampled shift with every index n below this
_REPORT_N_RANGE = 6


def check_unit_condition(spec: SpectrumSpec, m: int, n: int) -> ConditionVerdict:
    """Condition (1) for the shift pair 0 <= m < n.

    Product-form route: evaluates the degree n-m node product at b**j
    and demands the value land in p Z_(p).  The values only matter mod
    p and b**j cycles with period o = ord_p(b), so j < o decides every
    exponent, exactly.  p | b**j - b**s_i exactly when o | j - s_i, so the
    cell fails at the least residue j mod o that no slot s_i, i < n - m,
    reaches.  That residue has a closed form in L = min(n - m, o) alone.
    The slots are i connectively and 0, 1, -1, 2, -2, ... periodically,
    so s_0..s_(L-1) fill the interval [0, L - 1], resp.
    [-floor((L-1)/2), ceil((L-1)/2)], of L <= o consecutive integers, and
    the later slots only repeat their residues: L = o reaches every
    residue and the cell holds.  For L < o the residues are distinct, so
    the least one missed is L connectively and ceil((L-1)/2) + 1 =
    L // 2 + 1 periodically, the witness; it lies below o - floor((L-1)/2),
    where the negative slots begin, as L < o.
    Without a product form the same statement is read off the monomial
    coordinate tables: p must divide the (n-m)-th coordinate of every
    monomial, checked for slots resolvable up to index max(20, n - m),
    which `checked` reports.
    """
    if m < 0:
        raise ValueError("the shift must be non-negative")
    if m >= n:
        raise ValueError("the unit condition needs m < n")
    C = spec.coalgebra
    if isinstance(C, ThetaCoalgebra):
        o, _ = C.order
        L = min(n - m, o)
        j = None if L == o else L // 2 + 1 if C.periodic else L
        return ConditionVerdict(spec.name, "unit", j is None, True, m, n, witness=j, checked=o)

    slot, bound = _monomial_divisibility(spec, n - m)
    return ConditionVerdict(spec.name, "unit", slot is None, False, m, n, witness=slot, checked=bound)


def check_congruence_condition(spec: SpectrumSpec, m: int, n: int, l: int) -> ConditionVerdict:
    """Condition (2) for shift m, index n, depth l.

    The condition is a_m a_n = a_{m+n} mod p**l: every coordinate of
    a_m a_n - a_{m+n} in the dual basis has valuation >= l, that is
    nu(Gamma[m,n->t] - delta_{t,m+n}) >= l for every target t.

    Product-form route, exact.  a_k = b**(e_k) theta_k, e_k = k E_k with
    E_k = ThetaCoalgebra.scale(k), so the coordinate at t != m+n is a
    power of b times that of theta_m theta_n - theta_{m+n}, and the
    diagonal one is b**u - 1, u = e_m + e_n - e_{m+n}.  In this order:

    1. the diagonal: if u != 0 and nu(b**|u| - 1) < l the cell fails
       with witness m + n;
    2. the node differences y_(m+k) - y_k, k < n: if every nonzero one
       has valuation >= l the cell holds.  Proof, by the Newton step
       theta_t (T - y) = theta_(t+1) + (y_t - y) theta_t: multiply
       theta_m by the factors T - y_k, k < n, of theta_n.  After k of
       them the product is theta_(m+k) plus lower theta_t whose
       coordinates lie in the ideal I_k generated by y_(m+k') - y_k',
       k' < k.  The next factor sends theta_(m+k) to theta_(m+k+1) +
       (y_(m+k) - y_k) theta_(m+k), a generator of I_(k+1), and
       c theta_t to c theta_(t+1) + c (y_t - y_k) theta_t, both in I_k
       as the nodes are p-local integers.  So every coordinate of
       theta_m theta_n - theta_{m+n} lies in I_n, and its valuation is
       at least the least one of the generators, each read as
       ThetaCoalgebra.gap_valuation of its slot gap (none when the
       slots agree).  That least one is read at k < min(n, 2).  The slot
       gap |s_(m+k) - s_k| is m connectively; periodically it is c for
       every k when m = 2c, and (m+1)/2 + k when m is odd, so the gaps
       are all zero at m = 0 and none is otherwise.  gap_valuation(g)
       is 0 unless o | g and v + nu_p(g) when o | g, (o, v) =
       ThetaCoalgebra.order.  Of two consecutive gaps g, g + 1 one is
       not a multiple of o when o >= 2, and one is prime to p when
       o = 1, so it reads 0, resp. v, the least value gap_valuation
       takes.  So over a constant run of gaps, or a run of consecutive
       ones, the least is reached at k = 0 or 1;
    3. otherwise the complete expansion of the difference
       (ThetaCoalgebra.product_row) decides; the witness is the first
       coordinate index (the target t) with valuation < l.

    min_valuation is the least valuation among what the route read:
    the diagonal alone when it fails; the least node difference and
    b**|u| - 1 on the short-cut, a lower bound for every coordinate; every
    coordinate and b**|u| - 1 on the expansion, the exact minimum.

    Without a product form the tables are read, the diagonal first, for
    targets up to max(20, m + n), which `checked` reports: a bounded
    verdict (see _gamma_congruence).
    """
    if l < 1:
        raise ValueError("the depth must be a positive integer")
    if m < 0 or n < 0:
        raise ValueError("shift and index must be non-negative")
    C = spec.coalgebra
    if not isinstance(C, ThetaCoalgebra):
        return _gamma_congruence(spec, m, n, l)
    u = m * C.scale(m) + n * C.scale(n) - (m + n) * C.scale(m + n)
    gap = C.gap_valuation
    vals = [gap(u)] if u else []

    def verdict(holds, witness=None):
        return ConditionVerdict(spec.name, "congruence", holds, True, m, n, level=l,
                                witness=witness, min_valuation=min(vals, default=None))

    if vals and vals[0] < l:
        return verdict(False, m + n)
    slot = C.extending_slot
    gaps = (abs(slot(m + k) - slot(k)) for k in range(min(n, 2)))
    diffs = [gap(g) for g in gaps if g]
    if min(diffs, default=l) >= l:
        vals += diffs
        return verdict(True)
    coords = {t: _int_valuation(C.prime, c) for t, c in C.product_row(m, n).items()}
    vals += coords.values()
    bad = next((t for t, v in coords.items() if v < l), None)
    return verdict(bad is None, bad)


def _monomial_divisibility(spec: SpectrumSpec, index: int) -> tuple[int | None, int]:
    """(slot, bound), bound = max(20, index): the first slot resolvable by indices <= bound
    whose index-th coordinate A / D p does not divide, read as p not dividing A / gcd(A, D), or None."""
    coalg = spec.coalgebra
    p, bound = _require_prime(coalg), max(_TABLE_BOUND, index)
    for slot in coalg.monomial_slots(bound):
        d, nz = coalg._int_coords(slot)
        a = dict(nz).get(index, 0)
        if a and a // gcd(a, d) % p:
            return slot, bound
    return None, bound


def _gamma_congruence(spec: SpectrumSpec, m: int, n: int, l: int) -> ConditionVerdict:
    """nu(Gamma[m,n->t] - delta_{t,m+n}) >= l read off the coalgebra's
    coproduct_entry, the diagonal t = m + n first and then t = 0, 1, ...
    up to the bound max(20, m + n), which `checked` reports; a bounded
    verdict.

    On a BandedCoalgebra, k(2) and K(2) among them, coproduct_entry
    answers every target above m + n with the zero of the band, proven
    in the coalgebra's docstring, and builds no table for it, so only
    the tables max(m, n)..m + n are built; on any other coalgebra every
    table up to the bound is.  The records are the same either way.
    """
    p, bound = _require_prime(spec.coalgebra), max(_TABLE_BOUND, m + n)
    gamma = spec.coalgebra.coproduct_entry

    def verdict(ok, witness=None):
        return ConditionVerdict(spec.name, "congruence", ok, False, m, n, level=l,
                                witness=witness, min_valuation=min_val, checked=bound)

    min_val: int | None = None
    for t in [m + n] + [t for t in range(bound + 1) if t != m + n]:
        v = gamma(m, n, t)
        g = v - 1 if t == m + n else v
        if not g:
            continue
        val = nu(p, g)
        if min_val is None or val < min_val:
            min_val = val
        if val < l:
            return verdict(False, {"part": "product", "target": t, "value": str(v)})
    return verdict(True)


def check_coalgebra_conditions(spec: SpectrumSpec, m: int, n: int, l: int) -> ConditionVerdict:
    """Both conditions read off the coalgebra coefficient tables.

    For m < n, p must divide the (n-m)-th coordinate of every monomial,
    for slots resolvable up to index max(20, n - m).  For the product
    side, the congruence of check_congruence_condition: the structure
    constant sending (m, n) to m+n must be congruent to 1 and every
    other one with source (m, n) to 0, mod p**l, for targets up to
    max(20, m + n); that is the table verdict check_congruence_condition
    gives a spectrum without a product form.  `checked` is the bound of
    the part that decided.  Verdicts are bounded, not exact.
    """
    if l < 1:
        raise ValueError("the depth must be a positive integer")
    if m < 0 or n < 0:
        raise ValueError("shift and index must be non-negative")
    if m < n:
        slot, bound = _monomial_divisibility(spec, n - m)
        if slot is not None:
            return ConditionVerdict(spec.name, "coalgebra", False, False, m, n, level=l,
                                    witness={"part": "unit", "slot": slot}, checked=bound)
    return _gamma_congruence(spec, m, n, l)._replace(condition="coalgebra")


class SweepReport(NamedTuple):
    """Outcome of an exhaustive small sweep with a list of bad cells."""

    name: str
    holds: bool
    cells: int
    mismatches: tuple = ()

    def __bool__(self):
        return self.holds


def check_pow3_valuations(i_max: int) -> SweepReport:
    """The closed form for the 2-adic valuation of 3**i - 1.

    The valuation is 1 for odd i and 2 + nu_2(i) for even i.  The
    verdicts do not call this sweep: they take nu_2(9**k - 1) = 3 + nu_2(k),
    the even case, from ThetaCoalgebra.gap_valuation at the 2-local node
    base 9 = 3**2.  Here the closed form is checked against nu on the
    big integers.
    """
    if i_max < 1:
        raise ValueError("need at least one exponent to check")
    bad = []
    for i in range(1, i_max + 1):
        expected = 1 if i % 2 else 2 + nu(2, i)
        actual = nu(2, 3**i - 1)
        if actual != expected:
            bad.append({"i": i, "expected": expected, "actual": actual})
    return SweepReport("pow3-valuations", not bad, i_max, tuple(bad))


def check_gamma_transfer(k2: SpectrumSpec, ko2: SpectrumSpec, m_max: int) -> SweepReport:
    """Structure constants of the 2-local complex theory from the real one.

    The odd-target constants of the interleaved coalgebra are determined
    by the real ones:

        G[2i, 2j -> 2m+1]   = (1 - 3**(i+j-m)) / 2 * g[i, j -> m]
        G[2i, 2j+1 -> 2m+1] = 3**(i+j-m) * g[i, j -> m]

    Also sweeps the bridge identity w * c_{2m} = 3**m c_{2m} -
    2 * 3**m c_{2m+1} that the derivation rests on, times d_0 d_1 on the
    integer monomial forms (d_0, c0) of c_{2m} and (d_1, c1) of c_{2m+1},
    where multiplying by w moves every exponent rk up by 1.
    Exact equality on every cell with i, j, m <= m_max.
    """
    if k2.family != "k" or k2.prime != 2 or k2.periodic:
        raise ValueError("first argument must be the connective 2-local complex theory")
    if ko2.family != "ko" or ko2.periodic:
        raise ValueError("second argument must be the connective 2-local real theory")
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    bad = []
    cells = 0
    ck, co = k2.coalgebra, ko2.coalgebra
    r = ck.step
    for m in range(m_max + 1):
        (d0, c0), (d1, c1) = ck.monomial_form(2 * m), ck.monomial_form(2 * m + 1)
        lhs = {r * k + 1: d1 * v for k, v in c0.items()}
        rhs = {r * k: 3**m * (d1 * c0.get(k, 0) - 2 * d0 * c1.get(k, 0)) for k in c0.keys() | c1.keys()}
        cells += 1
        if lhs != {e: v for e, v in rhs.items() if v}:
            bad.append({"identity": "bridge", "m": m})
        for i in range(m_max + 1):
            for j in range(m_max + 1):
                real = co.coproduct_entry(i, j, m)
                scale = Fraction(3) ** (i + j - m)
                even = ck.coproduct_entry(2 * i, 2 * j, 2 * m + 1)
                odd = ck.coproduct_entry(2 * i, 2 * j + 1, 2 * m + 1)
                cells += 2
                if even != (1 - scale) / 2 * real:
                    bad.append(
                        {"identity": "even", "i": i, "j": j, "m": m,
                         "got": str(even), "want": str((1 - scale) / 2 * real)}
                    )
                if odd != scale * real:
                    bad.append(
                        {"identity": "odd", "i": i, "j": j, "m": m,
                         "got": str(odd), "want": str(scale * real)}
                    )
    return SweepReport("gamma-transfer", not bad, cells, tuple(bad))


class ConditionReport(NamedTuple):
    """Pass/fail matrix for sampled cells of both conditions."""

    spectrum: str
    l_max: int
    rows: tuple[ConditionVerdict, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.rows if not r.control)

    @property
    def failing(self) -> tuple[ConditionVerdict, ...]:
        return tuple(r for r in self.rows if not r.holds and not r.control)

    @property
    def failing_controls(self) -> tuple[ConditionVerdict, ...]:
        return tuple(r for r in self.rows if not r.holds and r.control)

    def min_valuations(self) -> dict[int, int | None]:
        out: dict[int, int | None] = {}
        for r in self.rows:
            if r.control or r.level is None or r.min_valuation is None:
                continue
            cur = out.get(r.level)
            if cur is None or r.min_valuation < cur:
                out[r.level] = r.min_valuation
        return out

    def as_dict(self) -> dict:
        return {
            "spectrum": self.spectrum,
            "l_max": self.l_max,
            "all_hold": self.all_hold,
            "min_valuations": {str(k): v for k, v in sorted(self.min_valuations().items())},
            "rows": [r.as_dict() for r in self.rows],
        }

    def summary(self) -> str:
        lines = [
            f"{self.spectrum}: {len(self.rows)} cells to depth {self.l_max}; "
            f"{'all hold' if self.all_hold else f'{len(self.failing)} FAIL'}"
        ]
        for r in self.failing:
            lines.append("  " + r.describe())
        for r in self.failing_controls:
            lines.append("  " + r.describe())
        return "\n".join(lines)


def condition_report(
    spec: SpectrumSpec,
    l_max: int,
    sample_size: int = 5,
    include_controls: bool = True,
) -> ConditionReport:
    """Sample both conditions over admissible shifts up to depth l_max.

    For each depth l the first sample_size admissible shifts feed the
    congruence condition against every n below 6, and ordered
    pairs of them feed the unit condition.  Shift 1, when it is outside
    the admissible set, is appended as labeled control rows; they are
    reported but never counted against the verdict.
    """
    if l_max < 1:
        raise ValueError("the depth must be a positive integer")
    if sample_size < 1:
        raise ValueError("the sample size must be a positive integer")
    rows: list[ConditionVerdict] = []
    for l in range(1, l_max + 1):
        shifts = list(islice(admissible_shifts(spec, l), sample_size))
        for a, b in combinations(shifts, 2):
            v = check_unit_condition(spec, a, b)
            rows.append(v._replace(level=l))
        for m in shifts:
            for n in range(_REPORT_N_RANGE):
                rows.append(check_congruence_condition(spec, m, n, l))
        if include_controls and shifts[0] > 1:
            for n in (1, 2):
                v = check_congruence_condition(spec, 1, n, l)
                rows.append(v._replace(control=True))
    return ConditionReport(spec.name, l_max, tuple(rows))
