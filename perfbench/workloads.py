"""The three benchmark workloads: seeded inputs, the timed call, output checks.

Each workload is built from its seed inside the round process, after
ktops is imported, so input generation counts as set-up.  An op is one
timed call into the library; `run` returns whatever the call returned
or raised, `outcome` classifies it cheaply in every round, and `check`
verifies the output in full in the checking round.  Both return None
for a success or a one-line reason for a failure.

cold-tables   in-process `ktops basis|gamma ... --format json` requests,
              each on a (spectrum, q) pair no other op of the round uses,
              so every table is built from empty as for a CLI user.
warm-algebra  dual-algebra and module-table calls on tables warmed in
              set-up for k(3), KO(2), k(2) and G(5).
verdicts      discreteness-condition cells, coalgebra-table conditions,
              condition reports with controls and regularity sweeps.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

from ktops import checks, cli, coalgebra, dual, laurent, modules, rationals, spectra

GOLDEN = Path(__file__).resolve().parent / "golden" / "cold-tables.json"

# the known refusal of Python's int-to-str limit on large table entries
DIGIT_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"


def _p_local(p: int, text: str) -> bool:
    return Fraction(text).denominator % p != 0


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tiny = scale == "tiny"
        self.tracer = None

    def describe(self, op) -> str:
        return " ".join(str(x) for x in op)

    def run(self, op):
        """The timed call; an exception it raises is the op's result."""
        raise NotImplementedError

    def outcome(self, op, result) -> str | None:
        if isinstance(result, BaseException):
            return f"raised {type(result).__name__}: {result}"
        return None

    def check(self, op, result) -> str | None:
        return None

    def digest(self, op, result) -> str | None:
        return None

    def known_defect(self, op, reason: str) -> bool:
        return False


# ----------------------------------------------------------------------
# cold-tables
# ----------------------------------------------------------------------


def _odd_groups() -> list[list[tuple[str, int]]]:
    """The odd-prime (spectrum, q) pairs, one group per spectrum, by q.

    q runs over the generators of the units mod p**2 below 40; the pair
    of the fixed known refusal is left out.
    """
    groups = []
    for fam in "kKgG":
        for p in (3, 5, 7):
            qs = [q for q in range(2, 40) if q % p and rationals.check_primitive_root(p, q)]
            groups.append([(f"{fam}({p})", q) for q in qs if (f"{fam}({p})", q) != KNOWN_REFUSAL[1:3]])
    return groups


# Table indices.  The larger tables are a fixed tier, the same for every
# seed: structure constants at index 12 on the two largest q of each
# odd-prime spectrum, the 2-local algebras at 16, and the cheapest request
# found that the int-to-str limit refuses (a known defect, kept in so it
# stays counted).  The tier holds the costliest ops, so op_p90_ms falls
# inside it and does not move with the seed.  Every other odd-prime
# (spectrum, q) pair draws its request and index: three structure-constant
# requests (index 8..10) to each basis request (index 8..9), so table
# builds dominate and the theta/coordinate route, where laurent does most
# of the work, stays in the mix.  Indices are spread evenly within each
# group so every seed costs about the same, and a round stays short enough
# for a run to time each op a dozen times or more.
COLD_MIX = ("gamma", "gamma", "gamma", "basis")
COLD_N = {"gamma": (8, 9, 10), "basis": (8, 9)}
TOP_N, TOP_PAIRS = 12, 2
TWO_LOCAL_N = 16
TWO_LOCAL = (("basis", "k(2)"), ("gamma", "K(2)"), ("basis", "ko(2)"), ("gamma", "KO(2)"))
KNOWN_REFUSAL = ("basis", "G(7)", 38, 12)


def _fixed_tier() -> list[tuple]:
    ops = [KNOWN_REFUSAL]
    ops += [(cmd, name, 3, TWO_LOCAL_N) for cmd, name in TWO_LOCAL]
    for pairs in _odd_groups():
        ops += [("gamma", name, q, TOP_N) for name, q in pairs[-TOP_PAIRS:]]
    return ops


def _drawn_groups() -> list[list[tuple[str, int]]]:
    return [pairs[:-TOP_PAIRS] for pairs in _odd_groups()]


class ColdTables(Workload):
    name = "cold-tables"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        rng = self.rng
        ops = _fixed_tier()
        for pairs in _drawn_groups():
            cmds = [COLD_MIX[i % len(COLD_MIX)] for i in range(len(pairs))]
            rng.shuffle(cmds)
            for cmd in ("gamma", "basis"):
                mine = [pq for pq, c in zip(pairs, cmds) if c == cmd]
                ns = COLD_N[cmd]
                spread = [ns[(2 * i + 1) * len(ns) // (2 * len(mine))] for i in range(len(mine))]
                for (name, q), n in zip(mine, rng.sample(spread, len(mine))):
                    ops.append((cmd, name, q, n))
        rng.shuffle(ops)
        if self.tiny:
            ops = sorted(ops, key=lambda op: op[3])[:6]
        self.ops = ops
        self._golden = None

    @staticmethod
    def universe() -> list[tuple]:
        """Every op any seed can draw, for capturing golden digests."""
        ops = _fixed_tier()
        for pairs in _drawn_groups():
            ops += [(cmd, name, q, n) for name, q in pairs for cmd, ns in COLD_N.items() for n in ns]
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        cmd, name, q, n = op
        return [cmd, name, "--q", str(q), "--n", str(n), "--format", "json"]

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(self.argv(op), out=out)
        return code, out.getvalue(), err.getvalue()

    def outcome(self, op, result):
        if isinstance(result, BaseException):
            return super().outcome(op, result)
        code, out, err = result
        if self.tracer is not None:
            self.tracer.count("cli.bytes_out", len(out.encode()))
        if code != 0:
            return f"exit {code}: {err.strip()[:160]}"
        return None

    def known_defect(self, op, reason: str) -> bool:
        return op == KNOWN_REFUSAL and reason.startswith("exit 2:") and DIGIT_LIMIT in reason

    def digest(self, op, result):
        if isinstance(result, BaseException):
            return None
        return hashlib.sha256(result[1].encode()).hexdigest()

    def check(self, op, result):
        cmd, name, q, n = op
        code, out, _ = result
        try:
            doc = json.loads(out)
        except ValueError as e:
            return f"stdout is not JSON: {e}"
        p = spectra.parse_name(name)[1]
        if doc.get("n") != n or doc.get("q") != q:
            return "wrong n or q echoed"
        if cmd == "gamma":
            mats = doc["gamma"]
            if [m["n"] for m in mats] != list(range(n + 1)):
                return "gamma targets are not 0..n"
            for m in mats:
                for row in m["matrix"]:
                    for v in row:
                        if not _p_local(p, v):
                            return f"gamma entry {v[:40]} of target {m['n']} is not {p}-local"
        else:
            elems = doc["basis"]
            if [e["n"] for e in elems] != list(range(n + 1)):
                return "basis indices are not 0..n"
            for e in elems:
                for v in e["coords_of_monomial"]:
                    if not _p_local(p, v):
                        return f"monomial coordinate {v[:40]} of c_{e['n']} is not {p}-local"
        if self._golden is None:  # only the checking round reads the digests
            self._golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        want = self._golden.get(self.describe(op))
        if want is None:
            return "no golden digest for this request"
        if want["code"] == 0 and hashlib.sha256(out.encode()).hexdigest() != want["sha256"]:
            return "stdout differs from the golden digest"
        return None


# ----------------------------------------------------------------------
# warm-algebra
# ----------------------------------------------------------------------

WARM_SPECTRA = ("k(3)", "KO(2)", "k(2)", "G(5)")
WARM_PRECISION = 24
# ops per spectrum, by kind
WARM_MIX = (
    ("invert", 10), ("non-unit", 3), ("multiply", 10), ("expand", 6),
    ("unit-exact", 4), ("unit-truncated", 4), ("module", 6), ("corrupt", 4),
    ("annihilator", 2),
)


class WarmAlgebra(Workload):
    name = "warm-algebra"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        top = 10 if self.tiny else WARM_PRECISION
        self.top = top
        self.spectra = {}
        for name in WARM_SPECTRA:
            sp = spectra.make_spectrum(name)
            C = sp.coalgebra
            for n in range(top):
                C.coproduct_matrix(n)
                C.counit_value(n)
            for k in C.monomial_slots(top - 1):
                C.basis_coords(k)
            self.spectra[name] = sp
        ops = []
        for name, sp in self.spectra.items():
            for kind, count in WARM_MIX:
                if kind == "expand" and not sp.has_theta_form:
                    kind = "multiply"
                for j in range(count):
                    ops.append(self._make(kind, sp, j))
        self.rng.shuffle(ops)
        if self.tiny:
            ops = ops[::12]
        self.ops = ops

    def describe(self, op):
        return f"{op[0]} {op[1].name}"

    # inputs ----------------------------------------------------------

    def _precision(self, j: int) -> int:
        # the same spread of precisions for every seed keeps the cost steady
        return self.top - 4 * (j % 3)

    def _digits(self, count: int) -> list[int]:
        # seeded signs of 1: with digits of +-1 and +-2 the cost of one
        # inversion at fixed precision varied by 12% with the draw, with
        # +-1 by 2%, the noise of the measurement
        return [self.rng.choice((-1, 1)) for _ in range(count)]

    def _unit(self, sp, prec: int):
        """1 + p * (small integers): every monomial pairing is 1 mod p."""
        one = dual.algebra_one(sp.coalgebra, prec)
        return dual.DualElement(c + sp.prime * d for c, d in zip(one.coeffs, self._digits(prec)))

    def _non_unit(self, sp, prec: int):
        """A unit made to fail at one step: returns (element, step)."""
        C = sp.coalgebra
        p = sp.prime
        steps = [i for i in range(prec) if rationals.is_p_local_unit(p, C.coproduct_matrix(i)[i][i])]
        step = self.rng.choice(steps)
        a = list(self._unit(sp, prec).coeffs)
        g = C.coproduct_matrix(step)
        base = sum(a[k] * g[k][step] for k in range(step))
        a[step] = (p - base) / g[step][step]
        return dual.DualElement(a), step

    # Module tables.  Validation cost is set by a table's shape and, for a
    # corrupted one, by where the corruption sits, since validation stops
    # at the first broken relation.  Shapes and positions therefore follow
    # the op's index j, and the seed draws only values that leave the cost
    # alone: torsion exponents and the size of the corruption.

    def _module(self, sp, j: int):
        C = sp.coalgebra
        p = sp.prime
        kind = j % 3
        if kind == 0:
            # validation grows like the fifth power of the size: fixed sizes
            return modules.comodule_on_basis(C, 5 + j // 3 % 2)
        if kind == 1:
            slots = C.monomial_slots(min(8, self.top - 1))
            return modules.character_module(C, slots[(2 * (j // 3 % 2) + 1) * len(slots) // 4])
        orders = [p ** self.rng.randint(1, 3) for _ in range(2)]
        return modules.trivial_module(p, 1, orders, 3 + j // 3 % 2)

    def _corrupt(self, sp, j: int):
        p = sp.prime
        mod = self._module(sp, 0 if j % 2 == 0 else 2)  # comodule of size 5, or torsion
        mats = [[list(row) for row in m] for m in mod.matrices]
        d = mod.dimension
        i = 1 + j // 2 % (mod.level - 1)
        r, c = (j // 2) % d, d - 1
        if j % 2 == 0:
            # a structure-constant relation breaks: a wrong free entry
            mats[i][r][c] += self.rng.choice((-2, -1, 1, 2))
        else:
            mats[i][r][c] = Fraction(self.rng.choice((1, -1)), p)
        return modules.FGModule(p, mod.free_rank, mod.torsion_orders, tuple(mats))

    def _make(self, kind, sp, j):
        rng = self.rng
        prec = self._precision(j)
        if kind == "invert":
            return (kind, sp, self._unit(sp, prec))
        if kind == "non-unit":
            return (kind, sp, *self._non_unit(sp, prec))
        if kind == "multiply":
            a = dual.DualElement(self._digits(prec))
            b = dual.DualElement(self._digits(prec))
            return (kind, sp, a, b)
        if kind == "expand":
            count = dict(WARM_MIX)["expand"]
            return (kind, sp, (2 * j + 1) * prec // (2 * count), prec)
        if kind == "unit-exact":
            p = sp.prime
            X = laurent.LaurentPoly.variable()
            f = laurent.LaurentPoly({e: rng.randint(-4, 4) for e in range(4)})
            if j % 2 == 0:
                return (kind, sp, dual.AdamsPoly(sp.q, 1 + p * f), True)
            base = Fraction(sp.q) ** sp.step
            root = base ** rng.randrange(3)
            poly = (X - root) * (X + 1) + p * f
            return (kind, sp, dual.AdamsPoly(sp.q, poly), False)
        if kind == "unit-truncated":
            if j % 2 == 0:
                return (kind, sp, self._unit(sp, prec), None)
            a, step = self._non_unit(sp, prec)
            return (kind, sp, a, sp.coalgebra.extending_slot(step))
        if kind == "module":
            return (kind, sp, self._module(sp, j))
        if kind == "corrupt":
            return (kind, sp, self._corrupt(sp, j))
        if kind == "annihilator":
            orders = [sp.prime ** rng.randint(1, 3) for _ in range(2)]
            mod = modules.trivial_module(sp.prime, 1, orders, rng.randint(2, 5))
            s = rng.randint(1, 3)
            return (kind, sp, mod, s)
        raise ValueError(kind)

    # calls -----------------------------------------------------------

    def run(self, op):
        kind, sp, *args = op
        C = sp.coalgebra
        if kind in ("invert", "non-unit"):
            return dual.invert(C, args[0])
        if kind == "multiply":
            return dual.multiply(C, args[0], args[1])
        if kind == "expand":
            n, prec = args
            return dual.expand(C, spectra.dual_theta_basis(sp, n), prec)
        if kind == "unit-exact":
            return dual.is_unit(C, args[0], mode="exact")
        if kind == "unit-truncated":
            return dual.is_unit(C, args[0], mode="truncated")
        if kind in ("module", "corrupt"):
            # to_comodule validates the table first and refuses an invalid one
            return modules.to_comodule(args[0], C)
        if kind == "annihilator":
            return modules.torsion_annihilator(args[0], sp, args[1])
        raise ValueError(kind)

    def outcome(self, op, result):
        kind, sp, *args = op
        if kind == "non-unit":
            if not isinstance(result, dual.NotInvertibleError):
                return f"non-unit accepted: {type(result).__name__}"
            step = args[1]
            if (result.step, result.slot) != (step, sp.coalgebra.extending_slot(step)):
                return f"non-unit refused at step {result.step} slot {result.slot}, want step {step}"
            return None
        if kind == "corrupt":
            if not isinstance(result, ValueError) or "not a valid module table" not in str(result):
                return f"corrupted table accepted: {result!r:.120}"
            return None
        return super().outcome(op, result)

    def check(self, op, result):
        kind, sp, *args = op
        C = sp.coalgebra
        # Pairing with a grouplike monomial w**k is an algebra map, and at
        # precision P the pairings with the P resolvable monomials determine
        # an element, so they check a product or inverse without multiplying.
        if kind == "invert":
            a = args[0]
            for k in C.monomial_slots(a.precision - 1):
                if dual.monomial_pairing(C, a, k) * dual.monomial_pairing(C, result, k) != 1:
                    return f"a * a^-1 is not the identity: slot {k}"
        elif kind == "multiply":
            a, b = args
            for k in C.monomial_slots(a.precision - 1):
                ab = dual.monomial_pairing(C, result, k)
                if ab != dual.monomial_pairing(C, a, k) * dual.monomial_pairing(C, b, k):
                    return f"product disagrees with monomial pairing at slot {k}"
        elif kind == "expand":
            n, prec = args
            if result != dual.DualElement.unit_vector(n, prec):
                return f"dual theta basis element {n} is not biorthogonal"
        elif kind == "unit-exact":
            if result.unit != args[1] or not result.exact:
                return f"exact unit verdict {result.unit}, want {args[1]}"
        elif kind == "unit-truncated":
            want_unit = args[1] is None
            if result.unit != want_unit or result.exact:
                return f"truncated unit verdict {result.unit}, want {want_unit}"
            if not want_unit and result.witness != args[1]:
                return f"non-unit witness slot {result.witness}, want {args[1]}"
        elif kind == "module":
            mod = args[0]
            if any(result.action_matrix(i) != mod.matrices[i] for i in range(mod.level)):
                return "comodule table does not return the action matrices"
        elif kind == "annihilator":
            mod, s = args
            if result.witness != next(spectra.admissible_shifts(sp, s)):
                return f"annihilator {result.witness}, want the first depth-{s} shift"
        return None


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------

THETA_SPECTRA = ("k(3)", "K(3)", "g(3)", "G(3)", "k(5)", "K(5)", "g(5)", "G(5)", "KO(2)", "ko(2)")
TABLE_SPECTRA = ("k(2)", "K(2)")
# the sweeps are coalgebra work; to index 24 they took half of a round
REGULARITY_INDEX = 20
N_STEP = 4
N_OFFSETS = (0, 2, 4)


class Verdicts(Workload):
    name = "verdicts"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        rng = self.rng
        depths = (1,) if self.tiny else (1, 2, 3)
        self.theta = {name: spectra.make_spectrum(name) for name in THETA_SPECTRA}
        ops = []
        for sp in self.theta.values():
            for l in depths:
                shifts = list(islice(spectra.admissible_shifts(sp, l), 3))
                ops.append(("unit", sp, shifts[0], shifts[1], l))
                ops.append(("unit", sp, shifts[0], shifts[2], l))
                # each (spectrum, m, l) takes three n in steps of 4 from its
                # own offset, so n stays within 0..12; the grid is the same
                # for every seed, since a cell's cost follows m and n
                for m, start in zip(shifts, N_OFFSETS):
                    for n in range(start, start + 3 * N_STEP, N_STEP):
                        ops.append(("congruence", sp, m, n, l))
        # a spectrum of its own for each, so every one builds its tables
        # and none is charged for another's
        for name in TABLE_SPECTRA:
            for l in (1, 2):
                sp = spectra.make_spectrum(name)
                shifts = list(islice(spectra.admissible_shifts(sp, l), 3))
                m, n = sorted(rng.sample(shifts, 2))
                ops.append(("coalgebra", sp, m, n, l))
        # every theta-form spectrum at depth 1: depth-2 reports cost from
        # 28 to 424 ms by spectrum, too uneven to pick from by seed
        for sp in self.theta.values():
            ops.append(("report", sp, 1))
        index = 6 if self.tiny else REGULARITY_INDEX
        for name in spectra.spectrum_names(3):
            ops.append(("regularity", spectra.make_spectrum(name), index))
        rng.shuffle(ops)
        if self.tiny:
            ops = ops[::4] + [op for op in ops if op[0] in ("report", "coalgebra")]
        self.ops = ops

    def describe(self, op):
        return " ".join([op[0], op[1].name] + [str(x) for x in op[2:]])

    def run(self, op):
        kind, sp, *args = op
        if kind == "unit":
            m, n, l = args
            return checks.check_unit_condition(sp, m, n)
        if kind == "congruence":
            return checks.check_congruence_condition(sp, *args)
        if kind == "coalgebra":
            return checks.check_coalgebra_conditions(sp, *args)
        if kind == "report":
            return checks.condition_report(sp, args[0], sample_size=3, include_controls=True)
        if kind == "regularity":
            return coalgebra.verify_regularity(sp.coalgebra, args[0])
        raise ValueError(kind)

    def check(self, op, result):
        kind, sp, *args = op
        if kind == "regularity":
            return None if result.ok else f"not regular: {result.summary()}"
        if kind == "coalgebra":
            return None  # recorded only: these verdicts are not settled yet
        rows = result.rows if kind == "report" else (result,)
        for r in rows:
            if r.control:
                continue
            if not (r.holds and r.exact):
                return f"cell does not hold exactly: {r.describe()}"
        return None


WORKLOADS = {w.name: w for w in (ColdTables, WarmAlgebra, Verdicts)}
