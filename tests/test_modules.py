from fractions import Fraction
from itertools import product

import pytest

from ktops import modules
from ktops.coalgebra import CoalgebraSpec, ThetaCoalgebra, binomial_coalgebra, monomial_coalgebra
from ktops.modules import (
    FGModule,
    ModuleVerdict,
    character_module,
    comodule_on_basis,
    module_from_json,
    module_to_json,
    to_comodule,
    torsion_annihilator,
    trivial_module,
    validate_module,
)
from ktops.rationals import nu
from ktops.spectra import make_spectrum
from oracles import validate_module_by_fractions

K3 = make_spectrum("k(3)")
KO = make_spectrum("ko(2)")
C3 = K3.coalgebra
CO = KO.coalgebra


def test_trivial_module_valid():
    for spec, p in ((C3, 3), (CO, 2)):
        m = trivial_module(p, free_rank=2, torsion_orders=(p, p * p), level=3)
        assert validate_module(m, spec)


def test_integer_table_scales_each_entry_by_the_lcm():
    # mixed and repeated denominators, integers, zeros, negatives, and a
    # torsion row: D is the lcm of them all and A_n = D M_n entry by entry
    F = Fraction
    mats = (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((F(1, 2), F(-3, 4), 0), (F(5, 2), 7, F(1, 8)), (0, 0, 3)),
            ((F(-1, 4), F(1, 2), F(9, 8)), (0, F(1, 4), -2), (0, 0, F(6, 5))))
    t = FGModule(3, 2, (9,), mats)
    den, a = modules._integer_table(t)
    assert den == 40
    assert a == [[[int(v * den) for v in row] for row in m] for m in t.matrices]
    assert all(Fraction(x, den) == v for m, am in zip(t.matrices, a)
               for row, arow in zip(m, am) for v, x in zip(row, arow))


def test_character_modules_valid():
    for slot in range(5):
        m = character_module(C3, slot)
        assert validate_module(m, C3), slot
        assert m.level == C3.resolving_index(slot) + 1


def test_character_module_scalars_are_monomial_coords():
    m = character_module(C3, 3)
    coords = C3.basis_coords(3)
    assert tuple(mat[0][0] for mat in m.matrices) == coords


def test_comodule_on_basis_valid():
    for spec in (C3, CO):
        m = comodule_on_basis(spec, 4)
        assert validate_module(m, spec)


def test_validate_rejects_wrong_shape():
    m = FGModule(3, 1, (), (((Fraction(1),),), ((Fraction(0), Fraction(0)),)))
    assert not validate_module(m, C3)


def test_validate_rejects_non_identity_start():
    m = FGModule(3, 1, (), (((Fraction(2),),),))
    v = validate_module(m, C3)
    assert not v and "identity" in v.reason


def test_validate_rejects_non_integral():
    m = FGModule(3, 1, (), (((Fraction(1),),), ((Fraction(1, 3),),)))
    assert not validate_module(m, C3)


def test_validate_rejects_torsion_into_free():
    m = FGModule(3, 1, (3,), (
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
    ))
    v = validate_module(m, C3)
    assert not v and "free part" in v.reason


def test_validate_rejects_failed_relation():
    # scalar 2 on Z/3 violates the (1,1) relation: 4 != Gamma111 * 2 mod 3
    m = FGModule(3, 0, (3,), (((Fraction(1),),), ((Fraction(2),),)))
    v = validate_module(m, C3)
    assert not v
    assert v.cell["i"] == 1 and v.cell["j"] == 1


def test_relation_congruence_read_mod_torsion():
    # scalar 3 on Z/9 squares to 9 = 0, and Gamma111 * 3 = 3 != 0 mod 9:
    # rejected; over Z/3 the same table is fine
    over9 = FGModule(3, 0, (9,), (((Fraction(1),),), ((Fraction(3),),)))
    over3 = FGModule(3, 0, (3,), (((Fraction(1),),), ((Fraction(3),),)))
    assert not validate_module(over9, C3)
    assert validate_module(over3, C3)


def test_to_comodule_roundtrip_exact():
    m = comodule_on_basis(C3, 3)
    table = to_comodule(m, C3)
    for i in range(m.level):
        assert table.action_matrix(i) == m.matrices[i]
    assert table.action_matrix(m.level + 2) == tuple(
        tuple(Fraction(0) for _ in range(m.dimension)) for _ in range(m.dimension)
    )


def test_to_comodule_refuses_invalid():
    bad = FGModule(3, 0, (3,), (((Fraction(1),),), ((Fraction(2),),)))
    with pytest.raises(ValueError):
        to_comodule(bad, C3)


def test_torsion_annihilator_finds_witness():
    m = trivial_module(3, free_rank=1, torsion_orders=(3,), level=2)
    res = torsion_annihilator(m, K3, 1)
    assert res.witness == 2  # first admissible shift; the table is zero there


def test_torsion_annihilator_depth_two():
    m = trivial_module(3, free_rank=0, torsion_orders=(9,), level=2)
    res = torsion_annihilator(m, K3, 2)
    assert res.witness == 6


def test_torsion_annihilator_counts_mod_orders():
    # scalar 3 on Z/3 is already zero mod 3 at shift 2 if the table
    # puts a_2 = 3: the reduction happens before comparison
    mats = (((Fraction(1),),), ((Fraction(0),),), ((Fraction(3),),))
    m = FGModule(3, 0, (3,), mats)
    assert validate_module(m, C3)
    res = torsion_annihilator(m, K3, 1)
    assert res.witness == 2


def test_torsion_annihilator_no_witness_control():
    # unit scalars on every index below the level 40: no shift below it
    # kills the torsion, and the walk ends at the first shift past it,
    # where the table is zero; a finite table is discrete by construction
    mats = tuple(((Fraction(1),),) for _ in range(40))
    fake = FGModule(3, 0, (3,), mats)
    res = torsion_annihilator(fake, K3, 1)
    assert res.witness == 40
    assert torsion_annihilator(FGModule(3, 0, (3,), mats[:39]), K3, 1).witness == 40


@pytest.mark.parametrize("slot, e, want", [(60, 20, 26), (80, 40, 54)])
def test_torsion_annihilator_walks_to_the_level(slot, e, want):
    # the Z/3**e quotient of a character module is a valid table of level
    # slot + 1 whose torsion survives every shift below want, past the
    # tenth admissible shift 20 at depth 1
    char = character_module(C3, slot)
    quotient = FGModule(3, 0, (3**e,), char.matrices)
    assert quotient.level == slot + 1 and validate_module(quotient, C3)
    coords = C3.basis_coords(slot)
    shifts = range(2, quotient.level + 2, 2)
    assert want == next(m for m in shifts 
                       if m >= quotient.level or not coords[m] or nu(3, coords[m]) >= e)
    assert torsion_annihilator(quotient, K3, 1).witness == want


def test_torsion_annihilator_refuses_other_prime():
    # a 5-local module has no 3-adic shift; both primes are named
    m = trivial_module(5, 1, (25,), 3)
    with pytest.raises(ValueError, match=r"prime mismatch.*\(5\).*k\(3\) \(3\)"):
        torsion_annihilator(m, K3, 2)
    assert torsion_annihilator(m, make_spectrum("k(5)"), 2).witness == 4 * 5


def test_json_roundtrip():
    for m in (
        trivial_module(3, 1, (3, 9), 3),
        character_module(C3, 2),
        comodule_on_basis(CO, 3),
    ):
        assert module_from_json(module_to_json(m)) == m


def test_json_exact_strings():
    m = comodule_on_basis(CO, 2)
    text = module_to_json(m)
    assert "." not in text  # no decimals anywhere
    assert module_from_json(text).matrices == m.matrices


@pytest.mark.parametrize("text, key", [
    ('{"prime": 3}', "free_rank"),
    ('{"free_rank": 1, "torsion_orders": [], "matrices": [[["1"]]]}', "prime"),
    ('{"prime": "three", "free_rank": 1, "torsion_orders": [], "matrices": [[["1"]]]}', "prime"),
    ('{"prime": 3, "free_rank": 1.5, "torsion_orders": [], "matrices": [[["1"]]]}', "free_rank"),
    ('{"prime": 3, "free_rank": 0, "torsion_orders": 3, "matrices": [[["1"]]]}', "torsion_orders"),
    ('{"prime": 3, "free_rank": 1, "torsion_orders": [], "matrices": "11"}', "matrices"),
    ('{"prime": 3, "free_rank": 1, "torsion_orders": [], "matrices": [[["1/0"]]]}', "matrices"),
    ('{"prime": 3, "free_rank": 1, "torsion_orders": [], "matrices": [[[0.5]]]}', "matrices"),
])
def test_module_from_json_names_bad_key(text, key):
    with pytest.raises(ValueError, match=repr(key)):
        module_from_json(text)


def test_module_from_json_refuses_non_object():
    with pytest.raises(ValueError):
        module_from_json("[3, 1]")


def test_torsion_annihilator_rejects_non_p_local_table():
    # matrix 1 is never read by the search (shift 2 is past the level),
    # yet the table holds 1/3 on a 3-torsion generator
    mats = (((Fraction(1),),), ((Fraction(1, 3),),))
    bad = FGModule(3, 0, (3,), mats)
    with pytest.raises(ValueError, match=r"matrix 1 entry \(0,0\) is 1/3"):
        torsion_annihilator(bad, K3, 1)
    # a denominator divisible by p where the search does read
    mats = (((Fraction(1),),), ((Fraction(0),),), ((Fraction(2, 9),),))
    with pytest.raises(ValueError, match=r"matrix 2 entry \(0,0\)"):
        torsion_annihilator(FGModule(3, 0, (3,), mats), K3, 1)


# Coalgebras whose counit is not a_0: eps = a_0 + a_1 on the binomial
# basis and eps = sum_n a_n on the monomial ones, so the unit axiom is the
# counit law sum_n eps(c_n) M_n = 1, not M_0 = 1.
@pytest.mark.parametrize("spec", [
    binomial_coalgebra(3),
    monomial_coalgebra(1, 3),
    monomial_coalgebra(1, 3, periodic=True),
], ids=["binomial", "monomial", "monomial-periodic"])
def test_stock_modules_valid_where_counit_is_not_a0(spec):
    mods = [character_module(spec, s) for s in spec.monomial_slots(5)]
    mods.append(comodule_on_basis(spec, 4))
    for m in mods:
        v = validate_module(m, spec)
        assert v, v.reason
        table = to_comodule(m, spec)
        assert all(table.action_matrix(i) == m.matrices[i] for i in range(m.level))


def test_identity_read_mod_torsion_order():
    # 4 = 1 on Z/3, so [[4]] is the identity map there
    m = FGModule(3, 0, (3,), (((Fraction(4),),),))
    assert validate_module(m, C3)
    assert to_comodule(m, C3).action_matrix(0) == ((Fraction(4),),)


def test_validate_rejects_counit_failure():
    # on the monomial coalgebra eps(c_0) = eps(c_1) = 1, so the unit acts as 2
    spec = monomial_coalgebra(1, 3)
    m = FGModule(3, 1, (), (((Fraction(1),),), ((Fraction(1),),)))
    v = validate_module(m, spec)
    assert not v and "identity" in v.reason and "(0,0)" in v.reason
    assert v.cell == {"row": 0, "col": 0}


def test_non_integral_reason_matches_annihilator():
    m = FGModule(3, 0, (3,), (((Fraction(1),),), ((Fraction(1, 3),),)))
    v = validate_module(m, C3)
    assert not v and v.cell == {"i": 1, "row": 0, "col": 0}
    with pytest.raises(ValueError) as err:
        torsion_annihilator(m, K3, 1)
    assert v.reason == str(err.value) == "matrix 1 entry (0,0) is 1/3, not 3-locally integral"


# ----------------------------------------------------------------------
# the integer route against the Fraction oracle
# ----------------------------------------------------------------------

def _corruptions(mod: FGModule, deltas):
    """mod with one entry moved by one delta, for every entry and delta."""
    for i, m in enumerate(mod.matrices):
        for r, row in enumerate(m):
            for c in range(len(row)):
                for delta in deltas:
                    mats = [list(map(list, mat)) for mat in mod.matrices]
                    mats[i][r][c] += delta
                    yield FGModule(mod.prime, mod.free_rank, mod.torsion_orders, tuple(mats))


def _assert_agrees(mod: FGModule, spec) -> ModuleVerdict:
    # ModuleVerdict equality covers ok, reason and the cell with its lhs/rhs
    fast, slow = validate_module(mod, spec), validate_module_by_fractions(mod, spec)
    assert fast == slow, (module_to_json(mod), fast, slow)
    return fast


_SWEEP = {
    "k(3)": make_spectrum("k(3)").coalgebra,
    "K(3)": make_spectrum("K(3)").coalgebra,
    "g(5)": make_spectrum("g(5)").coalgebra,
    "KO(2)": make_spectrum("KO(2)").coalgebra,
    "k(2)": make_spectrum("k(2)").coalgebra,
    "K(2)": make_spectrum("K(2)").coalgebra,
    "G(5)": make_spectrum("G(5)").coalgebra,
    "theta(3,1,p=3)": ThetaCoalgebra(3, 1, prime=3),
    "binomial(3)": binomial_coalgebra(3),
    "monomial(1,3)": monomial_coalgebra(1, 3),
    "monomial(1,3)-periodic": monomial_coalgebra(1, 3, periodic=True),
}


def _stock(spec) -> list[FGModule]:
    """A comodule, the character modules and two torsion trivial modules."""
    p = spec.prime
    stock = [comodule_on_basis(spec, 3)]
    stock += [character_module(spec, s) for s in spec.monomial_slots(3)]
    return stock + [trivial_module(p, 1, (p, p * p), 3), trivial_module(p, 0, (p * p, p), 2)]


@pytest.mark.parametrize("name", list(_SWEEP))
def test_validate_agrees_with_fraction_oracle_on_corruptions(name):
    spec = _SWEEP[name]
    p = spec.prime
    stock = _stock(spec)
    assert all([_assert_agrees(m, spec) for m in stock])
    for m in stock:
        for bad in _corruptions(m, (1, p, Fraction(1, p), -2)):
            _assert_agrees(bad, spec)


@pytest.mark.parametrize("name", ["k(3)", "KO(2)", "k(2)", "K(2)", "G(5)"])
def test_validate_agrees_with_fraction_oracle_at_size_six(name):
    spec = _SWEEP[name]
    assert _assert_agrees(comodule_on_basis(spec, 6), spec)


def test_validate_shifts_torsion_moduli_by_the_law_denominator():
    # Without a prime, Gamma[i,i -> i] = 3**-i: the relation's scale L holds
    # powers of 3, and a torsion row's modulus must grow by nu_3(L)
    spec = CoalgebraSpec(step=1, basis=lambda n: (1, {n: 3**n}))
    stock = (trivial_module(3, 1, (3, 9), 3), trivial_module(3, 0, (27, 3), 3))
    tables = [*stock, *(bad for m in stock for bad in _corruptions(m, (1, 3, 9, 27, -2, 81)))]
    verdicts = [_assert_agrees(t, spec) for t in tables]
    assert len(verdicts) == 236
    assert sum(v.ok for v in verdicts) == 71


def test_negative_basis_index_refused():
    m = character_module(C3, 3)
    with pytest.raises(ValueError, match="start at 0"):
        m.matrix(-1)
    with pytest.raises(ValueError, match="start at 0"):
        to_comodule(m, C3).action_matrix(-2)


@pytest.mark.parametrize("level", [0, -5])
def test_trivial_module_refuses_level_below_one(level):
    with pytest.raises(ValueError, match="level"):
        trivial_module(3, level=level)


# ----------------------------------------------------------------------
# the Newton steps against the relation scan
# ----------------------------------------------------------------------

THETA_SWEEP = ("k(3)", "K(3)", "g(5)", "G(5)", "KO(2)")


def _spy_scan(monkeypatch) -> list:
    """Record the pairs of every _relation_scan call, then run it."""
    calls = []
    scan = modules._relation_scan

    def spy(*args):
        calls.append(list(args[4]))
        return scan(*args[:4], calls[-1])

    monkeypatch.setattr(modules, "_relation_scan", spy)
    return calls


def _refuse_scan(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("the relation scan ran on a valid table")

    monkeypatch.setattr(modules, "_relation_scan", refuse)


@pytest.mark.parametrize("name", THETA_SWEEP)
def test_newton_steps_agree_with_relation_scan_on_corruptions(name):
    # on every table that passes the scans before the relations, the steps
    # hold exactly when every relation does, and when step n is the first
    # to fail, relation (1, n) alone gives the full scan's verdict and cell;
    # the oracle sweep above pins the verdicts of these same tables
    C = make_spectrum(name).coalgebra
    p = C.prime
    held = failed = 0
    for m in _stock(C):
        for t in [m, *_corruptions(m, (1, p, Fraction(1, p), -2))]:
            v = validate_module(t, C)
            if not (v.ok or v.reason.startswith("relation")):
                continue
            den, a = modules._integer_table(t)
            n = modules._newton_steps(C, t, den, a)
            full = modules._relation_scan(C, t, den, a, product(range(t.level), repeat=2))
            assert (n is None) == full.ok == v.ok, module_to_json(t)
            if n is not None:
                assert modules._relation_scan(C, t, den, a, [(1, n)]) == full == v, module_to_json(t)
            held += n is None
            failed += n is not None
    assert held > 20 and failed > 150, (held, failed)


@pytest.mark.parametrize("name", THETA_SWEEP + ("ko(2)",))
def test_theta_tables_validate_without_the_relation_scan(name, monkeypatch):
    _refuse_scan(monkeypatch)
    C = make_spectrum(name).coalgebra
    p = C.prime
    tables = [comodule_on_basis(C, 12), trivial_module(p, 1, (p, p**3), 5),
              trivial_module(p, 0, (p**2, p), 2)]
    tables += [character_module(C, s) for s in C.monomial_slots(12)[::3]]
    for t in tables:
        assert validate_module(t, C), (name, t.level)


@pytest.mark.parametrize("name", THETA_SWEEP + ("ko(2)",))
def test_failed_theta_tables_read_one_relation(name, monkeypatch):
    # on a unit node base a failed Newton step n sends only the pair (1, n)
    # to the relation scan, never the full scan
    calls = _spy_scan(monkeypatch)
    C = make_spectrum(name).coalgebra
    p = C.prime
    failed = 0
    for t in _corruptions(comodule_on_basis(C, 3), (1, p, -2)):
        calls.clear()
        v = validate_module(t, C)
        if v.reason.startswith("relation"):
            assert calls == [[(v.cell["i"], v.cell["j"])]] and v.cell["i"] == 1, (v, calls)
            failed += 1
        else:
            assert calls == [], (v, calls)
    assert failed > 20, failed


# ----------------------------------------------------------------------
# the idempotents of the coaction against the relation scan
# ----------------------------------------------------------------------

def _shifted(n: int) -> tuple[int, dict[int, int]]:
    """c_0 = 1 and c_n = w**n - 1: a user basis that is no Newton basis."""
    return (1, {0: 1}) if n == 0 else (1, {n: 1, 0: -1})


# coalgebras without the Newton route, each with a p-local coalgebra whose
# tables are its own (None: the coalgebra itself) to build stock tables on
OTHERS = {
    "base-divisible-by-p": (ThetaCoalgebra(3, 1, prime=3), None),
    "no-prime": (ThetaCoalgebra(2, 1), ThetaCoalgebra(2, 1, prime=3)),
    "k(2)": (make_spectrum("k(2)").coalgebra, None),
    "K(2)": (make_spectrum("K(2)").coalgebra, None),
    "binomial": (binomial_coalgebra(3), None),
    "monomial-periodic": (monomial_coalgebra(1, 3, periodic=True), None),
    "user": (CoalgebraSpec(step=1, basis=_shifted, prime=3), None),
    "user-no-prime": (CoalgebraSpec(step=1, basis=_shifted), CoalgebraSpec(step=1, basis=_shifted, prime=3)),
}


def _conjugated_sum(spec, slots) -> FGModule:
    """The character modules of two slots, summed and conjugated by the
    unimodular [[1, 1], [0, 1]]: a free table that is no comodule or
    character, valid when both characters are."""
    x, y = (spec.basis_coords(s) for s in slots)
    k = max(len(x), len(y))
    x, y = x + (0,) * (k - len(x)), y + (0,) * (k - len(y))
    return FGModule(spec.prime, 2, (), tuple(((u, v - u), (0, v)) for u, v in zip(x, y)))


def _counit_kept(mod: FGModule, spec, deltas):
    """mod with entry (r, c) of one M_i, i >= 1, moved by one delta and that
    of M_0 by -eps(c_i) delta, so the counit law holds as it did."""
    for i in range(1, mod.level):
        for r, c, delta in product(range(mod.dimension), range(mod.dimension), deltas):
            mats = [list(map(list, mat)) for mat in mod.matrices]
            mats[i][r][c] += delta
            mats[0][r][c] -= spec.counit_value(i) * delta
            yield FGModule(mod.prime, mod.free_rank, mod.torsion_orders, tuple(mats))


@pytest.mark.parametrize("name", list(OTHERS))
def test_torsion_tables_take_the_relation_scan(name, monkeypatch):
    # every torsion table that reaches the relations gets the full scan
    spec, stock = OTHERS[name]
    stock = stock or spec
    calls = _spy_scan(monkeypatch)
    p = stock.prime
    char = character_module(stock, stock.monomial_slots(3)[2])
    tables = [trivial_module(p, 1, (p,), 2), trivial_module(p, 2, (p * p,), 3),
              FGModule(p, 0, (p,), (((1,),), ((2,),))), FGModule(p, 0, (p**2,), char.matrices)]
    tables += _counit_kept(FGModule(p, 1, (p,), trivial_module(p, 2, (), 3).matrices), spec, (1, p))
    verdicts = [_assert_agrees(t, spec) for t in tables]
    scanned = [t for t, v in zip(tables, verdicts) if v.ok or v.reason.startswith("relation")]
    assert calls == [list(product(range(t.level), repeat=2)) for t in scanned]
    assert len(scanned) > 10 and any(v.ok for v in verdicts), len(scanned)


@pytest.mark.parametrize("name", list(OTHERS))
def test_free_tables_validate_without_the_relation_scan(name, monkeypatch):
    spec, stock = OTHERS[name]
    stock = stock or spec
    p = stock.prime
    slots = stock.monomial_slots(8)
    tables = [comodule_on_basis(stock, 8), trivial_module(p, 3, (), 4), _conjugated_sum(stock, slots[3:5])]
    tables += [character_module(stock, s) for s in slots]
    _refuse_scan(monkeypatch)
    for t in tables:
        assert validate_module(t, spec), (name, module_to_json(t))


@pytest.mark.parametrize("name", ["k(2)", "K(2)"])
def test_free_tables_of_size_24_validate_without_the_relation_scan(name, monkeypatch):
    _refuse_scan(monkeypatch)
    spec = OTHERS[name][0]
    assert validate_module(comodule_on_basis(spec, 24), spec)
    for s in spec.monomial_slots(24)[::4]:
        assert validate_module(character_module(spec, s), spec), s


@pytest.mark.parametrize("name", list(OTHERS))
def test_failed_free_tables_take_one_full_scan(name, monkeypatch):
    # a failed idempotent sends the whole product to the relation scan once,
    # so the reason and the cell are the scan's and the oracle's
    spec, stock = OTHERS[name]
    stock = stock or spec
    calls = _spy_scan(monkeypatch)
    failed = 0
    for m in (comodule_on_basis(stock, 3), _conjugated_sum(stock, stock.monomial_slots(3)[1:3])):
        for t in [*_corruptions(m, (1, 3, -2)), *_counit_kept(m, spec, (1, Fraction(1, 2)))]:
            calls.clear()
            v = _assert_agrees(t, spec)
            if v.reason.startswith("relation"):
                assert calls == [list(product(range(t.level), repeat=2))], (v, calls)
                failed += 1
            else:
                assert calls == [], (v, calls)
    assert failed > 20, failed
