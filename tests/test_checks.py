import functools
from fractions import Fraction
from itertools import takewhile

import pytest

from ktops.checks import (
    check_coalgebra_conditions,
    check_congruence_condition,
    check_gamma_transfer,
    check_pow3_valuations,
    check_unit_condition,
    condition_report,
)
from ktops.coalgebra import CoalgebraSpec, ThetaCoalgebra
from ktops.laurent import LaurentPoly
from ktops.rationals import nu
from ktops.spectra import SpectrumSpec, admissible_shifts, make_spectrum, support_step
import oracles
from oracles import (
    congruence_by_nodes,
    cross_check_coefficients,
    expansion_by_division,
    integer_nodes,
    product_identity_holds,
    shortcut_by_all_gaps,
    table_congruence,
    theta_table,
    unit_condition_by_nodes,
    unit_condition_by_slot_residues,
)

K3 = make_spectrum("k(3)")
BIG_K3 = make_spectrum("K(3)")
KO = make_spectrum("ko(2)")
K2 = make_spectrum("k(2)")
BIG_K2 = make_spectrum("K(2)")


def test_unit_condition_holds_inside_set():
    v = check_unit_condition(K3, 2, 4)
    assert v.holds and v.exact
    assert v.checked == 2  # ord_3(2) = 2, one period decides all exponents


def test_unit_condition_fails_off_set():
    v = check_unit_condition(K3, 0, 1)
    assert not v.holds
    assert v.witness == 1


def test_unit_condition_requires_order():
    with pytest.raises(ValueError):
        check_unit_condition(K3, 4, 2)


def test_unit_condition_rejects_negative_shift():
    for sp in (K3, K2):
        with pytest.raises(ValueError, match="non-negative"):
            check_unit_condition(sp, -1, 2)


def test_unit_condition_trivial_period_at_two():
    # 9 = 1 mod 2, so a single exponent decides
    v = check_unit_condition(KO, 1, 2)
    assert v.holds and v.exact and v.checked == 1


def test_congruence_condition_oracle():
    # valuation bottoms out exactly at the depth
    v = check_congruence_condition(BIG_K3, 12, 1, 2)
    assert v.holds and v.exact
    assert v.min_valuation == 2


def test_congruence_condition_fails_beyond_depth():
    # shift 2 only supports depth 4 for the real connective theory
    v = check_congruence_condition(KO, 2, 1, 5)
    assert not v.holds
    assert v.min_valuation == 4


def test_congruence_expansion_decides_past_node_differences():
    # the node difference 2 - 4 is a 3-adic unit, but the only
    # off-diagonal table entry is 3, so the cell holds exactly
    v = check_congruence_condition(K3, 1, 2, 1)
    assert v.holds and v.exact and v.checked is None
    assert v.min_valuation == 1
    assert table_congruence(K3, 1, 2, 1) == (True, None, 1)
    ys = K3.coalgebra.nodes(2, range(3))
    assert ys[1] - ys[2] == 2 - 4 and nu(3, 2 - 4) == 0


def spy_on_rows(monkeypatch):
    # the (m, n) of every row sweep ThetaCoalgebra.product_row runs
    expanded, row = [], ThetaCoalgebra.product_row

    def spy(self, m, n):
        expanded.append((m, n))
        return row(self, m, n)

    monkeypatch.setattr(ThetaCoalgebra, "product_row", spy)
    return expanded


def row_valuations(sp, m, n):
    # the valuations of the row sweep's coordinates, as the congruence reads them
    return {t: nu(sp.prime, c) for t, c in sp.coalgebra.product_row(m, n).items()}


THETA_SPECTRA = ("k(3)", "K(3)", "g(3)", "G(3)", "k(5)", "K(5)", "g(5)", "G(5)",
                 "k(7)", "G(7)", "ko(2)", "KO(2)")


def test_congruence_matches_table_reading(monkeypatch):
    # the theta route against the literal reading of the Gamma tables on
    # every cell m <= 12, n <= 10, l <= 3: same verdict and witness
    # target; the same least valuation wherever the expansion decided,
    # and a lower bound for it where the node short-cut did
    expanded = spy_on_rows(monkeypatch)
    for name in THETA_SPECTRA:
        sp = make_spectrum(name)
        for m in range(13):
            for n in range(11):
                for l in (1, 2, 3):
                    expanded.clear()
                    v = check_congruence_condition(sp, m, n, l)
                    holds, witness, worst = table_congruence(sp, m, n, l)
                    cell = (name, m, n, l)
                    assert (v.holds, v.witness) == (holds, witness), cell
                    assert v.exact and v.checked is None, cell
                    if expanded:
                        assert v.min_valuation == worst, cell
                    elif v.holds:
                        assert worst is None if v.min_valuation is None else v.min_valuation <= worst, cell


def test_table_route_matches_table_reading():
    # k(2) and K(2) read the same congruence off the same tables
    for sp in (K2, BIG_K2):
        for m in range(7):
            for n in range(7):
                for l in (1, 2, 3):
                    v = check_congruence_condition(sp, m, n, l)
                    holds, witness, _ = table_congruence(sp, m, n, l)
                    target = v.witness["target"] if v.witness else None
                    assert (v.holds, target) == (holds, witness), (sp.name, m, n, l)


def test_admissible_cells_never_expand(monkeypatch):
    # far past any table the suite builds: admissible cells hold on
    # the diagonal and the node short-cut alone
    def refuse(*args):
        raise AssertionError("an admissible cell built a node product")

    monkeypatch.setattr(ThetaCoalgebra, "product_row", refuse)
    for name, m, n in (("G(7)", 490, 5), ("K(5)", 600, 12)):
        v = check_congruence_condition(make_spectrum(name), m, n, 3)
        assert v.holds and v.exact, (name, v)


def theta_forms(primes):
    return [f"{f}({p})" for p in primes for f in "kKgG"] + ["ko(2)", "KO(2)"]


SLOT_SPECTRA = theta_forms((3, 5, 7, 11, 13))


def test_unit_condition_matches_node_oracle():
    # slot residues mod ord_p(b) against the big-node evaluation: same
    # verdict, witness and period on every cell m < 15, m < n < 30
    cells = 0
    for name in SLOT_SPECTRA:
        sp = make_spectrum(name)
        for m in range(15):
            for n in range(m + 1, 30):
                assert check_unit_condition(sp, m, n) == unit_condition_by_nodes(sp, m, n), (name, m, n)
                cells += 1
    assert cells == 7260


def test_congruence_matches_node_oracle(monkeypatch):
    # slot gaps, gap_valuation and the row sweep against the big
    # node differences and the division expansion: the same verdict,
    # witness and min_valuation on every cell m <= 12, n <= 10, l <= 4.
    # The oracle's expansion does not depend on l, so it is computed once
    memo = functools.cache(lambda p, ys, m, n: expansion_by_division(p, list(ys), m, n))
    monkeypatch.setattr(oracles, "expansion_by_division", lambda p, ys, m, n: memo(p, tuple(ys), m, n))
    cells = 0
    for name in SLOT_SPECTRA:
        sp = make_spectrum(name)
        for m in range(13):
            for n in range(11):
                for l in (1, 2, 3, 4):
                    assert check_congruence_condition(sp, m, n, l) == congruence_by_nodes(sp, m, n, l), \
                        (name, m, n, l)
                    cells += 1
    assert cells == 12584


def test_admissible_cells_never_expand_at_any_index(monkeypatch):
    # the theorem of support_step: a multiple of the step holds on the
    # diagonal and the short-cut alone, whatever the index n
    def refuse(*args):
        raise AssertionError("an admissible cell reached the expansion")

    monkeypatch.setattr(ThetaCoalgebra, "product_row", refuse)
    cells = 0
    for name in theta_forms((3, 5, 7, 11)):
        sp = make_spectrum(name)
        for l in range(1, 6):
            d = support_step(sp, l)
            for m in (d, 2 * d, 3 * d):
                for n in range(31):
                    v = check_congruence_condition(sp, m, n, l)
                    assert v.holds and v.exact, (name, m, n, l)
                    cells += 1
    assert cells == 8370


def test_large_prime_verdicts_without_big_nodes():
    # at p = 10007 the order of q = 5 is 10006: one period of slot
    # residues decides the unit condition, and the step needs no walk
    sp = make_spectrum("k(10007)")
    v = check_unit_condition(sp, 0, 5)
    assert not v.holds and v.witness == 5 and v.checked == 10006
    assert check_unit_condition(sp, 3, 3 + 10006).holds
    assert support_step(sp, 2) == 10006 * 10007
    assert check_congruence_condition(sp, 10006, 7, 1).holds


# the closed forms against the slot oracles: stock theta forms at small
# primes and at 10007, and user-built bases whose order o = ord_p(b) is 1,
# 1 and 10
CLOSED_FORM_SPECTRA = [make_spectrum(name) for name in theta_forms((3, 5, 7, 11, 13, 10007))] + [
    SpectrumSpec(name, "K", b, ThetaCoalgebra(b, 1, prime=p, periodic=True))
    for name, b, p in (("b=-3 at 2", -3, 2), ("b=-2 at 3", -2, 3), ("b=2 at 11", 2, 11))
]


def closed_form_shifts(sp, shifts):
    # each slot-residue oracle call at p = 10007 scans 10006 residues
    return range(3) if sp.prime == 10007 else shifts


def test_unit_condition_closed_form_matches_slot_residues():
    # every unit cell with n - m in {1, 2, o - 1, o, o + 1, 2o}
    cells = 0
    for sp in CLOSED_FORM_SPECTRA:
        o, _ = sp.coalgebra.order
        for m in closed_form_shifts(sp, range(6)):
            for d in {1, 2, o - 1, o, o + 1, 2 * o} - {0}:
                want = unit_condition_by_slot_residues(sp, m, m + d).as_dict()
                assert check_unit_condition(sp, m, m + d).as_dict() == want, (sp.name, m, d)
                cells += 1
    assert cells == 588


class Expanded(Exception):
    pass


def test_congruence_shortcut_reads_two_gaps_like_all_of_them(monkeypatch):
    # where the diagonal or the short-cut over all n gaps decides a cell,
    # the verdict is the same; where they do not, the cell expands
    def refuse(*args):
        raise Expanded

    monkeypatch.setattr(ThetaCoalgebra, "product_row", refuse)
    cells = expanded = 0
    for sp in CLOSED_FORM_SPECTRA:
        grid = [(m, n) for m in closed_form_shifts(sp, range(41)) for n in (0, 1, 2, 3, 200)]
        grid += [(m, 5000) for m in (1, 2)]
        for m, n in grid:
            for l in (1, 2, 3, 4):
                want = shortcut_by_all_gaps(sp, m, n, l)
                try:
                    got = check_congruence_condition(sp, m, n, l)
                except Expanded:
                    assert want is None, (sp.name, m, n, l)
                    expanded += 1
                else:
                    assert want is not None and got.as_dict() == want.as_dict(), (sp.name, m, n, l)
                cells += 1
    assert (cells, expanded) == (20972, 6245)


def counted(monkeypatch, *names):
    # wrap ThetaCoalgebra methods with call counters
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(self, *args, _name=name, _method=getattr(ThetaCoalgebra, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(ThetaCoalgebra, name, wrapper)
    return calls


def test_verdict_cells_cost_no_more_at_large_n_or_order(monkeypatch):
    # admissible cells take the short-cut, whose reads do not grow with n,
    # and the unit condition reads no slot, whatever ord_p(b)
    calls = counted(monkeypatch, "gap_valuation", "extending_slot")
    for name in ("k(3)", "K(5)", "G(7)", "KO(2)"):
        sp = make_spectrum(name)
        for l in (1, 3):
            m = support_step(sp, l)
            for n in (10, 1000, 100_000):
                calls.update(gap_valuation=0, extending_slot=0)
                v = check_congruence_condition(sp, m, n, l)
                assert v.holds and v.exact, (name, m, n, l)
                assert calls["gap_valuation"] <= 3 and calls["extending_slot"] <= 4, (name, m, n, l, calls)
    for name in ("k(10007)", "K(10007)"):
        sp = make_spectrum(name)
        calls.update(extending_slot=0)
        for m, n in ((0, 5), (0, 10005), (1, 10007), (3, 3 + 10006)):
            check_unit_condition(sp, m, n)
        assert calls["extending_slot"] == 0, name


CROSS_SPECTRA = ("k(3)", "K(3)", "g(3)", "G(3)", "k(5)", "K(5)", "g(5)", "G(5)",
                 "KO(2)", "ko(2)", "G(7)")


def test_cross_validation_matches_fraction_expansion():
    # the integer expansion against the LaurentPoly expansion over the
    # product nodes, all m + n coordinates, on the grid m <= 12, n <= 8;
    # theta_m theta_n is symmetric, so (n, m) reuses the oracle
    for name in CROSS_SPECTRA:
        sp = make_spectrum(name)
        thetas = theta_table(sp, 20)
        oracle = {}
        for m in range(13):
            for n in range(9):
                key = (min(m, n), max(m, n))
                if key not in oracle:
                    coeffs = cross_check_coefficients(sp, thetas, m, n, m + n)
                    oracle[key] = [nu(sp.prime, g) if g else None for g in coeffs]
                coords = row_valuations(sp, m, n)
                assert [coords.get(t) for t in range(m + n)] == oracle[key], (name, m, n)


def test_row_sweep_matches_division_oracle():
    # the Newton step along one row against the synthetic divisions over
    # all m + n nodes: all m + n coordinates on every cell m, n <= 16
    cells = 0
    for name in THETA_SPECTRA:
        sp = make_spectrum(name)
        for m in range(17):
            for n in range(17):
                _, ys = integer_nodes(sp, m + n)
                coords = row_valuations(sp, m, n)
                assert [coords.get(t) for t in range(m + n)] == expansion_by_division(sp.prime, ys, m, n), \
                    (name, m, n)
                cells += 1
    assert cells == 3468


def test_row_sweep_reads_two_min_nodes(monkeypatch):
    # y_0..y_(N-1) for the factors of theta_N, y_M..y_(M+N-1) for the
    # coordinates, each once, N = min(m, n) and M = max(m, n)
    for name in ("k(3)", "KO(2)"):
        C = make_spectrum(name).coalgebra
        nodes, log = C.nodes, []

        def logged(e, indices):
            indices = list(indices)
            log.extend(indices)
            return nodes(e, indices)

        monkeypatch.setattr(C, "nodes", logged)
        for m, n in ((9, 4), (4, 9), (6, 6), (12, 1), (0, 7), (30, 3)):
            big, small = max(m, n), min(m, n)
            log.clear()
            C.product_row(m, n)
            assert sorted(log) == [*range(small), *range(big, big + small)], (name, m, n)


# (spectrum, m, n) -> (holds, witness, min_valuation) at l = 3, as the
# division route decided them
LARGE_CELLS = {
    ("k(3)", 485, 10): (False, 491, 1),
    ("k(3)", 10, 485): (False, 491, 1),
    ("k(5)", 499, 10): (False, 499, 0),
    ("g(5)", 301, 10): (False, 310, 2),
}


def test_large_non_admissible_cells_by_the_sweep(monkeypatch):
    expanded = spy_on_rows(monkeypatch)
    for (name, m, n), want in LARGE_CELLS.items():
        expanded.clear()
        v = check_congruence_condition(make_spectrum(name), m, n, 3)
        assert (v.holds, v.witness, v.min_valuation) == want and v.exact, (name, m, n)
        assert expanded == [(m, n)], (name, m, n)


def test_product_nodes_need_a_unit_base():
    # the integer scaling keeps valuations only when b is a p-adic unit
    bad = SpectrumSpec("K(3)", "K", 3, ThetaCoalgebra(3, 1, prime=3, periodic=True))
    with pytest.raises(ValueError):
        check_congruence_condition(bad, 2, 1, 1)
    with pytest.raises(ValueError):
        check_unit_condition(bad, 2, 4)


def test_product_identity_symbolic():
    # node bases 2, 4 and 9, each with geometric and alternating nodes
    for name in ("k(3)", "K(3)", "g(3)", "G(3)", "ko(2)", "KO(2)"):
        sp = make_spectrum(name)
        for m in range(5):
            for n in range(5):
                assert product_identity_holds(sp, m, n), (name, m, n)
    with pytest.raises(ValueError):
        product_identity_holds(K2, 1, 1)


def test_pow3_valuations_closed_form():
    sweep = check_pow3_valuations(64)
    assert sweep.holds
    assert sweep.cells == 64
    # spot values: nu2(3^1-1)=1, nu2(3^2-1)=3, nu2(3^4-1)=4, nu2(3^6-1)=3
    assert nu(2, 3 ** 2 - 1) == 3
    assert nu(2, 3 ** 6 - 1) == 3


def test_gamma_transfer_sweep():
    sweep = check_gamma_transfer(K2, KO, 6)
    assert sweep.holds
    assert not sweep.mismatches


def test_gamma_transfer_reports_a_bridge_mismatch():
    # c_3 of k(2) with one coefficient moved: the bridge identity fails at
    # m = 1 only, as the LaurentPoly form of the identity says
    stock = K2.coalgebra

    def doped(n):
        d, mono = stock.basis(n)
        return (d, {**mono, 0: mono[0] + d}) if n == 3 else (d, mono)

    k2 = SpectrumSpec("k(2)", "k", 3, CoalgebraSpec(step=1, basis=doped, prime=2))
    sweep = check_gamma_transfer(k2, KO, 2)
    assert not sweep.holds
    bridge = [b for b in sweep.mismatches if b["identity"] == "bridge"]
    assert bridge == [{"identity": "bridge", "m": 1}]
    C, w = k2.coalgebra, LaurentPoly.variable()
    for m in range(3):
        rhs = 3**m * C.basis_poly(2 * m) - 2 * 3**m * C.basis_poly(2 * m + 1)
        assert (C.basis_poly(2 * m) * w != rhs) == (m == 1), m


def test_gamma_transfer_validates_families():
    with pytest.raises(ValueError):
        check_gamma_transfer(KO, K2, 4)


def test_coalgebra_conditions_even_shifts_hold():
    # interleaved 2-local table: even shifts satisfy both conditions
    v = check_coalgebra_conditions(K2, 2, 4, 1)
    assert v.holds


def test_coalgebra_conditions_odd_shift_counterexample():
    # the diagonal structure constant for (1,1) vanishes instead of
    # being 1, so the product congruence genuinely fails at odd shifts
    v = check_coalgebra_conditions(K2, 1, 1, 1)
    assert not v.holds
    g = K2.coalgebra.coproduct_entry(1, 1, 2)
    assert g == 0


def test_coalgebra_conditions_read_the_entry_point_table_verdict():
    # at m + n = 24 the table reading runs to target 24, as the entry
    # point's does, and both give the same verdict, witness and bound
    for sp in (K2, BIG_K2):
        for l in (1, 2, 3):
            v = check_coalgebra_conditions(sp, 12, 12, l)
            assert v == check_congruence_condition(sp, 12, 12, l)._replace(condition="coalgebra")
            assert v.checked == 24


def _first_unit_slot(sp, index):
    """The first slot resolvable by index whose index-th coordinate p does not divide."""
    C = sp.coalgebra
    for k in C.monomial_slots(index):
        coords = C.basis_coords(k)
        if len(coords) > index and coords[index] and nu(sp.prime, coords[index]) < 1:
            return k
    return None


def test_unit_table_route_reaches_the_index_it_decides():
    # past index 20 the table routes read every slot resolvable by index
    # n - m, and say so; the verdict is the literal reading of coordinate n - m
    for sp, m, n in ((K2, 0, 30), (BIG_K2, 1, 26), (K2, 3, 24)):
        v = check_unit_condition(sp, m, n)
        assert (v.holds, v.checked) == (_first_unit_slot(sp, n - m) is None, n - m), (sp, m, n)
        assert v.holds
    # at p = 29 the unit condition fails for n - m < 28 = ord_29(2), and the
    # tables show it at the slot whose coordinate n - m is a 29-adic unit
    for sp, m, n in ((make_spectrum("k(29)"), 0, 21), (make_spectrum("K(29)"), 1, 23)):
        want = _first_unit_slot(sp, n - m)
        assert want is not None and not check_unit_condition(sp, m, n).holds
        v = check_coalgebra_conditions(sp, m, n, 1)
        assert (v.holds, v.witness, v.checked) == (False, {"part": "unit", "slot": want}, n - m)


def test_coalgebra_conditions_reject_negative_indices():
    K2 = make_spectrum("K(2)")
    for m, n in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            check_coalgebra_conditions(K2, m, n, 1)


def test_coalgebra_conditions_injected_corruption():
    # a doctored structure-constant table must be caught
    sp = make_spectrum("K(2)")
    real = sp.coalgebra.coproduct_entry

    def doctored(i, j, n):
        v = real(i, j, n)
        if (i, j, n) == (2, 4, 6):
            return v + 1
        return v

    good = check_coalgebra_conditions(sp, 2, 4, 1)
    sp.coalgebra.coproduct_entry = doctored
    bad = check_coalgebra_conditions(sp, 2, 4, 1)
    assert good.holds and not bad.holds


def test_periodic_interleaved_diagonal_defect():
    # in the periodic window the (2,2) diagonal entry is 1/9, not 1, and
    # nu_2(1/9 - 1) = 3: the congruence holds to depth 3 and fails at 4
    g = BIG_K2.coalgebra.coproduct_entry(2, 2, 4)
    assert g == Fraction(1, 9)
    for l in (1, 2, 3):
        v = check_coalgebra_conditions(BIG_K2, 2, 2, l)
        assert v.holds and v.min_valuation == 3, l
    v = check_coalgebra_conditions(BIG_K2, 2, 2, 4)
    assert not v.holds
    assert v.witness == {"part": "product", "target": 4, "value": "1/9"}


def test_condition_report_theta_specs_hold():
    for name in ("k(3)", "g(3)", "ko(2)"):
        sp = make_spectrum(name)
        rep = condition_report(sp, 2, sample_size=3)
        assert rep.all_hold, rep.summary()


def test_condition_report_controls_fail_at_odd_primes():
    rep = condition_report(K3, 1, sample_size=3, include_controls=True)
    assert rep.all_hold
    assert rep.failing_controls  # shifts off the admissible set must fail


def test_condition_report_controls_at_two_hold_shallow():
    # 2-locally the congruence survives shallow depths even off the
    # even set: nu2(3^i - 1) >= 3 for even i, and odd entries only
    # appear from depth 4 up
    rep = condition_report(make_spectrum("KO(2)"), 3, sample_size=3)
    assert not rep.failing_controls


def test_condition_report_min_valuations_monotone():
    rep = condition_report(K3, 3, sample_size=3)
    vals = rep.min_valuations()
    assert vals[1] >= 1 and vals[2] >= 2 and vals[3] >= 3


def test_condition_report_needs_a_positive_sample():
    for size in (0, -1):
        with pytest.raises(ValueError, match="sample size"):
            condition_report(K3, 1, sample_size=size)


def test_congruence_condition_reads_tables_without_product_form():
    # the 2-local complex theories go through the structure constants,
    # for targets up to max(bound, m + n), and the verdict is bounded
    v = check_congruence_condition(K2, 4, 2, 1)
    assert not v.exact and v.checked == 20 and v.condition == "congruence"
    assert check_congruence_condition(K2, 12, 10, 1).checked == 22
    with pytest.raises(ValueError):
        check_congruence_condition(K2, 4, 2, 0)


def test_support_step_sound_on_theta_spectra():
    # the hand table of admissible shifts against the exact route
    cells = 0
    for name in ("k(3)", "K(3)", "g(3)", "G(3)", "k(5)", "K(5)", "g(5)", "G(5)",
                 "k(7)", "G(7)", "ko(2)", "KO(2)"):
        sp = make_spectrum(name)
        for l in (1, 2, 3):
            for m in takewhile(lambda m: m <= 40, admissible_shifts(sp, l)):
                for n in range(9):
                    v = check_congruence_condition(sp, m, n, l)
                    assert v.holds and v.exact, (name, m, n, l)
                    cells += 1
    assert cells == 3834


def test_support_step_where_it_differs_from_the_conditions():
    # stricter: odd shifts pass on G(3) at l = 1 and on KO(2) at l = 3,
    # where the table admits only even ones
    for name, l in (("G(3)", 1), ("KO(2)", 3)):
        sp = make_spectrum(name)
        assert next(admissible_shifts(sp, l)) == 2
        assert all(check_congruence_condition(sp, 1, n, l) for n in range(9))
    # too lax on k(2): shift 1 is admitted at l = 3 and fails there
    assert next(admissible_shifts(K2, 3)) == 1
    assert not check_congruence_condition(K2, 1, 1, 3)
