"""The Newton recursion of ThetaCoalgebra against the monomial-sum kernel.

The kernel runs on a plain CoalgebraSpec built on the same basis
callable, so both routes read the same basis and only the way the Gamma
tables are built differs.
"""
from fractions import Fraction
from functools import cache

import pytest

from ktops.coalgebra import CoalgebraSpec, ThetaCoalgebra
from ktops.spectra import make_spectrum

# every theta family at p = 3, 5, 7 plus the real theories, at the default
# q and at the other values of q that the cold-tables benchmark draws
STOCK = [(f"{f}({p})", None) for p in (3, 5, 7) for f in ("k", "K", "g", "G")]
STOCK += [("ko(2)", None), ("KO(2)", None)]
CASES = STOCK + [("G(7)", 26), ("G(7)", 33), ("g(7)", 38), ("G(5)", 37), ("G(5)", 38)]
SWEEP_TOP = {"k(3)": 32, "KO(2)": 32}
BAND_TOP = 24


def _top(name, q):
    """The highest table compared: 20 on the other q, and on the stock q
    BAND_TOP, where the band is read too, or 32 on k(3) and KO(2)."""
    return 20 if q is not None else SWEEP_TOP.get(name, BAND_TOP)


@cache
def _kernel(name, q):
    """The kernel's tables 0.._top(name, q) of one spectrum."""
    C = make_spectrum(name, q).coalgebra
    K = CoalgebraSpec(step=C.step, basis=C.basis, prime=C.prime, periodic=C.periodic)
    return [K.coproduct_matrix(n) for n in range(_top(name, q) + 1)]


@pytest.mark.parametrize("name,q", CASES)
def test_recursion_matches_kernel(name, q):
    C = make_spectrum(name, q).coalgebra
    assert isinstance(C, ThetaCoalgebra)
    for n, want in enumerate(_kernel(name, q)):
        g = C.coproduct_matrix(n)
        assert g == want, (name, q, n)
        assert all(type(v) is Fraction for row in g for v in row)


@pytest.mark.parametrize("name,q", STOCK)
def test_gamma_band(name, q):
    # read from the kernel, which sums over every monomial and assumes no band
    for n, g in enumerate(_kernel(name, q)[:BAND_TOP + 1]):
        for i, row in enumerate(g):
            for j, v in enumerate(row):
                if v:
                    assert max(i, j) <= n <= i + j, (name, q, i, j, n)


@pytest.mark.parametrize("name", ["k(2)", "K(2)"])
def test_interleaved_theories_keep_the_kernel(name):
    assert not isinstance(make_spectrum(name).coalgebra, ThetaCoalgebra)


@pytest.mark.parametrize("name,q", [("K(3)", None), ("G(7)", 33), ("ko(2)", None)])
def test_tables_do_not_depend_on_request_order(name, q):
    # jumps, repeats, descending and ascending requests, with the memo
    # emptied after each one so every table is rebuilt from the raw state
    want = _kernel(name, q)
    C = make_spectrum(name, q).coalgebra
    for n in [16, 3, 9, 9, 16, 10, 2] + list(range(16, -1, -1)) + list(range(17)):
        assert C.coproduct_matrix(n) == want[n], (name, n)
        C._gamma.clear()


def test_raw_state_is_one_private_table():
    # _gamma is the only table memo; the recursion keeps the last raw table
    # alone, so a wrong entry written into _gamma does not reach the next table
    C = make_spectrum("G(5)").coalgebra
    want = _kernel("G(5)", None)
    for n in range(4):
        C.coproduct_matrix(n)
    C._gamma[3] = tuple(tuple(v + 1 for v in row) for row in C._gamma[3])
    assert C.coproduct_matrix(4) == want[4]
    last, _, raw = C._raw
    assert last == 4 and len(raw) == 5
    assert sorted(C._gamma) == [0, 1, 2, 3, 4]
