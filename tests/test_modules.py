from fractions import Fraction

import pytest

from ktops.modules import (
    FGModule,
    character_module,
    comodule_on_basis,
    module_from_json,
    module_to_json,
    to_comodule,
    torsion_annihilator,
    trivial_module,
    validate_module,
)
from ktops.spectra import make_spectrum

K3 = make_spectrum("k(3)")
KO = make_spectrum("ko(2)")
C3 = K3.coalgebra
CO = KO.coalgebra


def test_trivial_module_valid():
    for spec, p in ((C3, 3), (CO, 2)):
        m = trivial_module(p, free_rank=2, torsion_orders=(p, p * p), level=3)
        assert validate_module(m, spec)


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
    # unit scalars throughout the bound: certifies a non-discrete table
    mats = tuple(((Fraction(1),),) for _ in range(40))
    fake = FGModule(3, 0, (3,), mats)
    res = torsion_annihilator(fake, K3, 1, tries=10)
    assert res.witness is None
    assert len(res.tried) == 10
    assert res.pigeonhole == (2, 4)


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
