from fractions import Fraction

import pytest

from ktops.checks import check_pow3_valuations, check_unit_condition, condition_report
from ktops.dual import AdamsPoly, is_unit
from ktops.laurent import LaurentPoly
from ktops.modules import FGModule, to_comodule, torsion_annihilator, trivial_module, validate_module
from ktops.spectra import dual_theta_basis, make_spectrum

K3 = make_spectrum("k(3)")
C3 = K3.coalgebra
TORSION = trivial_module(3, 0, (3,), level=2)

# every record that is immutable, built the way the library hands it out
RECORDS = {
    "ConditionVerdict": lambda: check_unit_condition(K3, 0, 1),
    "SweepReport": lambda: check_pow3_valuations(4),
    "ConditionReport": lambda: condition_report(K3, 1, sample_size=2),
    "AdamsPoly": lambda: dual_theta_basis(K3, 2),
    "UnitVerdict": lambda: is_unit(C3, dual_theta_basis(K3, 0)),
    "FGModule": lambda: TORSION,
    "ModuleVerdict": lambda: validate_module(TORSION, C3),
    "CoactionTable": lambda: to_comodule(TORSION, C3),
    "AnnihilatorSearch": lambda: torsion_annihilator(TORSION, K3, 1),
    "SpectrumSpec": lambda: K3,
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = next(iter(getattr(record, "_fields", None) or vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0


# the two plain classes compared by value, each with a record that differs
VALUES = {
    "FGModule": (lambda: trivial_module(3, 0, (3,), level=2), lambda: trivial_module(3, 0, (9,), level=2)),
    "AdamsPoly": (lambda: dual_theta_basis(K3, 2), lambda: dual_theta_basis(K3, 3)),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_record_compares_hashes_and_prints_by_value(name):
    make, other = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and a != other()
    assert a.__eq__(0) is NotImplemented and a != 0
    names = {"FGModule": FGModule, "AdamsPoly": AdamsPoly, "LaurentPoly": LaurentPoly, "Fraction": Fraction}
    assert eval(repr(a), names) == a
    field = next(iter(vars(a)))
    with pytest.raises(AttributeError, match=f"cannot delete {name}.{field}"):
        delattr(a, field)


def test_coalgebra_and_spectrum_print_their_fields():
    assert repr(K3) == "SpectrumSpec('k(3)', q=2)"
    assert repr(C3).startswith("ThetaCoalgebra(step=1, basis=<function ")
    assert repr(C3).endswith(", prime=3, periodic=False, name='k(3)')")
