"""Exact models of the operation algebras acting on p-local K-theories.

The pieces fit together bottom-up: rationals carry the p-local facts
and Laurent polynomials the display; coalgebra realizes a numerical
basis with its structure constants; dual wraps the completed dual
algebra with its products and unit group; spectra builds the eight
stock examples; checks verifies the discreteness criteria cell by cell;
modules walks the dictionary between action tables and coaction tables.

The result records (verdicts, reports, SpectrumSpec) are immutable
NamedTuples compared by value.  AdamsPoly and FGModule, which normalise
or validate their input, are plain immutable classes compared by value;
a CoalgebraSpec holds its memoized tables and compares by identity.
"""
from .rationals import (
    as_fraction,
    nu,
    is_prime,
    multiplicative_order,
    check_primitive_root,
    least_primitive_root,
)
from .laurent import LaurentPoly, PoleError
from .coalgebra import (
    CoalgebraSpec,
    RegularityReport,
    verify_regularity,
    binomial_coalgebra,
    monomial_coalgebra,
)
from .dual import (
    DualElement,
    AdamsPoly,
    UnitVerdict,
    PrecisionError,
    NotIntegralError,
    NotInvertibleError,
    expand,
    multiply,
    monomial_pairing,
    is_unit,
    invert,
    algebra_one,
)
from .spectra import (
    SpectrumSpec,
    make_spectrum,
    spectrum_names,
    dual_theta_basis,
    support_step,
    admissible_shifts,
)
from .checks import (
    ConditionVerdict,
    ConditionReport,
    SweepReport,
    check_unit_condition,
    check_congruence_condition,
    check_coalgebra_conditions,
    check_pow3_valuations,
    check_gamma_transfer,
    condition_report,
)
from .modules import (
    FGModule,
    ModuleVerdict,
    CoactionTable,
    AnnihilatorSearch,
    validate_module,
    to_comodule,
    torsion_annihilator,
    trivial_module,
    character_module,
    comodule_on_basis,
    module_to_json,
    module_from_json,
)

__version__ = "0.1.0"
