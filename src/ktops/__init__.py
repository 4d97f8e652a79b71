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

Callers import each name from its submodule (ktops.dual, ktops.modules,
...); the package itself defines nothing.
"""
