"""The package namespace: every public name chernlab exports resolves,
lazily, to the object its submodule defines, and __all__ lists exactly
those names."""

import sys

import pytest

import chernlab

MODULES = ("errors", "euler", "geometry", "liftgroup", "milnor", "spectral", "subspaces")

# the public names of the package: the submodules and their re-exports
EXPORTED = MODULES + (
    "AdmissibilityError", "ChernLabError", "ConventionError", "DomainError",
    "EscapeError", "InstabilityError", "PreconditionError", "QuadratureError",
    "SubdivisionError",
    "euler_char", "milnor_admissible", "parse_expression", "smillie",
    "Chart", "ChartConnection", "SurfacePatch", "Trajectory",
    "covariant_derivative", "curvature", "exponential_map", "gauss_bonnet",
    "geodesic", "levi_civita", "nijenhuis", "para_structure_check",
    "parallel_transport", "parse_geometry", "pfaffian", "torsion",
    "CoveredElement", "SampledLoop", "deck_shift", "lift_commutator",
    "lift_inv", "lift_loop", "lift_mul", "lift_mul_rotation",
    "principal_lift", "retract",
    "SurfaceGroupRep", "build_representation", "flip_orientation",
    "milnor_number", "winding_number",
    "DoubleComplex", "FilteredComplex", "Page", "bete_filtration",
    "compute_page", "cycles_up_to_filtration", "from_double_complex",
    "graded_cohomology", "infinity_page", "page_differential",
    "persistence_pairing",
    "Subspace", "quotient_dim", "subspace_intersect", "subspace_preimage",
    "subspace_sum",
)


def test_every_exported_name_resolves_to_its_submodule_object():
    assert len(set(EXPORTED)) == 67
    for name in EXPORTED:
        namespace = {}
        exec(f"from chernlab import {name}", namespace)
        value = namespace[name]
        if name in MODULES:
            assert value is sys.modules[f"chernlab.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)


def test_dir_and_star_import_list_the_exported_names():
    assert set(EXPORTED) <= set(dir(chernlab))
    assert sorted(chernlab.__all__) == sorted(EXPORTED)
    namespace = {}
    exec("from chernlab import *", namespace)
    assert set(EXPORTED) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chernlab.no_such_name
    with pytest.raises(ImportError):
        exec("from chernlab import no_such_name", {})
