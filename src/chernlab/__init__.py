"""chernlab: flat-bundle Euler numbers over surfaces, an exact spectral
sequence engine for filtered complexes, chart-local differential geometry,
and Euler-characteristic arithmetic.

The subpackages are importable directly; the most used names are
re-exported here.

Submodules load on first use. ``import chernlab`` runs only ``errors``;
each engine module (euler, geometry, liftgroup, milnor, spectral,
subspaces) sits in ``sys.modules`` and on the package from the start, but
its body runs on its first attribute access, and a re-exported name loads
its module when it is first looked up. euler, spectral and subspaces use
only the standard library, so the ``euler`` and ``spectral`` commands never
import numpy.
"""

import importlib.util as _util
import sys as _sys

from .errors import (
    AdmissibilityError,
    ChernLabError,
    ConventionError,
    DomainError,
    EscapeError,
    InstabilityError,
    PreconditionError,
    QuadratureError,
    SubdivisionError,
)


def _lazy(name: str):
    """The submodule chernlab.<name>, registered now, executed on first use."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


euler = _lazy("euler")
geometry = _lazy("geometry")
liftgroup = _lazy("liftgroup")
milnor = _lazy("milnor")
spectral = _lazy("spectral")
subspaces = _lazy("subspaces")

_EXPORTS = {
    "euler": ("euler_char", "milnor_admissible", "parse_expression", "smillie"),
    "geometry": (
        "Chart", "ChartConnection", "SurfacePatch", "Trajectory",
        "covariant_derivative", "curvature", "exponential_map", "gauss_bonnet",
        "geodesic", "levi_civita", "nijenhuis", "para_structure_check",
        "parallel_transport", "parse_geometry", "pfaffian", "torsion",
    ),
    "liftgroup": (
        "CoveredElement", "SampledLoop", "deck_shift", "lift_commutator",
        "lift_inv", "lift_loop", "lift_mul", "lift_mul_rotation",
        "principal_lift", "retract",
    ),
    "milnor": (
        "SurfaceGroupRep", "build_representation", "flip_orientation",
        "milnor_number", "winding_number",
    ),
    "spectral": (
        "DoubleComplex", "FilteredComplex", "Page", "bete_filtration",
        "compute_page", "cycles_up_to_filtration", "from_double_complex",
        "graded_cohomology", "infinity_page", "page_differential",
        "persistence_pairing",
    ),
    "subspaces": (
        "Subspace", "quotient_dim", "subspace_intersect", "subspace_preimage",
        "subspace_sum",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__() -> list:
    return sorted({*globals(), *_SOURCE})


# a star import binds every public name, the lazily served ones included
__all__ = [name for name in __dir__() if not name.startswith("_")]
