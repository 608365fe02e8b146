"""chernlab: flat-bundle Euler numbers over surfaces, an exact spectral
sequence engine for filtered complexes, chart-local differential geometry,
and Euler-characteristic arithmetic.

The subpackages are importable directly; the most used names are
re-exported here.
"""

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
from .euler import euler_char, milnor_admissible, parse_expression, smillie
from .geometry import (
    Chart,
    ChartConnection,
    SurfacePatch,
    Trajectory,
    covariant_derivative,
    curvature,
    exponential_map,
    gauss_bonnet,
    geodesic,
    levi_civita,
    nijenhuis,
    para_structure_check,
    parallel_transport,
    parse_geometry,
    pfaffian,
    torsion,
)
from .liftgroup import (
    CoveredElement,
    SampledLoop,
    deck_shift,
    lift_commutator,
    lift_inv,
    lift_loop,
    lift_mul,
    lift_mul_rotation,
    principal_lift,
    retract,
)
from .milnor import (
    SurfaceGroupRep,
    build_representation,
    chain_build,
    check_milnor_inequality,
    commutator_decompose,
    flip_orientation,
    milnor_number,
    productmil_decompose,
    winding_number,
)
from .spectral import (
    DoubleComplex,
    FilteredComplex,
    Page,
    bete_filtration,
    compute_page,
    cycles_up_to_filtration,
    from_double_complex,
    graded_cohomology,
    infinity_page,
    page_differential,
    persistence_pairing,
)
from .subspaces import (
    Subspace,
    quotient_dim,
    subspace_intersect,
    subspace_preimage,
    subspace_sum,
)

__version__ = "0.1.0"
