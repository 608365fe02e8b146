"""Surface-group representations into GL+(2, R) and their Milnor numbers.

A genus-g representation is a choice of matrices A_1..A_g, B_1..B_g whose
commutators multiply to the identity.  Lifting every generator to the
universal cover and multiplying the lifted commutators lands on a central
element (I, 2*pi*delta); the integer delta is the Milnor number, equal to
the Euler degree of the associated flat bundle.  It obeys |delta| < g, and
every integer below that bound is realised by an explicit construction
built from the conjugacy class K of diag(2, 1/2):

    K~      lifts of K-matrices with angle in (-pi/2, pi/2)
    pi K~   their central shift by a half turn: trace -5/2, angle in
            (pi/2, 3pi/2)

Every element of pi K~ factors as a product of two K~ elements (conjugate
the seed factorisation A2 = A0 A1) and hence also as a single commutator;
stacking those commutators realises any admissible degree.  Their chain
splits its element of least height, so entries grow polynomially in d.

The factorisations run in exact Fraction arithmetic.  productmil_decompose
and commutator_decompose read a float target entry by entry as a binary
rational: it is decomposed when that matrix lies exactly in pi K (trace
-5/2, det 1) and its lift in (pi/2, 3pi/2).  Anything else, a near miss
within rounding included, is a DomainError.

All functions are pure; representations are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import (
    AdmissibilityError,
    DomainError,
    InstabilityError,
    InternalConsistencyError,
    PreconditionError,
)
from .liftgroup import (
    COVER_IDENTITY,
    CoveredElement,
    IDENTITY,
    Mat2,
    TAU_WINDING,
    check_positive_det,
    deck_shift,
    det2,
    inv2,
    lift_commutator,
    lift_inv,
    lift_loop,
    lift_mul,
    principal_lift,
    product_lift,
    SampledLoop,
    word_path,
)

TAU_REL = 1e-8        # infinity-norm tolerance on the surface relation
TAU_CLASS = 1e-6      # trace/det tolerance for conjugacy-class tags
MAX_FLOAT_ENTRY = 10 ** 150  # exact entries rounded to float; 2x2 products stay finite
_TWO_PI = 2.0 * math.pi

A0: Mat2 = np.array([[2.0, 0.0], [0.0, 0.5]])
A1: Mat2 = np.array([[-2.5, 4.5], [-3.0, 5.0]])
A2: Mat2 = np.array([[-5.0, 9.0], [-1.5, 2.5]])


@dataclass(frozen=True)
class ConjClassTag:
    """Trace/determinant fingerprint of the classes K and pi K."""

    trace: Fraction
    det: Fraction
    shifted: bool

    def matches(self, m: Mat2, tol: float = TAU_CLASS) -> bool:
        return (
            abs(float(m[0, 0] + m[1, 1]) - float(self.trace)) <= tol
            and abs(det2(m) - float(self.det)) <= tol
        )


K_TAG = ConjClassTag(Fraction(5, 2), Fraction(1), shifted=False)
PIK_TAG = ConjClassTag(Fraction(-5, 2), Fraction(1), shifted=True)


@dataclass(frozen=True, eq=False)
class SurfaceGroupRep:
    """Genus plus generator matrices satisfying the surface relation."""

    genus: int
    A: tuple
    B: tuple
    tolerance: float = TAU_REL

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise DomainError("genus must be a positive integer")
        if len(self.A) != self.genus or len(self.B) != self.genus:
            raise DomainError("need exactly genus matrices in A and in B")
        frozen_a, frozen_b = [], []
        for m in list(self.A) + list(self.B):
            m = np.array(m, dtype=float)
            check_positive_det(m)
            m.flags.writeable = False
            (frozen_a if len(frozen_a) < self.genus else frozen_b).append(m)
        object.__setattr__(self, "A", tuple(frozen_a))
        object.__setattr__(self, "B", tuple(frozen_b))
        defect = relation_defect(self)
        if defect > self.tolerance:
            raise PreconditionError(
                f"surface relation violated: defect {defect:.3e} > "
                f"{self.tolerance}"
            )


def relation_defect(rep: SurfaceGroupRep) -> float:
    """Infinity-norm distance of prod [A_i, B_i] from the identity."""
    acc = IDENTITY
    for a, b in zip(rep.A, rep.B):
        acc = acc @ a @ b @ inv2(a) @ inv2(b)
    return float(np.max(np.abs(acc - IDENTITY)))


def trivial_representation(genus: int) -> SurfaceGroupRep:
    eye = tuple(np.eye(2) for _ in range(genus))
    return SurfaceGroupRep(genus, eye, eye)


def milnor_number(rep: SurfaceGroupRep) -> int:
    """delta = (lift of prod [alpha_i, beta_i]) / 2 pi, as an integer.

    Generators are taken at their principal lifts; any other lift gives the
    same answer because deck shifts are central and cancel in commutators.
    """
    total = COVER_IDENTITY
    for a, b in zip(rep.A, rep.B):
        comm = lift_commutator(principal_lift(a), principal_lift(b))
        total = lift_mul(total, comm)
    winding = total.lift / _TWO_PI
    n = round(winding)
    if abs(winding - n) >= TAU_WINDING:
        raise InstabilityError(
            f"winding residue {abs(winding - n):.3e} exceeds {TAU_WINDING}"
        )
    return n


def check_milnor_inequality(rep: SurfaceGroupRep) -> bool:
    """|delta(rho)| < g; true for every valid representation."""
    return abs(milnor_number(rep)) < rep.genus


def commutator_loop_path(rep: SurfaceGroupRep) -> Callable[[np.ndarray], Mat2]:
    """The closed path of the relation word alpha_1 beta_1 alpha_1^-1
    beta_1^-1 ... over principal lifts: word_path of its 4g letters."""
    letters = []
    for a, b in zip(rep.A, rep.B):
        x, y = principal_lift(a), principal_lift(b)
        letters += [x, y, lift_inv(x), lift_inv(y)]
    return word_path(letters)


def winding_number(rep: SurfaceGroupRep, initial_samples: int = 64) -> int:
    """Path-sampling route to delta: winding of the commutator loop.

    Independent of the lift arithmetic in milnor_number; the two must agree
    on every valid representation.
    """
    loop = SampledLoop.from_path(
        commutator_loop_path(rep), initial_samples=initial_samples
    )
    return lift_loop(loop)


# -- class windows ------------------------------------------------------------

def deck_normalize(x: CoveredElement) -> CoveredElement:
    """Shift by an even deck element to centre the lift at pi.

    The result lies in [0, 2pi]; for elements of pi K~ up to deck shifts
    that is the class window (pi/2, 3pi/2)."""
    k = round((math.pi - x.lift) / _TWO_PI)
    return deck_shift(x, 2 * k)


def _in_plain_class(x: CoveredElement) -> bool:
    return K_TAG.matches(x.matrix) and abs(x.lift) < math.pi / 2


def _check_same_element(
    got: CoveredElement, want: CoveredElement, stage: str
) -> None:
    scale = max(1.0, float(np.max(np.abs(want.matrix))))
    if np.max(np.abs(got.matrix - want.matrix)) > 1e-6 * scale or (
        abs(got.lift - want.lift) > 1e-6
    ):
        raise InternalConsistencyError(f"{stage}: reassembled element drifted")


# -- exact rational pipeline --------------------------------------------------
# Matrices in K have eigenvalues 2 and 1/2 (pi K: -1/2 and -2), so every
# conjugator in the chain construction is rational.  Running the chain in
# Fraction arithmetic keeps the surface relation exact no matter how many
# stages are stacked; floats only appear at the CoveredElement boundary.

_F = Fraction
_A0_EXACT = ((_F(2), _F(0)), (_F(0), _F(1, 2)))
_A1_EXACT = ((_F(-5, 2), _F(9, 2)), (_F(-3), _F(5)))
_K_EIGS = (_F(2), _F(1, 2))
_PIK_EIGS = (_F(-1, 2), _F(-2))


def _fmul(a: tuple, b: tuple) -> tuple:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _fdet(a: tuple) -> Fraction:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _finv(a: tuple) -> tuple:
    d = _fdet(a)
    return ((a[1][1] / d, -a[0][1] / d), (-a[1][0] / d, a[0][0] / d))


def _fneg(a: tuple) -> tuple:
    return tuple(tuple(-v for v in row) for row in a)


def _fconj(s: tuple, m: tuple) -> tuple:
    return _fmul(_fmul(s, m), _finv(s))


def _ffloat(a: tuple) -> Mat2:
    """The float matrix of an exact one: the exact pipeline's one float boundary."""
    if any(abs(v) > MAX_FLOAT_ENTRY for row in a for v in row):
        raise InstabilityError(
            "exact entry exceeds MAX_FLOAT_ENTRY = 1e150; float products overflow"
        )
    return np.array([[float(v) for v in row] for row in a])


def _fexact(m: Mat2) -> tuple:
    """The binary-rational value of a float matrix, entry by entry."""
    return tuple(tuple(Fraction(float(v)) for v in row) for row in m)


def _primitive(vec: tuple) -> tuple:
    """Scale a rational vector to a primitive integer vector, first
    nonzero entry positive."""
    denom = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(_F(v) for v in ints)


def _f_eigenvector(m: tuple, lam: Fraction) -> tuple:
    v1 = (m[0][1], lam - m[0][0])
    v2 = (lam - m[1][1], m[1][0])
    v = v1 if any(v1) else v2
    if not any(v):
        raise DomainError("matrix is a multiple of the identity")
    return _primitive(v)


def _f_conjugator(m: tuple, n: tuple, eigs: tuple) -> tuple:
    """Primitive integer S with det(S) > 0 and S m S^-1 = n, exactly."""
    vm = [_f_eigenvector(m, lam) for lam in eigs]
    vn = [_f_eigenvector(n, lam) for lam in eigs]
    for _ in range(2):
        cols_m = ((vm[0][0], vm[1][0]), (vm[0][1], vm[1][1]))
        cols_n = ((vn[0][0], vn[1][0]), (vn[0][1], vn[1][1]))
        s = _fmul(cols_n, _finv(cols_m))
        if _fdet(s) > 0:
            rows = _primitive(tuple(v for row in s for v in row))
            return (rows[0], rows[1]), (rows[2], rows[3])
        vn[0] = tuple(-v for v in vn[0])
    raise InternalConsistencyError("exact conjugator has nonpositive det")


def _productmil_exact(target: tuple) -> tuple:
    """Exact factorisation of a pi K matrix as a product of two K matrices."""
    s = _f_conjugator(_fmul(_A0_EXACT, _A1_EXACT), target, _PIK_EIGS)
    m1 = _fconj(s, _A0_EXACT)
    m2 = _fconj(s, _A1_EXACT)
    if _fmul(m1, m2) != target:
        raise InternalConsistencyError("exact product factorisation drifted")
    return m1, m2


def _commutator_exact(target: tuple) -> tuple:
    """Exact (b1, b2) with b1 b2 b1^-1 b2^-1 equal to the pi K target."""
    b1, b3 = _productmil_exact(target)
    s = _f_conjugator(_finv(b1), b3, _K_EIGS)
    comm = _fmul(_fmul(_fmul(b1, s), _finv(b1)), _finv(s))
    if comm != target:
        raise InternalConsistencyError("exact commutator drifted")
    return b1, s


def _height(a: tuple) -> float:
    """The largest |entry| of an exact matrix, as a float."""
    return float(max(abs(v) for row in a for v in row))


def _chain_exact(n: int) -> list:
    """n+1 exact K matrices multiplying to the matrix of n pi alpha0.

    Starting from [A0], each of n steps replaces the element c of least
    height (largest |entry|, ties to the lowest index) by factors
    g1 g2 = -c; -I is central, so the product flips sign wherever c sits."""
    chain = [_A0_EXACT]
    heights = [_height(_A0_EXACT)]
    for _ in range(n):
        i = heights.index(min(heights))
        chain[i:i + 1] = _productmil_exact(_fneg(chain[i]))
        heights[i:i + 1] = map(_height, chain[i:i + 2])
    acc = ((_F(1), _F(0)), (_F(0), _F(1)))
    for g in chain:
        acc = _fmul(acc, g)
    if acc != (_A0_EXACT if n % 2 == 0 else _fneg(_A0_EXACT)):
        raise InternalConsistencyError("exact chain product drifted")
    return chain


def _cover_exact(m: tuple, plain_class: bool = False) -> CoveredElement:
    """Principal lift of the float rounding of an exact GL+ matrix; with
    plain_class, a K~ element over an exact K matrix, whose principal lift
    is in (-pi/2, pi/2) because the trace is positive.

    A rounding that fails the float checks is float conditioning
    (InstabilityError) when m passes them exactly, and a bug when not."""
    try:
        elem = principal_lift(_ffloat(m))
    except DomainError:
        elem = None
    if elem is not None and (not plain_class or _in_plain_class(elem)):
        return elem
    det = _fdet(m)
    if det <= 0:
        raise InternalConsistencyError("exact matrix has nonpositive det")
    if plain_class and (m[0][0] + m[1][1], det) != (K_TAG.trace, K_TAG.det):
        raise InternalConsistencyError("exact matrix left the K class")
    raise InstabilityError(
        "float rounding of an exact matrix fails its GL+ or K check; "
        f"largest entry {_height(m):.6g}"
    )


def _exact_shifted_class(x: CoveredElement) -> tuple:
    """The exact matrix of a pi K~ element, or DomainError.

    The float matrix must lie in pi K as a binary rational: trace exactly
    -5/2 and det exactly 1.  No rational conjugator reaches a near miss."""
    m = _fexact(x.matrix)
    if m[0][0] + m[1][1] != PIK_TAG.trace or _fdet(m) != PIK_TAG.det:
        raise DomainError(
            "matrix is not exactly in pi K (expected trace -5/2 and det 1)"
        )
    if not (math.pi / 2 < x.lift < 3 * math.pi / 2):
        raise DomainError(
            f"lift {x.lift:.6f} outside (pi/2, 3pi/2); deck-normalize first"
        )
    return m


def productmil_decompose(
    target: CoveredElement,
) -> tuple[CoveredElement, CoveredElement]:
    """Write a pi K~ element as a product of two K~ elements."""
    m1, m2 = _productmil_exact(_exact_shifted_class(target))
    out = _cover_exact(m1, plain_class=True), _cover_exact(m2, plain_class=True)
    _check_same_element(lift_mul(*out), target, "productmil_decompose")
    return out


def commutator_decompose(
    target: CoveredElement,
) -> tuple[CoveredElement, CoveredElement]:
    """Write a pi K~ element as a single commutator [beta1, beta2].

    beta1 and the second product factor beta3 come from the exact product
    decomposition; beta2 is the principal lift of an integer conjugator
    taking beta1^-1 to beta3, so that beta1 (beta2 beta1^-1 beta2^-1) =
    beta1 beta3 = target.
    """
    b1, b2 = _commutator_exact(_exact_shifted_class(target))
    out = _cover_exact(b1, plain_class=True), _cover_exact(b2)
    _check_same_element(lift_commutator(*out), target, "commutator_decompose")
    return out


def chain_build(n: int) -> list[CoveredElement]:
    """n+1 elements of K~ whose product is the n-fold deck shift of alpha0.

    Induction step: replace the element of least height by the two-factor
    decomposition of its half-turn shift.  Matrices are carried exactly;
    the lift arithmetic of the assembled chain is verified before
    returning.
    """
    if n < 1:
        raise DomainError("chain_build needs n >= 1")
    chain = [_cover_exact(m, plain_class=True) for m in _chain_exact(n)]
    expected = deck_shift(principal_lift(A0), n)
    _check_same_element(product_lift(chain), expected, "chain_build")
    return chain


def build_representation(genus: int, degree: int) -> SurfaceGroupRep:
    """A representation with milnor_number == degree, for |degree| < genus.

    degree > 0: realise it on a core of genus degree+1 (commutator
    decompositions of half-turn shifts of a K~ chain), then pad with
    identity pairs.  degree < 0: flip the orientation of the positive
    construction.
    """
    if genus < 1:
        raise DomainError("genus must be a positive integer")
    if abs(degree) >= genus:
        raise AdmissibilityError(
            f"|{degree}| >= {genus}: inadmissible, need |degree| < genus "
            "(the Milnor inequality)"
        )
    if degree == 0:
        return trivial_representation(genus)
    if degree < 0:
        return flip_orientation(build_representation(genus, -degree))

    gammas = _chain_exact(degree - 1) + [_finv(_A0_EXACT)]

    pairs = [_commutator_exact(_fneg(g)) for g in gammas]
    covered = [
        (_cover_exact(b1, plain_class=True), _cover_exact(b2))
        for b1, b2 in pairs
    ]
    total = product_lift([lift_commutator(a, b) for a, b in covered])
    if abs(total.lift - _TWO_PI * degree) > 1e-6:
        raise InternalConsistencyError("assembled core has the wrong degree")

    a_side = [a.matrix for a, _ in covered]
    b_side = [b.matrix for _, b in covered]
    padding = genus - len(pairs)
    a_side += [np.eye(2)] * padding
    b_side += [np.eye(2)] * padding
    return SurfaceGroupRep(genus, tuple(a_side), tuple(b_side))


def flip_orientation(rep: SurfaceGroupRep) -> SurfaceGroupRep:
    """Reverse the generator pairs and swap each (A_i, B_i).

    [B, A] = [A, B]^-1, so the reversed-and-swapped word inverts the
    relation product: the relation is preserved and delta is negated.
    """
    return SurfaceGroupRep(rep.genus, tuple(rep.B[::-1]), tuple(rep.A[::-1]))


def conjugate_representation(rep: SurfaceGroupRep, s: Mat2) -> SurfaceGroupRep:
    """Conjugate every generator by s (det s > 0); delta is unchanged.

    Float entries are exact rationals, so the conjugation is carried out in
    Fraction arithmetic and rounded once at the end; chained float products
    would otherwise push large-entry representations past the relation
    tolerance.
    """
    s = np.asarray(s, dtype=float)
    check_positive_det(s)
    s_exact = _fexact(s)

    def conj(m: Mat2) -> Mat2:
        return _ffloat(_fconj(s_exact, _fexact(m)))

    return SurfaceGroupRep(
        rep.genus,
        tuple(conj(a) for a in rep.A),
        tuple(conj(b) for b in rep.B),
    )


# -- JSON schema --------------------------------------------------------------

def rep_to_dict(rep: SurfaceGroupRep) -> dict:
    """{"genus": g, "A": [[a, b, c, d], ...], "B": [...]}, row-major."""
    return {
        "genus": rep.genus,
        "A": [[float(v) for v in m.ravel()] for m in rep.A],
        "B": [[float(v) for v in m.ravel()] for m in rep.B],
    }


def rep_from_dict(data: dict, tolerance: float = TAU_REL) -> SurfaceGroupRep:
    try:
        genus = int(data["genus"])
        a = [np.array(row, dtype=float).reshape(2, 2) for row in data["A"]]
        b = [np.array(row, dtype=float).reshape(2, 2) for row in data["B"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed representation payload: {exc}") from exc
    return SurfaceGroupRep(genus, tuple(a), tuple(b), tolerance=tolerance)
