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

The factorisations run exactly, on 2x2 integer matrices over one common
denominator, and each result is rounded to float once, at the end.

All functions are pure; representations are immutable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
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
    CoveredElement,
    IDENTITY,
    Mat2,
    TAU_WINDING,
    inv2,
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

    def matches(self, m: Mat2, tol: float = TAU_CLASS) -> bool:
        (a, b), (c, d) = np.asarray(m, dtype=float).tolist()
        return (
            abs((a + d) - float(self.trace)) <= tol
            and abs((a * d - b * c) - float(self.det)) <= tol
        )


K_TAG = ConjClassTag(Fraction(5, 2), Fraction(1))
PIK_TAG = ConjClassTag(Fraction(-5, 2), Fraction(1))


@dataclass(frozen=True, eq=False)
class SurfaceGroupRep:
    """Genus plus generator matrices satisfying the surface relation.

    lifts holds the principal lifts (alpha_i, beta_i) of each pair
    (A_i, B_i), taken once while the rep is validated (the GL+ check); A
    and B are their frozen matrices.  defect is relation_defect of the rep.
    inverse_lifts holds (alpha_i^-1, beta_i^-1), taken once, on first use:
    after the defect check, each with lift_inv's check.  _of_lifts makes
    a rep of lifts, and inverse lifts, that a caller has already taken.
    """

    genus: int
    A: tuple
    B: tuple
    tolerance: float = TAU_REL
    defect: float = field(init=False)
    lifts: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise DomainError("genus must be a positive integer")
        if len(self.A) != self.genus or len(self.B) != self.genus:
            raise DomainError("need exactly genus matrices in A and in B")
        lifted = [principal_lift(m) for m in (*self.A, *self.B)]
        self._hold(tuple(zip(lifted[:self.genus], lifted[self.genus:])))

    @classmethod
    def _of_lifts(cls, lifts: tuple,
                  inverse_lifts: tuple | None = None) -> "SurfaceGroupRep":
        """The rep, at the default tolerance, of the principal lifts of its
        generator pairs and, if taken, their inverse pairs: the relation is
        checked, and no lift is taken again."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "genus", len(lifts))
        object.__setattr__(rep, "tolerance", TAU_REL)
        rep._hold(lifts)
        if inverse_lifts is not None:
            rep.__dict__["inverse_lifts"] = inverse_lifts  # the cached_property's slot
        return rep

    def _hold(self, lifts: tuple) -> None:
        """Keep the lift pairs, their matrices as A and B, and the defect
        of the relation, which must be finite and within the tolerance."""
        object.__setattr__(self, "lifts", lifts)
        object.__setattr__(self, "A", tuple(x.matrix for x, _ in lifts))
        object.__setattr__(self, "B", tuple(y.matrix for _, y in lifts))
        defect = relation_defect(self)
        if not math.isfinite(defect):
            raise InstabilityError(
                "non-finite relation product prod [A_i, B_i]: its float "
                "entries overflow"
            )
        if defect > self.tolerance:
            raise PreconditionError(
                f"surface relation violated: defect {defect:.3e} > "
                f"{self.tolerance}"
            )
        object.__setattr__(self, "defect", defect)

    @cached_property
    def inverse_lifts(self) -> tuple:
        return tuple((lift_inv(x), lift_inv(y)) for x, y in self.lifts)


def relation_defect(rep: SurfaceGroupRep) -> float:
    """Infinity-norm distance of prod [A_i, B_i] from the identity."""
    acc = IDENTITY
    # an overflowing product gives a non-finite defect, which the caller refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(rep.A, rep.B):
            acc = acc @ a @ b @ inv2(a) @ inv2(b)
    return float(np.max(np.abs(acc - IDENTITY)))


def trivial_representation(genus: int) -> SurfaceGroupRep:
    eye = tuple(np.eye(2) for _ in range(genus))
    return SurfaceGroupRep(genus, eye, eye)


def _relation_word(rep: SurfaceGroupRep) -> list:
    """The 4g letters alpha_1 beta_1 alpha_1^-1 beta_1^-1 ... of the
    relation, over principal lifts."""
    return [
        e for (x, y), (x_inv, y_inv) in zip(rep.lifts, rep.inverse_lifts)
        for e in (x, y, x_inv, y_inv)
    ]


def milnor_number(rep: SurfaceGroupRep) -> int:
    """delta = (lift of prod [alpha_i, beta_i]) / 2 pi, as an integer.

    Generators are taken at their principal lifts; any other lift gives the
    same answer because deck shifts are central and cancel in commutators.
    Each commutator is the lift_mul chain of its four relation letters.
    """
    word = _relation_word(rep)
    total = product_lift(
        [reduce(lift_mul, word[i:i + 4]) for i in range(0, len(word), 4)]
    )
    winding = total.lift / _TWO_PI
    n = round(winding)
    if abs(winding - n) >= TAU_WINDING:
        raise InstabilityError(
            f"winding residue {abs(winding - n):.3e} exceeds {TAU_WINDING}"
        )
    return n


def commutator_loop_path(rep: SurfaceGroupRep) -> Callable[[np.ndarray], Mat2]:
    """The closed path of the relation word alpha_1 beta_1 alpha_1^-1
    beta_1^-1 ... over principal lifts: word_path of its 4g letters."""
    return word_path(_relation_word(rep))


def winding_number(rep: SurfaceGroupRep) -> int:
    """Path-sampling route to delta: winding of the commutator loop.

    Independent of the lift arithmetic in milnor_number; the two must agree
    on every valid representation.
    """
    return lift_loop(SampledLoop.from_path(commutator_loop_path(rep)))


# -- class windows ------------------------------------------------------------

def _in_plain_class(x: CoveredElement) -> bool:
    return K_TAG.matches(x.matrix) and abs(x.lift) < math.pi / 2


# -- exact rational pipeline --------------------------------------------------
# Matrices in K have eigenvalues 2 and 1/2 (pi K: -1/2 and -2), so every
# conjugator in the chain construction is rational.  An exact matrix is an
# integer matrix over one common denominator, the 5-tuple (a, b, c, d, q)
# for [[a, b], [c, d]] / q with q > 0 and gcd(a, b, c, d, q) = 1: one
# canonical form, so equal matrices are equal tuples.  Running the chain
# this way keeps the surface relation exact no matter how many stages are
# stacked; entries are rounded to float once, at the CoveredElement
# boundary.

_A0_EXACT = (4, 0, 0, 1, 2)
_A1_EXACT = (-5, 9, -6, 10, 2)
_K_EIGS = ((2, 1), (1, 2))      # eigenvalues as (numerator, denominator)
_PIK_EIGS = ((-1, 2), (-2, 1))


def _canonical(a: int, b: int, c: int, d: int, q: int) -> tuple:
    if q < 0:
        a, b, c, d, q = -a, -b, -c, -d, -q
    g = math.gcd(a, b, c, d, q)
    return a // g, b // g, c // g, d // g, q // g


def _fmul(x: tuple, y: tuple) -> tuple:
    a, b, c, d, q = x
    e, f, g, h, r = y
    return _canonical(
        a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, q * r
    )


def _fdet(x: tuple) -> int:
    """ad - bc: the determinant times q^2, so it has the determinant's sign."""
    a, b, c, d, _ = x
    return a * d - b * c


def _finv(x: tuple) -> tuple:
    a, b, c, d, q = x
    return _canonical(d * q, -b * q, -c * q, a * q, _fdet(x))


def _fneg(x: tuple) -> tuple:
    a, b, c, d, q = x
    return -a, -b, -c, -d, q


def _fconj(s: tuple, m: tuple) -> tuple:
    return _fmul(_fmul(s, m), _finv(s))


def _trace_det(x: tuple) -> tuple:
    """Trace and determinant of an exact matrix, as Fractions."""
    q = x[4]
    return Fraction(x[0] + x[3], q), Fraction(_fdet(x), q * q)


def _ffloat(x: tuple) -> Mat2:
    """The float matrix of an exact one: the exact pipeline's one float
    boundary.  int / int true division is correctly rounded."""
    a, b, c, d, q = x
    if any(abs(v) > MAX_FLOAT_ENTRY * q for v in (a, b, c, d)):
        raise InstabilityError(
            "exact entry exceeds MAX_FLOAT_ENTRY = 1e150; float products overflow"
        )
    return np.array([[a / q, b / q], [c / q, d / q]])


def _fexact(m: Mat2) -> tuple:
    """The binary-rational value of a float matrix, entry by entry."""
    ratios = [float(v).as_integer_ratio() for v in np.ravel(m)]
    q = math.lcm(*(den for _, den in ratios))
    return _canonical(*(num * (q // den) for num, den in ratios), q)


def _primitive(vec: tuple) -> tuple:
    """Scale a nonzero integer vector to a primitive one, first nonzero
    entry positive."""
    g = math.gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def _f_eigenvector(m: tuple, lam: tuple) -> tuple:
    """Primitive integer eigenvector of m for the eigenvalue num / den."""
    a, b, c, d, q = m
    num, den = lam
    v1 = (b * den, num * q - a * den)
    v2 = (num * q - d * den, c * den)
    v = v1 if any(v1) else v2
    if not any(v):
        raise InternalConsistencyError("matrix is a multiple of the identity")
    return _primitive(v)


def _f_conjugator(vm: list, vn: list) -> tuple:
    """Primitive integer S with det(S) > 0 and S m S^-1 = n, exactly, from
    eigenvectors vm of m and vn of n for the same eigenvalues: S is
    (vn columns) adj(vm columns) up to scale, with vn[0] flipped if needed."""
    (x0, y0), (x1, y1) = vm
    (u0, w0), (u1, w1) = vn
    sign = (x0 * y1 - x1 * y0) * (u0 * w1 - u1 * w0)
    if sign == 0:
        raise InternalConsistencyError("exact conjugator has nonpositive det")
    if sign < 0:
        u0, w0 = -u0, -w0
    return _primitive((
        u0 * y1 - u1 * y0, u1 * x0 - u0 * x1,
        w0 * y1 - w1 * y0, w1 * x0 - w0 * x1,
    )) + (1,)


def _eigenbasis(m: tuple, eigs: tuple) -> list:
    return [_f_eigenvector(m, lam) for lam in eigs]


_SEED_EIGENBASIS = _eigenbasis(_fmul(_A0_EXACT, _A1_EXACT), _PIK_EIGS)


def _productmil_exact(target: tuple) -> tuple:
    """Exact factorisation of a pi K matrix as a product of two K matrices."""
    s = _f_conjugator(_SEED_EIGENBASIS, _eigenbasis(target, _PIK_EIGS))
    m1 = _fconj(s, _A0_EXACT)
    m2 = _fconj(s, _A1_EXACT)
    if _fmul(m1, m2) != target:
        raise InternalConsistencyError("exact product factorisation drifted")
    return m1, m2


def _commutator_exact(target: tuple) -> tuple:
    """Exact (b1, b2) with b1 b2 b1^-1 b2^-1 equal to the pi K target."""
    b1, b3 = _productmil_exact(target)
    # the eigenvectors of b1^-1 for 2 and 1/2 are those of b1 for 1/2 and 2
    s = _f_conjugator(_eigenbasis(b1, _K_EIGS[::-1]), _eigenbasis(b3, _K_EIGS))
    comm = _fmul(_fmul(_fmul(b1, s), _finv(b1)), _finv(s))
    if comm != target:
        raise InternalConsistencyError("exact commutator drifted")
    return b1, s


def _height(x: tuple) -> float:
    """The largest |entry| of an exact matrix, as a float."""
    return max(abs(v) for v in x[:4]) / x[4]


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
    acc = (1, 0, 0, 1, 1)
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
    if _fdet(m) <= 0:
        raise InternalConsistencyError("exact matrix has nonpositive det")
    if plain_class and _trace_det(m) != (K_TAG.trace, K_TAG.det):
        raise InternalConsistencyError("exact matrix left the K class")
    raise InstabilityError(
        "float rounding of an exact matrix fails its GL+ or K check; "
        f"largest entry {_height(m):.6g}"
    )


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
    lifts = [
        (_cover_exact(b1, plain_class=True), _cover_exact(b2))
        for b1, b2 in pairs
    ]
    inverses = [(lift_inv(a), lift_inv(b)) for a, b in lifts]
    total = product_lift([reduce(lift_mul, (*pair, *inverse))
                          for pair, inverse in zip(lifts, inverses)])
    if abs(total.lift - _TWO_PI * degree) > 1e-6:
        raise InternalConsistencyError("assembled core has the wrong degree")

    padding = [(principal_lift(np.eye(2)), principal_lift(np.eye(2)))
               for _ in range(genus - len(pairs))]
    inverses += [(lift_inv(a), lift_inv(b)) for a, b in padding]
    return SurfaceGroupRep._of_lifts(tuple(lifts + padding), tuple(inverses))


def flip_orientation(rep: SurfaceGroupRep) -> SurfaceGroupRep:
    """Reverse the generator pairs and swap each (A_i, B_i).

    [B, A] = [A, B]^-1, so the reversed-and-swapped word inverts the
    relation product: the relation is preserved and delta is negated.
    The lifts, and the inverse lifts if rep has taken them, are rep's.
    """
    taken = rep.__dict__.get("inverse_lifts")
    return SurfaceGroupRep._of_lifts(
        _reversed_swapped(rep.lifts),
        None if taken is None else _reversed_swapped(taken),
    )


def _reversed_swapped(pairs: tuple) -> tuple:
    return tuple((y, x) for x, y in reversed(pairs))


def conjugate_representation(rep: SurfaceGroupRep, s: Mat2) -> SurfaceGroupRep:
    """Conjugate every generator by s (det s > 0); delta is unchanged.

    Float entries are binary rationals, so the conjugation is carried out
    exactly, on integer matrices over one common denominator, and rounded
    once at the end; chained float products would otherwise push
    large-entry representations past the relation tolerance.
    """
    s_exact = _fexact(principal_lift(s).matrix)  # principal_lift checks GL+

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
    """The rep of a payload; a float or bool genus and bool entries are refused."""
    try:
        genus = data["genus"]
        if isinstance(genus, (bool, float)):
            raise DomainError(f"genus is {json.dumps(genus)}, not an integer")
        genus = int(genus)
        a = [np.array(row, dtype=float).reshape(2, 2) for row in data["A"]]
        b = [np.array(row, dtype=float).reshape(2, 2) for row in data["B"]]
        for side in "AB":
            for i, row in enumerate(data[side]):
                if any(isinstance(v, bool) for v in np.array(row, dtype=object).flat):
                    raise DomainError(f"{side}[{i}] has a boolean entry, not a number")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed representation payload: {exc}") from exc
    return SurfaceGroupRep(genus, tuple(a), tuple(b), tolerance=tolerance)
