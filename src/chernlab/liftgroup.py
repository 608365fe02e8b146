"""Arithmetic in the universal cover of GL+(2, R).

Conventions
-----------
A 2x2 matrix A = [[a, b], [c, d]] with det A > 0 has a unique polar
factorisation A = R(phi) P with P symmetric positive definite and

    R(phi) = [[cos phi, sin phi], [-sin phi, cos phi]].

The rotation angle satisfies phi = atan2(b - c, a + d); ``retract`` returns
it in (-pi, pi].  An element of the universal cover is stored as a pair
(matrix, lift) where ``lift`` is any real number congruent to
retract(matrix) mod 2*pi.  Multiplication picks the unique lift of the
product within pi/2 of the sum of the factors' lifts; that window is always
wide enough because the lift defect of a product is strictly below pi/2.

Deck transformations are central and act by (M, u) -> (R(n*pi) M, u + n*pi).

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InstabilityError, SubdivisionError

Mat2 = np.ndarray

TAU_ANGLE = 1e-9       # rotation-consistency tolerance for stored lifts
TAU_WINDING = 1e-3     # max residue when rounding a winding to an integer
EPS_GUARD = 1e-6       # defect guard distance from pi/2 in lift_mul
CLOSURE_TOL = 1e-6     # endpoint tolerance for sampled loops

_TWO_PI = 2.0 * math.pi

IDENTITY: Mat2 = np.eye(2)


def rotation(angle: float) -> Mat2:
    """The rotation R(angle) = [[cos, sin], [-sin, cos]]."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def wrap_angle(a: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    w = math.remainder(a, _TWO_PI)
    if w <= -math.pi:
        w += _TWO_PI
    return w


def det2(m: Mat2) -> float:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inv2(m: Mat2) -> Mat2:
    """Inverse of a 2x2 matrix by the adjugate formula."""
    d = det2(m)
    if d == 0.0:
        raise DomainError("matrix is singular")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / d


def check_positive_det(m: Mat2) -> None:
    """Assert membership in GL+(2, R)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix has non-finite entries")
    if det2(m) <= 0.0:
        raise DomainError(f"determinant {det2(m)} is not positive")
    # automatic given det > 0, but asserted anyway
    x = m[0, 0] + m[1, 1]
    y = m[0, 1] - m[1, 0]
    if x * x + y * y <= 0.0:
        raise DomainError("degenerate rotation part")


def retract(m: Mat2) -> float:
    """Rotation angle of the polar factorisation, in (-pi, pi]."""
    m = np.asarray(m, dtype=float)
    check_positive_det(m)
    x = m[0, 0] + m[1, 1]
    y = m[0, 1] - m[1, 0]
    return math.atan2(y, x)


def polar_parts(m: Mat2) -> tuple[float, Mat2]:
    """Angle and SPD factor of m = R(angle) @ P."""
    angle = retract(m)
    p = rotation(-angle) @ m
    return angle, (p + p.T) / 2.0


def spd_power(p: Mat2, t: float) -> Mat2:
    """Fractional power of a symmetric positive definite matrix."""
    w, q = np.linalg.eigh(p)
    if np.any(w <= 0.0):
        raise DomainError("matrix is not positive definite")
    return (q * w**t) @ q.T


def canonical_path(m: Mat2, lift: float | None = None) -> Callable[[float], Mat2]:
    """Path t -> R(t * lift) P^t from the identity to m.

    Stays inside GL+(2, R); its retract angle lifts continuously to
    t * lift, so the path represents the cover element (m, lift).  With the
    default lift = retract(m) it represents the principal lift.
    """
    m = np.array(m, dtype=float)
    angle, p = polar_parts(m)
    if lift is None:
        lift = angle
    elif abs(wrap_angle(lift - angle)) > TAU_ANGLE:
        raise DomainError("lift is inconsistent with the rotation part")
    w, q = np.linalg.eigh(p)
    if np.any(w <= 0.0):
        raise DomainError("polar factor is not positive definite")
    logw = np.log(w)

    def path(t: float) -> Mat2:
        # endpoints are returned exactly: loops built from words of these
        # paths then close bit-exactly instead of up to eigh roundoff
        if t == 0.0:
            return IDENTITY
        if t == 1.0:
            return m
        return rotation(t * lift) @ ((q * np.exp(t * logw)) @ q.T)

    return path


@dataclass(frozen=True, eq=False)
class CoveredElement:
    """Element of the universal cover: (matrix in GL+(2, R), angle lift)."""

    matrix: Mat2
    lift: float

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        check_positive_det(m)
        drift = abs(wrap_angle(self.lift - retract(m)))
        if drift > TAU_ANGLE:
            raise DomainError(
                f"lift {self.lift} is off the retract angle by {drift:.3e}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __mul__(self, other: "CoveredElement") -> "CoveredElement":
        return lift_mul(self, other)

    def inverse(self) -> "CoveredElement":
        return lift_inv(self)

    def __repr__(self) -> str:
        e = self.matrix.ravel()
        return (
            f"CoveredElement([[{e[0]:.6g}, {e[1]:.6g}], "
            f"[{e[2]:.6g}, {e[3]:.6g}]], lift={self.lift:.6g})"
        )


COVER_IDENTITY = CoveredElement(IDENTITY, 0.0)


def principal_lift(m: Mat2) -> CoveredElement:
    """The lift of m with angle in (-pi, pi]."""
    return CoveredElement(np.asarray(m, dtype=float), retract(m))


def lift_mul(x: CoveredElement, y: CoveredElement) -> CoveredElement:
    """Product in the universal cover.

    The lift of the product is the unique lift of retract(XY) inside the
    open window (x.lift + y.lift - pi/2, x.lift + y.lift + pi/2).  If the
    defect lands within EPS_GUARD of the window edge the factor y is split
    into its rotation part (exact) and square roots of its SPD part.
    """
    product = x.matrix @ y.matrix
    base = retract(product)
    target = x.lift + y.lift
    k = round((target - base) / _TWO_PI)
    u = base + _TWO_PI * k
    if abs(u - target) <= TAU_ANGLE:
        # zero-defect product (rotations, inverses, deck shifts): keep the
        # lift arithmetic exact instead of reintroducing atan2 rounding
        return CoveredElement(product, target)
    if abs(u - target) < math.pi / 2.0 - EPS_GUARD:
        return CoveredElement(product, u)
    return _split_mul(x, y)


def _split_mul(x: CoveredElement, y: CoveredElement) -> CoveredElement:
    _, p = polar_parts(y.matrix)
    acc = lift_mul_rotation(x, y.lift)
    return _mul_spd(acc, p, depth=0)


def _mul_spd(x: CoveredElement, p: Mat2, depth: int) -> CoveredElement:
    product = x.matrix @ p
    base = retract(product)
    k = round((x.lift - base) / _TWO_PI)
    u = base + _TWO_PI * k
    if abs(u - x.lift) <= TAU_ANGLE:
        return CoveredElement(product, x.lift)
    if abs(u - x.lift) < math.pi / 4.0:
        return CoveredElement(product, u)
    if depth >= 60:
        raise InstabilityError("split multiplication failed to converge")
    root = spd_power(p, 0.5)
    return _mul_spd(_mul_spd(x, root, depth + 1), root, depth + 1)


def lift_inv(x: CoveredElement) -> CoveredElement:
    """Inverse in the cover; lifts negate exactly."""
    return CoveredElement(inv2(x.matrix), -x.lift)


def lift_commutator(x: CoveredElement, y: CoveredElement) -> CoveredElement:
    """x y x^-1 y^-1 computed by lift_mul chains."""
    return lift_mul(lift_mul(lift_mul(x, y), lift_inv(x)), lift_inv(y))


def deck_shift(x: CoveredElement, n: int) -> CoveredElement:
    """Multiply by the central lift of rotation by n*pi.

    R(n*pi) is +I or -I exactly, so the matrix part stays float-exact.
    """
    m = x.matrix if n % 2 == 0 else -x.matrix
    return CoveredElement(m, x.lift + n * math.pi)


def lift_mul_rotation(x: CoveredElement, angle: float) -> CoveredElement:
    """Right-multiply by the lift of R(angle) over angle itself; lifts add
    with zero defect."""
    return CoveredElement(x.matrix @ rotation(angle), x.lift + angle)


def product_lift(elements: Sequence[CoveredElement]) -> CoveredElement:
    """Left-to-right lift_mul of a word; identity for the empty word."""
    acc = COVER_IDENTITY
    for e in elements:
        acc = lift_mul(acc, e)
    return acc


@dataclass(frozen=True)
class SampledLoop:
    """Closed loop of matrices starting and ending at the identity.

    Consecutive samples must be closer than pi/2 in retract angle; the
    ``from_path`` constructor refines the parameter grid until they are.
    """

    samples: tuple = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise DomainError("a loop needs at least two samples")
        for endpoint in (self.samples[0], self.samples[-1]):
            if np.max(np.abs(endpoint - IDENTITY)) > CLOSURE_TOL:
                raise DomainError("loop endpoints must be the identity")
        angles = [retract(m) for m in self.samples]
        for a, b in zip(angles, angles[1:]):
            if abs(wrap_angle(b - a)) >= math.pi / 2.0:
                raise DomainError(
                    "consecutive samples are more than pi/2 apart; "
                    "use SampledLoop.from_path for adaptive refinement"
                )

    def __len__(self) -> int:
        return len(self.samples)

    @classmethod
    def from_path(
        cls,
        path: Callable[[float], Mat2],
        initial_samples: int = 64,
        max_depth: int = 60,
    ) -> "SampledLoop":
        """Sample path on [0, 1] with margin-aware bisection.

        The rotation angle of a sample is the argument of the plane point
        P = (a+d, b-c); it can swing arbitrarily fast where the path comes
        close to P = 0.  An interval is accepted only when the sampled
        polyline through its midpoint is short against the smallest |P|
        seen, which bounds the possible angle motion inside it; otherwise
        both halves are refined.  Stored samples are retracted to SO(2).
        """
        if initial_samples < 2:
            raise DomainError("need at least two initial samples")

        def point(t):
            m = np.asarray(path(t), dtype=float)
            x = float(m[0, 0] + m[1, 1])
            y = float(m[0, 1] - m[1, 0])
            return np.array([x, y])

        def refine(t0, p0, t1, p1, depth):
            tm = (t0 + t1) / 2.0
            pm = point(tm)
            polyline = np.hypot(*(pm - p0)) + np.hypot(*(p1 - pm))
            margin = min(np.hypot(*p0), np.hypot(*pm), np.hypot(*p1))
            if polyline <= 0.4 * margin:
                return [pm]
            if depth >= max_depth:
                raise SubdivisionError("loop refinement exceeded max depth")
            return (
                refine(t0, p0, tm, pm, depth + 1)
                + [pm]
                + refine(tm, pm, t1, p1, depth + 1)
            )

        ts = [i / initial_samples for i in range(initial_samples + 1)]
        points = [point(t) for t in ts]
        chain = [points[0]]
        for i in range(initial_samples):
            chain.extend(refine(ts[i], points[i], ts[i + 1], points[i + 1], 0))
            chain.append(points[i + 1])
        samples = []
        for x, y in chain:
            n = math.hypot(x, y)
            if n == 0.0 or not math.isfinite(n):
                raise SubdivisionError("degenerate rotation part on the loop")
            c, s = x / n, y / n
            samples.append(np.array([[c, s], [-s, c]]))
        return cls(tuple(samples))


def lift_loop(loop: SampledLoop) -> int:
    """Winding number of the retract angle along a closed loop."""
    angles = [retract(m) for m in loop.samples]
    total = 0.0
    for a, b in zip(angles, angles[1:]):
        total += wrap_angle(b - a)
    winding = total / _TWO_PI
    n = round(winding)
    if abs(winding - n) >= TAU_WINDING:
        raise SubdivisionError(
            f"winding residue {abs(winding - n):.3e} exceeds {TAU_WINDING}"
        )
    return n


def word_path(
    elements: Sequence[CoveredElement],
) -> Callable[[float], Mat2]:
    """Pointwise product of the canonical paths of a word's letters.

    At t = 1 the path reaches the product matrix; if the word projects to
    the identity the result is a loop whose winding equals the central lift
    of the product divided by 2*pi.  Each letter's path realises that
    letter's stored lift, deck shifts included.
    """
    paths = [canonical_path(e.matrix, e.lift) for e in elements]

    def f(t: float) -> Mat2:
        acc = IDENTITY
        for p in paths:
            acc = acc @ p(t)
        return acc

    return f
