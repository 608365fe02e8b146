"""Arithmetic in the universal cover of GL+(2, R).

Conventions
-----------
A 2x2 matrix A = [[a, b], [c, d]] with det A > 0 has a unique polar
factorisation A = R(phi) P with P symmetric positive definite and

    R(phi) = [[cos phi, sin phi], [-sin phi, cos phi]].

The rotation angle satisfies phi = atan2(b - c, a + d); ``retract`` returns
it in (-pi, pi].  An element of the universal cover is stored as a pair
(matrix, lift) where ``lift`` is any real number congruent to
retract(matrix) mod 2*pi.  Multiplication picks the lift of the product
nearest to the sum of the factors' lifts.  That is the right lift because
the lift defect of a product is strictly below pi/2: for A = R(alpha) P and
B = R(beta) Q, AB = R(alpha + beta) P'Q with P' = R(-beta) P R(beta), and
P' and Q are both SPD, so tr(P'Q) > 0 and the rotation angle of P'Q lies in
(-pi/2, pi/2).  Candidate lifts are 2*pi apart, so only a float angle error
above pi/2 could make the nearest one wrong.

Deck transformations are central and act by (M, u) -> (R(n*pi) M, u + n*pi).

Each element is checked once.  principal_lift and lift_mul are valid by
construction: one retract of their own fresh array, stored frozen with a
lift chosen from that angle.  The public constructor copies and checks
every other (matrix, lift): outside input, lift_inv (inv2 can overflow),
deck_shift and lift_mul_rotation (lifts off the retract by atan2 rounding).
Likewise SampledLoop.from_path stores the rotations it refines as they
are and checks only that the loop closes; other samples get every check.

A single matrix is checked, retracted and inverted on its four entries,
read once as Python floats: the same IEEE operations numpy would apply
elementwise, without its per-call overhead on 2x2 arrays.  A determinant
that is not > 0 is refused, including the nan of inf - inf when the
products of huge entries overflow.

Paths are batched: word_path, the one path constructor, maps t of any
shape (...) to matrices of shape (..., 2, 2), elementwise equal to
evaluation at each scalar t; a scalar t gives one 2x2 matrix.  The loop
of a word concatenates its letters' paths.  word_path decomposes all its
letters in one stacked pass (the GL+ checks of retract, the angles, the
SPD factors, one eigh) and folds each letter's factors into one 4x4
coefficient block, so a batch of t costs one gather and one stacked
product.  SampledLoop.from_path refines the winding oracle's loop one
level at a time, evaluating the midpoints of all pending intervals in
blocks of at most 256 values of t, and gives up past MAX_LOOP_SAMPLES
samples or MAX_LOOP_DEPTH levels.  It keeps each sample's plane point as
a complex number together with its norm, so a level takes the norms of
its new midpoints only.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InstabilityError, SubdivisionError

Mat2 = np.ndarray

TAU_ANGLE = 1e-9       # rotation-consistency tolerance for stored lifts
TAU_WINDING = 1e-3     # max residue when rounding a winding to an integer
CLOSURE_TOL = 1e-6     # endpoint tolerance for sampled loops
MAX_LOOP_SAMPLES = 2**15  # samples of one loop before refinement gives up
MAX_LOOP_DEPTH = 60       # bisection levels before refinement gives up

_PATH_BLOCK = 256      # values of t per batched path call in from_path

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
    """Determinant of a 2x2 matrix, or of each in a stack (..., 2, 2)."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _entries(m: Mat2) -> tuple[float, float, float, float]:
    """The entries a, b, c, d of one 2x2 matrix [[a, b], [c, d]], as Python
    floats."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    return a, b, c, d


def _gl_plus_entries(m: Mat2) -> tuple[float, float, float, float]:
    """The entries of m, once m passes the GL+(2, R) checks."""
    a, b, c, d = _entries(m)
    if not (math.isfinite(a) and math.isfinite(b)
            and math.isfinite(c) and math.isfinite(d)):
        raise DomainError("matrix has non-finite entries")
    det = a * d - b * c
    if not det > 0.0:  # a nan det (inf - inf) is refused too
        raise DomainError(f"determinant {det} is not positive")
    # automatic given det > 0, but asserted anyway
    x, y = a + d, b - c
    if x * x + y * y <= 0.0:
        raise DomainError("degenerate rotation part")
    return a, b, c, d


def inv2(m: Mat2) -> Mat2:
    """Inverse of one 2x2 matrix, by the adjugate formula."""
    a, b, c, d = _entries(m)
    det = a * d - b * c
    if det == 0.0:
        raise DomainError("matrix is singular")
    if not math.isfinite(det):
        raise DomainError(f"determinant {det} is not finite")
    return np.array([[d / det, -b / det], [-c / det, a / det]])


def retract(m: Mat2) -> float:
    """Rotation angle of the polar factorisation, in (-pi, pi]."""
    a, b, c, d = _gl_plus_entries(m)
    return math.atan2(b - c, a + d)


@dataclass(frozen=True, eq=False)
class CoveredElement:
    """Element of the universal cover: (matrix in GL+(2, R), angle lift)."""

    matrix: Mat2
    lift: float

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        drift = abs(wrap_angle(self.lift - retract(m)))
        if drift > TAU_ANGLE:
            raise DomainError(
                f"lift {self.lift} is off the retract angle by {drift:.3e}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _checked(cls, m: Mat2, lift: float) -> "CoveredElement":
        """(m, lift) stored as is, m frozen in place: m is a fresh float
        array that passed retract, and lift is congruent to its angle."""
        m.flags.writeable = False
        x = object.__new__(cls)
        object.__setattr__(x, "matrix", m)
        object.__setattr__(x, "lift", lift)
        return x

    def __repr__(self) -> str:
        e = self.matrix.ravel()
        return (
            f"CoveredElement([[{e[0]:.6g}, {e[1]:.6g}], "
            f"[{e[2]:.6g}, {e[3]:.6g}]], lift={self.lift:.6g})"
        )


COVER_IDENTITY = CoveredElement(IDENTITY, 0.0)


def principal_lift(m: Mat2) -> CoveredElement:
    """The lift of m with angle in (-pi, pi]; m is copied, not frozen."""
    m = np.array(m, dtype=float)
    return CoveredElement._checked(m, retract(m))


def lift_mul(x: CoveredElement, y: CoveredElement) -> CoveredElement:
    """Product in the universal cover.

    The lift of the product is the lift of retract(XY) nearest to
    x.lift + y.lift.  With X = R(alpha) P and Y = R(beta) Q in polar form,
    XY = R(alpha + beta) P'Q where P' = R(-beta) P R(beta); P' and Q are
    SPD, so tr(P'Q) > 0 and the defect lies in (-pi/2, pi/2), while the
    candidate lifts are 2*pi apart.  A float product that leaves GL+ lost
    its determinant to rounding: an InstabilityError, not bad input.
    """
    product = x.matrix @ y.matrix
    try:
        base = retract(product)
    except DomainError as exc:
        raise InstabilityError(
            f"float product of two GL+ matrices left GL+ ({exc}); largest "
            f"entry {np.max(np.abs(product)):.6g}"
        ) from exc
    target = x.lift + y.lift
    u = base + _TWO_PI * round((target - base) / _TWO_PI)
    if abs(u - target) <= TAU_ANGLE:
        # zero-defect product (rotations, inverses, deck shifts): keep the
        # lift arithmetic exact instead of reintroducing atan2 rounding
        u = target
    return CoveredElement._checked(product, u)


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


def _rotation_stack(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The matrices [[c, s], [-s, c]], stacked over the shape of c and s."""
    out = np.empty(np.shape(c) + (2, 2))
    out[..., 0, 0], out[..., 0, 1] = c, s
    out[..., 1, 0], out[..., 1, 1] = -s, c
    return out


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| of complex plane points: np.hypot of the parts, as for a pair."""
    return np.hypot(z.real, z.imag)


def _wrapped_gaps(samples: np.ndarray) -> np.ndarray:
    """Retract-angle steps between consecutive samples, in (-pi, pi]."""
    angles = np.arctan2(
        samples[:, 0, 1] - samples[:, 1, 0], samples[:, 0, 0] + samples[:, 1, 1]
    )
    gaps = np.diff(angles)  # in (-2pi, 2pi), so one turn corrects it
    return np.where(gaps > math.pi, gaps - _TWO_PI,
                    np.where(gaps <= -math.pi, gaps + _TWO_PI, gaps))


def _plane_points(path: Callable, t: np.ndarray) -> np.ndarray:
    """The plane points P = (a + d) + i (b - c) of path(t), as complex
    numbers, from batched calls of at most _PATH_BLOCK values of t each."""
    out = np.empty(len(t), dtype=complex)
    for lo in range(0, len(t), _PATH_BLOCK):
        block = t[lo:lo + _PATH_BLOCK]
        m = np.asarray(path(block), dtype=float)
        if m.shape != block.shape + (2, 2):
            raise DomainError(
                f"a batched path maps t of shape {block.shape} to matrices "
                f"of shape {block.shape + (2, 2)}, got {m.shape}"
            )
        p = out[lo:lo + len(block)]
        p.real = m[:, 0, 0] + m[:, 1, 1]
        p.imag = m[:, 0, 1] - m[:, 1, 0]
        if not np.all(np.isfinite(p)):
            raise SubdivisionError("non-finite path value on the loop")
    return out


def _within_sample_cap(count: int) -> int:
    if count > MAX_LOOP_SAMPLES:
        raise SubdivisionError(
            f"loop refinement exceeded MAX_LOOP_SAMPLES = {MAX_LOOP_SAMPLES} samples"
        )
    return count


def _check_closed(s: np.ndarray) -> None:
    if np.max(np.abs(s[[0, -1]] - IDENTITY)) > CLOSURE_TOL:
        raise DomainError("loop endpoints must be the identity")


@dataclass(frozen=True, eq=False)
class SampledLoop:
    """Closed loop of matrices starting and ending at the identity.

    The samples are one read-only array of shape (N, 2, 2); any sequence of
    2x2 matrices is accepted.  Consecutive samples must be closer than pi/2
    in retract angle; the ``from_path`` constructor refines the parameter
    grid until they are.
    """

    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        try:
            s = np.array(self.samples, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"loop samples must be 2x2 matrices: {exc}") from exc
        if s.ndim == 0 or len(s) < 2:
            raise DomainError("a loop needs at least two samples")
        if s.shape[1:] != (2, 2):
            raise DomainError(f"loop samples must be 2x2 matrices, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise DomainError("loop samples have non-finite entries")
        det = det2(s)
        if np.any(det <= 0.0):
            i = int(np.argmax(det <= 0.0))
            raise DomainError(f"determinant {det[i]} of sample {i} is not positive")
        _check_closed(s)
        if np.any(np.abs(_wrapped_gaps(s)) >= math.pi / 2.0):
            raise DomainError(
                "consecutive samples are more than pi/2 apart; "
                "use SampledLoop.from_path for adaptive refinement"
            )
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    @classmethod
    def _checked(cls, s: np.ndarray) -> "SampledLoop":
        """s stored as is, frozen in place: s is a fresh stack of at least
        two rotations, finite with determinant 1, whose angle gaps the
        refinement of from_path keeps below arcsin 0.4 < pi/2.  Only the
        closure is checked, since the sample at t = 1 is a float product."""
        _check_closed(s)
        s.flags.writeable = False
        x = object.__new__(cls)
        object.__setattr__(x, "samples", s)
        return x

    def __len__(self) -> int:
        return len(self.samples)

    @classmethod
    def from_path(
        cls,
        path: Callable[[np.ndarray], Mat2],
        initial_samples: int = 64,
    ) -> "SampledLoop":
        """Sample a batched path on [0, 1], refining one level at a time.

        path maps t of shape (n,) to matrices of shape (n, 2, 2), as
        word_path does.  The rotation angle of a sample is the argument
        of the plane point P = (a+d, b-c); it can swing arbitrarily fast
        where the path comes close to P = 0.  An interval is accepted only
        when the sampled polyline through its midpoint is short against the
        smallest |P| seen (polyline <= 0.4 * margin), which bounds the
        possible angle motion inside it.

        Each level evaluates the midpoints of all pending intervals, in
        calls of at most 256 values of t, tests every interval with that
        rule and bisects all failing ones together.  Plane points are kept
        as complex numbers next to their norms |P| (np.hypot of the two
        parts, as for the pair), so a level takes the norms of its new
        midpoints only and carries 1-D arrays.  The same rule on the same
        dyadic intervals gives the sample set of a depth-first bisection;
        samples are stored sorted by t and retracted to SO(2).
        SubdivisionError: at the first non-finite path value, when an
        interval still fails at level MAX_LOOP_DEPTH, or when the loop would
        exceed MAX_LOOP_SAMPLES samples.
        """
        if initial_samples < 2:
            raise DomainError("need at least two initial samples")
        # the grid and its midpoints, then two new samples per bisection
        count = _within_sample_cap(2 * initial_samples + 1)
        ts = np.arange(initial_samples + 1) / initial_samples
        ps = _plane_points(path, ts)
        ns = _abs(ps)
        t_parts, p_parts, n_parts = [ts], [ps], [ns]
        t0, t1, p0, p1, n0, n1 = ts[:-1], ts[1:], ps[:-1], ps[1:], ns[:-1], ns[1:]
        depth = 0
        while True:
            tm = (t0 + t1) / 2.0
            pm = _plane_points(path, tm)
            nm = _abs(pm)
            t_parts.append(tm)
            p_parts.append(pm)
            n_parts.append(nm)
            polyline = _abs(pm - p0) + _abs(p1 - pm)
            margin = np.minimum(np.minimum(n0, nm), n1)
            bad = ~(polyline <= 0.4 * margin)
            if not bad.any():
                break
            if depth >= MAX_LOOP_DEPTH:
                raise SubdivisionError("loop refinement exceeded max depth")
            count = _within_sample_cap(count + 2 * np.count_nonzero(bad))
            depth += 1
            tm, pm, nm = tm[bad], pm[bad], nm[bad]
            t0, t1 = np.concatenate([t0[bad], tm]), np.concatenate([tm, t1[bad]])
            p0, p1 = np.concatenate([p0[bad], pm]), np.concatenate([pm, p1[bad]])
            n0, n1 = np.concatenate([n0[bad], nm]), np.concatenate([nm, n1[bad]])
        order = np.argsort(np.concatenate(t_parts))
        p, n = np.concatenate(p_parts)[order], np.concatenate(n_parts)[order]
        if np.any(n == 0.0) or not np.all(np.isfinite(n)):
            raise SubdivisionError("degenerate rotation part on the loop")
        return cls._checked(_rotation_stack(p.real / n, p.imag / n))


def lift_loop(loop: SampledLoop) -> int:
    """Winding number of the retract angle along a closed loop."""
    winding = float(np.sum(_wrapped_gaps(loop.samples))) / _TWO_PI
    n = round(winding)
    if abs(winding - n) >= TAU_WINDING:
        raise SubdivisionError(
            f"winding residue {abs(winding - n):.3e} exceeds {TAU_WINDING}"
        )
    return n


def _gl_plus_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plane points x = a + d, y = b - c of a stack (n, 2, 2) of
    matrices that pass retract's GL+ checks, run on the whole stack; the
    first matrix that fails raises retract's message."""
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    x, y = a + d, b - c
    with np.errstate(over="ignore", invalid="ignore"):
        ok = (np.isfinite(m).all(axis=(1, 2)) & (a * d - b * c > 0.0)
              & (x * x + y * y > 0.0))
    if not ok.all():
        _gl_plus_entries(m[np.argmin(ok)])  # raises retract's message
    return x, y


def word_path(
    elements: Sequence[CoveredElement],
) -> Callable[[np.ndarray], Mat2]:
    """Concatenation of the paths of a word's letters.

    Letter j of n, with polar parts R(lift) P, moves on [j/n, (j+1)/n]
    on top of the float product of the letters before it: on the first
    half it rotates along R(2s * lift), s in [0, 1/2], and on the second
    it stretches along R(lift) P^(2s - 1), s in [1/2, 1].  Exact (I, 0)
    letters are constant and dropped first.  Split so, the relative speed
    of the path is bounded by |lift| + |log P|, with no factor cond(P)
    that would let the plane point jump between neighbouring floats of t
    for large letters.  Each letter realises its stored lift, deck shifts
    included, and t = 1 gives the product exactly: if the word projects to
    the identity, the loop winds by the central lift of the product over
    2*pi.

    The letters are decomposed together, as one stack: retract's GL+
    checks, the atan2 angles, the SPD factors P = R(-angle) M and one eigh
    P = sum_m w_m q_m q_m^T.  With R(theta) = cos(theta) I + sin(theta) J,
    letter k at t is sum_{m, f} f(theta) w_m^stretch C[k, m, f], where
    C[k, m, f] = prefix_k F_f q_m q_m^T for (f, F) in ((cos, I), (sin, J)),
    so a batch of t costs one gather of C and one (N, 1, 4) @ (N, 4, 4)
    product.
    """
    letters = [
        e for e in elements
        if e.lift != 0.0 or not np.array_equal(e.matrix, IDENTITY)
    ] or [COVER_IDENTITY]  # a word of only (I, 0) letters keeps one
    n = len(letters)
    m = np.array([e.matrix for e in letters])
    x, y = _gl_plus_stack(m)
    angle = np.arctan2(y, x)
    cos, sin = np.cos(angle), np.sin(angle)
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    spd = np.empty_like(m)  # (P + P^T) / 2 for P = R(-angle) M
    spd[:, 0, 0], spd[:, 1, 1] = cos * a - sin * c, sin * b + cos * d
    spd[:, 0, 1] = spd[:, 1, 0] = ((cos * b - sin * d) + (sin * a + cos * c)) / 2.0
    w, q = np.linalg.eigh(spd)
    if np.any(w <= 0.0):
        raise DomainError("polar factor is not positive definite")
    lift, logw = np.array([e.lift for e in letters]), np.log(w)
    prefix = np.array(list(accumulate(m, np.matmul, initial=IDENTITY)))
    # prefix_k I and prefix_k J, J = [[0, 1], [-1, 0]] (exact: a column swap)
    base = np.stack([prefix[:n], prefix[:n, :, ::-1] * [-1.0, 1.0]], axis=1)
    qt = q.swapaxes(1, 2)  # qt[k, m] is the eigenvector q_m
    projector = qt[:, :, :, None] * qt[:, :, None, :]
    coeffs = (base[:, None] @ projector[:, :, None]).reshape(n, 4, 4)

    def path(t) -> Mat2:
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        k = np.minimum(np.floor(flat * n), n - 1).astype(np.intp)
        s2 = 2.0 * (flat * n - k)  # twice the local parameter s
        theta = np.minimum(s2, 1.0) * lift[k]
        stretch = np.exp(np.maximum(s2 - 1.0, 0.0)[:, None] * logw[k])
        v = np.empty((len(flat), 1, 2, 2))  # v[:, 0, m, f] = f(theta) w_m^stretch
        np.multiply(stretch, np.cos(theta)[:, None], out=v[:, 0, :, 0])
        np.multiply(stretch, np.sin(theta)[:, None], out=v[:, 0, :, 1])
        out = (v.reshape(-1, 1, 4) @ coeffs[k]).reshape(-1, 2, 2)
        # endpoints are returned exactly, so a word that multiplies to the
        # identity closes bit-exactly instead of up to eigh roundoff
        out[flat == 0.0] = IDENTITY
        out[flat == 1.0] = prefix[n]
        return out.reshape(t.shape + (2, 2))

    return path
