"""Chart-local differential geometry.

A manifold is a single coordinate chart: an open box, optionally with
periodic axes (tori) or a deleted point (punctured spaces).  Connections
are Christoffel-symbol fields Gamma[k][i][j] = Gamma^k_ij; vector fields
are plain callables point -> array.

Metric and Christoffel fields are batched: they take points of shape
(..., dim) and return (..., dim, dim) and (..., dim, dim, dim).  A single
point is a batch of one, so every operation has one code path.  A field
may return one constant array for every point (lambda p: np.eye(n));
callers broadcast it.  Levi-Civita takes g^-1 / 2 for a 2-D metric from
the closed form adj(g) (0.5 / det g) when every det g is a finite normal
float; otherwise, and in every other dimension, from LAPACK
(np.linalg.inv).  2-D Gamma agrees with the LAPACK path to about 1e-15
relative, not bit for bit.  One 2-D metric is checked and inverted on its
four entries as Python floats, with the same IEEE operations as the
batched expression that a stack keeps, so a point alone and the same
point inside a stack get the same Gamma bit for bit.  Gamma and the
curvature tensor run on flat rows: a stack's stencil points are np.repeat
of its points plus one in-place add of the offsets (a single point keeps
the broadcast p + offsets), the field values are one contiguous row per
point, the central differences are row slices, and the index permutations
are precomputed gathers, with the floats of transposed views bit for bit.
Gauss-Bonnet evaluates its node grid in blocks of BLOCK_NODES nodes.
Parallel transport evaluates Gamma once per distinct RK4 node, in blocks
of segments of at most TRANSPORT_BLOCK_ENTRIES Gamma entries (nodes *
dim^3), and folds each block's substep propagators into one matrix; both
bounds cap the size of the temporaries.

Torsion, curvature and the Nijenhuis tensor are built from their tensor
formulas and contracted with the values of the vector fields at p.
Torsion needs Gamma at p only and is exact.  Curvature takes d Gamma
from one Gamma call on the (2 dim + 1)-point stencil of each point, and
the Nijenhuis tensor takes one Jacobian of A.  Every derivative, in
Levi-Civita, curvature, Gauss-Bonnet and the Nijenhuis tensor, is a
central difference with the one step H_DEFAULT; FD_TOL is the accuracy
of identity checks built on them at that step.

A geodesic carries one flat state (u, w) of shape (2 dim,) and is
integrated by the Dormand-Prince 5(4) pair with error control at relative
tolerance GEODESIC_RTOL.  Its step budget, by default STEPS_PER_UNIT per
unit of time, rounded up, sets the step floor time / steps: no step but
the final one is shorter, so a run takes at most that many accepted
steps.  Every attempted step is tested for escape before its seventh
(first same as last) stage, which only a trial that can still be
accepted computes.  Parallel transport takes fixed RK4 substeps on a
linear equation, so each substep is one propagator matrix, and a
pairwise product tree multiplies them in path order.  A round trip
takes both directions from the same node matrices: the reversed path has
the same nodes and the opposite velocity.

Escape semantics: a geodesic step that leaves the box, exceeds the norm
bound, blows up, or crosses the deleted point is halved and retried; at
the step floor it sets escape_flag instead, and the trajectory ends at the
last valid state.  This witnesses incompleteness as a numeric event; it
can never prove completeness, which is a one-sided limitation of any
finite probe.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EscapeError, QuadratureError

VectorField = Callable[[np.ndarray], np.ndarray]
MetricField = Callable[[np.ndarray], np.ndarray]

H_DEFAULT = 1e-5       # central-difference step
FD_TOL = 1e-4          # expected accuracy of derivative-based identities
NORM_BOUND = 1e8       # blow-up threshold for geodesic states
STEPS_PER_UNIT = 1000  # default geodesic step budget per unit of time
GEODESIC_RTOL = 1e-10  # adaptive geodesic tolerance; atol is GEODESIC_RTOL / 100
HOLE_RADIUS = 1e-6     # proximity that counts as hitting a deleted point
BLOCK_NODES = 256      # nodes per batched field evaluation in Gauss-Bonnet
TRANSPORT_BLOCK_ENTRIES = 2**16  # Gamma entries, nodes * dim^3, per transport block
SKIP_BUDGET = 0.01     # share of quadrature nodes gauss_bonnet may skip
MAX_CHART_DIM = 64     # dimension m of euclidean:m, hopf:m and flat-torus:m
MIN_RADIUS, MAX_RADIUS = 1e-50, 1e50  # sphere:r; r^4 stays within the float range


@dataclass(frozen=True)
class Chart:
    """Axis-aligned chart domain with optional wrap and deleted point.

    box_lo, box_hi, periods and hole_center are converted to float arrays
    once, at construction, for wrap and contains, and the box and the hole
    to lists of floats for segment_escapes."""

    dim: int
    box_lo: tuple | None = None
    box_hi: tuple | None = None
    periods: tuple | None = None
    hole_center: tuple | None = None
    hole_radius: float = HOLE_RADIUS
    norm_bound: float = NORM_BOUND

    def __post_init__(self) -> None:
        for name in ("box_lo", "box_hi", "periods", "hole_center"):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=float)
                value.flags.writeable = False
            object.__setattr__(self, "_" + name, value)
        object.__setattr__(self, "_float_bounds", tuple(
            None if v is None else v.tolist()
            for v in (self._box_lo, self._box_hi, self._hole_center)
        ))

    def wrap(self, x: np.ndarray) -> np.ndarray:
        p = self._periods
        if p is None:
            return x
        return x - p * np.floor(x / p)

    def contains(self, x: np.ndarray):
        """Domain membership of x, shape (..., dim): a bool per point."""
        x = np.asarray(x, dtype=float)
        # NaN or infinite coordinates are outside whatever the norm bound
        inside = np.isfinite(x).all(axis=-1) & (_norm(x) <= self.norm_bound)
        if self._box_lo is not None:
            inside &= (x >= self._box_lo).all(axis=-1)
        if self._box_hi is not None:
            inside &= (x <= self._box_hi).all(axis=-1)
        if self._hole_center is not None:
            inside &= _norm(x - self._hole_center) >= self.hole_radius
        return inside

    def segment_escapes(self, a: Sequence[float], b: Sequence[float]) -> bool:
        """Whether the step a -> b leaves the domain, including passing
        through the deleted point without landing on it.  One segment of
        any dimension, on Python floats: the same tests as contains(b),
        then the point of the segment nearest the hole."""
        b = np.asarray(b, dtype=float).tolist()
        lo, hi, c = self._float_bounds
        # NaN or infinite coordinates are outside whatever the norm bound
        if not (all(map(math.isfinite, b)) and _float_norm(b) <= self.norm_bound):
            return True
        if lo is not None and not all(map(operator.ge, b, lo)):
            return True
        if hi is not None and not all(map(operator.le, b, hi)):
            return True
        if c is None:
            return False
        if not _float_norm(list(map(operator.sub, b, c))) >= self.hole_radius:
            return True
        # non-finite a gives NaNs or infinities here, which compare False
        a = np.asarray(a, dtype=float).tolist()
        d = list(map(operator.sub, b, a))
        denom = sum(di * di for di in d)
        reach = sum((ci - ai) * di for ai, di, ci in zip(a, d, c))
        t = 0.0 if denom == 0.0 else min(max(reach / denom, 0.0), 1.0)
        near = [ai + t * di - ci for ai, di, ci in zip(a, d, c)]
        return _float_norm(near) < self.hole_radius


def _float_norm(x: list) -> float:
    """Euclidean norm of a list of floats."""
    return math.sqrt(sum(v * v for v in x))


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, without overflow warnings."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _stencil(dim: int) -> np.ndarray:
    """Offsets of a point and its 2 dim neighbours: 0, then +H_DEFAULT e_i,
    then -H_DEFAULT e_i, shape (2 dim + 1, dim)."""
    step = H_DEFAULT * np.eye(dim)
    return np.concatenate([np.zeros((1, dim)), step, -step])


def _stencil_points(p: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The stencil points of each point of p, shape p.shape[:-1] +
    offsets.shape.  One point is the broadcast p + offsets.  A stack is
    np.repeat of its points plus one in-place add of the offsets, the same
    floats: numpy runs that add over whole rows, not the broadcast's inner
    loop of dim entries per stencil point."""
    if p.ndim == 1:
        return p + offsets
    pts = np.repeat(p.reshape(-1, 1, p.shape[-1]), len(offsets), axis=1)
    pts += offsets
    return pts.reshape(p.shape[:-1] + offsets.shape)


@functools.cache
def _koszul_gathers(dim: int) -> tuple:
    """Gathers on flat rows for Gamma in dimension dim: for c[k i j], the
    positions of d_i g_jk and of d_j g_ik in the row of d_i g_jk (index
    i j k)."""
    k, i, j = np.indices((dim,) * 3).reshape(3, -1)
    return _frozen((i * dim + j) * dim + k, (j * dim + i) * dim + k)


@functools.cache
def _riemann_gathers(dim: int) -> tuple:
    """Gathers on flat rows for the curvature tensor in dimension dim: for
    s[k l i j], the position of d_i Gamma^k_jl in the row (i k j l), of
    Gamma^k_im Gamma^m_jl in the row (k i j l), and of s[k l j i] in s."""
    k, l, i, j = np.indices((dim,) * 4).reshape(4, -1)
    return _frozen(((i * dim + k) * dim + j) * dim + l, ((k * dim + i) * dim + j) * dim + l,
                   ((k * dim + l) * dim + j) * dim + i)


def _frozen(*arrays: np.ndarray) -> tuple:
    """The arrays made read-only: a cached gather is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _field(f: Callable, p: np.ndarray, shape: tuple) -> np.ndarray:
    """The field f at the points p, shape p.shape[:-1] + shape; a constant
    return is broadcast to the batch."""
    out = np.asarray(f(p), dtype=float)
    if out.shape[-len(shape):] != shape:
        raise DomainError(f"field values must end in shape {shape}")
    full = p.shape[:-1] + shape
    return out if out.shape == full else np.broadcast_to(out, full)


def free_chart(dim: int) -> Chart:
    return Chart(dim)


@dataclass(frozen=True)
class ChartConnection:
    """Christoffel field on a chart; gamma(p)[k][i][j] = Gamma^k_ij."""

    dim: int
    gamma: Callable[[np.ndarray], np.ndarray]
    chart: Chart


def flat_connection(dim: int, chart: Chart | None = None) -> ChartConnection:
    zeros = np.zeros((dim, dim, dim))
    return ChartConnection(dim, lambda p: zeros, chart or free_chart(dim))


def _require_inside(conn: ChartConnection, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (conn.dim,):
        raise DomainError(f"points must have {conn.dim} coordinates")
    outside = ~conn.chart.contains(p)
    if outside.any():
        bad = p[outside][0]
        raise DomainError(f"point {bad.tolist()} is outside the chart domain")
    return p


def vector_jacobian(y: Callable, p: np.ndarray) -> np.ndarray:
    """jac[i] = d y / d x^i by central differences, for a field of any value
    shape; for a vector field jac[i][k] = d y^k / d x^i."""
    return np.array([
        (np.asarray(y(p + e)) - np.asarray(y(p - e))) / (2.0 * H_DEFAULT)
        for e in H_DEFAULT * np.eye(len(p))
    ])


def covariant_derivative(
    conn: ChartConnection, x: VectorField, y: VectorField, p: np.ndarray
) -> np.ndarray:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij Y^j X^i at p."""
    p = _require_inside(conn, p)
    a = np.asarray(x(p), dtype=float)
    b = np.asarray(y(p), dtype=float)
    jac = vector_jacobian(y, p)
    return a @ jac + np.einsum("kij,j,i->k", conn.gamma(p), b, a)


def torsion(
    conn: ChartConnection, x: VectorField, y: VectorField, p: np.ndarray
) -> np.ndarray:
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y], that is
    (Gamma^k_ij - Gamma^k_ji) X^i Y^j at p: the derivatives cancel."""
    p = _require_inside(conn, p)
    gam = np.asarray(conn.gamma(p), dtype=float)
    return np.einsum("kij,i,j->k", gam - gam.swapaxes(-1, -2), x(p), y(p))


def _curvature_tensor(conn: ChartConnection, p: np.ndarray) -> np.ndarray:
    """r[..., k, l, i, j] = R^k_lij, where R(e_i, e_j) e_l = R^k_lij e_k,

        R^k_lij = d_i Gamma^k_jl - d_j Gamma^k_il
                  + Gamma^k_im Gamma^m_jl - Gamma^k_jm Gamma^m_il,

    at points p of shape (..., dim), from one Gamma call on the stencil of
    each point and its 2 dim neighbours at the one step H_DEFAULT; FD_TOL
    is the accuracy of identities built on r at that step.

    The stencil's Gamma values are one flat row per point, the central
    differences are row slices, and the index sums take their operands by
    the gathers of _riemann_gathers, so a point and a stack add the same floats."""
    dim = conn.dim
    cube = dim ** 3
    dg_at, q_at, swapped = _riemann_gathers(dim)
    gs = _field(conn.gamma, _stencil_points(p, _stencil(dim)), (dim, dim, dim))
    rows = gs.reshape(-1, (2 * dim + 1) * cube)
    gp = rows[:, :cube]
    # dg[:, i k j l] = d_i Gamma^k_jl
    dg = (rows[:, cube:(dim + 1) * cube] - rows[:, (dim + 1) * cube:]) / (2.0 * H_DEFAULT)
    # q[:, k i j l] = Gamma^k_im Gamma^m_jl: one (k i, m) by (m, j l) matmul
    q = gp.reshape(-1, dim * dim, dim) @ gp.reshape(-1, dim, dim * dim)
    # s[:, k l i j] = d_i Gamma^k_jl + Gamma^k_im Gamma^m_jl
    s = dg.take(dg_at, axis=1) + q.reshape(-1, dim * cube).take(q_at, axis=1)
    return (s - s.take(swapped, axis=1)).reshape(p.shape[:-1] + (dim,) * 4)


def curvature(
    conn: ChartConnection,
    x: VectorField,
    y: VectorField,
    z: VectorField,
    p: np.ndarray,
) -> np.ndarray:
    """R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    that is R^k_lij X^i Y^j Z^l at p."""
    p = _require_inside(conn, p)
    r = _curvature_tensor(conn, p)
    return np.einsum("klij,i,j,l->k", r, x(p), y(p), z(p))


# adj(g) / 2 = g[(3, 1, 2, 0)] * _HALF_ADJ_SIGN for the row of a 2 x 2 matrix g
_HALF_ADJ_SIGN = np.array([0.5, -0.5, -0.5, 0.5])
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def _half_inverse(gp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """g^-1 / 2, shape (N, dim, dim), for each metric row of gp, shape
    (N, dim * dim), at the points p, shape (..., dim) with N points.

    For dim 2, when every det g = g00 g11 - g01 g10 of the stack is a
    finite normal float, it is the closed form adj(g) (0.5 / det g), one
    batched expression over the rows.  For any other dim, or a det that
    is zero, subnormal, overflowing or NaN, it is 0.5 inv(g) by LAPACK,
    and a singular metric raises DomainError.  The det is computed without
    overflow warnings, as _one_half_inverse computes it on Python floats.
    """
    dim = p.shape[-1]
    if dim == 2:
        a, b, c, d = gp.T
        with np.errstate(over="ignore", invalid="ignore"):
            det = a * d - b * c
        size = np.abs(det)
        if ((size >= _TINY) & (size <= _HUGE)).all():
            # +-0.5 / det is exactly +-(0.5 / det): the same floats as
            # adj(g) * (0.5 / det), in two passes, not three
            scale = _HALF_ADJ_SIGN / det[:, None]
            return (gp.take((3, 1, 2, 0), axis=1) * scale).reshape(-1, 2, 2)
    gp = gp.reshape(-1, dim, dim)
    try:
        return 0.5 * np.linalg.inv(gp)
    except np.linalg.LinAlgError as exc:
        bad = np.flatnonzero(np.linalg.det(gp) == 0.0)
        first = p.reshape(-1, dim)[bad[0] if bad.size else 0]
        raise DomainError(f"metric is singular at {first.tolist()}") from exc


def _one_half_inverse(gp: np.ndarray) -> np.ndarray | None:
    """g^-1 / 2 for the row gp, shape (1, 4), of one 2 x 2 metric read as
    four Python floats, when g is exactly symmetric and det g is a finite
    normal float; else None.

    It is _half_inverse's closed form with the same IEEE operations, so the
    same floats as the metric inside a stack: the test a == a, b == c,
    d == d is (g == g^T).all() for one matrix, and a NaN fails it."""
    ((a, b, c, d),) = gp.tolist()
    if not (a == a and b == c and d == d):
        return None
    det = a * d - b * c
    if not _TINY <= abs(det) <= _HUGE:
        return None
    s, m = 0.5 / det, -0.5 / det
    return np.array(((d * s, b * m), (c * m, a * s)))


def levi_civita(g: MetricField, chart: Chart | int) -> ChartConnection:
    """The unique symmetric metric-compatible connection.

    Christoffel symbols from the standard inversion of the Koszul formula
    on coordinate fields, with central differences of g.  The chart (or a
    bare dimension) fixes the domain.  One metric call per evaluation, on
    the stencil of each point and its 2 dim neighbours at the one step
    H_DEFAULT, read once per connection; FD_TOL is the accuracy of
    identities built on Gamma at that step.

    The stencil's metric values are one flat row per point (_stencil_points
    builds a stack's points by np.repeat and one add).  The central
    differences are row slices, and c[k, i, j] = d_i g_jk + d_j g_ik -
    d_k g_ij takes its operands by the gathers of _koszul_gathers, so Gamma
    = g^-1/2 c is one matmul per point over contiguous rows.

    g^-1 / 2 comes from _half_inverse: for dim 2 the closed form
    adj(g) (0.5 / det g), a forward-stable Cramer's rule, whenever every
    det of the stack is a finite normal float, and otherwise LAPACK's
    np.linalg.inv, which also reports a singular metric.  2-D Gamma
    agrees with the LAPACK path to about 1e-15 relative, not bit for bit;
    in every other dimension it is the LAPACK path.  One 2-D metric (a
    single point) is first tried by _one_half_inverse on its four entries
    as Python floats: exact symmetry and the closed form with the same
    IEEE operations as the stack expression.  If either test fails, it
    takes the stack's checks, tolerance and fallback unchanged.

    g must be symmetric at each point: g == g^T exactly, or max|g - g^T|
    <= 1e-12 max|g|, relative to the metric's size; otherwise, or for a
    NaN metric, Gamma raises DomainError.
    """
    if isinstance(chart, int):
        chart = free_chart(chart)
    dim = chart.dim
    offsets = _stencil(dim)
    square = dim * dim
    first, second = _koszul_gathers(dim)

    def gamma(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (dim,):
            raise DomainError(f"points must have {dim} coordinates")
        gs = _field(g, _stencil_points(p, offsets), (dim, dim))
        rows = gs.reshape(-1, (2 * dim + 1) * square)
        gp = rows[:, :square]
        half_inv = _one_half_inverse(gp) if p.shape == (2,) else None
        if half_inv is None:
            gm = gp.reshape(-1, dim, dim)
            gt = gm.swapaxes(-1, -2)
            if not (gm == gt).all():
                # max|g - g^T| <= 1e-12 max|g| per point; equal entries,
                # infinite ones too, add no skew, and a NaN or infinite
                # skew fails
                skew = np.subtract(gm, gt, out=np.zeros_like(gm), where=gm != gt)
                skew = np.abs(skew).max(axis=(-2, -1))
                size = np.abs(gm).max(axis=(-2, -1))
                if not ((skew <= 1e-12 * size) & (skew < np.inf)).all():
                    raise DomainError("metric must be a symmetric matrix field")
            half_inv = _half_inverse(gp, p)
        # dg[:, i j k] = d_i g_jk
        ahead, behind = rows[:, square:(dim + 1) * square], rows[:, (dim + 1) * square:]
        dg = (ahead - behind) / (2.0 * H_DEFAULT)
        # c[:, k i j] = d_i g_jk + d_j g_ik - d_k g_ij
        c = dg.take(first, axis=1) + dg.take(second, axis=1) - dg
        return (half_inv @ c.reshape(-1, dim, square)).reshape(p.shape[:-1] + (dim,) * 3)

    return ChartConnection(dim=chart.dim, gamma=gamma, chart=chart)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the geodesic system.  An adaptive run also
    counts its rejected steps (error test failed, or the step escaped and
    was halved) and its floored steps (accepted at the smallest step size
    although the error test failed)."""

    times: tuple
    points: tuple
    velocities: tuple
    escape_flag: bool
    rejected: int = 0
    floored: int = 0

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.points) == len(self.velocities)):
            raise DomainError("trajectory columns must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise DomainError("trajectory times must be strictly increasing")

    @property
    def end_time(self) -> float:
        return self.times[-1]

    @property
    def end_point(self) -> np.ndarray:
        return np.asarray(self.points[-1])


def _geodesic_rhs(conn: ChartConnection, y: np.ndarray, out: np.ndarray) -> None:
    """out = (u', w') = (w, -Gamma(u) w w) at the flat state y = (u, w)."""
    dim = conn.dim
    w = y[dim:]
    out[dim:] = -((conn.gamma(y[:dim]) @ w) @ w)
    out[:dim] = w


_STEP_ERRORS = (FloatingPointError, DomainError, ValueError)

# Dormand-Prince 5(4): the rows of the stage matrix, the last being the
# fifth-order weights, so that the last stage is the derivative at the new
# state (first same as last); and the weights of the error estimate, fifth
# order minus the embedded fourth order.
_DOPRI_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_DOPRI_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                     -17253 / 339200, 22 / 525, -1 / 40])


def geodesic(
    conn: ChartConnection,
    p: Sequence[float],
    v: Sequence[float],
    time: float,
    steps: int | None = None,
    tol: float = GEODESIC_RTOL,
) -> Trajectory:
    """Integration of u'' + Gamma(u) u' u' = 0 from (p, v) to t = time by
    Dormand-Prince 5(4) at relative tolerance tol, in at most steps
    accepted steps (default ceil(STEPS_PER_UNIT time)): no step but the
    final one is shorter than time / steps.

    With Gamma = 0 this reproduces the straight line p + t v to machine
    accuracy.  The trajectory ends at the last state before the first step
    that leaves the chart, crosses the deleted point or blows up, and
    escape_flag is then set.
    """
    if steps is not None and steps <= 0:
        raise DomainError("step count must be positive")
    if not (math.isfinite(time) and time > 0.0):
        raise DomainError(f"geodesic time must be positive and finite, got {time}")
    if steps is None:
        steps = math.ceil(STEPS_PER_UNIT * time)
    u = np.asarray(p, dtype=float)
    w = np.asarray(v, dtype=float)
    if u.shape != (conn.dim,) or w.shape != u.shape:
        raise DomainError(
            f"geodesic needs a point and a velocity in dimension {conn.dim}"
        )
    u = _require_inside(conn, u)
    # a non-finite state is already an escape, so trial steps run silent
    with np.errstate(all="ignore"):
        return _dopri5_geodesic(conn, u, w, time, tol, steps)


def _dopri5_geodesic(
    conn: ChartConnection,
    u: np.ndarray,
    w: np.ndarray,
    time: float,
    rtol: float,
    steps: int,
) -> Trajectory:
    """Dormand-Prince 5(4) with the step-size control of Hairer, Norsett
    and Wanner (Solving ODEs I, II.4).

    The error is the RMS of err / (atol + rtol max(|y|, |y_new|)) with
    atol = rtol / 100, and the next step is h 0.9 err^(-1/5), clamped to
    [h / 5, 5 h], and not above h right after a rejection.  The step never
    drops below the floor h_min = time / steps, except on the final step,
    which lands exactly on time; the steps-th accepted step is always the
    final one, which the rounding of t could otherwise delay.  A step at
    the floor, or the steps-th, that fails the error test is accepted and
    counted as floored.  A step that escapes (its segment leaves the
    chart, its end or its error is not finite, or Gamma raises) is halved
    and tried again; one that escapes at the floor ends the trajectory.

    The state is one flat row (u, w), and so is each stage.  The new state
    is tested (finite, then Chart.segment_escapes) after the sixth stage:
    the seventh, the derivative at the new state that the next step reuses
    (first same as last), and the error estimate are computed only for a
    trial that can still be accepted, so a trial lost to the escape test
    costs five Gamma calls, not six.
    """
    chart = conn.chart
    dim = conn.dim
    atol, h_min = rtol / 100.0, time / steps
    y = np.concatenate((u, w))  # the first step starts from the unwrapped p
    times, states = [0.0], [np.concatenate((chart.wrap(u), w))]
    k = np.empty((7,) + y.shape)  # the stages; k[0] is the derivative at y
    t, h = 0.0, time  # the first step tries the whole interval
    rejected = floored = 0
    grow, escaped = True, False
    try:
        _geodesic_rhs(conn, y, k[0])
    except _STEP_ERRORS:
        escaped = True
    while not escaped and t < time:
        floor = len(times) == steps  # the last step the budget allows
        last = floor or h >= time - t
        if last:
            h = time - t
        floor = floor or h <= h_min
        try:
            for i, a in enumerate(_DOPRI_A[:-1], start=1):
                _geodesic_rhs(conn, y + h * (a @ k[:i]), k[i])
            y_new = y + h * (_DOPRI_A[-1] @ k[:6])
            # a new state that escapes loses the trial: it needs no last stage
            bad = (not np.isfinite(y_new).all()
                   or chart.segment_escapes(y[:dim], y_new[:dim]))
            if not bad:
                _geodesic_rhs(conn, y_new, k[6])
                err = h * (_DOPRI_E @ k)
                bad = not np.isfinite(err).all()
        except _STEP_ERRORS:
            bad = True
        if bad:
            escaped = floor
            h, grow = max(h / 2.0, h_min), False
            rejected += not escaped
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        q = (err / scale) ** 2
        e = math.sqrt(float(np.add.reduce(q, axis=None) / q.size))  # np.mean
        factor = min(5.0, max(0.2, 0.9 * max(e, 1e-10) ** -0.2))
        if e > 1.0 and not floor:
            h, grow = max(h * factor, h_min), False
            rejected += 1
            continue
        floored += e > 1.0
        t = time if last else t + h
        y, k[0] = y_new, k[-1]
        y[:dim] = chart.wrap(y[:dim])
        times.append(t)
        states.append(y)
        h = max(h * (factor if grow else min(factor, 1.0)), h_min)
        grow = True
    return Trajectory(tuple(times), tuple(s[:dim] for s in states),
                      tuple(s[dim:] for s in states), escaped, rejected, floored)


def exponential_map(
    conn: ChartConnection,
    p: Sequence[float],
    v: Sequence[float],
    steps: int | None = None,
) -> np.ndarray:
    """Exp_p(v): endpoint of the unit-time geodesic with initial speed v.

    A geodesic that leaves the chart raises EscapeError; its message names
    the last state inside the chart."""
    traj = geodesic(conn, p, v, 1.0, steps)
    if traj.escape_flag or traj.end_time < 1.0:
        raise EscapeError(
            "geodesic left the chart; v is outside the domain of the "
            f"exponential map; last state: t={traj.end_time:.6f} "
            f"point={traj.end_point.tolist()}"
        )
    return traj.end_point


def _transport_input(
    conn: ChartConnection, path: Sequence[Sequence[float]], v0: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The path samples, shape (samples, dim), and v0 as arrays, after the
    checks every transport makes."""
    try:
        pts = np.asarray(path, dtype=float)
    except ValueError as exc:
        raise DomainError("transport path samples must be points") from exc
    v = np.asarray(v0, dtype=float)
    dim = conn.dim
    if len(pts) < 2:
        raise DomainError("a transport path needs at least two samples")
    if pts.ndim != 2 or pts.shape[1] != dim or v.shape != (dim,):
        raise DomainError(f"transport needs points and a vector in dimension {dim}")
    _require_inside(conn, pts)
    return pts, v


def _node_matrices(conn: ChartConnection, pts: np.ndarray, substeps: int):
    """For each block of segments, in path order, the transport matrices
    -Gamma(x) x' at the start, middle and end of every substep: three
    stacks (A, M, B) of shape (segments * substeps, dim, dim).

    Gamma is evaluated once per distinct node: at the 2 substeps nodes
    t = j h / 2, j < 2 substeps, of every segment, and at the block's last
    sample.  Segment k ends at sample k + 1 itself, where the next segment
    starts.  A block holds at most TRANSPORT_BLOCK_ENTRIES Gamma entries
    (nodes * dim^3), or one segment."""
    dim = conn.dim
    nodes_per_segment = 2 * substeps
    t = np.arange(nodes_per_segment) * (0.5 / substeps)
    per_block = max(1, (TRANSPORT_BLOCK_ENTRIES // dim**3 - 1) // nodes_per_segment)
    for lo in range(0, len(pts) - 1, per_block):
        a = pts[lo:lo + per_block + 1]
        xdot = np.diff(a, axis=0)
        nodes = a[:-1, None, :] + xdot[:, None, :] * t[:, None]
        gam = _field(conn.gamma, np.concatenate([nodes.reshape(-1, dim), a[-1:]]),
                     (dim, dim, dim))
        # -Gamma^k_ij x'^i at the segments' own nodes, and at their ends
        # with the segment's own x'
        row = -xdot[:, None, None, :]
        own = row[:, None] @ gam[:-1].reshape(len(xdot), nodes_per_segment, dim, dim, dim)
        end = row @ gam[nodes_per_segment::nodes_per_segment]
        own, end = own[..., 0, :], end[..., 0, :]
        m_b = np.concatenate([own[:, 2::2], end[:, None]], axis=1)
        yield (own[:, 0::2].reshape(-1, dim, dim), own[:, 1::2].reshape(-1, dim, dim),
               m_b.reshape(-1, dim, dim))


def _propagator(m_a: np.ndarray, m_m: np.ndarray, m_b: np.ndarray, hh: float) -> np.ndarray:
    """The product of the RK4 propagators of substeps of length hh with
    node matrices (A, M, B), later substeps on the left.  One substep is
    Phi = I + hh/6 (K1 + 2 K2 + 2 K3 + K4), where K1 = A,
    K2 = M (I + hh/2 K1), K3 = M (I + hh/2 K2), K4 = B (I + hh K3); a
    pairwise product tree multiplies them."""
    eye = np.eye(m_a.shape[-1])
    k2 = m_m @ (eye + hh / 2 * m_a)
    k3 = m_m @ (eye + hh / 2 * k2)
    k4 = m_b @ (eye + hh * k3)
    phi = eye + hh / 6.0 * (m_a + 2 * k2 + 2 * k3 + k4)
    while len(phi) > 1:
        pairs = phi[1::2] @ phi[0:-1:2]
        phi = np.concatenate([pairs, phi[-1:]]) if len(phi) % 2 else pairs
    return phi[0]


def parallel_transport(
    conn: ChartConnection,
    path: Sequence[Sequence[float]],
    v0: Sequence[float],
    substeps: int = 1,
) -> np.ndarray:
    """Transport v0 along a sampled path by RK4 on v' = -Gamma(x) x' v.

    The path is taken piecewise linear between samples; the result is
    linear in v0, so each RK4 substep is exactly one propagator matrix
    (_propagator).  Gamma is evaluated once per distinct node, in blocks
    of at most TRANSPORT_BLOCK_ENTRIES Gamma entries, and each block's
    propagators are folded into one matrix, which is applied to v.
    """
    pts, v = _transport_input(conn, path, v0)
    for m_a, m_m, m_b in _node_matrices(conn, pts, substeps):
        v = _propagator(m_a, m_m, m_b, 1.0 / substeps) @ v
    return v


def transport_round_trip(
    conn: ChartConnection,
    path: Sequence[Sequence[float]],
    v0: Sequence[float],
    substeps: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(out, back): v0 transported along the path as by parallel_transport,
    bit for bit, and out transported back along the reversed path.

    Both directions share one Gamma evaluation per distinct node.  The
    reversed path has the same nodes and the opposite x', so a reversed
    substep has the node matrices (-B, -M, -A) of the forward one; the
    backward fold takes the substeps and the blocks in reverse order.
    """
    pts, v = _transport_input(conn, path, v0)
    hh = 1.0 / substeps
    backward = []
    for m_a, m_m, m_b in _node_matrices(conn, pts, substeps):
        v = _propagator(m_a, m_m, m_b, hh) @ v
        backward.append(_propagator(-m_b[::-1], -m_m[::-1], -m_a[::-1], hh))
    out = v
    for phi in reversed(backward):
        v = phi @ v
    return out, v


# -- Pfaffian and Gauss-Bonnet --------------------------------------------------

def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of an exactly skew matrix, 2n <= 8, by expansion along the
    first row: Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows and columns
    0 and j), with Pf of the empty matrix 1."""
    a = np.asarray(a, dtype=float)
    n2 = a.shape[0]
    if a.shape != (n2, n2):
        raise DomainError("Pfaffian needs a square matrix")
    if n2 % 2 != 0:
        raise DomainError("Pfaffian needs even dimension")
    if n2 > 8:
        raise DomainError("row expansion is limited to 2n <= 8")
    if not np.array_equal(a.T, -a):
        raise DomainError("matrix must be exactly skew-symmetric")
    if n2 == 0:
        return 1.0
    total = 0.0
    for j in range(1, n2):
        if a[0, j] != 0.0:
            rest = [k for k in range(1, n2) if k != j]
            total += (-1) ** (j + 1) * a[0, j] * pfaffian(a[np.ix_(rest, rest)])
    return total


def gaussian_curvature(
    conn: ChartConnection, g: MetricField, p: np.ndarray,
    gp: np.ndarray | None = None,
) -> np.ndarray:
    """K = g(R(e1, e2) e2, e1) / (g11 g22 - g12^2) in the coordinate frame,
    at points of shape (..., 2).  gp, if given, is g at p, shape (..., 2, 2),
    which g is then not called for again."""
    p = np.asarray(p, dtype=float)
    if gp is None:
        gp = _field(g, p, (2, 2))
    denom = gp[..., 0, 0] * gp[..., 1, 1] - gp[..., 0, 1] ** 2
    if np.any(denom <= 0.0):
        raise DomainError("metric is degenerate at the quadrature point")
    r = _curvature_tensor(conn, p)[..., :, 1, 0, 1]  # R(e1, e2) e2
    return (gp[..., 0, :] * r).sum(axis=-1) / denom


@dataclass(frozen=True)
class SurfacePatch:
    """Rectangle in chart coordinates carrying a metric."""

    u_lo: float
    u_hi: float
    v_lo: float
    v_hi: float
    metric: MetricField


def _node_weights(
    conn: ChartConnection, metric: MetricField, nodes: np.ndarray
) -> tuple[np.ndarray, int]:
    """K sqrt(det g) at the nodes where the metric is nondegenerate and
    finite, and the number of the other nodes, which are skipped.  The
    metric is evaluated once at the nodes, and once by Gamma on the
    curvature's stencil."""
    gp = _field(metric, nodes, (2, 2))
    det = gp[..., 0, 0] * gp[..., 1, 1] - gp[..., 0, 1] ** 2
    good = (det > 0.0) & np.isfinite(det)
    k = gaussian_curvature(conn, metric, nodes[good], gp[good])
    return k * np.sqrt(det[good]), len(nodes) - int(np.count_nonzero(good))


def gauss_bonnet(patches: Sequence[SurfacePatch], mesh_n: int) -> float:
    """Midpoint-rule quadrature of K dA / (2 pi) over the patches.

    Nodes where the metric degenerates are skipped, up to SKIP_BUDGET of
    all nodes; exceeding the budget is an error.  The node grid is
    evaluated in blocks of BLOCK_NODES nodes; a block that raises
    DomainError is evaluated again node by node.
    """
    if mesh_n < 8:
        raise DomainError("mesh_n must be at least 8")
    total = 0.0
    skipped = 0
    nodes = 0
    for patch in patches:
        conn = levi_civita(patch.metric, free_chart(2))
        du = (patch.u_hi - patch.u_lo) / mesh_n
        dv = (patch.v_hi - patch.v_lo) / mesh_n
        mid = np.arange(mesh_n) + 0.5
        u, v = np.meshgrid(patch.u_lo + mid * du, patch.v_lo + mid * dv,
                           indexing="ij")
        grid = np.stack([u.ravel(), v.ravel()], axis=-1)
        nodes += len(grid)
        for lo in range(0, len(grid), BLOCK_NODES):
            block = grid[lo:lo + BLOCK_NODES]
            try:
                parts = [_node_weights(conn, patch.metric, block)]
            except DomainError:
                # retry node by node, so that only the bad nodes are skipped
                parts = []
                for node in block[:, None]:
                    try:
                        parts.append(_node_weights(conn, patch.metric, node))
                    except DomainError:
                        parts.append((np.zeros(0), 1))
            for weights, bad in parts:
                total += float(np.sum(weights * du * dv))
                skipped += bad
    if nodes and skipped > SKIP_BUDGET * nodes:
        raise QuadratureError(
            f"{skipped} of {nodes} quadrature nodes were singular"
        )
    return total / (2.0 * math.pi)


# -- Nijenhuis tensor and para-hypercomplex checks -------------------------------

def _nijenhuis_tensor(
    a_field: Callable[[np.ndarray], np.ndarray], p: np.ndarray
) -> np.ndarray:
    """n[k, i, j] = N_A(e_i, e_j)^k = t^k_ij - t^k_ji at p, with
    t^k_ij = A^k_m d_i A^m_j - A^m_i d_m A^k_j, from A(p) and one Jacobian."""
    a = np.asarray(a_field(p), dtype=float)
    da = vector_jacobian(a_field, p)  # da[i, k, j] = d_i A^k_j
    t = np.einsum("km,imj->kij", a, da) - np.einsum("mi,mkj->kij", a, da)
    return t - t.swapaxes(-1, -2)


def nijenhuis(
    a_field: Callable[[np.ndarray], np.ndarray],
    x: VectorField,
    y: VectorField,
    p: np.ndarray,
) -> np.ndarray:
    """N_A(X, Y) = -A^2 [X, Y] + A([AX, Y] + [X, AY]) - [AX, AY], that is
    N^k_ij X^i Y^j at p."""
    p = np.asarray(p, dtype=float)
    return np.einsum("kij,i,j->k", _nijenhuis_tensor(a_field, p), x(p), y(p))


def standard_para_pair(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical complex structure I and para-complex structure J on
    R^{2m} with coordinates (x_1..x_m, y_1..y_m)."""
    eye = np.eye(m)
    i_mat = np.block([[np.zeros((m, m)), -eye], [eye, np.zeros((m, m))]])
    j_mat = np.block([[eye, np.zeros((m, m))], [np.zeros((m, m)), -eye]])
    return i_mat, j_mat


def para_structure_check(m: int, z_samples: int = 16) -> dict:
    """Verify the para-hypercomplex identities on R^{2m}.

    Returns a report of maximal deviations for J^2 = id, I^2 = -id,
    IJ + JI = 0, N_I = 0 at the origin (I is constant), and J_z^2 = id for
    z_samples unit z; "passed" is True when all stay within 1e-10.
    """
    if m < 1:
        raise DomainError("need m >= 1")
    i_mat, j_mat = standard_para_pair(m)
    dim = 2 * m
    eye = np.eye(dim)
    report = {
        "J squared": float(np.max(np.abs(j_mat @ j_mat - eye))),
        "I squared": float(np.max(np.abs(i_mat @ i_mat + eye))),
        "IJ + JI": float(np.max(np.abs(i_mat @ j_mat + j_mat @ i_mat))),
    }

    # I is a constant field, so its Nijenhuis tensor is the same everywhere
    n = _nijenhuis_tensor(lambda q: i_mat, np.zeros(dim))
    report["Nijenhuis of I"] = float(np.max(np.abs(n)))

    worst_z = 0.0
    for k in range(z_samples):
        theta = 2.0 * math.pi * (k + 0.5) / z_samples
        jz = math.cos(theta) * j_mat + math.sin(theta) * (i_mat @ j_mat)
        worst_z = max(worst_z, float(np.max(np.abs(jz @ jz - eye))))
    report["J_z squared"] = worst_z

    report["passed"] = all(
        v <= 1e-10 for k, v in report.items() if k != "passed"
    )
    return report


# -- named geometries -------------------------------------------------------------

@dataclass(frozen=True)
class Geometry:
    """A chart, its connection, and optional metric/patches, CLI-addressable."""

    chart: Chart
    connection: ChartConnection
    metric: MetricField | None = None
    patches: tuple = ()


def sphere_metric(radius: float) -> MetricField:
    r2 = radius * radius

    def g(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = r2
        out[..., 1, 1] = r2 * np.sin(p[..., 0]) ** 2
        return out

    return g


def parse_geometry(key: str) -> Geometry:
    """Resolve "euclidean:m", "hopf:m", "flat-torus:m" or "sphere:r"."""
    name, _, arg = key.partition(":")
    if not arg:
        raise DomainError(f"geometry key '{key}' needs a ':' parameter")
    if name == "euclidean":
        dim = _dim_arg(arg)
        chart = free_chart(dim)
        return Geometry(chart, flat_connection(dim, chart), metric=lambda p: np.eye(dim))
    if name == "hopf":
        dim = _dim_arg(arg)
        chart = Chart(dim, hole_center=(0.0,) * dim)
        return Geometry(chart, flat_connection(dim, chart))
    if name == "flat-torus":
        dim = _dim_arg(arg)
        chart = Chart(dim, periods=(1.0,) * dim)
        metric = lambda p: np.eye(dim)
        patches = (
            (SurfacePatch(0.0, 1.0, 0.0, 1.0, metric),) if dim == 2 else ()
        )
        return Geometry(chart, flat_connection(dim, chart),
                        metric=metric, patches=patches)
    if name == "sphere":
        try:
            radius = float(arg)
        except ValueError as exc:
            raise DomainError(f"bad sphere radius '{arg}'") from exc
        if not (math.isfinite(radius) and radius > 0.0):
            raise DomainError(f"sphere radius must be positive and finite, got {arg}")
        if not MIN_RADIUS <= radius <= MAX_RADIUS:
            raise DomainError(f"sphere radius must be between {MIN_RADIUS:g} and "
                              f"{MAX_RADIUS:g}, got {arg}")
        chart = Chart(
            2, box_lo=(1e-8, -math.inf), box_hi=(math.pi - 1e-8, math.inf)
        )
        metric = sphere_metric(radius)
        patches = (SurfacePatch(0.0, math.pi, 0.0, 2.0 * math.pi, metric),)
        return Geometry(chart, levi_civita(metric, chart),
                        metric=metric, patches=patches)
    raise DomainError(f"unknown geometry '{name}'")


def _dim_arg(arg: str) -> int:
    try:
        dim = int(arg)
    except ValueError as exc:
        raise DomainError(f"bad dimension '{arg}'") from exc
    if not 1 <= dim <= MAX_CHART_DIM:
        raise DomainError(f"dimension must be between 1 and {MAX_CHART_DIM}, got {dim}")
    return dim
