"""Chart-local differential geometry.

A manifold is a single coordinate chart: an open box, optionally with
periodic axes (tori) or a deleted point (punctured spaces).  Connections
are Christoffel-symbol fields Gamma[k][i][j] = Gamma^k_ij; vector fields
are plain callables point -> array.

Metric and Christoffel fields are batched: they take points of shape
(..., dim) and return (..., dim, dim) and (..., dim, dim, dim).  A single
point is a batch of one, so every operation has one code path.  A field
may return one constant array for every point (lambda p: np.eye(n));
callers broadcast it.  Gauss-Bonnet evaluates its node grid in blocks of
BLOCK_NODES nodes, and parallel transport evaluates Gamma at the RK4 nodes
of one block of segments at a time, which bounds the size of the
temporaries.

Derivatives are central differences with step H_DEFAULT; identity checks
built on them are expected to hold to about FD_TOL.  Geodesics and
parallel transport use fixed-step RK4.

Escape semantics: a geodesic step that leaves the box, exceeds the norm
bound, blows up, or crosses the deleted point sets escape_flag and keeps
the last valid state.  This witnesses incompleteness as a numeric event;
it can never prove completeness, which is a one-sided limitation of any
finite probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EscapeError, QuadratureError

VectorField = Callable[[np.ndarray], np.ndarray]
MetricField = Callable[[np.ndarray], np.ndarray]

H_DEFAULT = 1e-5       # central-difference step
FD_TOL = 1e-4          # expected accuracy of derivative-based identities
NORM_BOUND = 1e8       # blow-up threshold for geodesic states
STEPS_PER_UNIT = 1000  # default RK4 resolution
HOLE_RADIUS = 1e-6     # proximity that counts as hitting a deleted point
BLOCK_NODES = 256      # nodes per batched field evaluation (quadrature, transport)


@dataclass(frozen=True)
class Chart:
    """Axis-aligned chart domain with optional wrap and deleted point."""

    dim: int
    box_lo: tuple | None = None
    box_hi: tuple | None = None
    periods: tuple | None = None
    hole_center: tuple | None = None
    hole_radius: float = HOLE_RADIUS
    norm_bound: float = NORM_BOUND

    def wrap(self, x: np.ndarray) -> np.ndarray:
        if self.periods is None:
            return x
        p = np.asarray(self.periods)
        return x - p * np.floor(x / p)

    def contains(self, x: np.ndarray):
        """Domain membership of x, shape (..., dim): a bool per point."""
        x = np.asarray(x, dtype=float)
        # NaN or infinite coordinates fail the (finite) norm bound
        inside = _norm(x) <= self.norm_bound
        if self.box_lo is not None:
            inside &= (x >= self.box_lo).all(axis=-1)
        if self.box_hi is not None:
            inside &= (x <= self.box_hi).all(axis=-1)
        if self.hole_center is not None:
            inside &= _norm(x - self.hole_center) >= self.hole_radius
        return inside

    def segment_escapes(self, a: np.ndarray, b: np.ndarray) -> bool:
        """True when the step a -> b leaves the domain, including passing
        through the deleted point without landing on it."""
        if not self.contains(b):
            return True
        if self.hole_center is not None:
            c = np.asarray(self.hole_center)
            d = b - a
            denom = float(d @ d)
            t = 0.0 if denom == 0.0 else float(np.clip((c - a) @ d / denom, 0.0, 1.0))
            if np.linalg.norm(a + t * d - c) < self.hole_radius:
                return True
        return False


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, without overflow warnings."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))


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
    symmetric: bool = False


def flat_connection(dim: int, chart: Chart | None = None) -> ChartConnection:
    zeros = np.zeros((dim, dim, dim))
    return ChartConnection(
        dim, lambda p: zeros, chart or free_chart(dim), symmetric=True
    )


def constant_connection(
    gamma: np.ndarray, chart: Chart | None = None
) -> ChartConnection:
    gamma = np.asarray(gamma, dtype=float)
    dim = gamma.shape[0]
    symmetric = bool(np.allclose(gamma, gamma.transpose(0, 2, 1)))
    return ChartConnection(
        dim, lambda p: gamma, chart or free_chart(dim), symmetric=symmetric
    )


def coordinate_field(i: int, dim: int) -> VectorField:
    e = np.zeros(dim)
    e[i] = 1.0
    return lambda p: e


def constant_field(v: Sequence[float]) -> VectorField:
    arr = np.asarray(v, dtype=float)
    return lambda p: arr


def _require_inside(conn: ChartConnection, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    outside = ~conn.chart.contains(p)
    if outside.any():
        bad = p[outside][0]
        raise DomainError(f"point {bad.tolist()} is outside the chart domain")
    return p


def vector_jacobian(y: VectorField, p: np.ndarray, h: float = H_DEFAULT) -> np.ndarray:
    """jac[i][k] = d y^k / d x^i by central differences."""
    dim = len(p)
    jac = np.empty((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        jac[i] = (np.asarray(y(p + e)) - np.asarray(y(p - e))) / (2.0 * h)
    return jac


def lie_bracket(
    x: VectorField, y: VectorField, p: np.ndarray, h: float = H_DEFAULT
) -> np.ndarray:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    a = np.asarray(x(p), dtype=float)
    b = np.asarray(y(p), dtype=float)
    return a @ vector_jacobian(y, p, h) - b @ vector_jacobian(x, p, h)


def covariant_derivative(
    conn: ChartConnection,
    x: VectorField,
    y: VectorField,
    p: np.ndarray,
    h: float = H_DEFAULT,
) -> np.ndarray:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij Y^j X^i at p."""
    p = _require_inside(conn, p)
    a = np.asarray(x(p), dtype=float)
    b = np.asarray(y(p), dtype=float)
    jac = vector_jacobian(y, p, h)
    return a @ jac + np.einsum("kij,j,i->k", conn.gamma(p), b, a)


def torsion(
    conn: ChartConnection,
    x: VectorField,
    y: VectorField,
    p: np.ndarray,
    h: float = H_DEFAULT,
) -> np.ndarray:
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y]."""
    p = _require_inside(conn, p)
    return (
        covariant_derivative(conn, x, y, p, h)
        - covariant_derivative(conn, y, x, p, h)
        - lie_bracket(x, y, p, h)
    )


def curvature(
    conn: ChartConnection,
    x: VectorField,
    y: VectorField,
    z: VectorField,
    p: np.ndarray,
    h: float = H_DEFAULT,
) -> np.ndarray:
    """R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    p = _require_inside(conn, p)

    def nabla_y_z(q):
        return covariant_derivative(conn, y, z, q, h)

    def nabla_x_z(q):
        return covariant_derivative(conn, x, z, q, h)

    bracket_at_p = constant_field(lie_bracket(x, y, p, h))
    return (
        covariant_derivative(conn, x, nabla_y_z, p, h)
        - covariant_derivative(conn, y, nabla_x_z, p, h)
        - covariant_derivative(conn, bracket_at_p, z, p, h)
    )


def levi_civita(
    g: MetricField, chart: Chart | int, h: float = H_DEFAULT
) -> ChartConnection:
    """The unique symmetric metric-compatible connection.

    Christoffel symbols from the standard inversion of the Koszul formula
    on coordinate fields, with central differences of g.  The chart (or a
    bare dimension) fixes the domain.  One metric call per evaluation, on
    the stencil of each point and its 2 dim neighbours at +-h.
    """
    if isinstance(chart, int):
        chart = free_chart(chart)
    dim = chart.dim
    step = h * np.eye(dim)
    offsets = np.concatenate([np.zeros((1, dim)), step, -step])

    def gamma(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (dim,):
            raise DomainError(f"points must have {dim} coordinates")
        gs = _field(g, p[..., None, :] + offsets, (dim, dim))
        gp = gs[..., 0, :, :]
        gt = gp.swapaxes(-1, -2)
        if not ((gp == gt).all() or np.allclose(gp, gt, atol=1e-12)):
            raise DomainError("metric must be a symmetric matrix field")
        try:
            ginv = np.linalg.inv(gp)
        except np.linalg.LinAlgError as exc:
            flat = gp.reshape(-1, dim, dim)
            bad = np.flatnonzero(np.linalg.det(flat) == 0.0)
            first = p.reshape(-1, dim)[bad[0] if bad.size else 0]
            raise DomainError(f"metric is singular at {first.tolist()}") from exc
        # dg[..., i, j, k] = d_i g_jk
        dg = (gs[..., 1:dim + 1, :, :] - gs[..., dim + 1:, :, :]) / (2.0 * h)
        # c[..., k, i, j] = d_i g_jk + d_j g_ik - d_k g_ij
        t = np.moveaxis(dg, -1, -3)
        c = t + t.swapaxes(-1, -2) - dg
        flat_c = c.reshape(c.shape[:-2] + (dim * dim,))
        return 0.5 * (ginv @ flat_c).reshape(c.shape)

    return ChartConnection(
        dim=chart.dim, gamma=gamma, chart=chart, symmetric=True
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the geodesic system."""

    times: tuple
    points: tuple
    velocities: tuple
    escape_flag: bool

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

    @property
    def end_velocity(self) -> np.ndarray:
        return np.asarray(self.velocities[-1])


def _geodesic_rhs(conn: ChartConnection, u: np.ndarray, w: np.ndarray):
    return w, -np.einsum("akj,k,j->a", conn.gamma(u), w, w)


def geodesic(
    conn: ChartConnection,
    p: Sequence[float],
    v: Sequence[float],
    time: float,
    steps: int | None = None,
) -> Trajectory:
    """RK4 integration of u'' + Gamma(u) u' u' = 0 from (p, v) to t = time.

    With Gamma = 0 the integrator reproduces the straight line p + t v to
    machine accuracy.
    """
    if steps is None:
        steps = max(1, round(STEPS_PER_UNIT * abs(time)))
    if steps <= 0:
        raise DomainError("step count must be positive")
    u = np.asarray(p, dtype=float)
    w = np.asarray(v, dtype=float)
    u = _require_inside(conn, u)
    dt = time / steps
    times = [0.0]
    points = [conn.chart.wrap(u).copy()]
    velocities = [w.copy()]
    escaped = False
    for k in range(steps):
        try:
            du1, dw1 = _geodesic_rhs(conn, u, w)
            du2, dw2 = _geodesic_rhs(conn, u + 0.5 * dt * du1, w + 0.5 * dt * dw1)
            du3, dw3 = _geodesic_rhs(conn, u + 0.5 * dt * du2, w + 0.5 * dt * dw2)
            du4, dw4 = _geodesic_rhs(conn, u + dt * du3, w + dt * dw3)
        except (FloatingPointError, DomainError, ValueError):
            escaped = True
            break
        u_next = u + dt / 6.0 * (du1 + 2 * du2 + 2 * du3 + du4)
        w_next = w + dt / 6.0 * (dw1 + 2 * dw2 + 2 * dw3 + dw4)
        if not np.all(np.isfinite(u_next)) or conn.chart.segment_escapes(
            u, u_next
        ):
            escaped = True
            break
        u, w = conn.chart.wrap(u_next), w_next
        times.append((k + 1) * dt)
        points.append(u.copy())
        velocities.append(w.copy())
    return Trajectory(tuple(times), tuple(points), tuple(velocities), escaped)


def exponential_map(
    conn: ChartConnection,
    p: Sequence[float],
    v: Sequence[float],
    steps: int | None = None,
) -> np.ndarray:
    """Exp_p(v): endpoint of the unit-time geodesic with initial speed v."""
    traj = geodesic(conn, p, v, 1.0, steps or STEPS_PER_UNIT)
    if traj.escape_flag or traj.end_time < 1.0:
        raise EscapeError(
            f"geodesic left the chart at t = {traj.end_time:.6f}; "
            "v is outside the domain of the exponential map"
        )
    return traj.end_point


def parallel_transport(
    conn: ChartConnection,
    path: Sequence[Sequence[float]],
    v0: Sequence[float],
    substeps: int = 1,
) -> np.ndarray:
    """Transport v0 along a sampled path by RK4 on v' = -Gamma(x) x' v.

    The path is taken piecewise linear between samples; the result is
    linear in v0.  Gamma depends on the path alone, so for each block of
    segments it is evaluated up front at the 2 substeps + 1 RK4 nodes of
    every segment; only the update of v runs step by step.
    """
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
    hh = 1.0 / substeps
    t = np.arange(2 * substeps + 1) * (hh / 2)
    per_block = max(1, BLOCK_NODES // len(t))
    for lo in range(0, len(pts) - 1, per_block):
        a = pts[lo:lo + per_block + 1]
        xdot = np.diff(a, axis=0)
        nodes = a[:-1, None, :] + xdot[:, None, :] * t[:, None]
        gam = _field(conn.gamma, nodes, (dim, dim, dim))
        # transport matrices -Gamma(x) xdot at every node of every segment
        mats = -np.einsum("snkij,si->snkj", gam, xdot)
        for seg in mats:
            for s in range(substeps):
                m_a, m_m, m_b = seg[2 * s], seg[2 * s + 1], seg[2 * s + 2]
                k1 = m_a @ v
                k2 = m_m @ (v + hh / 2 * k1)
                k3 = m_m @ (v + hh / 2 * k2)
                k4 = m_b @ (v + hh * k3)
                v = v + hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


# -- Pfaffian and Gauss-Bonnet --------------------------------------------------

def pfaffian(a: np.ndarray) -> float:
    """Direct permutation-sum Pfaffian of an exactly skew matrix, 2n <= 8."""
    a = np.asarray(a, dtype=float)
    n2 = a.shape[0]
    if a.shape != (n2, n2):
        raise DomainError("Pfaffian needs a square matrix")
    if n2 % 2 != 0:
        raise DomainError("Pfaffian needs even dimension")
    if n2 > 8:
        raise DomainError("direct summation is limited to 2n <= 8")
    if not np.array_equal(a.T, -a):
        raise DomainError("matrix must be exactly skew-symmetric")
    n = n2 // 2
    total = 0.0
    for sigma in permutations(range(n2)):
        sign = _perm_sign(sigma)
        prod = 1.0
        for i in range(n):
            prod *= a[sigma[2 * i], sigma[2 * i + 1]]
            if prod == 0.0:
                break
        total += sign * prod
    return total / (math.factorial(n) * 2**n)


def _perm_sign(sigma) -> int:
    seen = [False] * len(sigma)
    sign = 1
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def coordinate_curvature_12(
    conn: ChartConnection, p: np.ndarray, h: float = H_DEFAULT
) -> np.ndarray:
    """R(e1, e2) e2 on coordinate fields, from a five-point Gamma stencil.

    Same tensor as curvature() with coordinate fields (their bracket
    vanishes), but without re-deriving the constant fields; used by the
    quadrature, which evaluates it at every node.  Points have shape
    (..., 2); one Gamma call covers the stencils of the whole batch.
    """
    p = np.asarray(p, dtype=float)
    offsets = h * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
    gs = _field(conn.gamma, p[..., None, :] + offsets, (2, 2, 2))
    gp = gs[..., 0, :, :, :]
    w22 = gp[..., :, 1, 1, None]
    w12 = gp[..., :, 0, 1, None]
    d0_w22 = (gs[..., 1, :, 1, 1] - gs[..., 2, :, 1, 1]) / (2 * h)
    d1_w12 = (gs[..., 3, :, 0, 1] - gs[..., 4, :, 0, 1]) / (2 * h)
    return (
        d0_w22 + (gp[..., :, 0, :] @ w22)[..., 0]
        - d1_w12 - (gp[..., :, 1, :] @ w12)[..., 0]
    )


def gaussian_curvature(
    conn: ChartConnection,
    g: MetricField,
    p: np.ndarray,
    h: float = H_DEFAULT,
) -> np.ndarray:
    """K = g(R(e1, e2) e2, e1) / (g11 g22 - g12^2) in the coordinate frame,
    at points of shape (..., 2)."""
    p = np.asarray(p, dtype=float)
    gp = _field(g, p, (2, 2))
    denom = gp[..., 0, 0] * gp[..., 1, 1] - gp[..., 0, 1] ** 2
    if np.any(denom <= 0.0):
        raise DomainError("metric is degenerate at the quadrature point")
    r = coordinate_curvature_12(conn, p, h)
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
    conn: ChartConnection, metric: MetricField, nodes: np.ndarray, h: float
) -> tuple[np.ndarray, int]:
    """K sqrt(det g) at the nodes where the metric is nondegenerate and
    finite, and the number of the other nodes, which are skipped."""
    gp = _field(metric, nodes, (2, 2))
    det = gp[..., 0, 0] * gp[..., 1, 1] - gp[..., 0, 1] ** 2
    good = (det > 0.0) & np.isfinite(det)
    k = gaussian_curvature(conn, metric, nodes[good], h)
    return k * np.sqrt(det[good]), len(nodes) - int(np.count_nonzero(good))


def gauss_bonnet(
    patches: Sequence[SurfacePatch],
    mesh_n: int,
    h: float = H_DEFAULT,
    skip_budget: float = 0.01,
) -> float:
    """Midpoint-rule quadrature of K dA / (2 pi) over the patches.

    Nodes where the metric degenerates are skipped with a warning budget of
    1 percent; exceeding the budget is an error.  The node grid is
    evaluated in blocks of BLOCK_NODES nodes; a block that raises
    DomainError is evaluated again node by node.
    """
    if mesh_n < 8:
        raise DomainError("mesh_n must be at least 8")
    total = 0.0
    skipped = 0
    nodes = 0
    for patch in patches:
        conn = levi_civita(patch.metric, free_chart(2), h)
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
                parts = [_node_weights(conn, patch.metric, block, h)]
            except DomainError:
                # retry node by node, so that only the bad nodes are skipped
                parts = []
                for node in block[:, None]:
                    try:
                        parts.append(_node_weights(conn, patch.metric, node, h))
                    except DomainError:
                        parts.append((np.zeros(0), 1))
            for weights, bad in parts:
                total += float(np.sum(weights * du * dv))
                skipped += bad
    if nodes and skipped > skip_budget * nodes:
        raise QuadratureError(
            f"{skipped} of {nodes} quadrature nodes were singular"
        )
    return total / (2.0 * math.pi)


# -- Nijenhuis tensor and para-hypercomplex checks -------------------------------

def nijenhuis(
    a_field: Callable[[np.ndarray], np.ndarray],
    x: VectorField,
    y: VectorField,
    p: np.ndarray,
    h: float = H_DEFAULT,
) -> np.ndarray:
    """N_A(X, Y) = -A^2 [X, Y] + A([AX, Y] + [X, AY]) - [AX, AY]."""
    p = np.asarray(p, dtype=float)

    def ax(q):
        return np.asarray(a_field(q)) @ np.asarray(x(q))

    def ay(q):
        return np.asarray(a_field(q)) @ np.asarray(y(q))

    ap = np.asarray(a_field(p), dtype=float)
    return (
        -ap @ ap @ lie_bracket(x, y, p, h)
        + ap @ (lie_bracket(ax, y, p, h) + lie_bracket(x, ay, p, h))
        - lie_bracket(ax, ay, p, h)
    )


def standard_para_pair(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical complex structure I and para-complex structure J on
    R^{2m} with coordinates (x_1..x_m, y_1..y_m)."""
    eye = np.eye(m)
    i_mat = np.block([[np.zeros((m, m)), -eye], [eye, np.zeros((m, m))]])
    j_mat = np.block([[eye, np.zeros((m, m))], [np.zeros((m, m)), -eye]])
    return i_mat, j_mat


def para_structure_check(
    m: int, z_samples: int = 16, point_samples: int = 4, seed: int = 0
) -> dict:
    """Verify the para-hypercomplex identities on R^{2m}.

    Returns a report of maximal deviations for J^2 = id, I^2 = -id,
    IJ + JI = 0, N_I = 0 at sampled points, and J_z^2 = id for sampled
    unit z; "passed" is True when all stay within 1e-10.
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

    rng = np.random.default_rng(seed)
    worst_n = 0.0
    a_field = lambda q: i_mat
    for _ in range(point_samples):
        p = rng.uniform(-1.0, 1.0, size=dim)
        for i in range(dim):
            for j in range(i + 1, dim):
                val = nijenhuis(
                    a_field, coordinate_field(i, dim), coordinate_field(j, dim), p
                )
                worst_n = max(worst_n, float(np.max(np.abs(val))))
    report["Nijenhuis of I"] = worst_n

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

    key: str
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
        return Geometry(key, chart, flat_connection(dim, chart),
                        metric=lambda p: np.eye(dim))
    if name == "hopf":
        dim = _dim_arg(arg)
        chart = Chart(dim, hole_center=(0.0,) * dim)
        return Geometry(key, chart, flat_connection(dim, chart))
    if name == "flat-torus":
        dim = _dim_arg(arg)
        chart = Chart(dim, periods=(1.0,) * dim)
        metric = lambda p: np.eye(dim)
        patches = (
            (SurfacePatch(0.0, 1.0, 0.0, 1.0, metric),) if dim == 2 else ()
        )
        return Geometry(key, chart, flat_connection(dim, chart),
                        metric=metric, patches=patches)
    if name == "sphere":
        try:
            radius = float(arg)
        except ValueError as exc:
            raise DomainError(f"bad sphere radius '{arg}'") from exc
        if radius <= 0.0:
            raise DomainError("sphere radius must be positive")
        chart = Chart(
            2, box_lo=(1e-8, -math.inf), box_hi=(math.pi - 1e-8, math.inf)
        )
        metric = sphere_metric(radius)
        patches = (SurfacePatch(0.0, math.pi, 0.0, 2.0 * math.pi, metric),)
        return Geometry(key, chart, levi_civita(metric, chart),
                        metric=metric, patches=patches)
    raise DomainError(f"unknown geometry '{name}'")


def _dim_arg(arg: str) -> int:
    try:
        dim = int(arg)
    except ValueError as exc:
        raise DomainError(f"bad dimension '{arg}'") from exc
    if dim < 1:
        raise DomainError("dimension must be a positive integer")
    return dim
