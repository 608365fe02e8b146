"""Chart geometry: connections, geodesics, transport, Pfaffian, quadrature."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chernlab.geometry as ge
from chernlab.errors import DomainError, EscapeError, QuadratureError
from chart_fields import constant_connection, constant_field, coordinate_field, end_velocity
from reference_geometry import reference_curvature_tensor, reference_gamma

PROPERTY = settings(max_examples=60, deadline=None)


def wrap_pi(a):
    while a <= -math.pi:
        a += 2 * math.pi
    while a > math.pi:
        a -= 2 * math.pi
    return a


# -- covariant derivative --------------------------------------------------------

def test_flat_directional_derivative():
    conn = ge.flat_connection(2)
    x = coordinate_field(0, 2)
    y = lambda p: np.array([0.0, p[0]])
    out = ge.covariant_derivative(conn, x, y, np.array([0.3, -0.7]))
    assert np.allclose(out, [0.0, 1.0], atol=1e-9)


def test_flat_constant_field_has_zero_derivative():
    conn = ge.flat_connection(3)
    out = ge.covariant_derivative(
        conn, constant_field([1.0, 2.0, 3.0]), constant_field([5.0, 0.0, -1.0]),
        np.zeros(3),
    )
    assert np.allclose(out, 0.0, atol=1e-10)


def test_constant_gamma_term():
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 0] = 2.0   # Gamma^0_{10} = 2
    gamma[1, 0, 1] = -3.0  # Gamma^1_{01} = -3
    conn = constant_connection(gamma)
    a = np.array([1.0, 4.0])
    b = np.array([2.0, 5.0])
    out = ge.covariant_derivative(
        conn, constant_field(a), constant_field(b), np.zeros(2)
    )
    expected = np.einsum("kij,j,i->k", gamma, b, a)
    assert np.allclose(out, expected, atol=1e-9)


# -- torsion and curvature ---------------------------------------------------------

def test_flat_connection_is_torsion_free_and_flat():
    conn = ge.flat_connection(2)
    x = lambda p: np.array([p[1], 1.0])
    y = lambda p: np.array([0.5, p[0] * p[1]])
    z = constant_field([1.0, -1.0])
    p = np.array([0.4, 0.9])
    assert np.allclose(ge.torsion(conn, x, y, p), 0.0, atol=ge.FD_TOL)
    assert np.allclose(ge.curvature(conn, x, y, z, p), 0.0, atol=ge.FD_TOL)


def test_torsion_of_asymmetric_constant_connection():
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 1] = 1.5
    gamma[0, 1, 0] = -0.5
    gamma[1, 0, 1] = 2.0
    conn = constant_connection(gamma)
    e0, e1 = coordinate_field(0, 2), coordinate_field(1, 2)
    out = ge.torsion(conn, e0, e1, np.zeros(2))
    expected = gamma[:, 0, 1] - gamma[:, 1, 0]
    assert np.allclose(out, expected, atol=1e-8)


def test_sphere_sectional_curvature():
    for radius in (1.0, 2.0):
        g = ge.sphere_metric(radius)
        conn = ge.levi_civita(g, 2)
        p = np.array([1.1, 0.3])
        k = ge.gaussian_curvature(conn, g, p)
        assert k == pytest.approx(1.0 / radius**2, abs=1e-5)


# References: torsion, curvature and the Nijenhuis tensor written from their
# definitions, with Lie brackets and covariant derivatives by (nested)
# central differences of the vector fields.

def lie_bracket(x, y, p):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    a = np.asarray(x(p), dtype=float)
    b = np.asarray(y(p), dtype=float)
    return a @ ge.vector_jacobian(y, p) - b @ ge.vector_jacobian(x, p)


def reference_torsion(conn, x, y, p):
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y]."""
    return (
        ge.covariant_derivative(conn, x, y, p)
        - ge.covariant_derivative(conn, y, x, p)
        - lie_bracket(x, y, p)
    )


def reference_curvature(conn, x, y, z, p):
    """R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    nabla_y_z = lambda q: ge.covariant_derivative(conn, y, z, q)
    nabla_x_z = lambda q: ge.covariant_derivative(conn, x, z, q)
    bracket_at_p = constant_field(lie_bracket(x, y, p))
    return (
        ge.covariant_derivative(conn, x, nabla_y_z, p)
        - ge.covariant_derivative(conn, y, nabla_x_z, p)
        - ge.covariant_derivative(conn, bracket_at_p, z, p)
    )


def reference_nijenhuis(a_field, x, y, p):
    """N_A(X, Y) = -A^2 [X, Y] + A([AX, Y] + [X, AY]) - [AX, AY]."""
    ax = lambda q: np.asarray(a_field(q)) @ np.asarray(x(q))
    ay = lambda q: np.asarray(a_field(q)) @ np.asarray(y(q))
    ap = np.asarray(a_field(p), dtype=float)
    return (
        -ap @ ap @ lie_bracket(x, y, p)
        + ap @ (lie_bracket(ax, y, p) + lie_bracket(x, ay, p))
        - lie_bracket(ax, ay, p)
    )


def random_connection(rng, dim):
    """A batched, non-symmetric, non-constant Christoffel field."""
    c0 = rng.normal(size=(dim,) * 3)
    c1 = rng.normal(size=(dim,) * 4)
    c2 = rng.normal(size=(dim,) * 4)
    return ge.ChartConnection(dim, lambda p: (
        c0 + np.einsum("kija,...a->...kij", c1, np.sin(p))
        + np.einsum("kija,...a->...kij", c2, p * p) / 4
    ), ge.free_chart(dim))


def random_field(rng, dim):
    c = rng.normal(size=dim)
    m1, m2 = rng.normal(size=(2, dim, dim))
    return lambda p: c + m1 @ np.cos(p) + m2 @ (p * p) / 3


def random_cases(dim_range=(2, 3, 4), per_dim=4, seed=5):
    rng = np.random.default_rng(seed)
    for dim in dim_range:
        for _ in range(per_dim):
            fields = [random_field(rng, dim) for _ in range(3)]
            yield rng, dim, fields, rng.uniform(-1.0, 1.0, size=dim)


def assert_close_to(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * max(1.0, np.max(np.abs(want)))


def test_curvature_matches_the_nested_difference_definition():
    g = ge.sphere_metric(1.3)
    conn = ge.levi_civita(g, 2)
    rng = np.random.default_rng(3)
    e0, e1 = coordinate_field(0, 2), coordinate_field(1, 2)
    for _ in range(5):
        p = np.array([rng.uniform(0.5, 2.5), rng.uniform(0.0, 6.0)])
        for x, y, z in [(e0, e1, e1), (e1, e0, e0), (e0, e1, e0)]:
            assert_close_to(ge.curvature(conn, x, y, z, p),
                            reference_curvature(conn, x, y, z, p), 1e-8)
    for rng, dim, (x, y, z), p in random_cases():
        conn = random_connection(rng, dim)
        assert_close_to(ge.curvature(conn, x, y, z, p),
                        reference_curvature(conn, x, y, z, p), 1e-8)


def test_torsion_matches_the_difference_definition():
    for rng, dim, (x, y, _), p in random_cases():
        conn = random_connection(rng, dim)
        got = ge.torsion(conn, x, y, p)
        assert np.max(np.abs(got - reference_torsion(conn, x, y, p))) <= 1e-12


def test_nijenhuis_matches_the_bracket_definition():
    for rng, dim, (x, y, _), p in random_cases():
        c, m = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim, dim))
        a_field = lambda q: c + m @ np.sin(q)
        assert_close_to(ge.nijenhuis(a_field, x, y, p),
                        reference_nijenhuis(a_field, x, y, p), 1e-8)


def random_metric(rng, dim):
    """A batched positive-definite metric field b b^T + dim I, b affine in p."""
    b0, b1 = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim, dim))

    def g(p):
        b = b0 + np.einsum("ija,...a->...ij", b1, np.sin(p)) / 2
        return b @ b.swapaxes(-1, -2) + dim * np.eye(dim)

    return g


@PROPERTY
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_levi_civita_curvature_symmetries(dim, seed):
    rng = np.random.default_rng(seed)
    conn = ge.levi_civita(random_metric(rng, dim), dim)
    p = rng.uniform(-1.0, 1.0, size=(3, dim))
    r = ge._curvature_tensor(conn, p)  # r[..., k, l, i, j] = R^k_lij
    assert np.array_equal(r, -r.swapaxes(-1, -2))
    # first Bianchi identity for a symmetric connection: R^k_lij + R^k_ijl + R^k_jli = 0
    cyclic = r + r.transpose(0, 1, 3, 4, 2) + r.transpose(0, 1, 4, 2, 3)
    assert np.max(np.abs(cyclic)) <= 1e-12 * max(1.0, np.max(np.abs(r)))


@PROPERTY
@given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
def test_curvature_of_a_constant_connection_is_its_quadratic_term(dim, seed):
    rng = np.random.default_rng(seed)
    gamma = rng.normal(size=(dim,) * 3)
    conn = constant_connection(gamma)
    r = ge._curvature_tensor(conn, rng.uniform(-1.0, 1.0, size=dim))
    want = (np.einsum("kim,mjl->klij", gamma, gamma)
            - np.einsum("kjm,mil->klij", gamma, gamma))
    assert np.max(np.abs(r - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_tensoriality_in_function_multiples():
    g = ge.sphere_metric(1.0)
    conn = ge.levi_civita(g, 2)
    f = lambda p: math.sin(p[0]) + 2.0 * math.cos(p[1])
    x = lambda p: np.array([0.7, p[1] * 0.1 + 0.4])
    y = lambda p: np.array([p[0] * 0.2, 1.0])
    z = constant_field([0.3, -0.8])
    fx = lambda p: f(p) * x(p)
    rng = np.random.default_rng(7)
    for _ in range(4):
        p = np.array([rng.uniform(0.5, 2.5), rng.uniform(0.0, 3.0)])
        t1 = ge.torsion(conn, fx, y, p)
        t2 = f(p) * ge.torsion(conn, x, y, p)
        assert np.allclose(t1, t2, atol=ge.FD_TOL)
        r1 = ge.curvature(conn, fx, y, z, p)
        r2 = f(p) * ge.curvature(conn, x, y, z, p)
        assert np.allclose(r1, r2, atol=ge.FD_TOL)
        r3 = ge.curvature(conn, x, y, lambda q: f(q) * z(q), p)
        r4 = f(p) * ge.curvature(conn, x, y, z, p)
        assert np.allclose(r3, r4, atol=ge.FD_TOL)


# -- Levi-Civita ---------------------------------------------------------------------

def test_levi_civita_euclidean_is_flat():
    conn = ge.levi_civita(lambda p: np.eye(3), 3)
    assert np.allclose(conn.gamma(np.array([0.2, -0.5, 1.0])), 0.0, atol=1e-9)


def test_levi_civita_sphere_symbols():
    conn = ge.levi_civita(ge.sphere_metric(1.0), 2)
    for theta in (0.6, 1.2, 2.2):
        gam = conn.gamma(np.array([theta, 0.9]))
        assert gam[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta), abs=1e-7)
        assert gam[1, 0, 1] == pytest.approx(math.cos(theta) / math.sin(theta), abs=1e-7)
        assert gam[1, 1, 0] == pytest.approx(math.cos(theta) / math.sin(theta), abs=1e-7)
        assert np.allclose(gam, gam.transpose(0, 2, 1), atol=1e-7)


def conformal_metric(a, b):
    """g = exp(2 f) * I with f = a x + b y^2, on points of shape (..., 2)."""
    return lambda p: (
        np.exp(2 * (a * p[..., 0] + b * p[..., 1] ** 2))[..., None, None] * np.eye(2)
    )


def test_levi_civita_conformal_metric():
    # symbols are combinations of df
    a, b = 0.3, 0.2
    f_grad = lambda p: np.array([a, 2.0 * b * p[1]])
    metric = conformal_metric(a, b)
    conn = ge.levi_civita(metric, 2)
    p = np.array([0.5, -0.8])
    df = f_grad(p)
    gam = conn.gamma(p)
    assert gam[0, 0, 0] == pytest.approx(df[0], abs=1e-6)
    assert gam[0, 0, 1] == pytest.approx(df[1], abs=1e-6)
    assert gam[0, 1, 1] == pytest.approx(-df[0], abs=1e-6)
    assert gam[1, 1, 1] == pytest.approx(df[1], abs=1e-6)
    assert gam[1, 0, 1] == pytest.approx(df[0], abs=1e-6)
    assert gam[1, 0, 0] == pytest.approx(-df[1], abs=1e-6)


def test_levi_civita_metric_compatibility():
    g = ge.sphere_metric(1.0)
    conn = ge.levi_civita(g, 2)
    x = lambda p: np.array([0.4, 0.6])
    y = lambda p: np.array([p[1] * 0.1, 1.0])
    z = lambda p: np.array([1.0, p[0] * 0.2])
    rng = np.random.default_rng(11)
    h = ge.H_DEFAULT
    for _ in range(4):
        p = np.array([rng.uniform(0.6, 2.4), rng.uniform(0.0, 3.0)])
        e = np.zeros(2)
        lhs = 0.0
        for i in range(2):
            e[:] = 0.0
            e[i] = h
            gp, gm = g(p + e), g(p - e)
            val_p = float(y(p + e) @ gp @ z(p + e))
            val_m = float(y(p - e) @ gm @ z(p - e))
            lhs += x(p)[i] * (val_p - val_m) / (2 * h)
        gp = g(p)
        rhs = float(
            ge.covariant_derivative(conn, x, y, p) @ gp @ z(p)
            + y(p) @ gp @ ge.covariant_derivative(conn, x, z, p)
        )
        assert lhs == pytest.approx(rhs, abs=ge.FD_TOL)


def assert_batch_matches_points(conn, pts):
    batch = conn.gamma(pts)
    assert batch.shape == (len(pts), 2, 2, 2)
    for i, p in enumerate(pts):
        assert np.array_equal(batch[i], conn.gamma(p))


def batches(lo, hi):
    coord = st.floats(lo, hi)
    return st.lists(st.tuples(coord, st.floats(-3.0, 3.0)), min_size=1, max_size=8)


@PROPERTY
@given(st.floats(0.5, 3.0), batches(0.2, 2.9))
def test_batched_sphere_gamma_matches_single_points(radius, pts):
    conn = ge.levi_civita(ge.sphere_metric(radius), 2)
    assert_batch_matches_points(conn, np.array(pts))


@PROPERTY
@given(batches(-2.0, 2.0))
def test_batched_conformal_gamma_matches_single_points(pts):
    conn = ge.levi_civita(conformal_metric(0.3, 0.2), 2)
    assert_batch_matches_points(conn, np.array(pts))


def test_levi_civita_constant_metric_broadcasts():
    conn = ge.levi_civita(lambda p: np.eye(3), 3)
    assert conn.gamma(np.zeros((4, 5, 3))).shape == (4, 5, 3, 3, 3)


def test_levi_civita_singular_metric_raises():
    conn = ge.levi_civita(lambda p: np.zeros((2, 2)), 2)
    with pytest.raises(DomainError):
        conn.gamma(np.zeros(2))


def lapack_gamma(g, p):
    """0.5 inv(g) c with c[..., k, i, j] = d_i g_jk + d_j g_ik - d_k g_ij
    by central differences: Gamma with g^-1 from np.linalg.inv."""
    dim = p.shape[-1]
    h = ge.H_DEFAULT
    stencil = p[..., None, :] + ge._stencil(dim)
    gs = np.broadcast_to(g(stencil), stencil.shape + (dim,))
    dg = (gs[..., 1:dim + 1, :, :] - gs[..., dim + 1:, :, :]) / (2.0 * h)
    t = np.moveaxis(dg, -1, -3)
    c = t + t.swapaxes(-1, -2) - dg
    flat_c = c.reshape(c.shape[:-2] + (dim * dim,))
    return 0.5 * (np.linalg.inv(gs[..., 0, :, :]) @ flat_c).reshape(c.shape)


def assert_close_per_point(got, want, rel):
    """|got - want| <= rel max|want| at each point of a (n, dim, dim, dim) batch."""
    err = np.abs(got - want).max(axis=(1, 2, 3))
    assert (err <= rel * np.abs(want).max(axis=(1, 2, 3))).all()


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_gamma_off_dimension_two_is_the_lapack_formula(dim):
    rng = np.random.default_rng(dim)
    g = random_metric(rng, dim)
    p = rng.uniform(-1.0, 1.0, size=(6, dim))
    assert np.array_equal(ge.levi_civita(g, dim).gamma(p), lapack_gamma(g, p))


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_closed_form_gamma_agrees_with_the_lapack_formula(seed):
    rng = np.random.default_rng(seed)
    g = random_metric(rng, 2)
    p = rng.uniform(-1.0, 1.0, size=(6, 2))
    assert_close_per_point(ge.levi_civita(g, 2).gamma(p), lapack_gamma(g, p), 1e-14)


def nearly_symmetric_metric(asymmetry):
    def g(q):
        out = np.empty(q.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 + np.sin(q[..., 0])
        out[..., 0, 1] = 1.0 + asymmetry
        out[..., 1, 0] = 1.0
        out[..., 1, 1] = 3.0 + np.cos(q[..., 1])
        return out

    return g


def test_closed_form_inverts_a_metric_symmetric_within_tolerance():
    # the symmetry check lets g01 - g10 reach 1e-12 max|g|; the closed form,
    # like LAPACK, inverts g as given, so adj(g) is transposed
    g = nearly_symmetric_metric(1e-12)
    p = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 2))
    assert_close_per_point(ge.levi_civita(g, 2).gamma(p), lapack_gamma(g, p), 1e-14)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(-600, 600))
@example(seed=0, k=-600)
@example(seed=0, k=-535)  # det 2^k g is subnormal
@example(seed=0, k=600)
def test_gamma_is_invariant_under_power_of_two_scaling(seed, k):
    # 2^k g and its differences are exact, and Gamma(2^k g) = Gamma(g); in
    # this range det 2^k g leaves the normal floats at both ends, so the
    # closed form and the LAPACK fallback are compared
    rng = np.random.default_rng(seed)
    g = random_metric(rng, 2)
    p = rng.uniform(-1.0, 1.0, size=(4, 2))
    scale = math.ldexp(1.0, k)
    want = ge.levi_civita(g, 2).gamma(p)
    with np.errstate(over="ignore", invalid="ignore"):  # det overflows, k > 511
        got = ge.levi_civita(lambda q: scale * g(q), 2).gamma(p)
    assert_close_per_point(got, want, 1e-13)


@pytest.mark.parametrize("value", [
    np.zeros((2, 2)),
    np.array([[1.0, 2.0], [2.0, 4.0]]),
])
def test_singular_two_dimensional_metric_names_the_point(value):
    conn = ge.levi_civita(lambda p: value, 2)
    with pytest.raises(DomainError) as err:
        conn.gamma(np.array([0.1, 0.2]))
    assert str(err.value) == "metric is singular at [0.1, 0.2]"


@pytest.mark.parametrize("factor", [1e-200, 1e200])
def test_gamma_of_a_metric_whose_det_leaves_the_float_range(factor):
    g = ge.sphere_metric(1.0)
    scaled = lambda q: factor * g(q)
    p = np.array([[0.1, 0.2], [1.2, -0.4]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = ge.levi_civita(scaled, 2).gamma(p)
    # det underflows to 0 or overflows to inf: the LAPACK formula, bit for bit
    assert np.array_equal(got, lapack_gamma(scaled, p))
    # a decimal factor rounds g, and the central differences amplify that
    assert_close_per_point(got, ge.levi_civita(g, 2).gamma(p), 1e-10)


def test_nan_metric_is_not_symmetric():
    conn = ge.levi_civita(lambda p: np.full((2, 2), np.nan), 2)
    with pytest.raises(DomainError, match="metric must be a symmetric matrix field"):
        conn.gamma(np.array([0.1, 0.2]))


@pytest.mark.parametrize("asymmetry", [1e-6, math.inf])
def test_metric_asymmetric_beyond_tolerance_is_not_symmetric(asymmetry):
    # 1e-6 is within numpy's default rtol, not within 1e-12 max|g|; an
    # infinite asymmetry fails although max|g| is infinite too
    conn = ge.levi_civita(nearly_symmetric_metric(asymmetry), 2)
    with pytest.raises(DomainError, match="metric must be a symmetric matrix field"):
        conn.gamma(np.array([0.1, 0.2]))


def test_metric_with_an_infinite_entry_gives_nan_gamma():
    g = lambda p: np.array([[np.inf, 0.0], [0.0, 1.0]])
    p = np.array([0.1, 0.2])
    with np.errstate(invalid="ignore"):
        got = ge.levi_civita(g, 2).gamma(p)
        want = lapack_gamma(g, p)
    assert np.isnan(got).any()
    assert np.array_equal(got, want, equal_nan=True)


def metric_at(p0, m):
    """A 2-D metric field equal to m, entry for entry, at p0 and varying
    smoothly by finite symmetric terms elsewhere."""
    m = np.array(m, dtype=float)
    a = np.array([[0.3, 0.1], [0.1, -0.2]])
    b = np.array([[-0.1, 0.2], [0.2, 0.4]])

    def g(q):
        d = q - p0
        out = m + d[..., 0, None, None] * a + d[..., 1, None, None] * b
        return np.where((d == 0.0).all(axis=-1)[..., None, None], m, out)

    return g


def gamma_or_message(conn, p):
    try:
        return conn.gamma(p), None
    except DomainError as exc:
        return None, str(exc)


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


SKEW = 1e-12  # b - c == SKEW max|g| for [[1, SKEW], [0, 0.5]]
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                           5e-324, 1e-160, 1e160, 1e308])
ENTRY = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=True), SPECIAL)
SYMMETRIC = st.tuples(ENTRY, ENTRY, ENTRY).map(lambda t: ((t[0], t[1]), (t[1], t[2])))
ANY_METRIC = st.tuples(ENTRY, ENTRY, ENTRY, ENTRY).map(lambda t: ((t[0], t[1]), (t[2], t[3])))


@settings(max_examples=200, deadline=None)
@given(st.one_of(SYMMETRIC, ANY_METRIC), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@example(((1.0, 2.0), (2.0, 4.0)), 0.1, 0.2)           # det zero
@example(((0.0, 0.0), (0.0, 0.0)), 0.1, 0.2)
@example(((1e-160, 0.0), (0.0, 1e-160)), 0.1, 0.2)      # det subnormal
@example(((1e160, 0.0), (0.0, 1e160)), 0.1, 0.2)        # det overflows
@example(((1e160, 1e160), (1e160, 1e160)), 0.1, 0.2)    # inf - inf
@example(((math.nan, 0.0), (0.0, 1.0)), 0.1, 0.2)
@example(((1.0, 0.0), (0.0, math.nan)), 0.1, 0.2)       # NaN on the diagonal only
@example(((1.0, math.nan), (math.nan, 1.0)), 0.1, 0.2)
@example(((math.inf, 0.0), (0.0, 1.0)), 0.1, 0.2)
@example(((2.0, -math.inf), (-math.inf, 1.0)), 0.1, 0.2)
@example(((2.0, 0.0), (-0.0, 1.0)), 0.1, 0.2)
@example(((2.0, -0.0), (0.0, 1.0)), 0.1, 0.2)
@example(((2.0, -0.0), (-0.0, 1.0)), 0.1, 0.2)
@example(((1.0, SKEW), (0.0, 0.5)), 0.1, 0.2)           # skew exactly at the bound
@example(((1.0, math.nextafter(SKEW, 1.0)), (0.0, 0.5)), 0.1, 0.2)
def test_one_metric_gives_the_gamma_of_the_same_metric_in_a_stack(m, x, y):
    # the one-metric path reads four Python floats; a stack of the same
    # point takes the batched expression: the same bits, or the same error
    p = np.array([x, y])
    conn = ge.levi_civita(metric_at(p, m), 2)
    with np.errstate(all="ignore"):  # NaN and inf entries
        single, message = gamma_or_message(conn, p)
        stack, stack_message = gamma_or_message(conn, np.array([p, p]))
    assert message == stack_message
    if message is None:
        assert same_bits(single, stack[0]) and same_bits(single, stack[1])


def test_skew_at_the_tolerance_is_inverted_and_beyond_it_is_refused():
    p = np.array([0.1, 0.2])
    at = ge.levi_civita(metric_at(p, ((1.0, SKEW), (0.0, 0.5))), 2).gamma(p)
    assert np.isfinite(at).all()
    beyond = ge.levi_civita(metric_at(p, ((1.0, math.nextafter(SKEW, 1.0)), (0.0, 0.5))), 2)
    with pytest.raises(DomainError, match="metric must be a symmetric matrix field"):
        beyond.gamma(p)


def test_overflowing_det_warns_neither_for_one_metric_nor_a_stack():
    g = ge.sphere_metric(1.0)
    conn = ge.levi_civita(lambda q: 1e200 * g(q), 2)
    p = np.array([[1.0, 0.3], [0.5, -0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = conn.gamma(p)
        single = conn.gamma(p[0])
    assert np.isfinite(stack).all()
    assert same_bits(single, stack[0])


POINT_SHAPES = [(), (3,), (4, 5), (256, 5)]


def skewed_metric(g, dim):
    """g with g_01 raised by 1e-13 max|g|, within the symmetry tolerance."""
    if dim == 1:
        return g

    def skewed(q):
        out = np.array(g(q))
        out[..., 0, 1] += 1e-13 * np.abs(out).max(axis=(-2, -1))
        return out

    return skewed


def stencil_metrics(dim):
    """(name, metric field) cases for the flat-row kernels: exactly
    symmetric, skewed within tolerance, and scaled so that det g is
    subnormal or overflows (the LAPACK fallback in 2-D)."""
    g = random_metric(np.random.default_rng(40 + dim), dim)
    return [("symmetric", g), ("skewed", skewed_metric(g, dim)),
            ("det-subnormal", lambda q: 1e-160 * g(q)),
            ("det-huge", lambda q: 1e160 * g(q))]


def stencil_points(shape, dim, seed=0):
    return np.random.default_rng(seed).uniform(0.3, 2.8, size=shape + (dim,))


@pytest.mark.parametrize("shape", POINT_SHAPES)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_flat_row_gamma_and_curvature_are_the_reference_bit_for_bit(dim, shape):
    p = stencil_points(shape, dim)
    for name, g in stencil_metrics(dim):
        conn = ge.levi_civita(g, dim)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = conn.gamma(p), reference_gamma(g, p)
        assert got.shape == shape + (dim,) * 3, name
        assert same_bits(got, want), name
    conn = random_connection(np.random.default_rng(dim), dim)
    got = ge._curvature_tensor(conn, p)
    assert got.shape == shape + (dim,) * 4
    assert same_bits(got, reference_curvature_tensor(conn, p))
    conn = ge.levi_civita(stencil_metrics(dim)[0][1], dim)
    assert same_bits(ge._curvature_tensor(conn, p), reference_curvature_tensor(conn, p))


@pytest.mark.parametrize("shape", POINT_SHAPES)
@pytest.mark.parametrize("radius", [1e-50, 1e50])
def test_flat_row_sphere_gamma_at_the_radius_bounds_is_the_reference(radius, shape):
    g = ge.sphere_metric(radius)
    p = stencil_points(shape, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = ge.levi_civita(g, 2).gamma(p), reference_gamma(g, p)
    assert same_bits(got, want)


def reference_message(g, p):
    try:
        reference_gamma(g, p)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("shape", POINT_SHAPES)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_flat_row_gamma_refuses_as_the_reference(dim, shape):
    # singular everywhere, NaN everywhere, and singular at the points with
    # x_0 <= 1.5 only, where the message names the first such point
    p = stencil_points(shape, dim)
    top = np.zeros((dim, dim))
    top[0, 0] = 1.0  # singular for dim > 1
    for value in [np.zeros((dim, dim)), np.full((dim, dim), np.nan)] + [top] * (dim > 1):
        g = lambda q, value=value: value
        _, message = gamma_or_message(ge.levi_civita(g, dim), p)
        assert message is not None and message == reference_message(g, p)
    g = lambda q: np.maximum(q[..., :1, None] - 1.5, 0.0) * np.eye(dim)
    _, message = gamma_or_message(ge.levi_civita(g, dim), p)
    assert message == reference_message(g, p)


# -- geodesics --------------------------------------------------------------------

def test_flat_geodesic_is_straight_line():
    conn = ge.flat_connection(3)
    traj = ge.geodesic(conn, [1.0, 2.0, 3.0], [0.5, -1.0, 0.0], 4.0, steps=64)
    assert not traj.escape_flag
    assert np.allclose(traj.end_point, [3.0, -2.0, 3.0], atol=1e-12)
    assert np.allclose(end_velocity(traj), [0.5, -1.0, 0.0], atol=1e-14)


def test_hopf_geodesic_aimed_at_origin_escapes():
    geo = ge.parse_geometry("hopf:3")
    p = np.array([0.6, -0.2, 0.3])
    traj = ge.geodesic(geo.connection, p, -p, 1.01)
    assert traj.escape_flag
    assert traj.end_time < 1.01


def test_hopf_geodesic_missing_origin_survives():
    geo = ge.parse_geometry("hopf:2")
    traj = ge.geodesic(geo.connection, [1.0, 0.5], [0.0, 1.0], 2.0, steps=500)
    assert not traj.escape_flag


def test_flat_torus_geodesic_runs_forever():
    geo = ge.parse_geometry("flat-torus:2")
    traj = ge.geodesic(geo.connection, [0.1, 0.2], [0.3, 0.7], 50.0, steps=5000)
    assert not traj.escape_flag
    assert traj.end_time == pytest.approx(50.0)
    points = np.array(traj.points)
    assert np.all(points >= 0.0) and np.all(points < 1.0)


def test_sphere_geodesic_fifth_order_convergence_at_the_floor():
    # at a tolerance no step meets, every step has the floor size time / steps
    geo = ge.parse_geometry("sphere:1")
    p, v, t = [1.2, 0.4], [0.31, 0.52], 1.0

    def error(steps):
        traj = ge.geodesic(geo.connection, p, v, t, steps, tol=1e-30)
        assert len(traj.times) - 1 == traj.floored == steps
        diff = traj.end_point - great_circle(p, v, t)
        return float(np.linalg.norm(diff))

    assert 16.0 < error(8) / error(16) < 64.0


def test_geodesic_rejects_bad_steps():
    conn = ge.flat_connection(2)
    with pytest.raises(DomainError):
        ge.geodesic(conn, [0.0, 0.0], [1.0, 0.0], 1.0, steps=0)
    with pytest.raises(DomainError, match="step count must be positive"):
        ge.exponential_map(conn, [0.0, 0.0], [1.0, 0.0], steps=0)


def test_trajectory_validation():
    with pytest.raises(DomainError):
        ge.Trajectory((0.0, 0.0), ((0.0,), (1.0,)), ((1.0,), (1.0,)), False)



def test_geodesic_rejects_mismatched_dimensions():
    conn = ge.flat_connection(2)
    with pytest.raises(DomainError):
        ge.geodesic(conn, [0.0, 0.0], [1.0, 0.0, 0.0], 1.0, steps=4)
    with pytest.raises(DomainError):
        ge.geodesic(conn, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0, steps=4)


def scalar_segment_escapes(chart, a, b):
    """One segment at a time, as the geodesic loop tested it per step."""
    if not chart.contains(b):
        return True
    if chart.hole_center is not None:
        c = np.asarray(chart.hole_center)
        d = b - a
        denom = float(d @ d)
        t = 0.0 if denom == 0.0 else float(np.clip((c - a) @ d / denom, 0.0, 1.0))
        if np.linalg.norm(a + t * d - c) < chart.hole_radius:
            return True
    return False


# Dormand-Prince 5(4) as a Butcher tableau: the stage rows, the fifth-order
# weights and the embedded fourth-order weights
DP_ROWS = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_FIFTH = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
DP_FOURTH = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
             187 / 2100, 1 / 40)
DP_ERROR = tuple(b - c for b, c in zip(DP_FIFTH, DP_FOURTH))


def reference_geodesic(conn, p, v, time, steps=None, tally=None):
    """The adaptive loop written out step by step: separate u and w, every
    stage from the tableau (the derivative at the start of a step is
    recomputed, not carried over), the error from the two weight rows, and
    the escape test on one segment at a time.  It counts rejected steps as
    the library does; tally, if given, counts the trials by outcome:
    "accepted", "error" (rejected by the error test) and "lost" (to the
    escape test, halved or ending the run)."""
    def rhs(u, w):
        return w, -np.einsum("akj,k,j->a", conn.gamma(u), w, w)

    def combine(weights, ks):
        return sum(c * k for c, k in zip(weights, ks))

    steps = steps or math.ceil(ge.STEPS_PER_UNIT * time)
    h_min, rtol = time / steps, ge.GEODESIC_RTOL
    u = np.asarray(p, dtype=float)
    w = np.asarray(v, dtype=float)
    times, points, velocities = [0.0], [conn.chart.wrap(u)], [w]
    t, h, grow, escaped = 0.0, time, True, False
    tally = {"accepted": 0, "error": 0, "lost": 0} if tally is None else tally
    while t < time:
        floor = len(times) == steps
        last = floor or h >= time - t
        if last:
            h = time - t
        floor = floor or h <= h_min
        try:
            ku, kw = [], []
            for row in DP_ROWS:
                du, dw = rhs(u + h * combine(row, ku), w + h * combine(row, kw))
                ku.append(du)
                kw.append(dw)
            u_new, w_new = u + h * combine(DP_FIFTH, ku), w + h * combine(DP_FIFTH, kw)
            err = h * np.concatenate([combine(DP_ERROR, ku), combine(DP_ERROR, kw)])
            bad = (not np.all(np.isfinite(np.concatenate([u_new, w_new, err])))
                   or scalar_segment_escapes(conn.chart, u, u_new))
        except (FloatingPointError, DomainError, ValueError):
            bad = True
        if bad:
            tally["lost"] += 1
            if floor:
                escaped = True
                break
            h, grow = max(h / 2.0, h_min), False
            continue
        old, new = np.concatenate([u, w]), np.concatenate([u_new, w_new])
        scale = rtol / 100.0 + rtol * np.maximum(np.abs(old), np.abs(new))
        e = math.sqrt(float(np.mean((err / scale) ** 2)))
        factor = min(5.0, max(0.2, 0.9 * max(e, 1e-10) ** -0.2))
        if e > 1.0 and not floor:
            h, grow = max(h * factor, h_min), False
            tally["error"] += 1
            continue
        tally["accepted"] += 1
        t = time if last else t + h
        u, w = conn.chart.wrap(u_new), w_new
        times.append(t)
        points.append(u)
        velocities.append(w)
        h = max(h * (factor if grow else min(factor, 1.0)), h_min)
        grow = True
    rejected = tally["error"] + tally["lost"] - escaped  # the last lost trial ends the run
    return ge.Trajectory(tuple(times), tuple(points), tuple(velocities), escaped, rejected)


def reference_pair(conn, p, v, time, steps):
    got = ge.geodesic(conn, p, v, time, steps)
    with np.errstate(all="ignore"):
        want = reference_geodesic(conn, p, v, time, steps)
    assert got.escape_flag == want.escape_flag
    return got, want


def assert_matches_reference(conn, p, v, time, steps=None, tol=1e-12):
    """Where the error estimate is rounding noise (Gamma = 0 along the
    path), both loops take the same steps and agree to tol at every one."""
    got, want = reference_pair(conn, p, v, time, steps)
    assert got.times == want.times and got.rejected == want.rejected
    for a, b in [(got.points, want.points), (got.velocities, want.velocities)]:
        assert np.max(np.abs(np.array(a) - np.array(b))) <= tol
    return got


def assert_ends_near_reference(conn, p, v, time, steps, tol):
    """Elsewhere the rounding of the error estimate moves the step sizes a
    little, so the loops are compared at their ends: the same escape within
    one floor step, or end states within tol relative to their size."""
    got, want = reference_pair(conn, p, v, time, steps)
    assert abs(got.end_time - want.end_time) <= time / steps
    if not got.escape_flag:
        for a, b in [(got.end_point, want.end_point),
                     (end_velocity(got), end_velocity(want))]:
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= tol
    return got


B = ge.BLOCK_NODES


@pytest.mark.parametrize("steps", [1, 2, 7, B - 1, B, B + 1, 2 * B + 37])
@pytest.mark.parametrize("key", ["euclidean:2", "hopf:2", "flat-torus:2"])
def test_geodesic_matches_per_step_loop_on_flat_charts(key, steps):
    conn = ge.parse_geometry(key).connection
    rng = np.random.default_rng(steps)
    for _ in range(4):
        p, v = rng.uniform(-2.0, 2.0, 2), rng.uniform(-1.5, 1.5, 2)
        assert_matches_reference(conn, p, v, float(rng.uniform(0.2, 3.0)), steps)
    # a start point outside [0, 1)^2 is wrapped only after the first step
    assert_matches_reference(conn, [1.7, -0.3], [0.3, 0.7], 1.0, steps)
    assert_matches_reference(conn, [-2.2, 3.05], [0.0, -0.4], 2.0, steps)


@pytest.mark.parametrize("k, steps", [
    (0, 1), (0, 5), (B - 1, B), (B - 1, 2 * B), (B, 2 * B), (B, B + 1),
    (2 * B - 1, 3 * B + 5), (2 * B + 37, 3 * B), (999, 1500),
])
def test_geodesic_aimed_at_the_puncture_matches_per_step_loop(k, steps):
    conn = ge.parse_geometry("hopf:2").connection
    # the line from p to -p meets 0 at t = 1; the step floor is 1 / (k + 1/2)
    time = steps / (k + 0.5)
    h_min = time / steps
    for p in ([0.8, -0.6], [1.0, 0.0], [0.0, -0.3]):
        p = np.array(p)
        got = assert_matches_reference(conn, p, -p, time, steps)
        assert got.escape_flag and 1.0 - h_min - 1e-5 < got.end_time < 1.0
        assert len(got.times) - 1 <= steps


def test_a_trial_lost_to_the_escape_test_takes_no_last_stage():
    # closing in on the puncture, every trial whose new state crosses it is
    # lost before the seventh (first same as last) stage, which only a
    # trial that can still be accepted needs: 5 Gamma calls, not 6
    counts = {"calls": 0, "points": 0}
    hopf = ge.parse_geometry("hopf:2").connection
    p = np.array([0.8, 0.6])
    got = ge.geodesic(counting_connection(hopf, counts), p, -p, 1.5)
    tally = {"accepted": 0, "error": 0, "lost": 0}
    with np.errstate(all="ignore"):
        reference_geodesic(hopf, p, -p, 1.5, tally=tally)
    assert got.escape_flag and tally["lost"] > 0
    assert tally["accepted"] == len(got.times) - 1
    assert counts["calls"] == (1 + 6 * (tally["accepted"] + tally["error"])
                               + 5 * tally["lost"])
    assert_matches_reference(hopf, p, -p, 1.5)


@pytest.mark.parametrize("steps", [1, 9, B - 1, B + 1, 2 * B + 37])
def test_sphere_geodesic_matches_per_step_loop(steps):
    conn = ge.parse_geometry("sphere:1.7").connection
    rng = np.random.default_rng(100 + steps)
    for _ in range(3):
        p = np.array([rng.uniform(0.4, 2.7), rng.uniform(-3.0, 3.0)])
        v = rng.uniform(-1.5, 1.5, 2)
        assert_ends_near_reference(conn, p, v, float(rng.uniform(0.2, 2.0)), steps, 1e-8)
    # toward the pole: leaves the chart's box
    got = assert_ends_near_reference(conn, [0.5, 0.0], [-1.0, 0.0], 1.0, steps, 1e-8)
    assert got.escape_flag


def guarded_connection(raise_beyond):
    """Gamma = 0 on the box chart x <= 1, raising DomainError at points
    with x > raise_beyond, as a field outside its own domain does."""
    zeros = np.zeros((2, 2, 2))

    def gamma(p):
        if p[0] > raise_beyond:
            raise DomainError("outside the field's domain")
        return zeros

    return ge.ChartConnection(2, gamma, ge.Chart(2, box_hi=(1.0, 10.0)))


def test_speculative_steps_past_a_box_escape_are_discarded():
    # the box is left at t = 0.995; trial steps past it, whose stages
    # beyond x = 1.03 raise, are rejected and leave nothing behind
    conn = guarded_connection(1.03)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = ge.geodesic(conn, [0.005, 0.0], [1.0, 0.0], 2.0, steps=200)
    assert traj.escape_flag and traj.rejected > 0
    assert 0.995 - 0.01 < traj.end_time < 0.995 and traj.end_point[0] <= 1.0
    assert_matches_reference(conn, [0.005, 0.0], [1.0, 0.0], 2.0, 200)


def test_a_raising_gamma_ends_the_trajectory_before_its_step():
    conn = guarded_connection(0.5)
    traj = assert_matches_reference(conn, [0.005, 0.0], [1.0, 0.0], 2.0)
    assert traj.escape_flag and traj.end_point[0] < 0.5


def test_blow_up_without_a_norm_bound_is_caught_by_the_finite_check():
    # u'' = (u')^2 from u' = 1 blows up at t = 1; in one dimension the
    # state overflows to inf, which only the chart's finite check refuses
    conn = constant_connection([[[-1.0]]], ge.Chart(1, norm_bound=math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = ge.geodesic(conn, [0.0], [1.0], 3.0, steps=3 * B)
    assert traj.escape_flag and 0.9 < traj.end_time < 1.1
    assert np.all(np.isfinite(traj.end_point))
    assert_ends_near_reference(conn, [0.0], [1.0], 3.0, 3 * B, 1e-8)


def test_non_finite_points_are_outside_an_unbounded_chart():
    chart = ge.Chart(1, norm_bound=math.inf)
    conn = ge.flat_connection(1, chart)
    one = constant_field([1.0])
    assert not chart.contains(np.array([[math.inf], [-math.inf], [math.nan]])).any()
    assert chart.contains(np.array([1e300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="outside the chart"):
            ge.parallel_transport(conn, [[0.0], [math.inf]], [1.0])
        with pytest.raises(DomainError, match="outside the chart"):
            ge.geodesic(conn, [math.inf], [1.0], 1.0)
        with pytest.raises(DomainError, match="outside the chart"):
            ge.covariant_derivative(conn, one, one, np.array([math.nan]))


def test_first_segment_starts_at_the_unwrapped_point():
    # from the wrapped start (0.2, 0.5) the first step would cross the hole
    chart = ge.Chart(2, periods=(1.0, 1.0), hole_center=(0.5, 0.5), hole_radius=0.01)
    conn = ge.flat_connection(2, chart)
    traj = assert_matches_reference(conn, [1.2, 0.5], [0.1, 0.0], 1.0, 10)
    assert not traj.escape_flag


@pytest.mark.parametrize("chart", [
    ge.Chart(2, hole_center=(0.0, 0.0)),
    ge.Chart(3, hole_center=(0.5, -0.25, 0.0), hole_radius=0.1),
    ge.Chart(2, box_lo=(-1.0, -1.0), box_hi=(1.0, 1.0), hole_center=(0.2, 0.1),
             hole_radius=0.05, norm_bound=1.3),
    ge.Chart(2, box_lo=(1e-8, -math.inf), box_hi=(math.pi - 1e-8, math.inf)),
])
def test_batched_segment_escapes_matches_one_segment_at_a_time(chart):
    rng = np.random.default_rng(chart.dim)
    dim, n = chart.dim, 400
    c = np.zeros(dim) if chart.hole_center is None else np.asarray(chart.hole_center)
    a = rng.uniform(-2.0, 2.0, (n, dim))
    b = rng.uniform(-2.0, 2.0, (n, dim))
    b[:40] = a[:40]                       # zero length
    b[40:80] = 2 * c - a[40:80]           # through the hole, not landing in it
    a[80] = b[80] = c                     # zero length, at the hole
    b[81:90] = c + (c - a[81:90]) * 1e-9  # landing within the hole radius
    b[90:100, 0] = np.nan
    a[100:110, -1] = np.nan
    b[110:120, 0] = np.inf
    a[120:130, 0] = -np.inf
    a[130:140] = b[130:140] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [chart.segment_escapes(x, y) for x, y in zip(a, b)]
    with np.errstate(all="ignore"):
        want = [scalar_segment_escapes(chart, x, y) for x, y in zip(a, b)]
    assert all(type(v) is bool for v in got)
    assert got == want
    if chart.hole_center is not None:
        assert all(got[40:80])


# -- adaptive geodesics (Dormand-Prince 5(4)) ------------------------------------------

def great_circle(p, v, time):
    """Chart coordinates (theta, phi) at `time` of the sphere geodesic from
    p with coordinate velocity v, from the great circle in R^3."""
    (st, ct), (sp, cp) = (math.sin(p[0]), math.cos(p[0])), (math.sin(p[1]), math.cos(p[1]))
    x = np.array([st * cp, st * sp, ct])
    dx = v[0] * np.array([ct * cp, ct * sp, -st]) + v[1] * np.array([-st * sp, st * cp, 0.0])
    speed = float(np.linalg.norm(dx))
    y = math.cos(speed * time) * x + math.sin(speed * time) * dx / speed
    return np.array([math.acos(y[2]), math.atan2(y[1], y[0])])


@pytest.mark.parametrize("key", ["euclidean:3", "flat-torus:3"])
def test_adaptive_flat_geodesic_is_the_wrapped_straight_line(key):
    geo = ge.parse_geometry(key)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, v = rng.uniform(-2.0, 2.0, 3), rng.uniform(-1.5, 1.5, 3)
        time = float(rng.uniform(0.01, 50.0))
        traj = ge.geodesic(geo.connection, p, v, time)
        assert not traj.escape_flag and traj.end_time == time
        diff = traj.end_point - geo.chart.wrap(p + time * v)
        if geo.chart.periods is not None:
            diff -= np.round(diff)  # a point near 0 may land near 1
        assert np.max(np.abs(diff)) <= 1e-12
        assert np.array_equal(end_velocity(traj), v)
        assert traj.rejected == traj.floored == 0


def test_adaptive_sphere_geodesics_follow_the_great_circle():
    geo = ge.parse_geometry("sphere:1.7")
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta, phi = rng.uniform(0.9, 2.2), rng.uniform(-3.0, 3.0)
        speed, angle = rng.uniform(0.5, 1.5), rng.uniform(-3.1, 3.1)
        v = [speed * math.cos(angle), speed * math.sin(angle) / math.sin(theta)]
        time = float(rng.uniform(0.1, 0.6))
        traj = ge.geodesic(geo.connection, [theta, phi], v, time)
        assert not traj.escape_flag and traj.end_time == time and traj.floored == 0
        diff = traj.end_point - great_circle([theta, phi], v, time)
        diff[1] = math.remainder(diff[1], 2.0 * math.pi)
        assert np.max(np.abs(diff)) <= 1e-9


@pytest.mark.parametrize("p", [[1.0, 0.0], [0.8, -0.6], [0.0, -0.3], [1.3, 1.1]])
def test_adaptive_geodesic_at_the_puncture_stops_just_before_it(p):
    conn = ge.parse_geometry("hopf:2").connection
    p = np.array(p)
    traj = ge.geodesic(conn, p, -p, 1.5)
    assert traj.escape_flag and 0.99 < traj.end_time <= 1.0
    assert np.max(np.abs(traj.end_point - p * (1.0 - traj.end_time))) <= 1e-9


def test_adaptive_blow_up_ends_escaped_with_increasing_times():
    # u'' = -(u')^2 from u' = -1 blows up at t = 1; the step floor keeps
    # t + h > t, and Trajectory checks that the times strictly increase
    conn = constant_connection(np.ones((1, 1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = ge.geodesic(conn, [0.0], [-1.0], 3.0)
    assert traj.escape_flag and 0.9 < traj.end_time < 1.1
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    assert traj.floored > 0


def test_adaptive_steps_never_exceed_the_fixed_step_count():
    # u = log(1 + t) solves u'' = -(u')^2 from u' = 1
    conn = constant_connection(np.ones((1, 1, 1)))
    traj = ge.geodesic(conn, [0.0], [1.0], 3.0)
    assert not traj.escape_flag and traj.end_time == 3.0
    assert len(traj.times) - 1 <= 3 * ge.STEPS_PER_UNIT
    assert traj.end_point[0] == pytest.approx(math.log(4.0), abs=1e-9)
    # a tolerance no step can meet: every step is floored, none below 1/STEPS_PER_UNIT
    strict = ge.geodesic(conn, [0.0], [1.0], 0.5, tol=1e-30)
    assert len(strict.times) - 1 == ge.STEPS_PER_UNIT // 2
    assert strict.floored == len(strict.times) - 1
    # a budget of steps: at most that many, none but the last shorter than
    # time / steps, also where the rounding of t leaves a sliver at the end
    for tol in (ge.GEODESIC_RTOL, 1e-30):
        traj = ge.geodesic(conn, [0.0], [1.0], 4.47, steps=312, tol=tol)
        gaps = np.diff(traj.times)
        assert not traj.escape_flag and traj.end_time == 4.47
        assert len(gaps) <= 312 and np.all(gaps[:-1] >= 4.47 / 312 * (1 - 1e-12))
    assert len(gaps) == traj.floored == 312


def test_adaptive_escape_keeps_the_last_state_inside():
    # the box x <= 1 is left at t = 0.995; Gamma raises past x = 1.03
    conn = guarded_connection(1.03)
    traj = ge.geodesic(conn, [0.005, 0.0], [1.0, 0.0], 2.0)
    assert traj.escape_flag and 0.994 <= traj.end_time < 0.995
    assert traj.end_point[0] <= 1.0 and traj.rejected > 0


def test_adaptive_geodesic_with_a_raising_gamma_at_the_start():
    conn = guarded_connection(-1.0)
    traj = ge.geodesic(conn, [0.005, 0.0], [1.0, 0.0], 2.0)
    assert traj.escape_flag and traj.times == (0.0,)


@pytest.mark.parametrize("time", [0.0, -1.0, math.inf, math.nan])
def test_geodesic_rejects_bad_times(time):
    conn = ge.flat_connection(2)
    with pytest.raises(DomainError, match="time must be positive and finite"):
        ge.geodesic(conn, [0.0, 0.0], [1.0, 0.0], time)


# -- exponential map -----------------------------------------------------------------

def test_exponential_of_zero_is_base_point():
    conn = ge.flat_connection(2)
    assert np.allclose(ge.exponential_map(conn, [0.4, 0.5], [0, 0], steps=16),
                       [0.4, 0.5], atol=1e-14)


def test_exponential_flat_translation():
    conn = ge.flat_connection(2)
    assert np.allclose(ge.exponential_map(conn, [1.0, 1.0], [0.25, -0.5], steps=32),
                       [1.25, 0.5], atol=1e-12)


def test_exponential_incomplete_direction_raises():
    geo = ge.parse_geometry("hopf:2")
    with pytest.raises(EscapeError):
        ge.exponential_map(geo.connection, [0.7, 0.0], [-0.7, 0.0])


# -- parallel transport ----------------------------------------------------------------

def latitude_path(theta0, samples):
    return [
        np.array([theta0, 2.0 * math.pi * k / samples])
        for k in range(samples + 1)
    ]


def analytic_sphere_connection():
    """Closed-form sphere Christoffels; equality with the levi_civita
    output is pinned by test_levi_civita_sphere_symbols."""

    def gamma(p):
        theta = np.asarray(p)[..., 0]
        out = np.zeros(theta.shape + (2, 2, 2))
        out[..., 0, 1, 1] = -np.sin(theta) * np.cos(theta)
        out[..., 1, 0, 1] = out[..., 1, 1, 0] = np.cos(theta) / np.sin(theta)
        return out

    return ge.ChartConnection(2, gamma, ge.free_chart(2))


def test_flat_transport_is_identity():
    conn = ge.flat_connection(2)
    path = [np.array([t, t * t]) for t in np.linspace(0.0, 1.0, 40)]
    out = ge.parallel_transport(conn, path, [0.3, -0.9])
    assert np.allclose(out, [0.3, -0.9], atol=1e-12)


def test_transport_is_linear():
    geo = ge.parse_geometry("sphere:1")
    path = latitude_path(1.0, 200)
    v = np.array([0.2, 0.5])
    w = np.array([-0.4, 0.1])
    a, b = 1.7, -0.6
    combo = ge.parallel_transport(geo.connection, path, a * v + b * w)
    split = a * ge.parallel_transport(geo.connection, path, v) + (
        b * ge.parallel_transport(geo.connection, path, w)
    )
    assert np.allclose(combo, split, atol=1e-9)


def test_transport_reverse_composes_to_identity():
    geo = ge.parse_geometry("sphere:1")
    path = latitude_path(0.8, 300)
    v = np.array([0.4, 0.3])
    there = ge.parallel_transport(geo.connection, path, v)
    back = ge.parallel_transport(geo.connection, path[::-1], there)
    assert np.allclose(back, v, atol=1e-5)


def holonomy_angle(conn, samples):
    theta0 = 1.0
    path = latitude_path(theta0, samples)
    g = ge.sphere_metric(1.0)(np.array([theta0, 0.0]))
    sq = np.diag([math.sqrt(g[0, 0]), math.sqrt(g[1, 1])])
    v = np.array([1.0, 0.0])
    out = ge.parallel_transport(conn, path, v)
    a = sq @ v
    b = sq @ out
    return math.atan2(a[0] * b[1] - a[1] * b[0], float(a @ b))


def reference_transport(conn, path, v0, substeps):
    """Segment-by-segment RK4 with one Gamma call per node."""
    v = np.asarray(v0, dtype=float)
    hh = 1.0 / substeps
    for a, b in zip(path, path[1:]):
        xdot = b - a
        for s in range(substeps):
            t0 = s * hh
            m_a, m_m, m_b = (
                -np.einsum("kij,i->kj", conn.gamma(a + xdot * t), xdot)
                for t in (t0, t0 + hh / 2, t0 + hh)
            )
            k1 = m_a @ v
            k2 = m_m @ (v + hh / 2 * k1)
            k3 = m_m @ (v + hh / 2 * k2)
            k4 = m_b @ (v + hh * k3)
            v = v + hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


@pytest.mark.parametrize("substeps", [1, 2, 3])
def test_transport_matches_segment_by_segment_rk4(substeps):
    wiggle = [np.array([1.0 + 0.3 * math.sin(3 * s), s]) for s in np.linspace(0, 6, 400)]
    for conn, path in [
        (ge.parse_geometry("sphere:1.7").connection, latitude_path(0.9, 150)),
        (analytic_sphere_connection(), wiggle),
    ]:
        v = np.array([0.4, -0.3])
        got = ge.parallel_transport(conn, path, v, substeps)
        want = reference_transport(conn, path, v, substeps)
        assert np.max(np.abs(got - want)) <= 1e-12


def wiggle_path(segments):
    return [
        np.array([1.0 + 0.3 * math.sin(3 * s), s])
        for s in np.linspace(0, 6, segments + 1)
    ]


def helix_path(segments):
    return [
        np.array([math.cos(s), math.sin(s), 0.3 * s])
        for s in np.linspace(0, 4, segments + 1)
    ]


def segment_counts(substeps, dim=2):
    """One segment, and the counts around one and two block edges."""
    per_block = (ge.TRANSPORT_BLOCK_ENTRIES // dim**3 - 1) // (2 * substeps)
    return [1, per_block - 1, per_block, per_block + 1, 2 * per_block + 1]


@pytest.mark.parametrize("substeps", [1, 2, 3])
def test_transport_keeps_path_order_across_block_edges(substeps):
    conn = analytic_sphere_connection()
    v = np.array([0.4, -0.3])
    for segments in segment_counts(substeps):
        path = wiggle_path(segments)
        got = ge.parallel_transport(conn, path, v, substeps)
        want = reference_transport(conn, path, v, substeps)
        assert np.max(np.abs(got - want)) <= 1e-12, segments


@pytest.mark.parametrize("substeps", [1, 2, 3])
def test_transport_with_non_commuting_constant_gamma(substeps):
    gamma = np.random.default_rng(5).uniform(-0.5, 0.5, size=(3, 3, 3))
    conn = constant_connection(gamma)
    slices = [gamma[:, i, :] for i in range(3)]
    assert np.abs(slices[0] @ slices[1] - slices[1] @ slices[0]).max() > 0.1
    v = np.array([0.2, -0.7, 0.5])
    for segments in segment_counts(substeps, dim=3):
        path = helix_path(segments)
        got = ge.parallel_transport(conn, path, v, substeps)
        want = reference_transport(conn, path, v, substeps)
        assert np.max(np.abs(got - want)) <= 1e-12, segments
        if segments > 1:
            # the same substep propagators multiplied in reverse order
            props = [
                np.column_stack([
                    reference_transport(conn, path[i:i + 2], e, substeps)
                    for e in np.eye(3)
                ])
                for i in range(segments)
            ]
            reversed_v = functools.reduce(np.matmul, props + [v])
            assert np.max(np.abs(reversed_v - want)) > 1e-3, segments


def non_commuting_connection():
    return constant_connection(np.random.default_rng(5).uniform(-0.5, 0.5, size=(3, 3, 3)))


@pytest.mark.parametrize("substeps", [1, 2, 3])
@pytest.mark.parametrize("case", ["levi-civita", "analytic", "non-commuting"])
def test_round_trip_shares_the_forward_transport(case, substeps):
    conn, path_of, v = {
        # finite-difference Gamma moves by ~1e-11 when a node moves by an
        # ulp, so off a latitude the two node layouts would not agree to 1e-12
        "levi-civita": (ge.parse_geometry("sphere:1.7").connection,
                        functools.partial(latitude_path, 0.9), np.array([0.4, -0.3])),
        "analytic": (analytic_sphere_connection(), wiggle_path, np.array([0.4, -0.3])),
        "non-commuting": (non_commuting_connection(), helix_path,
                          np.array([0.2, -0.7, 0.5])),
    }[case]
    for segments in segment_counts(substeps, dim=len(v)):
        path = path_of(segments)
        out, back = ge.transport_round_trip(conn, path, v, substeps)
        assert np.array_equal(out, ge.parallel_transport(conn, path, v, substeps))
        want = reference_transport(conn, path[::-1], out, substeps)
        assert np.max(np.abs(back - want)) <= 1e-12, segments


def counting_connection(conn, counts):
    """conn, with the number of Gamma calls and of points they take."""

    def gamma(p):
        counts["calls"] += 1
        counts["points"] += math.prod(np.shape(p)[:-1])
        return conn.gamma(p)

    return ge.ChartConnection(conn.dim, gamma, conn.chart)


@pytest.mark.parametrize("substeps", [1, 2, 4, 8, 16])
def test_round_trip_evaluates_gamma_once_per_distinct_node(substeps):
    counts = {"calls": 0, "points": 0}
    conn = counting_connection(ge.parse_geometry("sphere:1").connection, counts)
    ge.transport_round_trip(conn, latitude_path(1.0, 150), [1.0, 0.0], substeps)
    # a 150-sample latitude is one block at every rung of this ladder
    assert counts == {"calls": 1, "points": 2 * substeps * 150 + 1}


def test_transport_blocks_at_the_sample_cap():
    counts = {"calls": 0, "points": 0}
    conn = counting_connection(ge.flat_connection(2), counts)
    path = np.stack([np.linspace(0.0, 1.0, 10**6 + 1)] * 2, axis=-1)
    assert np.array_equal(ge.parallel_transport(conn, path, [1.0, 0.0]), [1.0, 0.0])
    # 85 segments a block, 11 765 blocks, when Gauss-Bonnet's BLOCK_NODES
    # sized transport blocks
    assert counts["calls"] <= 1176
    # each block evaluates its last sample, which starts the next block
    assert counts["points"] == 2 * 10**6 + counts["calls"]


def test_latitude_holonomy_is_a_rotation_with_stable_angle():
    conn = analytic_sphere_connection()
    coarse = holonomy_angle(conn, 16000)
    fine = holonomy_angle(conn, 32000)
    finer = holonomy_angle(conn, 64000)
    richardson = fine + (finer - fine) * 4.0 / 3.0
    assert coarse == pytest.approx(richardson, abs=1e-6)
    # the rotation angle is the wrapped enclosed-holonomy value
    assert abs(coarse) == pytest.approx(
        abs(wrap_pi(2.0 * math.pi * math.cos(1.0))), abs=1e-4
    )
    # transport preserves the metric length
    g = ge.sphere_metric(1.0)(np.array([1.0, 0.0]))
    v = np.array([1.0, 0.0])
    out = ge.parallel_transport(conn, latitude_path(1.0, 16000), v)
    assert float(out @ g @ out) == pytest.approx(float(v @ g @ v), abs=1e-6)


# -- Pfaffian ----------------------------------------------------------------------------

def test_pfaffian_zero_matrix():
    assert ge.pfaffian(np.zeros((4, 4))) == 0.0


def test_pfaffian_two_by_two():
    assert ge.pfaffian(np.array([[0.0, 3.0], [-3.0, 0.0]])) == pytest.approx(3.0)


def test_pfaffian_block_diagonal():
    a, b = 1.7, -2.4
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = a, -a
    m[2, 3], m[3, 2] = b, -b
    assert ge.pfaffian(m) == pytest.approx(a * b)


def test_pfaffian_properties_random():
    rng = np.random.default_rng(13)
    for n2 in (2, 4, 6):
        for _ in range(10):
            raw = rng.uniform(-1.0, 1.0, size=(n2, n2))
            a = raw - raw.T
            b = rng.uniform(-1.0, 1.0, size=(n2, n2))
            pf = ge.pfaffian(a)
            assert pf * pf == pytest.approx(np.linalg.det(a), rel=1e-8, abs=1e-10)
            bab = b @ a @ b.T
            bab = (bab - bab.T) / 2.0
            assert ge.pfaffian(bab) == pytest.approx(
                np.linalg.det(b) * pf, rel=1e-8, abs=1e-10
            )


def _permutation_sum_pfaffian(a):
    """Pf(A) = sum over permutations s of sgn(s) prod_i a[s(2i), s(2i+1)],
    divided by n! 2^n; the sign is the parity of the inversion count."""
    n2 = len(a)
    total = 0.0
    for s in itertools.permutations(range(n2)):
        inversions = sum(s[i] > s[j] for i in range(n2) for j in range(i + 1, n2))
        pairs = (a[s[2 * i], s[2 * i + 1]] for i in range(n2 // 2))
        total += (-1) ** inversions * math.prod(pairs)
    return total / (math.factorial(n2 // 2) * 2 ** (n2 // 2))


def test_pfaffian_matches_permutation_sum():
    rng = np.random.default_rng(29)
    for n2 in (2, 4, 6, 8):
        for _ in range(2):
            raw = rng.normal(size=(n2, n2))
            a = raw - raw.T
            assert ge.pfaffian(a) == pytest.approx(_permutation_sum_pfaffian(a), rel=1e-10)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(DomainError):
        ge.pfaffian(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        ge.pfaffian(np.ones((2, 2)))
    with pytest.raises(DomainError):
        ge.pfaffian(np.zeros((10, 10)))


# -- Gauss-Bonnet -----------------------------------------------------------------------

def test_gauss_bonnet_unit_sphere():
    geo = ge.parse_geometry("sphere:1")
    assert ge.gauss_bonnet(geo.patches, 32) == pytest.approx(2.0, abs=1e-3)


def test_gauss_bonnet_flat_torus_is_exactly_zero():
    geo = ge.parse_geometry("flat-torus:2")
    assert ge.gauss_bonnet(geo.patches, 16) == 0.0


def test_gauss_bonnet_radius_two_sphere():
    geo = ge.parse_geometry("sphere:2")
    assert ge.gauss_bonnet(geo.patches, 32) == pytest.approx(2.0, abs=1e-3)


# chi with the closed-form 2 x 2 inverse in the Christoffel symbols
CLOSED_FORM_CHI = {
    ("sphere:1", 64): 2.000200647321577,
    ("sphere:1", 128): 2.0000501914647253,
    ("sphere:2", 32): 2.0008034104917742,
    ("flat-torus:2", 64): 0.0,
}


@pytest.mark.parametrize("key, mesh, lapack", [
    ("sphere:1", 64, 2.0002006473220244),
    ("sphere:1", 128, 2.0000501914635924),
    ("sphere:2", 32, 2.0008034104906858),
    ("flat-torus:2", 64, 0.0),
])
def test_gauss_bonnet_floats_are_pinned(key, mesh, lapack):
    # lapack: the floats with g^-1 from np.linalg.inv, which the earlier
    # five-point R(e1, e2) e2 formula also gave bit for bit; the closed form
    # moves Gamma in its last bits, and the central differences of Gamma in
    # the curvature amplify that to about 1e-12 in chi
    got = ge.gauss_bonnet(ge.parse_geometry(key).patches, mesh)
    assert got == CLOSED_FORM_CHI[key, mesh]
    assert abs(got - lapack) <= 1e-11


def test_two_dimensional_gamma_takes_no_lapack_inverse(monkeypatch):
    def no_inverse(a):
        raise AssertionError("np.linalg.inv was called")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    sphere = ge.parse_geometry("sphere:1")
    assert ge.gauss_bonnet(sphere.patches, 16) == pytest.approx(2.0, abs=1e-2)
    out, back = ge.transport_round_trip(sphere.connection, latitude_path(1.0, 150),
                                        [1.0, 0.0])
    assert np.isfinite(out).all() and np.isfinite(back).all()
    traj = ge.geodesic(sphere.connection, [1.0, 0.0], [1.0, 1.0], 0.3)
    assert not traj.escape_flag and np.isfinite(traj.end_point).all()
    assert np.isfinite(ge.exponential_map(sphere.connection, [1.0, 0.3], [0.4, 0.2],
                                          steps=400)).all()
    assert np.isfinite(ge.levi_civita(sphere.metric, 2).gamma(np.array([1.0, 0.3]))).all()


def reference_gauss_bonnet(patches, mesh_n):
    """Node-by-node midpoint rule with the single-point gaussian_curvature."""
    total = 0.0
    for patch in patches:
        conn = ge.levi_civita(patch.metric, 2)
        du = (patch.u_hi - patch.u_lo) / mesh_n
        dv = (patch.v_hi - patch.v_lo) / mesh_n
        for i in range(mesh_n):
            for j in range(mesh_n):
                p = np.array([patch.u_lo + (i + 0.5) * du, patch.v_lo + (j + 0.5) * dv])
                gp = patch.metric(p)
                det = gp[0, 0] * gp[1, 1] - gp[0, 1] ** 2
                k = ge.gaussian_curvature(conn, patch.metric, p)
                total += k * math.sqrt(det) * du * dv
    return total / (2.0 * math.pi)


@pytest.mark.parametrize("key", ["sphere:1", "sphere:2"])
@pytest.mark.parametrize("mesh", [16, 32])
def test_blocked_gauss_bonnet_matches_node_by_node(key, mesh):
    patches = ge.parse_geometry(key).patches
    got = ge.gauss_bonnet(patches, mesh)
    assert abs(got - reference_gauss_bonnet(patches, mesh)) <= 1e-12


def test_gauss_bonnet_skips_only_the_bad_nodes_of_a_block(monkeypatch):
    metric = ge.sphere_metric(1.0)
    calls = []

    def fragile(p):
        calls.append(p.shape)
        if np.any(np.isclose(p[..., 0], math.pi / 2, atol=1e-3)):
            raise DomainError("metric undefined on the equator")
        return metric(p)

    patch = ge.SurfacePatch(0.0, math.pi, 0.0, 2.0 * math.pi, fragile)
    # mesh 16 puts no node within 1e-3 of the equator: nothing is skipped
    full = ge.gauss_bonnet([patch], 16)
    assert full == ge.gauss_bonnet(ge.parse_geometry("sphere:1").patches, 16)
    # mesh 15 puts one of its 15 rows of nodes on the equator: those 15 of
    # 225 nodes fail, beyond the 1 % budget, after a node-by-node retry
    calls.clear()
    with pytest.raises(QuadratureError, match="15 of 225"):
        ge.gauss_bonnet([patch], 15)
    assert (1, 2) in calls
    # the skipped row would have added K dA / (2 pi) = du = pi / 15
    whole = ge.gauss_bonnet(ge.parse_geometry("sphere:1").patches, 15)
    monkeypatch.setattr(ge, "SKIP_BUDGET", 0.1)
    assert ge.gauss_bonnet([patch], 15) == pytest.approx(
        whole - math.pi / 15, abs=1e-5
    )


def test_gauss_bonnet_calls_the_metric_once_at_the_nodes_of_a_block():
    metric = ge.sphere_metric(1.0)
    calls = []

    def counted(p):
        calls.append(p.shape)
        return metric(p)

    # mesh 16: 256 nodes, one block; the metric at the nodes, then inside
    # Gamma on the stencils of the curvature's stencil
    patch = ge.SurfacePatch(0.0, math.pi, 0.0, 2.0 * math.pi, counted)
    chi = ge.gauss_bonnet([patch], 16)
    assert calls == [(256, 2), (256, 5, 5, 2)]
    assert chi == ge.gauss_bonnet(ge.parse_geometry("sphere:1").patches, 16)


def test_gauss_bonnet_rejects_small_mesh():
    geo = ge.parse_geometry("sphere:1")
    with pytest.raises(DomainError):
        ge.gauss_bonnet(geo.patches, 4)


# -- Nijenhuis and para-hypercomplex -------------------------------------------------------

def test_nijenhuis_of_identity_vanishes():
    a_field = lambda p: np.eye(2)
    x = lambda p: np.array([p[1], 0.4])
    y = lambda p: np.array([0.2, p[0] * p[1]])
    out = ge.nijenhuis(a_field, x, y, np.array([0.3, 0.8]))
    assert np.allclose(out, 0.0, atol=ge.FD_TOL)


def test_nijenhuis_of_standard_complex_structure_vanishes():
    m = 2
    i_mat, _ = ge.standard_para_pair(m)
    a_field = lambda p: i_mat
    p = np.array([0.1, -0.4, 0.7, 0.2])
    for i in range(2 * m):
        for j in range(i + 1, 2 * m):
            out = ge.nijenhuis(
                a_field,
                coordinate_field(i, 2 * m),
                coordinate_field(j, 2 * m),
                p,
            )
            assert np.allclose(out, 0.0, atol=1e-12)


def test_nijenhuis_two_resolution_agreement(monkeypatch):
    def a_field(p):
        c, s = math.cos(p[0]), math.sin(p[0])
        return np.array([[c, -s], [s, c]])

    x = lambda p: np.array([1.0, p[1]])
    y = lambda p: np.array([p[0], 1.0])
    p = np.array([0.37, 0.81])
    h = 1e-3
    monkeypatch.setattr(ge, "H_DEFAULT", h)
    coarse = ge.nijenhuis(a_field, x, y, p)
    monkeypatch.setattr(ge, "H_DEFAULT", h / 2)
    fine = ge.nijenhuis(a_field, x, y, p)
    assert np.max(np.abs(coarse - fine)) < 10.0 * h * h


def test_para_structure_check_small():
    report = ge.para_structure_check(1)
    assert report["passed"]


def test_para_structure_check_z_is_i():
    i_mat, j_mat = ge.standard_para_pair(3)
    jz = i_mat @ j_mat  # z = i
    assert np.allclose(jz @ jz, np.eye(6), atol=1e-12)


def test_para_structure_check_range():
    for m in (1, 2, 3, 4):
        report = ge.para_structure_check(m, z_samples=16)
        assert report["passed"], report
        assert report["Nijenhuis of I"] == 0.0  # I is constant


def test_para_structure_check_rejects_bad_m():
    with pytest.raises(DomainError):
        ge.para_structure_check(0)


# -- named geometries ------------------------------------------------------------------------

def test_parse_geometry_keys():
    assert ge.parse_geometry("euclidean:3").chart.dim == 3
    assert ge.parse_geometry("hopf:2").chart.hole_center == (0.0, 0.0)
    assert ge.parse_geometry("flat-torus:2").chart.periods == (1.0, 1.0)
    assert ge.parse_geometry("sphere:1.5").patches


def test_parse_geometry_rejects_unknown():
    with pytest.raises(DomainError):
        ge.parse_geometry("mobius:2")
    with pytest.raises(DomainError):
        ge.parse_geometry("sphere")
    with pytest.raises(DomainError):
        ge.parse_geometry("sphere:-1")
    with pytest.raises(DomainError):
        ge.parse_geometry("euclidean:zero")
