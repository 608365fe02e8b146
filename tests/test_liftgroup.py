"""Universal-cover arithmetic: examples, invariants, and the path oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chernlab.liftgroup as lg
from reference_path import reference_polar_parts, reference_word_path
import chernlab.milnor as mi
from chernlab.errors import (
    ChernLabError,
    DomainError,
    InstabilityError,
    SubdivisionError,
)

A0 = np.array([[2.0, 0.0], [0.0, 0.5]])
A1 = np.array([[-2.5, 4.5], [-3.0, 5.0]])
A2 = np.array([[-5.0, 9.0], [-1.5, 2.5]])


# -- independent oracle -------------------------------------------------------
# Continuous angle lifting along a sampled path, written from scratch so it
# shares no code with the lift_mul window selection.

def _angle(m):
    """Retract angle of a 2x2 matrix, or of each in a stack of them."""
    m = np.asarray(m)
    return np.arctan2(m[..., 0, 1] - m[..., 1, 0], m[..., 0, 0] + m[..., 1, 1])


def _wrap(a):
    """A difference of two angles, moved into (-pi, pi] by at most one turn."""
    return np.where(
        a <= -math.pi, a + 2 * math.pi, np.where(a > math.pi, a - 2 * math.pi, a)
    )


def path_lift(path, samples=4096):
    """Lifted retract angle at t=1 of a path starting at the identity; the
    path is evaluated once, on the whole array of sample times."""
    angles = _angle(path(np.arange(samples + 1) / samples))
    return angles[0] + np.sum(_wrap(np.diff(angles)))


def rotations(angles):
    """Batched rotation matrices R(angle), shape angles.shape + (2, 2)."""
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)


def random_element(rng):
    """Random covered element with principal lift and a random deck shift."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        if lg.det2(m) > 0.05:
            break
    x = lg.principal_lift(m)
    return lg.deck_shift(x, int(rng.integers(-2, 3)) * 2)


def inv_stack(m):
    """Adjugate inverse of each 2x2 matrix in a stack (..., 2, 2)."""
    det = lg.det2(m)
    if np.count_nonzero(det) < det.size:
        raise DomainError("matrix is singular")
    adjugate = np.swapaxes(m[..., ::-1, ::-1], -1, -2) * [[1.0, -1.0], [-1.0, 1.0]]
    return adjugate / det[..., None, None]


def pointwise_word_path(elements):
    """The pointwise product of the letters' paths t -> R(t * lift) P^t,
    the loop constructor before word_path concatenated its letters; t = 0
    and t = 1 give the identity and the product exactly."""
    letters = []
    product = np.eye(2)
    for x in elements:
        w, q = np.linalg.eigh(reference_polar_parts(x.matrix)[1])
        letters.append((x.lift, q, np.log(w)))
        product = product @ x.matrix

    def path(t):
        t = np.asarray(t, dtype=float)
        acc = np.broadcast_to(np.eye(2), t.shape + (2, 2))
        for lift, q, logw in letters:
            spd = (q * np.exp(t[..., None] * logw)[..., None, :]) @ q.T
            acc = acc @ rotations(t * lift) @ spd
        acc = acc.copy()
        acc[t == 0.0] = np.eye(2)
        acc[t == 1.0] = product
        return acc

    return path


def pointwise_commutator_path(rep):
    """The commutator loop before word_path: t -> prod [a_i(t), b_i(t)]
    over the one-letter paths of the principal lifts."""
    pairs = [
        (pointwise_word_path([lg.principal_lift(a)]),
         pointwise_word_path([lg.principal_lift(b)]))
        for a, b in zip(rep.A, rep.B)
    ]

    def path(t):
        t = np.asarray(t, dtype=float)
        acc = np.broadcast_to(np.eye(2), t.shape + (2, 2))
        for pa, pb in pairs:
            at, bt = pa(t), pb(t)
            acc = acc @ at @ bt @ inv_stack(at) @ inv_stack(bt)
        return acc

    return path


# -- retract ------------------------------------------------------------------

def test_retract_identity_is_zero():
    assert lg.retract(np.eye(2)) == 0.0


def test_retract_spd_is_zero():
    assert lg.retract(A0) == 0.0


def test_retract_shear():
    assert lg.retract(np.array([[1.0, 3.0], [0.0, 1.0]])) == pytest.approx(
        math.atan2(3.0, 2.0)
    )


def test_retract_seed_matrix():
    # x = a + d = 5/2, y = b - c = 15/2
    assert lg.retract(A1) == pytest.approx(math.atan2(7.5, 2.5))
    assert lg.retract(A1) == pytest.approx(math.atan(3.0))


def test_retract_rejects_nonpositive_determinant():
    with pytest.raises(DomainError):
        lg.retract(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(DomainError):
        lg.retract(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_retract_never_divides_by_zero():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = rng.uniform(-3.0, 3.0, size=(2, 2))
        if lg.det2(m) <= 0.0:
            continue
        x = m[0, 0] + m[1, 1]
        y = m[0, 1] - m[1, 0]
        assert x * x + y * y > 0.0
        lg.retract(m)


# -- pinned GL+ checks --------------------------------------------------------

HUGE = np.full((2, 2), 1e200)  # singular; its float det is inf - inf = nan
# det 1, but the relation product overflows to a nan defect
NAN_RELATION = np.array([[1e160, 1e160], [0.0, 1e-160]])


def unchecked(m):
    """(m, 0) stored without the GL+ check, as only a bug could make it."""
    return lg.CoveredElement._checked(np.array(m, dtype=float), 0.0)


def with_bad_letter(m):
    """word_path of a word whose second letter is m, unchecked."""
    return lg.word_path([lg.principal_lift(A1), unchecked(m), lg.principal_lift(A0)])


@pytest.mark.parametrize("call, m, error, message", [
    (lg.retract, np.eye(3), DomainError,
     r"^expected a 2x2 matrix, got shape \(3, 3\)$"),
    (lg.retract, np.ones(4), DomainError,
     r"^expected a 2x2 matrix, got shape \(4,\)$"),
    (lg.retract, [[np.nan, 0.0], [0.0, 1.0]], DomainError,
     r"^matrix has non-finite entries$"),
    (lg.retract, [[1.0, np.inf], [0.0, 1.0]], DomainError,
     r"^matrix has non-finite entries$"),
    (lg.retract, [[1.0, 0.0], [0.0, -2.0]], DomainError,
     r"^determinant -2\.0 is not positive$"),
    (lg.retract, [[1.0, 1.0], [1.0, 1.0]], DomainError,
     r"^determinant 0\.0 is not positive$"),
    (lg.inv2, [[1.0, 2.0], [2.0, 4.0]], DomainError, r"^matrix is singular$"),
    (lg.retract, HUGE, DomainError,
     r"^determinant nan is not positive$"),
    (lg.retract, HUGE, DomainError, r"^determinant nan is not positive$"),
    (lg.inv2, HUGE, DomainError, r"determinant nan"),
    (lambda m: mi.SurfaceGroupRep(1, (m,), (m,)), NAN_RELATION,
     InstabilityError, r"non-finite relation product"),
    (with_bad_letter, [[np.nan, 0.0], [0.0, 1.0]], DomainError,
     r"^matrix has non-finite entries$"),
    (with_bad_letter, [[1.0, np.inf], [0.0, 1.0]], DomainError,
     r"^matrix has non-finite entries$"),
    (with_bad_letter, [[1.0, 0.0], [0.0, -2.0]], DomainError,
     r"^determinant -2\.0 is not positive$"),
    (with_bad_letter, [[1.0, 1.0], [1.0, 1.0]], DomainError,
     r"^determinant 0\.0 is not positive$"),
    (with_bad_letter, HUGE, DomainError, r"^determinant nan is not positive$"),
])
def test_gl_plus_refusals_are_pinned(call, m, error, message):
    with pytest.raises(error, match=message):
        call(np.asarray(m, dtype=float))


def test_word_path_checks_its_letters_as_one_stack_and_names_the_first_bad_one():
    word = [lg.principal_lift(A1), unchecked([[1.0, 0.0], [0.0, -2.0]]),
            unchecked([[np.nan, 0.0], [0.0, 1.0]])]
    with pytest.raises(DomainError, match=r"^determinant -2\.0 is not positive$"):
        lg.word_path(word)
    with pytest.raises(DomainError, match=r"^matrix has non-finite entries$"):
        lg.word_path(word[::-1])


def _random_gl_plus(rng, exponents):
    """The matrices 10^k R, one per integer k in exponents, with R uniform
    in [-2, 2] at det R > 0.05."""
    out = []
    for k in exponents:
        while True:
            r = rng.uniform(-2.0, 2.0, size=(2, 2))
            if r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0] > 0.05:
                break
        out.append(10.0 ** int(k) * r)
    return np.array(out)


def _reference_retract(m):
    # numpy float64 scalar arithmetic, then math.atan2
    return math.atan2(m[0, 1] - m[1, 0], m[0, 0] + m[1, 1])


def test_scalar_gl_plus_arithmetic_matches_the_numpy_formulas_bit_for_bit():
    rng = np.random.default_rng(20)
    ms = _random_gl_plus(rng, np.append(rng.integers(-150, 151, 9_998), [-150, 150]))
    for m, inverse in zip(ms, inv_stack(ms)):
        assert lg.retract(m) == _reference_retract(m)
        assert lg.inv2(m).tobytes() == inverse.tobytes()

    # factor scales 10^j and 10^k with |j|, |k|, |j + k| <= 150, so each
    # product's entries stay within 1e+-150 as well
    j = rng.integers(-150, 151, 10_000)
    k = rng.integers(np.maximum(-150, -150 - j), np.minimum(150, 150 - j) + 1)
    shifts = rng.integers(-3, 4, size=(10_000, 2))
    for xm, ym, (i, n) in zip(_random_gl_plus(rng, j), _random_gl_plus(rng, k), shifts):
        x = lg.deck_shift(lg.principal_lift(xm), int(i))
        y = lg.deck_shift(lg.principal_lift(ym), int(n))
        product = x.matrix @ y.matrix
        base = _reference_retract(product)
        target = x.lift + y.lift
        u = base + 2.0 * math.pi * round((target - base) / (2.0 * math.pi))
        lift = target if abs(u - target) <= lg.TAU_ANGLE else u
        out = lg.lift_mul(x, y)
        assert out.matrix.tobytes() == product.tobytes()
        assert out.lift == lift


# -- lift_mul -----------------------------------------------------------------

def test_lift_mul_identity():
    e = lg.COVER_IDENTITY
    out = lg.lift_mul(e, e)
    assert out.lift == 0.0
    assert np.array_equal(out.matrix, np.eye(2))


def test_float_product_leaving_gl_plus_is_an_instability():
    # integer matrices of det 1 whose float dets are exact; their product
    # has exact integer entries near 5e14, but its float det rounds to 0
    x = lg.principal_lift(np.array([[27012484.0, -10895177.0],
                                    [22739233.0, -9171610.0]]))
    y = lg.principal_lift(np.array([[20222729.0, 15395734.0],
                                    [-1237639.0, -942225.0]]))
    assert lg.det2(x.matrix) == lg.det2(y.matrix) == 1.0
    with pytest.raises(InstabilityError, match="largest entry"):
        lg.lift_mul(x, y)


def test_lift_mul_rotations_add_exactly():
    x = lg.CoveredElement(lg.rotation(math.pi / 2), math.pi / 2)
    y = lg.CoveredElement(lg.rotation(math.pi), math.pi)
    out = lg.lift_mul(x, y)
    assert out.lift == math.pi / 2 + math.pi
    assert np.allclose(out.matrix, lg.rotation(-math.pi / 2), atol=1e-15)


def test_lift_mul_seed_product_against_path_oracle():
    x = lg.principal_lift(A0)
    y = lg.principal_lift(A1)
    out = lg.lift_mul(x, y)
    assert np.allclose(out.matrix, A2, atol=1e-12)
    # oracle: continuous lifting along the path of the word x y
    f = lg.word_path([x, y])
    expected = path_lift(f)
    assert out.lift == pytest.approx(expected, abs=1e-6)
    assert math.pi / 2 < out.lift < 3 * math.pi / 2  # the n = +1 branch


def test_lift_mul_defect_below_half_pi():
    rng = np.random.default_rng(11)
    for _ in range(400):
        x, y = random_element(rng), random_element(rng)
        out = lg.lift_mul(x, y)
        assert abs(out.lift - x.lift - y.lift) < math.pi / 2


def test_lift_mul_associative():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y, z = (random_element(rng) for _ in range(3))
        left = lg.lift_mul(lg.lift_mul(x, y), z)
        right = lg.lift_mul(x, lg.lift_mul(y, z))
        assert abs(left.lift - right.lift) < 10 * lg.TAU_ANGLE
        assert np.allclose(left.matrix, right.matrix, atol=1e-9)


def test_lift_mul_strong_shears_against_oracle():
    s = 80.0
    x = lg.principal_lift(np.array([[1.0, s], [0.0, 1.0]]))
    y = lg.principal_lift(np.array([[1.0, 0.0], [-s, 1.0]]))
    out = lg.lift_mul(x, y)
    f = lg.word_path([x, y])
    assert out.lift == pytest.approx(path_lift(f, samples=20000), abs=1e-5)


def test_lift_mul_near_boundary_matches_path_oracle():
    # two huge stretches at almost-orthogonal axes: the defect sits within
    # 1e-6 of pi/2, and the nearest lift is still the path's
    lam, psi = 3e8, math.pi / 2 - 2e-7
    d1 = np.diag([lam, 1.0 / lam])
    r = lg.rotation(psi)
    d2 = r @ d1 @ r.T
    d2 = (d2 + d2.T) / 2.0
    x, y = lg.principal_lift(d1), lg.principal_lift(d2)
    gap = math.pi / 2 - abs(lg.retract(d1 @ d2))
    assert gap <= 1e-6
    out = lg.lift_mul(x, y)
    f = lg.word_path([x, y])
    assert out.lift == pytest.approx(path_lift(f, samples=60000), abs=1e-6)
    assert np.allclose(out.matrix, d1 @ d2, rtol=1e-9)


def test_lift_mul_near_orthogonal_stretches_matches_path_oracle():
    # stretches 1e7 whose axes are 1e-7 off orthogonal: the defect is
    # within 3e-7 of -pi/2, and only the direct product is taken
    d = np.diag([1e7, 1e-7])
    x = lg.principal_lift(lg.rotation(0.3) @ d @ lg.rotation(0.9))
    y = lg.principal_lift(
        lg.rotation(-0.9) @ lg.rotation(math.pi / 2 - 1e-7) @ d @ lg.rotation(-1.2)
    )
    out = lg.lift_mul(x, y)
    assert abs(abs(out.lift - x.lift - y.lift) - math.pi / 2) < 1e-6
    assert np.array_equal(out.matrix, x.matrix @ y.matrix)
    assert out.lift == pytest.approx(path_lift(lg.word_path([x, y])), abs=1e-6)


# -- lift_inv -----------------------------------------------------------------

def test_lift_inv_identity():
    out = lg.lift_inv(lg.COVER_IDENTITY)
    assert out.lift == 0.0
    assert np.array_equal(out.matrix, np.eye(2))


def test_lift_inv_rotation_with_deck_shift():
    phi = 0.83
    x = lg.deck_shift(lg.CoveredElement(lg.rotation(phi), phi), 4)
    out = lg.lift_inv(x)
    assert out.lift == -(phi + 4 * math.pi)
    assert np.allclose(out.matrix, lg.rotation(-phi), atol=1e-15)


def test_lift_inv_round_trip_lift_exactly_zero():
    x = lg.principal_lift(A1)
    out = lg.lift_mul(x, lg.lift_inv(x))
    assert out.lift == 0.0
    assert np.allclose(out.matrix, np.eye(2), atol=1e-12)


def test_inverse_law_random():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = random_element(rng)
        out = lg.lift_mul(x, lg.lift_inv(x))
        assert out.lift == 0.0
        assert np.allclose(out.matrix, np.eye(2), atol=1e-9)


# -- lift_commutator ----------------------------------------------------------

def test_commutator_of_equal_elements_is_trivial():
    x = lg.principal_lift(A1)
    out = lg.lift_commutator(x, x)
    assert out.lift == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(out.matrix, np.eye(2), atol=1e-12)


def test_commutator_of_rotations_is_trivial():
    x = lg.CoveredElement(lg.rotation(0.7), 0.7)
    y = lg.CoveredElement(lg.rotation(2.1), 2.1)
    out = lg.lift_commutator(x, y)
    assert out.lift == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(out.matrix, np.eye(2), atol=1e-14)


def _conjugator(m, n):
    """Solve s m s^-1 = n for similar 2x2 matrices, det(s) > 0 (test-local)."""
    wm, vm = np.linalg.eig(m)
    wn, vn = np.linalg.eig(n)
    order_m = np.argsort(wm)[::-1]
    order_n = np.argsort(wn)[::-1]
    vm, vn = vm[:, order_m].real, vn[:, order_n].real
    s = vn @ np.linalg.inv(vm)
    if np.linalg.det(s) < 0:
        vn[:, 0] *= -1.0
        s = vn @ np.linalg.inv(vm)
    return s


def test_commutator_reaching_shifted_class():
    # y conjugates x^-1 to the lift of A1, so [x, y] covers A0 A1
    x = lg.principal_lift(A0)
    s = _conjugator(np.linalg.inv(A0), A1)
    y = lg.principal_lift(s)
    out = lg.lift_commutator(x, y)
    assert np.isclose(np.trace(out.matrix), -2.5, atol=1e-9)
    assert np.isclose(lg.det2(out.matrix), 1.0, atol=1e-9)
    assert math.pi / 2 < out.lift < 3 * math.pi / 2
    # path-winding oracle on the path of the commutator word
    f = lg.word_path([x, y, lg.lift_inv(x), lg.lift_inv(y)])
    assert out.lift == pytest.approx(path_lift(f, samples=8192), abs=1e-5)


# -- deck_shift ---------------------------------------------------------------

def test_deck_shift_zero_is_identity_map():
    x = lg.principal_lift(A1)
    out = lg.deck_shift(x, 0)
    assert out.lift == x.lift
    assert np.array_equal(out.matrix, x.matrix)


def test_deck_shift_full_turn():
    out = lg.deck_shift(lg.COVER_IDENTITY, 2)
    assert out.lift == 2 * math.pi
    assert np.array_equal(out.matrix, np.eye(2))


def test_deck_shift_half_turn_matrix():
    out = lg.deck_shift(lg.CoveredElement(A0, 0.0), 1)
    assert np.array_equal(out.matrix, -A0)
    assert out.lift == math.pi


def test_deck_shift_is_central():
    rng = np.random.default_rng(19)
    for _ in range(100):
        x, y = random_element(rng), random_element(rng)
        n = int(rng.integers(-3, 4))
        a = lg.deck_shift(lg.lift_mul(x, y), n)
        b = lg.lift_mul(lg.deck_shift(x, n), y)
        c = lg.lift_mul(x, lg.deck_shift(y, n))
        for other in (b, c):
            assert abs(a.lift - other.lift) < 1e-9
            assert np.allclose(a.matrix, other.matrix, atol=1e-9)


# -- lift_mul_rotation --------------------------------------------------------

def test_mul_rotation_by_zero_is_identity_map():
    x = lg.principal_lift(A1)
    out = lg.lift_mul_rotation(x, 0.0)
    assert out.lift == x.lift
    assert np.allclose(out.matrix, x.matrix, atol=1e-15)


def test_mul_rotation_half_turn_of_identity():
    out = lg.lift_mul_rotation(lg.COVER_IDENTITY, math.pi)
    assert out.lift == math.pi
    assert np.allclose(out.matrix, lg.rotation(math.pi), atol=1e-15)


def test_mul_rotation_agrees_with_lift_mul():
    x = lg.CoveredElement(A0, 0.0)
    angle = math.pi / 2
    a = lg.lift_mul_rotation(x, angle)
    b = lg.lift_mul(x, lg.CoveredElement(lg.rotation(angle), angle))
    assert a.lift == pytest.approx(b.lift, abs=1e-12)
    assert np.allclose(a.matrix, A0 @ lg.rotation(math.pi / 2), atol=1e-15)


# -- loops and winding --------------------------------------------------------

def test_constant_identity_loop_winds_zero():
    loop = lg.SampledLoop(tuple(np.eye(2) for _ in range(17)))
    assert lg.lift_loop(loop) == 0


def test_full_rotation_loop_winds_once():
    loop = lg.SampledLoop(
        tuple(lg.rotation(2 * math.pi * i / 16) for i in range(17))
    )
    assert lg.lift_loop(loop) == 1


def test_loop_requires_identity_endpoints():
    with pytest.raises(DomainError):
        lg.SampledLoop((np.eye(2), lg.rotation(0.3)))


def test_loop_rejects_coarse_adjacency():
    samples = (np.eye(2), lg.rotation(2.0), lg.rotation(4.0), np.eye(2))
    with pytest.raises(DomainError):
        lg.SampledLoop(samples)


def test_loop_samples_are_one_read_only_array():
    loop = lg.SampledLoop([lg.rotation(2 * math.pi * i / 8) for i in range(9)])
    assert loop.samples.shape == (9, 2, 2) and len(loop) == 9
    with pytest.raises(ValueError):
        loop.samples[0, 0, 0] = 2.0


@pytest.mark.parametrize(
    "samples",
    [
        np.zeros((3, 3, 3)),
        [np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], np.eye(2)],
        [np.eye(2), np.diag([1.0, -1.0]), np.eye(2)],
        [np.eye(2)],
    ],
    ids=["shape", "non-finite", "det", "too-short"],
)
def test_loop_constructor_checks(samples):
    with pytest.raises(DomainError):
        lg.SampledLoop(samples)


def test_from_path_refines_fast_loop():
    loop = lg.SampledLoop.from_path(
        lambda t: rotations(6 * math.pi * t), initial_samples=4
    )
    assert lg.lift_loop(loop) == 3


def test_from_path_gives_up_on_discontinuity():
    def jump(t):
        return np.where(t < 0.5, 1.0, -1.0)[..., None, None] * np.eye(2)

    with pytest.raises(SubdivisionError):
        lg.SampledLoop.from_path(jump)


def test_from_path_stops_at_a_nan_without_refining():
    calls = []

    def nan_path(t):
        calls.append(len(t))
        out = rotations(2 * math.pi * t)
        out[t == 0.5] = np.nan
        return out

    with pytest.raises(SubdivisionError, match="non-finite"):
        lg.SampledLoop.from_path(nan_path)
    assert calls == [65]  # the initial grid, in one call


def test_from_path_caps_the_sample_count(monkeypatch):
    path = mi.commutator_loop_path(mi.build_representation(3, 2))
    assert len(lg.SampledLoop.from_path(path)) == 537
    monkeypatch.setattr(lg, "MAX_LOOP_SAMPLES", 536)
    with pytest.raises(SubdivisionError, match="MAX_LOOP_SAMPLES = 536"):
        lg.SampledLoop.from_path(path)


def test_from_path_stores_its_samples_without_the_public_check(monkeypatch):
    # the refined rotations are valid by construction; each must still pass
    # the public constructor's checks, unchanged
    checked = []
    check = lg.SampledLoop.__post_init__

    def counted(loop):
        checked.append(loop)
        return check(loop)

    monkeypatch.setattr(lg.SampledLoop, "__post_init__", counted)
    for d in range(-6, 7):
        loop = lg.SampledLoop.from_path(
            mi.commutator_loop_path(mi.build_representation(7, d))
        )
        assert checked == []
        assert not loop.samples.flags.writeable
        again = lg.SampledLoop(loop.samples)
        assert checked == [again]
        assert np.array_equal(again.samples, loop.samples)
        checked.clear()


def test_from_path_refuses_an_open_loop():
    with pytest.raises(DomainError, match="loop endpoints must be the identity"):
        lg.SampledLoop.from_path(lambda t: rotations(math.pi * t))


def test_from_path_evaluates_in_blocks():
    sizes = []

    def path(t):
        sizes.append(len(t))
        return rotations(2 * math.pi * t)

    loop = lg.SampledLoop.from_path(path, initial_samples=3000)
    # the grid alone is 3001; 256 rather than 1024 keeps the peak RSS down
    assert len(sizes) > 2 and max(sizes) == lg._PATH_BLOCK == 256
    assert sum(sizes) == len(loop)  # every sample evaluated once


# -- the recursive refinement, kept as a reference --------------------------
# Depth-first bisection with the acceptance rule of from_path, one scalar
# path value at a time.  The level-by-level refinement must find the same
# dyadic sample set.

def recursive_samples(path, initial_samples=64, max_depth=60):
    """(t, plane point) of every sample, in path order."""
    def point(t):
        m = np.asarray(path(t), dtype=float)
        return np.array([m[0, 0] + m[1, 1], m[0, 1] - m[1, 0]])

    def refine(t0, p0, t1, p1, depth):
        tm = (t0 + t1) / 2.0
        pm = point(tm)
        polyline = np.hypot(*(pm - p0)) + np.hypot(*(p1 - pm))
        margin = min(np.hypot(*p0), np.hypot(*pm), np.hypot(*p1))
        if polyline <= 0.4 * margin:
            return [(tm, pm)]
        if depth >= max_depth:
            raise SubdivisionError("loop refinement exceeded max depth")
        return (
            refine(t0, p0, tm, pm, depth + 1)
            + [(tm, pm)]
            + refine(tm, pm, t1, p1, depth + 1)
        )

    ts = [i / initial_samples for i in range(initial_samples + 1)]
    points = [point(t) for t in ts]
    chain = [(ts[0], points[0])]
    for i in range(initial_samples):
        chain.extend(refine(ts[i], points[i], ts[i + 1], points[i + 1], 0))
        chain.append((ts[i + 1], points[i + 1]))
    return chain


def assert_matches_recursive_reference(path):
    """from_path on path equals the recursive reference: same t set, same
    samples, same winding."""
    evaluated = []

    def recorded(t):
        evaluated.append(np.array(t, dtype=float).ravel())
        return path(t)

    chain = recursive_samples(path)
    ts = np.array([t for t, _ in chain])
    x, y = np.array([p for _, p in chain]).T
    n = np.hypot(x, y)
    c, s = x / n, y / n
    reference = lg.SampledLoop(
        np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)
    )
    loop = lg.SampledLoop.from_path(recorded)
    assert np.all(np.diff(ts) > 0)
    assert np.array_equal(np.sort(np.concatenate(evaluated)), ts)
    assert np.array_equal(loop.samples, reference.samples)
    # the angle sum of lift_loop, one step at a time
    angles = [_angle(m) for m in reference.samples]
    total = sum(_wrap(b - a) for a, b in zip(angles, angles[1:]))
    assert lg.lift_loop(loop) == round(total / (2 * math.pi))


def test_word_winding_matches_deck_shift():
    rng = np.random.default_rng(23)
    for _ in range(25):
        x, y = random_element(rng), random_element(rng)
        k = int(rng.integers(-2, 3))
        closer = lg.deck_shift(lg.lift_inv(lg.lift_mul(x, y)), 2 * k)
        word = [x, y, closer]
        total = lg.product_lift(word)
        assert np.allclose(total.matrix, np.eye(2), atol=1e-8)
        loop = lg.SampledLoop.from_path(lg.word_path(word))
        assert lg.lift_loop(loop) == k
        assert total.lift == pytest.approx(2 * math.pi * k, abs=1e-9)
        pointwise = lg.SampledLoop.from_path(pointwise_word_path(word))
        assert lg.lift_loop(pointwise) == k


def test_level_refinement_matches_recursion_on_deck_shift_words():
    rng = np.random.default_rng(23)  # the words of the test above
    for _ in range(25):
        x, y = random_element(rng), random_element(rng)
        k = int(rng.integers(-2, 3))
        closer = lg.deck_shift(lg.lift_inv(lg.lift_mul(x, y)), 2 * k)
        assert_matches_recursive_reference(lg.word_path([x, y, closer]))


def test_level_refinement_matches_recursion_on_milnor_table():
    """Every (g, d) with |d| < g <= 7.

    The loop drops the identity padding letters, so the recursion runs
    once per degree, on its smallest genus, and every larger genus must
    give the same samples bit for bit.  The pointwise commutator loop it
    replaced gives the same winding up to degree 5; at degree 6 its
    entries are too large for float64 and refinement hits the cap."""
    reference = {}
    pointwise = {}
    for g in range(2, 8):
        for d in range(1 - g, g):
            rep = mi.build_representation(g, d)
            loop = lg.SampledLoop.from_path(mi.commutator_loop_path(rep))
            if d not in reference:
                assert_matches_recursive_reference(mi.commutator_loop_path(rep))
                reference[d] = loop
                try:
                    old = pointwise_commutator_path(rep)
                    pointwise[d] = lg.lift_loop(lg.SampledLoop.from_path(old))
                except ChernLabError:
                    pass
            assert np.array_equal(loop.samples, reference[d].samples)
            assert lg.lift_loop(loop) == d
    assert sorted(reference) == list(range(-6, 7))
    assert pointwise == {d: d for d in range(-5, 6)}


# -- batched paths ------------------------------------------------------------

ENTRIES = st.floats(-3.0, 3.0, allow_nan=False)
MATRICES = st.lists(ENTRIES, min_size=4, max_size=4).map(
    lambda v: np.array(v).reshape(2, 2)
).filter(lambda m: lg.det2(m) > 0.05)
T_VALUES = st.lists(
    st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 0.5]), min_size=1, max_size=12
).map(np.array)


def assert_batched_equals_scalar(path, ts):
    batched = path(ts)
    assert batched.shape == ts.shape + (2, 2)
    assert np.array_equal(batched, np.array([path(float(t)) for t in ts]))
    grid = ts[: len(ts) // 2 * 2].reshape(2, -1)
    assert np.array_equal(path(grid), batched[: grid.size].reshape(grid.shape + (2, 2)))


@settings(max_examples=40, deadline=None)
@given(m=MATRICES, shift=st.integers(-2, 2), ts=T_VALUES)
def test_batched_canonical_path_equals_scalar(m, shift, ts):
    """The canonical path of one element is its one-letter word path:
    batched equals scalar, the ends are exact and it realises the stored
    lift, deck shifts included."""
    x = lg.deck_shift(lg.principal_lift(m), 2 * shift)
    path = lg.word_path([x])
    assert_batched_equals_scalar(path, ts)
    ends = path(np.array([0.0, 1.0]))
    assert np.array_equal(ends[0], np.eye(2)) and np.array_equal(ends[1], x.matrix)
    assert path_lift(path, samples=512) == pytest.approx(x.lift, abs=1e-9)


LETTERS = st.builds(
    lambda m, shift: lg.deck_shift(lg.principal_lift(m), 2 * shift),
    MATRICES, st.integers(-2, 2),
) | st.just(lg.COVER_IDENTITY)


@settings(max_examples=60, deadline=None)
@given(word=st.lists(LETTERS, max_size=4), ts=T_VALUES)
@example(word=[], ts=np.array([0.0, 0.3, 1.0]))
@example(
    word=[lg.COVER_IDENTITY, lg.principal_lift(A1), lg.COVER_IDENTITY],
    ts=np.array([0.0, 1 / 3, 0.5, 2 / 3, 1.0]),
)
def test_batched_word_path_equals_scalar(word, ts):
    """Batched equals scalar and the ends are exact; (I, 0) letters are
    dropped, the empty word is the constant identity, and a one-letter
    path realises the letter's stored lift, deck shifts included."""
    path = lg.word_path(word)
    assert_batched_equals_scalar(path, ts)
    product = np.eye(2)
    for x in word:
        product = product @ x.matrix
    ends = path(np.array([0.0, 1.0]))
    assert np.array_equal(ends[0], np.eye(2)) and np.array_equal(ends[1], product)
    letters = [
        x for x in word if x.lift != 0.0 or not np.array_equal(x.matrix, np.eye(2))
    ]
    assert np.array_equal(path(ts), lg.word_path(letters)(ts))
    if len(letters) == 1:
        assert path_lift(path, samples=512) == pytest.approx(letters[0].lift, abs=1e-9)
    if not letters:
        assert np.array_equal(path(ts), np.broadcast_to(np.eye(2), ts.shape + (2, 2)))


@settings(max_examples=20, deadline=None)
@given(
    entry=st.sampled_from([(2, 1), (3, -2), (4, 3), (5, -4), (6, 5)]),
    ts=T_VALUES,
)
def test_batched_commutator_loop_path_equals_scalar(entry, ts):
    rep = mi.build_representation(*entry)
    path = mi.commutator_loop_path(rep)
    assert_batched_equals_scalar(path, ts)
    closing = np.eye(2)
    for a, b in zip(rep.A, rep.B):
        closing = closing @ a @ b @ lg.inv2(a) @ lg.inv2(b)
    ends = path(np.array([0.0, 1.0]))
    assert np.array_equal(ends[0], np.eye(2)) and np.array_equal(ends[1], closing)


def test_word_path_rejects_a_polar_factor_that_is_not_positive_definite(
    monkeypatch,
):
    # eigh of the polar factor of a nearly rank-one float matrix with
    # entries near 1e15 can return a zero eigenvalue; here the one eigh of
    # the stacked factors returns one for every letter
    eigh = np.linalg.eigh

    def zeroed(a):
        w, q = eigh(a)
        w[..., 0] = 0.0
        return w, q

    monkeypatch.setattr(np.linalg, "eigh", zeroed)
    with pytest.raises(DomainError, match="not positive definite"):
        lg.word_path([lg.principal_lift(A0), lg.principal_lift(A1)])


# -- the matrix-product reference -----------------------------------------------
# tests/reference_path.py keeps the path as it was before the letters were
# decomposed as one stack: per-letter polar parts and three stacked matmuls.

EPS = np.finfo(float).eps
MILNOR_TABLE = [(g, d) for g in range(2, 8) for d in range(1 - g, g)]


def relation_word(rep):
    """The 4g letters of prod [alpha_i, beta_i], inverses taken here."""
    word = []
    for x, y in rep.lifts:
        word += [x, y, lg.lift_inv(x), lg.lift_inv(y)]
    return word


def assert_near_reference(word, ts):
    """On letter k, with SPD factor P_k over the product prefix_k of the
    letters before it, the stacked path is within

        16 eps cond(P_k) |prefix_k| max(|P_k|, |P_k^-1|)

    of the reference (max-entry norms).  eigh resolves the small eigenvalue
    of P_k only to eps cond(P_k) relative error, and the two paths round
    P_k differently; the rest of either path is a few products of factors
    of those sizes."""
    letters = [
        x for x in word if x.lift != 0.0 or not np.array_equal(x.matrix, np.eye(2))
    ] or [lg.COVER_IDENTITY]
    bounds, prefix = [], np.eye(2)
    for x in letters:
        w = np.linalg.eigvalsh(reference_polar_parts(x.matrix)[1])
        bounds.append(16 * EPS * w[1] / w[0] * np.abs(prefix).max() * max(w[1], 1 / w[0]))
        prefix = prefix @ x.matrix
    k = np.minimum(np.floor(ts * len(letters)), len(letters) - 1).astype(int)
    gap = np.abs(lg.word_path(word)(ts) - reference_word_path(word)(ts))
    assert np.all(gap.max(axis=(-2, -1)) <= np.array(bounds)[k])


@settings(max_examples=60, deadline=None)
@given(word=st.lists(LETTERS, max_size=4), ts=T_VALUES)
def test_stacked_word_path_agrees_with_the_matrix_product_reference(word, ts):
    assert_near_reference(word, ts)


def test_stacked_commutator_path_agrees_with_the_reference_on_milnor_table():
    ts = np.linspace(0.0, 1.0, 4097)
    for g, d in MILNOR_TABLE:
        assert_near_reference(relation_word(mi.build_representation(g, d)), ts)


@pytest.mark.parametrize(
    "g, d", MILNOR_TABLE + [(18, 17), (18, -17), (21, 20), (34, 33)]
)
def test_winding_and_sample_count_match_the_reference(g, d):
    rep = mi.build_representation(g, d)
    assert mi.winding_number(rep) == mi.milnor_number(rep) == d
    loop = lg.SampledLoop.from_path(mi.commutator_loop_path(rep))
    reference = lg.SampledLoop.from_path(reference_word_path(relation_word(rep)))
    assert len(loop) == len(reference)


def test_inverse_keeps_the_singular_check():
    with pytest.raises(DomainError, match="singular"):
        lg.inv2(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert np.array_equal(lg.inv2(np.eye(2) * 2.0), np.eye(2) / 2.0)


def test_inverse_refuses_an_overflowed_determinant():
    # d / det with det = inf would give the zero matrix
    with pytest.raises(DomainError, match="determinant inf is not finite"):
        lg.inv2(np.eye(2) * 1e200)


# -- type invariants ----------------------------------------------------------

def test_covered_element_rejects_wrong_lift():
    with pytest.raises(DomainError):
        lg.CoveredElement(A0, 0.5)


def test_covered_element_accepts_deck_shifted_lift():
    lg.CoveredElement(A1, lg.retract(A1) + 2 * math.pi)


def test_covered_element_matrix_is_immutable():
    x = lg.principal_lift(A0)
    with pytest.raises(ValueError):
        x.matrix[0, 0] = 5.0


def test_each_construction_runs_one_gl_plus_check(monkeypatch):
    calls = []
    check = lg._gl_plus_entries

    def counted(m):
        calls.append(m)
        return check(m)

    monkeypatch.setattr(lg, "_gl_plus_entries", counted)
    x, y = lg.principal_lift(A0), lg.principal_lift(A1)
    lift = lg.retract(A1) + 2 * math.pi
    for make in (
        lambda: lg.principal_lift(A2),
        lambda: lg.lift_mul(x, y),
        lambda: lg.CoveredElement(A1, lift),
    ):
        calls.clear()
        make()
        assert len(calls) == 1


def test_elements_built_without_the_public_check_pass_it(monkeypatch):
    # lift_mul and principal_lift store their elements unchecked; every one
    # made while building and measuring a representation must pass the check
    made = []
    store = lg.CoveredElement._checked

    def collect(m, lift):
        made.append(store(m, lift))
        return made[-1]

    monkeypatch.setattr(lg.CoveredElement, "_checked", collect)
    rep = mi.build_representation(7, 6)
    assert mi.milnor_number(rep) == 6
    assert made
    for e in made:
        assert not e.matrix.flags.writeable
        lg.CoveredElement(e.matrix, e.lift)  # raises if the lift is off


def test_principal_lift_neither_freezes_nor_aliases_its_argument():
    m = A1.copy()
    x = lg.principal_lift(m)
    assert m.flags.writeable and not np.shares_memory(x.matrix, m)
    m[0, 0] = 7.0
    assert x.matrix[0, 0] == A1[0, 0]
