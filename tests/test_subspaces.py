"""Exact subspace kernel vs an independent row-reduction oracle."""

import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import independent_linalg as oracle
from reference_kernel import reference_quotient_coordinates, reference_rref
import chernlab.subspaces as subspaces_mod
from chernlab.errors import DomainError
from chernlab.subspaces import (
    Subspace,
    _integer_coordinates,
    _integer_images,
    image,
    kernel,
    kernel_basis,
    mat_from_rows,
    matmul,
    matvec,
    quotient_coordinates,
    quotient_dim,
    quotient_representatives,
    rank,
    rref,
    subspace_intersect,
    subspace_preimage,
    subspace_sum,
)

F = Fraction


def random_vectors(rng, count, dim):
    pool = [F(-2), F(-1), F(-1, 2), F(0), F(1), F(1, 2), F(2), F(3)]
    return [
        [pool[int(rng.integers(len(pool)))] for _ in range(dim)]
        for _ in range(count)
    ]


def test_sum_with_itself_is_identity():
    u = Subspace.span(3, [[1, 2, 0], [0, 1, 1]])
    assert subspace_sum(u, u) == u


def test_intersection_of_coordinate_planes():
    e12 = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    e23 = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    got = subspace_intersect(e12, e23)
    assert got == Subspace.span(3, [[0, 1, 0]])


def test_preimage_of_zero_is_kernel():
    rng = np.random.default_rng(3)
    for _ in range(30):
        nrows, ncols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        t = mat_from_rows(random_vectors(rng, nrows, ncols))
        pre = subspace_preimage(t, Subspace.zero(nrows))
        assert pre.dim == ncols - oracle.rank(t)
        assert pre == kernel(t, ncols)


def test_canonical_form_is_representation_independent():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(1, 6))
        vecs = random_vectors(rng, int(rng.integers(1, 5)), dim)
        u = Subspace.span(dim, vecs)
        # re-span from random combinations of the same vectors
        combos = []
        for _ in range(len(vecs) + 2):
            coeffs = random_vectors(rng, 1, len(vecs))[0]
            combos.append(
                [
                    sum(coeffs[k] * vecs[k][i] for k in range(len(vecs)))
                    for i in range(dim)
                ]
            )
        assert Subspace.span(dim, combos).dim <= u.dim
        assert subspace_sum(Subspace.span(dim, combos), u) == u


def test_sum_and_intersect_dims_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        dim = int(rng.integers(1, 6))
        u = Subspace.span(dim, random_vectors(rng, int(rng.integers(0, 4)), dim))
        v = Subspace.span(dim, random_vectors(rng, int(rng.integers(0, 4)), dim))
        s = subspace_sum(u, v)
        i = subspace_intersect(u, v)
        assert s.dim == oracle.rank(list(u.vectors) + list(v.vectors))
        # modular law: dim(U+V) + dim(U cap V) = dim U + dim V
        assert s.dim + i.dim == u.dim + v.dim
        assert u.contains(i) and v.contains(i)
        assert s.contains(u) and s.contains(v)


def test_preimage_against_oracle():
    rng = np.random.default_rng(9)
    for _ in range(40):
        ncols = int(rng.integers(1, 5))
        nrows = int(rng.integers(1, 5))
        t = mat_from_rows(random_vectors(rng, nrows, ncols))
        w = Subspace.span(
            nrows, random_vectors(rng, int(rng.integers(0, 3)), nrows)
        )
        pre = subspace_preimage(t, w)
        cols_t = [tuple(t[i][j] for i in range(nrows)) for j in range(ncols)]
        cols_w = [tuple(v) for v in w.vectors]
        assert pre.dim == oracle.solution_space_dim(cols_t, cols_w)
        for vec in pre.vectors:
            assert w.contains_vector(matvec(t, vec))


def test_quotient_dim_and_containment_error():
    u = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.span(3, [[1, 1, 0]])
    assert quotient_dim(u, v) == 1
    with pytest.raises(DomainError):
        quotient_dim(v, u)
    w = Subspace.span(3, [[0, 0, 1]])
    with pytest.raises(DomainError):
        quotient_dim(u, w)


def test_quotient_representatives_extend_denominator():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        u = Subspace.span(dim, random_vectors(rng, dim, dim))
        v_vecs = [u.vectors[k] for k in range(u.dim) if rng.random() < 0.5]
        v = Subspace.span(dim, v_vecs)
        reps = quotient_representatives(u, v)
        assert len(reps) == quotient_dim(u, v)
        rebuilt = Subspace.span(dim, list(v.vectors) + list(reps))
        assert rebuilt == u


def test_quotient_coordinates_solve_exactly():
    u = Subspace.span(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    v = Subspace.span(3, [[1, 0, 0]])
    reps = quotient_representatives(u, v)
    x = (F(5), F(2), F(-3))
    (coords,) = quotient_coordinates(v.vectors, reps, [x])
    rebuilt = [F(0)] * 3
    for c, rep in zip(coords, reps):
        for i in range(3):
            rebuilt[i] += c * rep[i]
    # x - rebuilt must be in the denominator
    assert v.contains_vector([a - b for a, b in zip(x, rebuilt)])


def _incremental_representatives(u, v):
    """The greedy rule spelled out: walk U's basis and keep each vector
    that is not yet in the span of V and the vectors kept so far."""
    reps, current = [], v
    for vec in u.vectors:
        if not current.contains_vector(vec):
            reps.append(vec)
            current = Subspace.span(u.ambient_dim, current.vectors + (vec,))
    return tuple(reps)


def _random_pair(rng, dim, kind):
    """(U, V) with V inside U; kind picks V = 0, V = U, U full or neither."""
    u = Subspace.full(dim) if kind == "full" else Subspace.span(
        dim, random_vectors(rng, int(rng.integers(0, dim + 1)), dim)
    )
    if kind == "zero":
        return u, Subspace.zero(dim)
    if kind == "equal":
        return u, u
    # V spanned by random combinations of U's basis, so V is no coordinate
    # subspace of U's echelon basis
    coeffs = random_vectors(rng, int(rng.integers(0, u.dim + 1)), u.dim)
    basis = u.basis_columns()
    return u, Subspace.span(dim, [matvec(basis, c) for c in coeffs])


@pytest.mark.parametrize("kind", ["zero", "equal", "full", "random"])
def test_quotient_representatives_follow_the_greedy_rule(kind):
    rng = np.random.default_rng(["zero", "equal", "full", "random"].index(kind))
    for _ in range(40):
        u, v = _random_pair(rng, int(rng.integers(0, 7)), kind)
        assert v.dim <= u.dim and u.contains(v)
        assert quotient_representatives(u, v) == _incremental_representatives(u, v)


def test_quotient_representatives_reject_a_denominator_outside():
    rng = np.random.default_rng(23)
    for _ in range(40):
        dim = int(rng.integers(1, 6))
        u = Subspace.span(dim, random_vectors(rng, int(rng.integers(0, dim)), dim))
        v = Subspace.span(dim, random_vectors(rng, int(rng.integers(1, dim + 1)), dim))
        if u.contains(v):
            continue
        with pytest.raises(DomainError, match="not contained in numerator"):
            quotient_representatives(u, v)


def test_batched_quotient_coordinates_equal_one_vector_solves():
    rng = np.random.default_rng(29)
    for _ in range(40):
        u, v = _random_pair(rng, int(rng.integers(1, 7)), "random")
        reps = quotient_representatives(u, v)
        basis = u.basis_columns()
        xs = [matvec(basis, c) for c in random_vectors(rng, 4, u.dim)]
        batched = quotient_coordinates(v.vectors, reps, xs)
        assert batched == [quotient_coordinates(v.vectors, reps, [x])[0] for x in xs]
        for x, coords in zip(xs, batched):
            rest = list(x)
            for c, rep in zip(coords, reps):
                rest = [a - c * b for a, b in zip(rest, rep)]
            assert v.contains_vector(rest)


def test_quotient_coordinates_reject_outside_and_dependent_vectors():
    e1, e2, e3 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    assert quotient_coordinates([e1], [e2], [(F(4), F(5), F(0))]) == [(F(5),)]
    with pytest.raises(DomainError):
        quotient_coordinates([e1], [e2], [e1, e3])  # e3 outside the span
    with pytest.raises(DomainError):
        quotient_coordinates([e1], [e2, (F(2), F(3), F(0))], [e1])  # dependent
    with pytest.raises(DomainError):
        quotient_coordinates([e1, e1], [], [])  # dependent, nothing to solve


def test_ambient_mismatch_raises():
    with pytest.raises(DomainError):
        subspace_sum(Subspace.full(2), Subspace.full(3))
    with pytest.raises(DomainError):
        Subspace.span(2, [[1, 2, 3]])


def test_rref_canonical_shape():
    reduced, pivots = rref(
        mat_from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    )
    assert pivots == (0, 1)
    assert reduced == mat_from_rows([[1, 0, -1], [0, 1, 2]])


# -- the integer kernel against the Fraction reference -----------------------------

def _reference_inputs():
    """Seeded row lists: the edge shapes, then random wide, tall, sparse,
    repeated and large-entry matrices of Fraction and int entries."""
    yield []
    yield [()]
    yield [[F(0)] * 4 for _ in range(3)]
    yield [[0, 0, 0], [0, 5, 0], [0, 0, 0]]
    r = random.Random(107)
    pool = [F(-2), F(-1), F(-1, 2), F(0), F(0), F(0), F(1), F(1, 3), 2, -3]

    def draw(big):
        if big:
            return F(r.randint(-10**30, 10**30), r.randint(1, 10**20))
        return r.choice(pool)

    for _ in range(60):
        nrows, ncols = r.choice([(3, 9), (9, 3), (6, 6), (1, 7), (7, 1)])
        big = r.random() < 0.3
        rows = [[draw(big) for _ in range(ncols)] for _ in range(nrows)]
        if r.random() < 0.4:  # repeated and scaled rows
            rows += [list(rows[0]), [3 * x for x in rows[-1]], list(rows[0])]
            r.shuffle(rows)
        yield rows


def test_rref_equals_the_fraction_reference_tuple_for_tuple():
    for rows in _reference_inputs():
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == reference_rref(rows)
        assert all(isinstance(x, Fraction) for row in reduced for x in row)
        assert rank(rows) == len(pivots)


def _count_eliminations(monkeypatch) -> list:
    calls = []
    real = subspaces_mod._echelon

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(subspaces_mod, "_echelon", counted)
    return calls


CANONICAL_ROWS = [
    [],
    [[1, 0, 0]],
    [[0, 0, 1]],
    [[1, 0], [0, 1]],
    [[0, 1, F(1, 2), 0], [0, 0, 0, 1]],
    [[1, 0, -3, 0, F(2, 7)], [0, 1, F(2, 3), 0, 0], [0, 0, 0, 1, 5]],
    [[F(1), F(0), F(0)], [F(0), F(0), F(1)]],
]


def test_rref_returns_canonical_rows_without_an_elimination(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    for rows in CANONICAL_ROWS:
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == reference_rref(rows)
        assert reduced == tuple(tuple(F(x) for x in row) for row in rows)
        assert all(type(x) is Fraction for row in reduced for x in row)
    # every reduced form of the reference inputs is returned as it stands
    for rows in _reference_inputs():
        canonical = reference_rref(rows)
        assert rref(canonical[0]) == canonical
    assert calls == []


@pytest.mark.parametrize("rows", [
    [[2, 0, 0], [0, 1, 0]],
    [[1, 1, 0], [0, 1, 0]],
    [[1, 0, F(1, 2)], [0, 0, 1]],
    [[1, 0, 0], [0, 0, 0]],
    [[0, 0, 0]],
    [[0, 1, 0], [1, 0, 0]],
    [[1, 0, 0], [1, 0, 0]],
    [[0, 1, 0], [0, 1, 0], [0, 0, 1]],
], ids=["leading-2", "above-a-pivot", "above-the-last-pivot", "zero-row", "only-zero",
        "decreasing-pivots", "repeated-row", "repeated-leading-column"])
def test_rref_eliminates_rows_that_break_one_condition(monkeypatch, rows):
    calls = _count_eliminations(monkeypatch)
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == reference_rref(rows)
    assert calls == [len(rows)]


def test_integer_images_are_positive_multiples_of_the_images():
    rng = np.random.default_rng(113)
    for _ in range(40):
        nrows, ncols = int(rng.integers(0, 5)), int(rng.integers(1, 5))
        t = mat_from_rows(random_vectors(rng, nrows, ncols))
        vectors = random_vectors(rng, 4, ncols) + [[F(0)] * ncols]
        images = _integer_images(t, vectors)
        assert len(images) == len(vectors)
        for got, v in zip(images, vectors):
            exact = matvec(t, v)
            assert len(got) == len(exact)
            assert all(type(x) is int for x in got)
            assert [bool(x) for x in got] == [bool(x) for x in exact]
            ratios = {F(x) / y for x, y in zip(got, exact) if y}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)


def test_quotient_coordinates_equal_the_fraction_reference():
    rng = np.random.default_rng(109)
    for kind in ("zero", "equal", "full", "random") * 10:
        u, v = _random_pair(rng, int(rng.integers(0, 7)), kind)
        reps = quotient_representatives(u, v)
        basis = u.basis_columns()
        xs = [matvec(basis, c) for c in random_vectors(rng, 3, u.dim)]
        got = quotient_coordinates(v.vectors, reps, xs)
        assert got == reference_quotient_coordinates(v.vectors, reps, xs)
        assert all(isinstance(x, Fraction) for column in got for x in column)


def test_image_and_matmul():
    t = mat_from_rows([[1, 0], [1, 0], [0, 0]])
    img = image(t, Subspace.full(2))
    assert img == Subspace.span(3, [[1, 1, 0]])
    assert matmul(t, mat_from_rows([[1], [1]])) == mat_from_rows(
        [[1], [1], [0]]
    )


# -- property tests of the zero-skipping kernel ---------------------------------

NONZERO = st.integers(-9, 9).filter(bool) | st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 7)
)


@st.composite
def sparse_matrices(draw, nrows=None, ncols=None, max_size=8):
    """Integer/Fraction matrices up to max_size square, density 0.1-0.6."""
    nrows = nrows or draw(st.integers(1, max_size))
    ncols = ncols or draw(st.integers(1, max_size))
    density = draw(st.floats(0.1, 0.6))
    return tuple(
        tuple(
            draw(NONZERO) if draw(st.floats(0, 1)) < density else 0
            for _ in range(ncols)
        )
        for _ in range(nrows)
    )


def _dense_matvec(t, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in t)


PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(sparse_matrices())
def test_rref_is_canonical_with_oracle_rank(t):
    reduced, pivots = rref(t)
    assert len(reduced) == len(pivots) == oracle.rank(t)
    assert list(pivots) == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(reduced, pivots)):
        assert all(v == 0 for v in row[:p])
        assert row[p] == 1
        assert all(other[p] == 0 for k, other in enumerate(reduced) if k != i)


@PROPERTY
@given(sparse_matrices(), st.data())
def test_span_ignores_row_order_and_scaling(t, data):
    ncols = len(t[0])
    rows = data.draw(st.permutations(t))
    scales = data.draw(st.lists(NONZERO, min_size=len(rows), max_size=len(rows)))
    scaled = [[s * v for v in row] for s, row in zip(scales, rows)]
    assert Subspace.span(ncols, scaled) == Subspace.span(ncols, t)


@PROPERTY
@given(sparse_matrices())
def test_kernel_basis_is_annihilated_exactly(t):
    ncols = len(t[0])
    basis = kernel_basis(t, ncols)
    assert len(basis) == ncols - oracle.rank(t)
    for v in basis:
        assert all(x == 0 for x in _dense_matvec(t, v))


@PROPERTY
@given(sparse_matrices(), st.data())
def test_matvec_and_matmul_match_dense_sums(t, data):
    nrows, ncols = len(t), len(t[0])
    zero = matvec(t, (F(0),) * ncols)
    assert zero == (0,) * nrows
    assert all(isinstance(x, Fraction) for x in zero)
    (x,) = data.draw(sparse_matrices(nrows=1, ncols=ncols))
    assert matvec(t, x) == _dense_matvec(t, x)
    b = data.draw(sparse_matrices(nrows=ncols))
    assert matmul(t, b) == tuple(
        tuple(
            sum(row[k] * b[k][j] for k in range(ncols))
            for j in range(len(b[0]))
        )
        for row in t
    )


# -- single-support shortcuts against the forced elimination ---------------------

def _outcome(f, *args):
    """What f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)


def _forced(f, *args):
    """_outcome with every question left to the elimination."""
    with patch.object(subspaces_mod, "_positions", lambda vectors, length: None):
        return _outcome(f, *args)


def _unit(length, i, x=1):
    return tuple(F(x) if j == i else F(0) for j in range(length))


@st.composite
def single_support_problems(draw, max_length=5):
    """(V vectors, U vectors, xs) in Q^n: V and U with at most one nonzero
    entry each, at any positions and in any order, zero vectors and
    repeats included; xs single-support, combinations of V and U, or
    dense; now and then one vector of another length, or a dense one in
    V or U, which the elimination is left to."""
    n = draw(st.integers(1, max_length))
    entry = st.tuples(st.integers(0, n - 1), st.just(0) | NONZERO)
    vs, us = (
        [_unit(n, i, x) for i, x in draw(st.lists(entry, max_size=4))]
        for _ in range(2)
    )
    if draw(st.integers(0, 9)) == 0:
        draw(st.sampled_from([vs, us])).append(draw(sparse_matrices(nrows=1, ncols=n))[0])
    xs = []
    for kind in draw(st.lists(st.sampled_from(["single", "span", "dense"]), max_size=3)):
        if kind == "single":
            xs.append(_unit(n, *draw(entry)))
        elif kind == "span":
            coefficients = draw(st.lists(NONZERO, min_size=len(vs + us), max_size=len(vs + us)))
            xs.append(tuple(
                sum((F(a) * b[j] for a, b in zip(coefficients, vs + us)), F(0))
                for j in range(n)
            ))
        else:
            xs.append(draw(sparse_matrices(nrows=1, ncols=n))[0])
    if draw(st.integers(0, 9)) == 0:
        draw(st.sampled_from([vs, us, xs])).append(_unit(n + 1, n))
    return vs, us, xs


E2 = [_unit(2, 0), _unit(2, 1)]


@PROPERTY
@given(single_support_problems())
@example(([E2[0], E2[0]], [E2[1]], []))           # V dependent
@example(([E2[0]], [E2[0], E2[1]], [E2[0]]))      # V dependent along U
@example(([E2[1]], [E2[0]], []))                  # V outside U
@example(([E2[1]], [E2[0], _unit(2, 0, 2)], []))  # U dependent: the first at a position
@example(([], [E2[0], (F(1), F(1))], []))         # a U vector with two nonzero entries
@example(([], [E2[0]], [E2[1]]))                  # an x outside the span
@example(([], [E2[0], E2[1]], [(F(1),)]))         # an x of another length
@example(([(F(0),) * 3], [E2[0]], []))            # a V vector of another length
@example(([], [_unit(2, 1, F(-3, 2)), _unit(2, 0, 4)], [(F(1, 3), F(5))]))
def test_single_support_shortcuts_equal_the_forced_elimination(problem):
    vs, us, xs = problem
    n = len(us[0]) if us else len(vs[0]) if vs else 0
    u, v = Subspace(n, tuple(us)), Subspace(n, tuple(vs))
    assert _outcome(quotient_representatives, u, v) == _forced(
        quotient_representatives, u, v
    )
    for f in (quotient_coordinates, _integer_coordinates):
        assert _outcome(f, vs, us, xs) == _forced(f, vs, us, xs)


def test_single_support_shortcuts_run_no_elimination(monkeypatch):
    """The unit steps of a coordinate filtration, in and out of position
    order, with non-unit values, and the coordinates along them."""
    calls = _count_eliminations(monkeypatch)
    e = [_unit(4, i) for i in range(4)]
    upper = Subspace(4, (e[3], _unit(4, 0, F(-2, 3)), e[1], e[2]))
    lower = Subspace(4, (e[2], e[3]))
    assert quotient_representatives(upper, lower) == (_unit(4, 0, F(-2, 3)), e[1])
    assert quotient_dim(Subspace.full(4), lower) == 2
    xs = [(F(1, 2), F(3), F(-1), F(0)), (F(0),) * 4]
    got = _integer_coordinates(lower.vectors, (_unit(4, 0, F(-2, 3)), e[1]), xs)
    assert got == ([[-3, 12], [0, 0]], 4)  # (-3/4, 3) and (0, 0), times 4
    assert quotient_coordinates(lower.vectors, (_unit(4, 0, F(-2, 3)), e[1]), xs) == [
        (F(-3, 4), F(3)), (F(0), F(0))
    ]
    assert calls == []
