"""Spectral engine: formulas, page recursion, persistence pairing,
convergence, double complexes."""

import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import chernlab.spectral as spectral_mod
import chernlab.subspaces as subspaces_mod
import independent_linalg as oracle
from corpusgen import random_double_complex, random_filtered_complex
from reference_kernel import reference_quotient_coordinates, reference_reduce
from chernlab.errors import (
    ConventionError,
    DomainError,
    InternalConsistencyError,
    PreconditionError,
)
from chernlab.spectral import (
    DoubleComplex,
    FilteredComplex,
    PageEntry,
    bete_filtration,
    cohomology_dim,
    compute_page,
    cycles_up_to_filtration,
    double_complex_from_dict,
    double_complex_to_dict,
    filtered_complex_from_dict,
    filtered_complex_to_dict,
    from_double_complex,
    graded_cohomology,
    infinity_page,
    page_differential,
    page_entry,
    persistence_pairing,
)
from chernlab.subspaces import (
    Subspace,
    _integer_coordinates,
    _integer_images,
    image,
    kernel,
    mat_from_rows,
    matmul,
    matvec,
    quotient_representatives,
    subspace_intersect,
    subspace_sum,
)

F = Fraction


def _apply(rows, vec):
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in rows]


def _columns(rows, ncols):
    return [tuple(rows[i][j] for i in range(len(rows))) for j in range(ncols)]


def two_term_complex():
    """0 -> Q^2 -> Q^2 -> Q -> 0 with a rank-one then zero map and the
    truncation filtration."""
    dims = {0: 2, 1: 2, 2: 1}
    d = {
        0: mat_from_rows([[1, 0], [1, 0]]),
        1: mat_from_rows([[0, 0]]),
    }
    return bete_filtration(dims, d, 0, 2)


# -- cycles up to filtration ----------------------------------------------------

def test_cycles_r_zero_is_filtration_step():
    c = two_term_complex()
    for p in range(c.p_min, c.p_max + 1):
        for n in c.degrees():
            assert cycles_up_to_filtration(c, 0, p, n - p) == c.filt(p, n)


def test_cycles_large_r_is_filtered_kernel():
    c = two_term_complex()
    big = c.filtration_length + 3
    for p in range(c.p_min, c.p_max + 1):
        for n in c.degrees():
            a = cycles_up_to_filtration(c, big, p, n - p)
            for v in a.vectors:
                assert all(x == 0 for x in _apply(c.diff(n), v))
            assert c.filt(p, n).contains(a)


def test_filt_clamps_to_the_stored_end_steps():
    """Below p_min and above p_max filt returns the stored end step, which
    construction checked to equal the full and the zero space; a degree
    outside the complex has only the zero space."""
    c = random_filtered_complex(np.random.default_rng(61))
    for n in c.degrees():
        full, zero = Subspace.full(c.dim(n)), Subspace.zero(c.dim(n))
        for p in (c.p_min - 3, c.p_min - 1, c.p_min):
            assert c.filt(p, n) == full
            assert c.filt(p, n) is c.filtration[(c.p_min, n)]
        for p in (c.p_max, c.p_max + 1, c.p_max + 4):
            assert c.filt(p, n) == zero
            assert c.filt(p, n) is c.filtration[(c.p_max, n)]
    for n in (c.n_min - 1, c.n_max + 1):
        for p in (c.p_min - 1, c.p_min):
            assert c.filt(p, n) == Subspace.full(0)
        for p in range(c.p_min + 1, c.p_max + 2):
            assert c.filt(p, n) == Subspace.zero(0)


def test_cycles_match_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        c = random_filtered_complex(rng)
        p = int(rng.integers(c.p_min, c.p_max + 1))
        n = int(rng.integers(c.n_min, c.n_max + 1))
        r = int(rng.integers(0, c.filtration_length + 2))
        a = cycles_up_to_filtration(c, r, p, n - p)
        fb = c.filt(p, n)
        cols = [tuple(_apply(c.diff(n), v)) for v in fb.vectors]
        target = [tuple(v) for v in c.filt(p + r, n + 1).vectors]
        assert a.dim == oracle.solution_space_dim(cols, target)
        # membership of every basis vector, checked against the raw condition
        for v in a.vectors:
            assert c.filt(p, n).contains_vector(v)
            assert c.filt(p + r, n + 1).contains_vector(_apply(c.diff(n), v))


# -- pages ----------------------------------------------------------------------

def test_one_term_bete_page_zero():
    c = bete_filtration({0: 3}, {}, 0, 0)
    assert page_entry(c, 0, 0, 0).dim == 3
    assert page_entry(c, 1, 0, 0).dim == 3


def test_bete_converges_to_cohomology_by_page_two():
    rng = np.random.default_rng(17)
    for _ in range(15):
        base = random_filtered_complex(rng)
        c = bete_filtration(base.dims, base.d, base.n_min, base.n_max)
        p2 = compute_page(c, 2)
        for (p, q), entry in p2.entries.items():
            expected = cohomology_dim(c, p + q) if q == 0 else 0
            assert entry.dim == expected
        stable = infinity_page(c)
        for key, entry in stable.entries.items():
            assert entry.dim == p2.entries[key].dim


def test_page_recursion_dimension_formula():
    rng = np.random.default_rng(19)
    for _ in range(20):
        c = random_filtered_complex(rng)
        for r in range(0, c.filtration_length + 2):
            cur = compute_page(c, r)
            for (p, q), entry in cur.entries.items():
                d_out = cur.differentials[(p, q)]
                d_in = cur.differentials.get((p - r, q + r - 1))
                ker = entry.dim - oracle.rank(d_out) if d_out else entry.dim
                img = oracle.rank(d_in) if d_in else 0
                nxt = page_entry(c, r + 1, p, q)
                assert nxt.dim == ker - img


def test_page_differential_squares_to_zero():
    rng = np.random.default_rng(23)
    for _ in range(10):
        c = random_filtered_complex(rng)
        for r in range(0, c.filtration_length + 2):
            for p in range(c.p_min, c.p_max):
                for n in c.degrees():
                    q = n - p
                    first = page_differential(c, r, p, q)
                    second = page_differential(c, r, p + r, q - r + 1)
                    if first and second and first[0]:
                        prod = matmul(second, first)
                        assert all(v == 0 for row in prod for v in row)


def test_zero_differential_complex_has_zero_page_maps():
    dims = {0: 2, 1: 2}
    d = {0: mat_from_rows([[0, 0], [0, 0]])}
    c = bete_filtration(dims, d, 0, 1)
    for r in range(0, 4):
        page = compute_page(c, r)
        for m in page.differentials.values():
            assert all(v == 0 for row in m for v in row)


def test_each_page_entry_eliminates_once(monkeypatch):
    # one quotient_representatives call per memoized E entry gives its dim,
    # its representatives and the check that its denominator lies inside
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return quotient_representatives(u, v)

    monkeypatch.setattr(spectral_mod, "quotient_representatives", counted)
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = random_filtered_complex(rng)
        calls.clear()  # construction reads the adapted bases through it
        for r in range(c.filtration_length + 2):
            compute_page(c, r)
        assert len(calls) == sum(key[0] == "E" for key in c._memo)


def full_first_step_complex():
    """Q -> Q by 1 with F^0 = F^1 = everything and F^2 = 0."""
    return FilteredComplex(
        0, 1, {0: 1, 1: 1}, {0: mat_from_rows([[1]])}, 0, 2,
        {(p, n): Subspace.full(1) if p < 2 else Subspace.zero(1)
         for p in range(3) for n in range(2)},
    )


@pytest.mark.parametrize("p, q, target, message", [
    # E_0[1, -1] = Q / 0, and d sends its representative out of a zero target
    (1, -1, PageEntry(Subspace.zero(1), Subspace.zero(1)),
     "page differential leaves the target"),
    # E_0[0, 0] = Q / Q, and d sends its denominator out of a zero denominator
    (0, 0, PageEntry(Subspace.full(1), Subspace.zero(1)),
     "page differential depends on the representative"),
], ids=["numerator", "denominator"])
def test_page_differential_names_a_broken_invariant(monkeypatch, p, q, target, message):
    c = full_first_step_complex()
    monkeypatch.setitem(c._memo, ("E", 0, p, q + 1), target)
    with pytest.raises(InternalConsistencyError, match=f"{message}$"):
        page_differential(c, 0, p, q)


# -- infinity page and convergence ------------------------------------------------

def test_infinity_of_zero_complex():
    c = bete_filtration({0: 0, 1: 0}, {0: ()}, 0, 1)
    stable = infinity_page(c)
    assert all(e.dim == 0 for e in stable.entries.values())


def test_infinity_page_sums_to_cohomology():
    rng = np.random.default_rng(29)
    for _ in range(25):
        c = random_filtered_complex(rng)
        stable = infinity_page(c)
        assert stable.stabilized_at == c.filtration_length + 1
        for n in c.degrees():
            total = sum(
                entry.dim
                for (p, q), entry in stable.entries.items()
                if p + q == n
            )
            assert total == cohomology_dim(c, n)


def test_convergence_theorem_entrywise():
    rng = np.random.default_rng(31)
    for _ in range(40):
        c = random_filtered_complex(rng)
        stable = infinity_page(c)
        for (p, q), entry in stable.entries.items():
            assert entry.dim == graded_cohomology(c, p, q)


def test_graded_cohomology_bete_concentrates():
    c = two_term_complex()
    for n in c.degrees():
        for p in range(c.p_min, c.p_max):
            expected = cohomology_dim(c, n) if p == n else 0
            assert graded_cohomology(c, p, n - p) == expected


def test_graded_cohomology_trivial_filtration():
    dims = {0: 2, 1: 1}
    d = {0: mat_from_rows([[1, 0]])}
    filt = {}
    for n in (0, 1):
        filt[(0, n)] = Subspace.full(dims[n])
        filt[(1, n)] = Subspace.zero(dims[n])
    c = FilteredComplex(
        n_min=0, n_max=1, dims=dims, d=d, p_min=0, p_max=1, filtration=filt
    )
    assert graded_cohomology(c, 0, 0) == cohomology_dim(c, 0) == 1
    assert graded_cohomology(c, 0, 1) == cohomology_dim(c, 1) == 0


# -- graded cohomology against the subspace formula, kept as a reference -------

def _reference_lifted_cohomology(c, n):
    """Z^n, B^n and F^p H^n lifted to C^n as the subspace (F^p C^n cap Z^n)
    + B^n for each p_min <= p <= p_max: the formula that graded_cohomology
    computed before it read the same dimensions from ranks."""
    cycles = kernel(c.diff(n), c.dim(n))
    boundaries = image(c.diff(n - 1), Subspace.full(c.dim(n - 1)))
    lifted = {
        p: subspace_sum(subspace_intersect(c.filt(p, n), cycles), boundaries)
        for p in c.filtration_degrees()
    }
    return cycles, boundaries, lifted


def _reference_corpus():
    rng = np.random.default_rng(83)
    for _ in range(20):
        yield random_filtered_complex(rng)
    for _ in range(10):
        dc = random_double_complex(rng)
        yield from_double_complex(dc, "vertical")
        yield from_double_complex(dc, "horizontal")


def test_rank_formulas_match_the_subspace_reference():
    for c in _reference_corpus():
        for n in c.degrees():
            cycles, boundaries, lifted = _reference_lifted_cohomology(c, n)
            assert cohomology_dim(c, n) == cycles.dim - boundaries.dim
            # one step past each end checks the clamping too
            for p in range(c.p_min - 1, c.p_max + 1):
                expected = lifted[c.level(p)].dim - lifted[c.level(p + 1)].dim
                assert graded_cohomology(c, p, n - p) == expected


# -- persistence pairing --------------------------------------------------------------

def shifted(c, dn, dp):
    """c with its degrees moved by dn and its filtration degrees by dp."""
    return FilteredComplex(
        n_min=c.n_min + dn,
        n_max=c.n_max + dn,
        dims={n + dn: k for n, k in c.dims.items()},
        d={n + dn: m for n, m in c.d.items()},
        p_min=c.p_min + dp,
        p_max=c.p_max + dp,
        filtration={(p + dp, n + dn): s for (p, n), s in c.filtration.items()},
    )


def assert_pairing_matches_recursion(c):
    pairing = persistence_pairing(c)
    for r in range(c.filtration_length + 3):
        assert pairing.dims(r) == compute_page(c, r).dims(), r
    stable = infinity_page(c)
    assert pairing.dims() == stable.dims()
    assert pairing.stabilized_at == stable.stabilized_at


def test_pairing_matches_recursion_on_shifted_corpus():
    rng = np.random.default_rng(37)
    for k in range(24):
        c = (random_filtered_complex(rng) if k % 4
             else random_filtered_complex(rng, max_dim=8, max_length=6))
        for dn, dp in ((0, 0), (-2, 3), (3, -4)):
            assert_pairing_matches_recursion(shifted(c, dn, dp))


def test_pairing_matches_recursion_on_bete_with_negative_degrees():
    rng = np.random.default_rng(41)
    for _ in range(6):
        c = shifted(random_filtered_complex(rng), -3, 0)
        assert_pairing_matches_recursion(
            bete_filtration(c.dims, c.d, c.n_min, c.n_max)
        )


def test_pairing_matches_recursion_on_double_complexes():
    rng = np.random.default_rng(43)
    for _ in range(10):
        dc = random_double_complex(rng)
        for filtration in ("vertical", "horizontal"):
            assert_pairing_matches_recursion(from_double_complex(dc, filtration))


def reference_bars(c):
    """The pairing's bars from Fraction coordinates and the Fraction column
    reduction; also asserts that each degree's integer reduction finds the
    same pairs."""
    bases = {n: spectral_mod._adapted_basis(c, n) for n in c.degrees()}
    gaps = {n: [None] * len(bases[n][0]) for n in c.degrees()}
    for n in c.degrees():
        source, source_levels = bases.get(n - 1, ([], []))
        target, target_levels = bases[n]
        images = [matvec(c.diff(n - 1), v) for v in source]
        pairs = reference_reduce(reference_quotient_coordinates((), target, images))
        columns = spectral_mod._coordinates(c, n, target, images)
        assert spectral_mod._reduce(columns) == pairs
        for j, i in pairs.items():
            gaps[n - 1][j] = gaps[n][i] = target_levels[i] - source_levels[j]
    return tuple(
        (p, n, gap)
        for n in c.degrees()
        for p, gap in zip(bases[n][1], gaps[n])
    )


def test_pairing_equals_the_fraction_reduction():
    rng = np.random.default_rng(47)
    for k in range(20):
        c = (random_filtered_complex(rng) if k % 4
             else random_filtered_complex(rng, max_dim=8, max_length=6))
        assert persistence_pairing(c).bars == reference_bars(c)
    for _ in range(10):
        dc = random_double_complex(rng)
        for filtration in ("vertical", "horizontal"):
            c = from_double_complex(dc, filtration)
            assert persistence_pairing(c).bars == reference_bars(c)


def eliminated_basis(c, n):
    """The adapted basis of C^n by one quotient elimination per step."""
    vectors, levels = [], []
    for p in range(c.p_min, c.p_max):
        upper, lower = c.filt(p, n), c.filt(p + 1, n)
        try:
            reps = quotient_representatives(upper, lower)
        except DomainError:
            raise PreconditionError(f"filtration not decreasing at ({p}, {n})") from None
        vectors[:0] = reps
        levels[:0] = [p] * len(reps)
    return vectors, levels


def test_unit_branches_equal_the_eliminations(monkeypatch):
    """Coordinate filtrations (the corpus complexes, both filtrations of a
    double complex): the kernel reads the adapted bases and coordinates
    off unit positions with no elimination, and they equal the forced
    eliminations', vector for vector, and pair alike."""
    rng = np.random.default_rng(53)
    complexes = [random_filtered_complex(rng) for _ in range(20)]
    for _ in range(10):
        dc = random_double_complex(rng)
        complexes += [from_double_complex(dc, f) for f in ("vertical", "horizontal")]

    def walk(c):
        """Each degree's adapted basis, and the coordinates in it of the
        integer and the Fraction images of the degree below's."""
        bases = {n: spectral_mod._adapted_basis(c, n) for n in c.degrees()}
        columns = []
        for n in c.degrees():
            source = bases.get(n - 1, ([], []))[0]
            for images in (
                _integer_images(c.diff(n - 1), source),
                [matvec(c.diff(n - 1), v) for v in source],
            ):
                columns.append(spectral_mod._coordinates(c, n, bases[n][0], images))
        return bases, columns

    eliminations = []
    real = subspaces_mod._echelon

    def counted(rows):
        eliminations.append(len(rows))
        return real(rows)

    paired = 0
    for c in complexes:
        with monkeypatch.context() as m:
            m.setattr(subspaces_mod, "_echelon", counted)
            bases, columns = walk(c)
        assert eliminations == []
        with monkeypatch.context() as m:
            m.setattr(subspaces_mod, "_positions", lambda vectors, length: None)
            m.setattr(subspaces_mod, "_echelon", counted)
            forced_bases, forced_columns = walk(c)
        assert eliminations
        eliminations.clear()
        assert bases == forced_bases
        assert columns == forced_columns
        for got, expected in zip(columns, forced_columns):
            assert spectral_mod._reduce(got) == spectral_mod._reduce(expected)
            paired += len(spectral_mod._reduce(got))
    assert paired > 50


def test_coordinates_of_a_non_unit_basis_are_solved():
    c = filtered_complex_from_dict({
        "degrees": {"0": 2}, "differentials": {},
        "filtration": {"0": {"0": [["1", "0"], ["0", "1"]]},
                       "1": {"0": [["1", "1"]]}, "2": {"0": []}},
    })
    basis, levels = spectral_mod._adapted_basis(c, 0)
    assert (basis, levels) == eliminated_basis(c, 0)
    assert basis == [(1, 1), (1, 0)] and levels == [1, 0]
    # (2, 1) = (1, 1) + (1, 0) and (0, 3) = 3 (1, 1) - 3 (1, 0)
    assert spectral_mod._coordinates(c, 0, basis, [[2, 1], [0, 3]]) == [[1, 1], [3, -3]]
    # a permutation of the unit vectors reads entries, scaled by one lcm
    units = [(F(0), F(1)), (F(1), F(0))]
    xs = [(F(1, 2), F(3)), (F(0), F(-2, 3))]
    assert spectral_mod._coordinates(c, 0, units, xs) == [[18, 3], [-4, 0]]
    assert _integer_coordinates((), units, xs)[0] == [[18, 3], [-4, 0]]
    # 2 e_0 is no unit vector: (2, 1) = 2 e_0 + e_1 has coordinates (1, 1)
    assert spectral_mod._coordinates(c, 0, [(F(2), F(0)), (F(0), F(1))], [[2, 1]]) == [[1, 1]]
    with pytest.raises(InternalConsistencyError, match="no basis"):
        spectral_mod._coordinates(c, 0, [units[0], units[0]], [[1, 0]])


def _steps(steps):
    """F^p C^0 spanned by steps[p] as given, C^0 = Q^3."""
    return {
        (p, 0): Subspace(3, tuple(tuple(F(x) for x in v) for v in vecs))
        for p, vecs in enumerate(steps)
    }


@pytest.mark.parametrize("steps, message", [
    # unit steps, nested up to p = 2, then F^3 = span(e0) is outside F^2
    ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]], [[0, 0, 1]],
      [[1, 0, 0]], []],
     "filtration not decreasing at (2, 0)"),
    # two unit defects: the first is named
    ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]], []],
     "filtration not decreasing at (1, 0)"),
    # a non-unit step past a unit defect: the defect is named
    ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0]], [[0, 1, 0]], [[0, 1, 1]], []],
     "filtration not decreasing at (1, 0)"),
    # a non-unit step before a unit defect: the eliminations name it
    ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 0, 1]], [[0, 0, 1]],
      [[0, 1, 0]], []],
     "filtration not decreasing at (2, 0)"),
])
def test_unit_walk_refuses_where_the_eliminations_do(steps, message):
    filtration = _steps(steps)
    p_max = len(steps) - 1
    with pytest.raises(PreconditionError) as caught:
        FilteredComplex(n_min=0, n_max=0, dims={0: 3}, d={}, p_min=0, p_max=p_max,
                        filtration=filtration)
    assert str(caught.value) == message
    steps_only = SimpleNamespace(p_min=0, p_max=p_max, filt=lambda p, n: filtration[(p, n)])
    with pytest.raises(PreconditionError) as reference:
        eliminated_basis(steps_only, 0)
    assert str(reference.value) == message


@pytest.mark.parametrize("step", [[[0, 0, 1], [1, 0, 0]], [[1, 0, 0], [1, 0, 0]]],
                         ids=["out-of-order", "repeated"])
def test_unit_steps_out_of_position_order_are_left_to_the_eliminations(step):
    """A Subspace built directly, not by span, may list unit vectors out of
    position order, or one twice; the eliminations handle it as before."""
    filtration = _steps([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], step, []])
    c = SimpleNamespace(p_min=0, p_max=2, filt=lambda p, n: filtration[(p, n)])
    try:
        expected = eliminated_basis(c, 0)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=rf"^{re.escape(str(exc))}$"):
            spectral_mod._adapted_basis(c, 0)
    else:
        assert spectral_mod._adapted_basis(c, 0) == expected

# -- double complexes ---------------------------------------------------------------

def hh_dim(dc, q, p):
    """Horizontal cohomology dim at Omega[q, p], independent computation."""
    if not (0 <= q <= dc.i_max and 0 <= p <= dc.j_max):
        return 0
    out = dc.dh(q, p)
    kdim = dc.dim(q, p) - oracle.rank(out)
    bdim = oracle.rank(dc.dh(q - 1, p)) if q > 0 else 0
    return kdim - bdim


def hvhh_dim(dc, p, q):
    """H_V^p H_H^q by explicit quotient bookkeeping, independent of the
    engine's page formulas."""
    if not (0 <= q <= dc.i_max and 0 <= p <= dc.j_max):
        return 0

    def z_basis(row):
        return oracle.kernel_vectors(dc.dh(q, row), dc.dim(q, row))

    def b_cols(row):
        prev = dc.dh(q - 1, row) if q > 0 else ()
        return _columns(prev, dc.dim(q - 1, row)) if prev else []

    z_here = z_basis(p)
    dv_here = dc.dv(q, p)
    up_cols = [tuple(_apply(dv_here, z)) for z in z_here]
    s_dim = oracle.solution_space_dim(
        up_cols, b_cols(p + 1) if p + 1 <= dc.j_max else []
    )
    b_here_rank = oracle.rank_columns(b_cols(p))
    ker_quot = s_dim - b_here_rank

    if p == 0:
        im_quot = 0
    else:
        z_below = z_basis(p - 1)
        dv_below = dc.dv(q, p - 1)
        arriving = [tuple(_apply(dv_below, z)) for z in z_below]
        im_quot = oracle.rank_columns(
            arriving + b_cols(p)
        ) - b_here_rank
    return ker_quot - im_quot


def test_vertical_filtration_page_zero_is_transposed():
    rng = np.random.default_rng(37)
    for _ in range(10):
        dc = random_double_complex(rng)
        c = from_double_complex(dc, "vertical")
        p0 = compute_page(c, 0)
        for (p, q), entry in p0.entries.items():
            assert entry.dim == dc.dim(q, p)


def test_identity_horizontal_strip_kills_page_one():
    dc = DoubleComplex(
        i_max=1,
        j_max=1,
        dims={(0, 0): 1, (1, 0): 1, (0, 1): 0, (1, 1): 0},
        d_h={(0, 0): mat_from_rows([[1]])},
        d_v={},
    )
    c = from_double_complex(dc, "vertical")
    p1 = compute_page(c, 1)
    assert all(entry.dim == 0 for entry in p1.entries.values())


def test_zero_differentials_page_zero_equals_infinity():
    dc = DoubleComplex(
        i_max=1,
        j_max=1,
        dims={(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 2},
        d_h={},
        d_v={},
    )
    c = from_double_complex(dc, "vertical")
    p0 = compute_page(c, 0)
    stable = infinity_page(c)
    for key, entry in stable.entries.items():
        assert entry.dim == p0.entries[key].dim
    assert p0.dim(0, 0) == 2 and p0.dim(0, 1) == 1 and p0.dim(1, 0) == 1


def test_page_one_is_horizontal_cohomology():
    rng = np.random.default_rng(41)
    for _ in range(15):
        dc = random_double_complex(rng)
        c = from_double_complex(dc, "vertical")
        p1 = compute_page(c, 1)
        for (p, q), entry in p1.entries.items():
            assert entry.dim == hh_dim(dc, q, p)


def test_page_two_is_vertical_of_horizontal():
    rng = np.random.default_rng(43)
    for _ in range(15):
        dc = random_double_complex(rng)
        c = from_double_complex(dc, "vertical")
        p2 = compute_page(c, 2)
        for (p, q), entry in p2.entries.items():
            assert entry.dim == hvhh_dim(dc, p, q)


def test_horizontal_filtration_conventions():
    rng = np.random.default_rng(47)
    dc = random_double_complex(rng)
    c = from_double_complex(dc, "horizontal")
    p0 = compute_page(c, 0)
    for (p, q), entry in p0.entries.items():
        assert entry.dim == dc.dim(p, q)


def test_page_zero_differential_is_induced_block_map():
    # on the vertical filtration d_0 on E_0[p, q] = Omega[q, p] is induced
    # by the block of d that preserves the filtration level: d_h at (q, p)
    rng = np.random.default_rng(48)
    for _ in range(8):
        dc = random_double_complex(rng)
        c = from_double_complex(dc, "vertical")
        for p in range(c.p_min, c.p_max):
            for n in c.degrees():
                q = n - p
                d0 = page_differential(c, 0, p, q)
                assert oracle.rank(d0) == oracle.rank(dc.dh(q, p))


def test_first_quadrant_pages_freeze_past_grid_size():
    rng = np.random.default_rng(49)
    for _ in range(5):
        dc = random_double_complex(rng)
        c = from_double_complex(dc, "vertical")
        stable = infinity_page(c)
        late = compute_page(c, max(dc.i_max, dc.j_max) + 2)
        for key, entry in late.entries.items():
            assert entry.dim == stable.entries[key].dim


def test_total_complex_cohomology_independent_of_filtration():
    rng = np.random.default_rng(53)
    for _ in range(10):
        dc = random_double_complex(rng)
        cv = from_double_complex(dc, "vertical")
        ch = from_double_complex(dc, "horizontal")
        for n in cv.degrees():
            assert cohomology_dim(cv, n) == cohomology_dim(ch, n)


# -- reference front ends ----------------------------------------------------------
# from_double_complex and bete_filtration as they were before both built their
# filtrations from levels: one elimination per step, an explicit d^2 check.

def _ref_blocks(dc, n):
    out = []
    offset = 0
    for i in range(max(0, n - dc.j_max), min(dc.i_max, n) + 1):
        j = n - i
        out.append((i, j, offset))
        offset += dc.dim(i, j)
    return out


def reference_from_double_complex(dc, filtration="vertical"):
    twist = dc.convention() == "commuting"
    n_max = dc.i_max + dc.j_max
    dims = {n: sum(dc.dim(i, j) for i, j, _ in _ref_blocks(dc, n))
            for n in range(n_max + 1)}

    diffs = {}
    for n in range(n_max):
        rows = [[F(0)] * dims[n] for _ in range(dims[n + 1])]
        target_offset = {(i, j): off for i, j, off in _ref_blocks(dc, n + 1)}
        for i, j, off in _ref_blocks(dc, n):
            h = dc.dh(i, j)
            if (i + 1, j) in target_offset:
                t_off = target_offset[(i + 1, j)]
                for a in range(len(h)):
                    for b in range(dc.dim(i, j)):
                        rows[t_off + a][off + b] = h[a][b]
            v = dc.dv(i, j)
            sign = F(-1 if (twist and i % 2) else 1)
            if (i, j + 1) in target_offset:
                t_off = target_offset[(i, j + 1)]
                for a in range(len(v)):
                    for b in range(dc.dim(i, j)):
                        rows[t_off + a][off + b] = sign * v[a][b]
        diffs[n] = tuple(tuple(row) for row in rows)

    for n in range(n_max - 1):
        product = matmul(diffs[n + 1], diffs[n])
        if any(v != 0 for row in product for v in row):
            raise ConventionError("total differential does not square to zero")

    level = (lambda i, j: j) if filtration == "vertical" else (lambda i, j: i)
    p_max = (dc.j_max if filtration == "vertical" else dc.i_max) + 1
    filt = {}
    for n in range(n_max + 1):
        for p in range(0, p_max + 1):
            vecs = []
            for i, j, off in _ref_blocks(dc, n):
                if level(i, j) >= p:
                    for k in range(dc.dim(i, j)):
                        unit = [F(0)] * dims[n]
                        unit[off + k] = F(1)
                        vecs.append(unit)
            filt[(p, n)] = Subspace.span(dims[n], vecs)
    return FilteredComplex(
        n_min=0, n_max=n_max, dims=dims, d=diffs, p_min=0, p_max=p_max,
        filtration=filt,
    )


def reference_bete_filtration(dims, d, n_min, n_max):
    filt = {}
    p_min, p_max = n_min, n_max + 1
    for n in range(n_min, n_max + 1):
        for p in range(p_min, p_max + 1):
            filt[(p, n)] = (
                Subspace.full(dims[n]) if n >= p else Subspace.zero(dims[n])
            )
    return FilteredComplex(
        n_min=n_min, n_max=n_max, dims=dict(dims), d=dict(d),
        p_min=p_min, p_max=p_max, filtration=filt,
    )


def assert_same_complex(got, want):
    for name in ("n_min", "n_max", "dims", "d", "p_min", "p_max"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.filtration.keys() == want.filtration.keys()
    for p in got.filtration_degrees():
        for n in got.degrees():
            assert got.filt(p, n) == want.filt(p, n), (p, n)
    # every step built from levels is already in canonical echelon form
    for step in got.filtration.values():
        assert step == Subspace.span(step.ambient_dim, step.vectors)


def anticommuting(dc):
    """dc with d_v negated at odd i, which swaps commuting and anticommuting."""
    d_v = {(i, j): tuple(tuple(-x for x in row) for row in m) if i % 2 else m
           for (i, j), m in dc.d_v.items()}
    return DoubleComplex(i_max=dc.i_max, j_max=dc.j_max, dims=dc.dims,
                         d_h=dc.d_h, d_v=d_v)


def test_double_complex_front_end_matches_reference():
    rng = np.random.default_rng(67)
    seen = set()
    for _ in range(30):
        base = random_double_complex(rng)
        for dc in (base, anticommuting(base)):
            seen.add(dc.convention())
            for filtration in ("vertical", "horizontal"):
                assert_same_complex(
                    from_double_complex(dc, filtration),
                    reference_from_double_complex(dc, filtration),
                )
    assert seen == {"commuting", "anticommuting"}


def test_truncation_front_end_matches_reference():
    rng = np.random.default_rng(71)
    for k in range(30):
        c = random_filtered_complex(rng)
        if k % 2:
            c = shifted(c, -3, 0)
        args = (c.dims, c.d, c.n_min, c.n_max)
        assert_same_complex(bete_filtration(*args), reference_bete_filtration(*args))


def test_square_through_an_empty_spot_is_checked():
    # d_h d_v = 1 on the square through (0, 1), while d_v d_h passes the
    # zero-dimensional (1, 0) and vanishes: neither convention holds
    dims = {(0, 0): 1, (1, 0): 0, (0, 1): 1, (1, 1): 1}
    with pytest.raises(ConventionError, match="neither commute nor anticommute"):
        DoubleComplex(
            i_max=1, j_max=1, dims=dims,
            d_h={(0, 1): mat_from_rows([[1]])}, d_v={(0, 0): mat_from_rows([[1]])},
        )


def test_mixed_convention_is_rejected():
    # d_h d_v = +d_v d_h on one square and -1 times it on another
    dims = {(0, 0): 2, (1, 0): 2, (0, 1): 2, (1, 1): 2}
    d_h = {
        (0, 0): mat_from_rows([[1, 0], [0, 1]]),
        (0, 1): mat_from_rows([[1, 0], [0, -1]]),
    }
    d_v = {
        (0, 0): mat_from_rows([[1, 0], [0, 1]]),
        (1, 0): mat_from_rows([[1, 0], [0, 1]]),
    }
    with pytest.raises(ConventionError):
        DoubleComplex(i_max=1, j_max=1, dims=dims, d_h=d_h, d_v=d_v)


@pytest.mark.parametrize("name, step", [("d_h", (1, 0)), ("d_v", (0, 1))])
def test_arrow_errors_name_the_differential(name, step):
    di, dj = step
    spots = [(k * di, k * dj) for k in range(3)]
    line = dict(i_max=2 * di, j_max=2 * dj, dims={s: 1 for s in spots}, d_h={}, d_v={})
    one = mat_from_rows([[1]])
    with pytest.raises(DomainError, match=rf"^{name} at \(0, 0\) has wrong shape$"):
        DoubleComplex(**{**line, name: {spots[0]: mat_from_rows([[1, 1]])}})
    with pytest.raises(PreconditionError, match=rf"^{name}\^2 != 0 at \(0, 0\)$"):
        DoubleComplex(**{**line, name: {spots[0]: one, spots[1]: one}})


@pytest.mark.parametrize("name, spot", [
    ("d_h", (7, 7)), ("d_v", (-1, 0)), ("d_h", (0, 1)), ("dims", (2, 0)),
])
def test_spots_outside_the_grid_are_refused(name, spot):
    line = dict(i_max=1, j_max=0, dims={(0, 0): 1, (1, 0): 1}, d_h={}, d_v={})
    value = 1 if name == "dims" else mat_from_rows([[1, 2]])
    with pytest.raises(DomainError, match=rf"^{name} at \({spot[0]}, {spot[1]}\) "
                                          r"is outside the grid 0 <= i <= 1, 0 <= j <= 0$"):
        DoubleComplex(**{**line, name: {**line[name], spot: value}})


def test_bete_filtration_names_a_missing_degree():
    with pytest.raises(DomainError, match=r"^missing or negative dimension at 1$"):
        bete_filtration({0: 1}, {}, 0, 1)


def test_dsquared_violation_rejected():
    dims = {0: 1, 1: 1, 2: 1}
    d = {0: mat_from_rows([[1]]), 1: mat_from_rows([[1]])}
    with pytest.raises(PreconditionError):
        bete_filtration(dims, d, 0, 2)


def test_non_subcomplex_filtration_rejected():
    dims = {0: 1, 1: 1}
    d = {0: mat_from_rows([[1]])}
    filt = {
        (0, 0): Subspace.full(1),
        (0, 1): Subspace.full(1),
        (1, 0): Subspace.full(1),   # F^1 C^0 = C^0 but F^1 C^1 = 0
        (1, 1): Subspace.zero(1),
        (2, 0): Subspace.zero(1),
        (2, 1): Subspace.zero(1),
    }
    with pytest.raises(PreconditionError):
        FilteredComplex(
            n_min=0, n_max=1, dims=dims, d=d, p_min=0, p_max=2,
            filtration=filt,
        )


def test_a_step_outside_its_degree_is_a_domain_error():
    filt = {
        (0, 0): Subspace.full(1),
        (1, 0): Subspace.full(2),   # a subspace of Q^2 in a degree of dimension 1
        (2, 0): Subspace.zero(1),
    }
    with pytest.raises(DomainError, match=r"^subspaces live in different ambient spaces$"):
        FilteredComplex(
            n_min=0, n_max=0, dims={0: 1}, d={}, p_min=0, p_max=2,
            filtration=filt,
        )


@pytest.mark.parametrize("first, last, message", [
    # spans Q^2, but its basis is not the canonical one
    (Subspace(2, mat_from_rows([[1, 1], [0, 1]])), Subspace.zero(2),
     "F^0 C^0 must be everything"),
    (Subspace(2, mat_from_rows([[0, 1], [1, 0]])), Subspace.zero(2),
     "F^0 C^0 must be everything"),
    (Subspace(2, mat_from_rows([[1, 0], [0, 2]])), Subspace.zero(2),
     "F^0 C^0 must be everything"),
    (Subspace.full(3), Subspace.zero(2), "F^0 C^0 must be everything"),
    (None, Subspace.zero(2), "F^0 C^0 must be everything"),
    (Subspace.full(2), Subspace.zero(3), "F^1 C^0 must be zero"),
    (Subspace.full(2), Subspace(2, mat_from_rows([[0, 0]])), "F^1 C^0 must be zero"),
    (Subspace.full(2), None, "F^1 C^0 must be zero"),
])
def test_end_steps_must_be_stored_as_identity_rows_and_no_vectors(first, last, message):
    filt = {(0, 0): first, (1, 0): last}
    with pytest.raises(PreconditionError) as caught:
        FilteredComplex(
            n_min=0, n_max=0, dims={0: 2}, d={}, p_min=0, p_max=1,
            filtration={key: step for key, step in filt.items() if step is not None},
        )
    assert str(caught.value) == message


# Payloads with one defect each: degrees, differentials, and F^p C^n as
# spanning vectors for p = 0, 1, ..., p_max.
@pytest.mark.parametrize("dims, d, steps, error, message", [
    # F^0 C^1 is zero
    ({0: 1, 1: 1}, {0: [[0]]},
     [{0: [[1]], 1: []}, {0: [], 1: []}],
     PreconditionError, "F^0 C^1 must be everything"),
    # F^2 C^1 is C^1
    ({0: 1, 1: 1}, {0: [[0]]},
     [{0: [[1]], 1: [[1]]}, {0: [], 1: [[1]]}, {0: [], 1: [[1]]}],
     PreconditionError, "F^2 C^1 must be zero"),
    # F^1 C^1 = span(e1) misses F^2 C^1 = span(e2)
    ({0: 1, 1: 2}, {0: [[0], [0]]},
     [{0: [[1]], 1: [[1, 0], [0, 1]]}, {0: [], 1: [[1, 0]]},
      {0: [], 1: [[0, 1]]}, {0: [], 1: []}],
     PreconditionError, "filtration not decreasing at (1, 1)"),
    # d^1 sends F^2 C^1 = C^1 onto C^2, whose F^2 is zero
    ({0: 1, 1: 1, 2: 1}, {0: [[0]], 1: [[1]]},
     [{0: [[1]], 1: [[1]], 2: [[1]]}, {0: [], 1: [[1]], 2: [[1]]},
      {0: [], 1: [[1]], 2: []}, {0: [], 1: [], 2: []}],
     PreconditionError, "filtration is not a subcomplex at (2, 1)"),
    # d^1 d^0 = 1
    ({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]},
     [{0: [[1]], 1: [[1]], 2: [[1]]}, {0: [], 1: [], 2: []}],
     PreconditionError, "d^2 != 0 at degree 0"),
])
def test_filtration_defects_are_refused_by_name(dims, d, steps, error, message):
    payload = {
        "degrees": {str(n): k for n, k in dims.items()},
        "differentials": {str(n): m for n, m in d.items()},
        "filtration": {
            str(p): {str(n): vecs for n, vecs in step.items()}
            for p, step in enumerate(steps)
        },
    }
    with pytest.raises(error) as caught:
        filtered_complex_from_dict(payload)
    assert str(caught.value) == message
    assert caught.value.exit_code == 3


def test_a_missing_step_is_named_by_its_key():
    payload = {
        "degrees": {"0": 1, "1": 1},
        "differentials": {"0": [["0"]]},
        "filtration": {
            "0": {"0": [["1"]], "1": [["1"]]},
            "1": {"1": [["1"]]},
            "2": {"0": [], "1": []},
        },
    }
    with pytest.raises(DomainError, match=r"^missing filtration step \(1, 0\)$"):
        filtered_complex_from_dict(payload)


# -- JSON -----------------------------------------------------------------------------

def test_filtered_complex_json_round_trip():
    rng = np.random.default_rng(59)
    c = random_filtered_complex(rng)
    data = filtered_complex_to_dict(c)
    back = filtered_complex_from_dict(data)
    assert back.dims == c.dims
    assert back.d == c.d
    for p in c.filtration_degrees():
        for n in c.degrees():
            assert back.filt(p, n) == c.filt(p, n)


def test_double_complex_json_round_trip():
    rng = np.random.default_rng(61)
    dc = random_double_complex(rng)
    data = double_complex_to_dict(dc)
    back = double_complex_from_dict(data)
    assert back.dims == dc.dims
    for spot in dc.spots():
        assert back.dh(*spot) == dc.dh(*spot)
        assert back.dv(*spot) == dc.dv(*spot)


def test_each_load_parses_an_entry_text_once(monkeypatch):
    """Entry texts are memoized per payload, not per process: a second
    load of the same payload parses "0" again, once."""
    parsed = []
    parse = spectral_mod._entry

    def counted(v):
        parsed.append(str(v))
        return parse(v)

    monkeypatch.setattr(spectral_mod, "_entry", counted)
    rng = np.random.default_rng(65)  # both payloads have many "0" entries
    c = random_filtered_complex(rng, max_dim=8)
    dc = random_double_complex(rng)
    for load, payload in (
        (filtered_complex_from_dict, filtered_complex_to_dict(c)),
        (double_complex_from_dict, double_complex_to_dict(dc)),
    ):
        for _ in range(2):
            parsed.clear()
            load(payload)
            assert parsed.count("0") == 1
            assert len(parsed) == len(set(parsed))


def test_malformed_payload_raises():
    with pytest.raises(DomainError):
        filtered_complex_from_dict({"degrees": {"0": 1}})
    with pytest.raises(DomainError):
        double_complex_from_dict({"dims": {"zero": 1}})
