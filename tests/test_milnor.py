"""Milnor numbers: seed matrices, the exact build pipeline, realization,
invariants."""

import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import chernlab.liftgroup as lg
import chernlab.milnor as mi
from chernlab.errors import (
    AdmissibilityError,
    DomainError,
    InstabilityError,
    InternalConsistencyError,
    PreconditionError,
    SubdivisionError,
)


def dyadic_conjugators(rng, count):
    """Random integer matrices with determinant 1, 2 or 4; conjugation by
    these keeps the dyadic generators float-exact."""
    out = []
    while len(out) < count:
        s = rng.integers(-3, 4, size=(2, 2)).astype(float)
        if lg.det2(s) in (1.0, 2.0, 4.0):
            out.append(s)
    return out


# -- seed matrices and their class tags -----------------------------------------

def test_seed_product_is_exact():
    assert np.array_equal(mi.A0 @ mi.A1, mi.A2)


def test_class_tags():
    assert mi.K_TAG.matches(mi.A0)
    assert mi.K_TAG.matches(mi.A1)
    assert mi.PIK_TAG.matches(mi.A2)
    assert float(mi.K_TAG.trace) == 2.5 and float(mi.K_TAG.det) == 1.0
    assert float(mi.PIK_TAG.trace) == -2.5


def test_seed_lift_lands_in_shifted_window():
    seed = lg.lift_mul(lg.principal_lift(mi.A0), lg.principal_lift(mi.A1))
    assert math.pi / 2 < seed.lift < 3 * math.pi / 2


# -- milnor_number -------------------------------------------------------------

def test_trivial_rep_has_degree_zero():
    rep = mi.trivial_representation(3)
    assert mi.milnor_number(rep) == 0
    # every letter is (I, 0): a constant loop, accepted on the bare grid
    loop = lg.SampledLoop.from_path(mi.commutator_loop_path(rep))
    assert len(loop) == 2 * 64 + 1 and lg.lift_loop(loop) == 0


def test_rotation_rep_has_degree_zero():
    rep = mi.SurfaceGroupRep(
        1, (lg.rotation(0.7),), (lg.rotation(2.1),)
    )
    assert mi.milnor_number(rep) == 0


def test_build_2_1_degree_one_by_both_methods():
    rep = mi.build_representation(2, 1)
    assert mi.milnor_number(rep) == 1
    assert mi.winding_number(rep) == 1


def test_both_methods_read_the_lifts_taken_when_the_rep_is_built(monkeypatch):
    rep = mi.build_representation(3, 2)
    calls = []

    def counted(m):
        calls.append(m)
        return lg.principal_lift(m)

    monkeypatch.setattr(mi, "principal_lift", counted)
    assert mi.milnor_number(rep) == 2
    assert lg.lift_loop(lg.SampledLoop.from_path(mi.commutator_loop_path(rep))) == 2
    assert calls == []
    # A and B are the lifts' own frozen matrices
    assert all(x.matrix is a and y.matrix is b
               for (x, y), a, b in zip(rep.lifts, rep.A, rep.B))
    assert not any(m.flags.writeable for m in rep.A + rep.B)
    mi.SurfaceGroupRep(rep.genus, rep.A, rep.B)
    assert len(calls) == 2 * rep.genus


def test_both_methods_share_inverse_lifts_taken_once_after_the_defect_check(
    monkeypatch,
):
    calls = []

    def counted(x):
        calls.append(x)
        return lg.lift_inv(x)

    # build inverts its core's lifts for the degree check; a rep made from
    # its matrices takes its own
    built = mi.build_representation(3, 2)
    monkeypatch.setattr(mi, "lift_inv", counted)
    rep = mi.SurfaceGroupRep(built.genus, built.A, built.B)
    assert calls == []  # none while the rep is made and its defect checked
    assert mi.milnor_number(rep) == 2
    assert len(calls) == 2 * rep.genus
    assert lg.lift_loop(lg.SampledLoop.from_path(mi.commutator_loop_path(rep))) == 2
    assert mi.winding_number(rep) == 2
    assert len(calls) == 2 * rep.genus
    inverses = [e for pair in rep.inverse_lifts for e in pair]
    lifts = [e for pair in rep.lifts for e in pair]
    assert calls == lifts
    for x, x_inv in zip(lifts, inverses):
        assert x_inv.lift == -x.lift
        assert np.array_equal(x_inv.matrix, lg.inv2(x.matrix))


def test_oracle_past_the_sample_cap_raises_quickly(monkeypatch):
    # build 26 25 needs 15 619 loop samples, within the real cap of 2**15
    monkeypatch.setattr(lg, "MAX_LOOP_SAMPLES", 2**13)
    rep = mi.build_representation(26, 25)
    start = time.perf_counter()
    with pytest.raises(SubdivisionError, match="MAX_LOOP_SAMPLES = 8192"):
        mi.winding_number(rep)
    assert time.perf_counter() - start < 2.0


def test_abelian_diagonal_rep_has_degree_zero():
    for g in (1, 2, 4):
        a = tuple(np.diag([2.0, 0.5]) for _ in range(g))
        b = tuple(np.diag([3.0, 1.0]) for _ in range(g))
        rep = mi.SurfaceGroupRep(g, a, b)
        assert mi.milnor_number(rep) == 0


def test_relation_violation_raises():
    with pytest.raises(PreconditionError):
        mi.SurfaceGroupRep(
            1, (np.array([[2.0, 1.0], [0.0, 1.0]]),), (mi.A0,)
        )


# -- inequality ----------------------------------------------------------------

def test_corollary_torus_is_the_only_admissible_tangent_degree():
    # |2 - 2g| < g only for the torus
    for g in range(0, 8):
        admissible = abs(2 - 2 * g) < g
        assert admissible == (g == 1)


# -- chain ----------------------------------------------------------------------

def _prepended_chain(n):
    """The chain before balancing: always split the newest element."""
    chain = list(mi._productmil_exact(mi._fneg(mi._A0_EXACT)))
    for _ in range(n - 1):
        chain = list(mi._productmil_exact(mi._fneg(chain[0]))) + chain[1:]
    return chain


def test_balanced_chain_keeps_small_chains_and_grows_slowly():
    for n in (1, 2):
        assert mi._chain_exact(n) == _prepended_chain(n)
    # largest entry at n = 19: 2.9e21 when the newest element is split
    assert max(mi._height(g) for g in mi._chain_exact(19)) == 330369.0


# -- build_representation / flip ---------------------------------------------------

def test_build_trivial():
    rep = mi.build_representation(1, 0)
    assert all(np.array_equal(m, np.eye(2)) for m in rep.A + rep.B)


def test_build_padding_is_identity():
    rep = mi.build_representation(4, 1)
    assert np.array_equal(rep.A[-1], np.eye(2))
    assert np.array_equal(rep.B[-1], np.eye(2))


def test_build_negative_degree():
    rep = mi.build_representation(4, -3)
    assert mi.milnor_number(rep) == -3


def test_build_rejects_inadmissible():
    with pytest.raises(AdmissibilityError):
        mi.build_representation(2, 2)
    with pytest.raises(AdmissibilityError):
        mi.build_representation(3, -5)


@pytest.mark.parametrize("genus", [0, -1])
def test_build_rejects_genus_below_one_before_admissibility(genus):
    with pytest.raises(DomainError, match="genus must be a positive integer"):
        mi.build_representation(genus, 0)


def test_float_rounding_of_an_exact_matrix():
    # exact matrices are (a, b, c, d, q) for [[a, b], [c, d]] / q
    n = 2**60
    s = (n + 1, n, 1, 1, 1)  # det 1
    big_k = mi._fconj(s, mi._A0_EXACT)  # exactly in K, entries near 1e36
    a, _, _, d, q = big_k
    assert Fraction(a + d, q) == Fraction(5, 2) and mi._fdet(big_k) == q * q
    with pytest.raises(InstabilityError, match="largest entry"):
        mi._cover_exact(big_k, plain_class=True)
    # an exact matrix that breaks the invariant itself is a bug
    off_k = (9, 0, 0, 1, 3)
    with pytest.raises(InternalConsistencyError, match="left the K class"):
        mi._cover_exact(off_k, plain_class=True)
    singular = (1, 2, 1, 2, 1)
    with pytest.raises(InternalConsistencyError, match="nonpositive det"):
        mi._cover_exact(singular)
    assert mi._cover_exact(off_k).lift == 0.0


@pytest.mark.parametrize("q", [1, 3])
def test_float_rounding_refuses_entries_past_max_float_entry(q):
    """The bound compares |entry| * q with MAX_FLOAT_ENTRY exactly: an
    entry at the bound rounds, one past it is refused."""
    bound = mi.MAX_FLOAT_ENTRY * q
    assert mi._ffloat((bound, 0, 0, 1, q))[0, 0] == float(mi.MAX_FLOAT_ENTRY)
    assert mi._ffloat((-int(1e150) * q, 0, 0, 1, q))[0, 0] == -1e150
    with pytest.raises(InstabilityError, match="MAX_FLOAT_ENTRY = 1e150"):
        mi._ffloat((0, 0, bound + 1, 1, q))


def test_eigenvector_of_a_scalar_matrix_is_a_bug():
    # every exact target comes from the chain, so no outside input gets here
    with pytest.raises(InternalConsistencyError, match="multiple of the identity"):
        mi._f_eigenvector((3, 0, 0, 3, 1), (3, 1))


def _as_fractions(m):
    """An exact matrix (a, b, c, d, q) as Fraction rows."""
    a, b, c, d, q = m
    return ((Fraction(a, q), Fraction(b, q)), (Fraction(c, q), Fraction(d, q)))


def _mul(x, y):
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2))
        for i in range(2)
    )


def _det(x):
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


def _inv(x):
    det = _det(x)
    return ((x[1][1] / det, -x[0][1] / det), (-x[1][0] / det, x[0][0] / det))


def _neg(x):
    return tuple(tuple(-v for v in row) for row in x)


def _in_k(x):
    return x[0][0] + x[1][1] == Fraction(5, 2) and _det(x) == 1


def test_exact_pipeline_is_exact_in_independent_fraction_arithmetic():
    """For every chain length n <= 33: the chain is in K and multiplies to
    (-1)^n A0, and every commutator pair that build_representation makes
    from it (and from A0^-1) has b1 s b1^-1 s^-1 = -gamma exactly, with s
    a primitive integer matrix of positive det."""
    a0 = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    gammas = {(1, 0, 0, 4, 2)}  # A0^-1 = diag(1/2, 2)
    for n in range(1, 34):
        chain = mi._chain_exact(n)
        assert len(chain) == n + 1
        acc = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        for g in chain:
            assert _in_k(_as_fractions(g))
            acc = _mul(acc, _as_fractions(g))
        assert acc == (a0 if n % 2 == 0 else _neg(a0))
        gammas.update(chain)
    for gamma in sorted(gammas):
        b1, s = mi._commutator_exact(mi._fneg(gamma))
        b1, s = _as_fractions(b1), _as_fractions(s)
        assert _in_k(b1)
        comm = _mul(_mul(_mul(b1, s), _inv(b1)), _inv(s))
        assert comm == _neg(_as_fractions(gamma))
        entries = [v for row in s for v in row]
        assert all(v.denominator == 1 for v in entries)
        assert math.gcd(*(int(v) for v in entries)) == 1
        assert _det(s) > 0


def test_productmil_on_seed_target_returns_seed_factors():
    m1, m2 = mi._productmil_exact(mi._fexact(mi.A2))
    assert (m1, m2) == (mi._A0_EXACT, mi._A1_EXACT)
    assert np.array_equal(mi._ffloat(m1), mi.A0)
    assert np.array_equal(mi._ffloat(m2), mi.A1)


def test_commutator_decompose_equivariance():
    """The exact commutator pair of s A2 s^-1, s dyadic, is exact in
    independent Fraction arithmetic, with b1 in K."""
    rng = np.random.default_rng(9)
    for s in dyadic_conjugators(rng, 10):
        target = mi._fexact(s @ mi.A2 @ lg.inv2(s))
        b1, b2 = mi._commutator_exact(target)
        assert mi.K_TAG.matches(mi._ffloat(b1))
        b1, b2 = _as_fractions(b1), _as_fractions(b2)
        assert _in_k(b1)
        comm = _mul(_mul(_mul(b1, b2), _inv(b1)), _inv(b2))
        assert comm == _as_fractions(target)


def _rep_digest(rep):
    return hashlib.sha256(json.dumps(mi.rep_to_dict(rep)).encode()).hexdigest()


def test_build_outputs_are_pinned():
    """Every |d| < g <= 7 and (34, 33) build to the same floats, bit for
    bit, as the Fraction-entry pipeline they replaced; (35, 34) keeps its
    float-conditioning error."""
    h = hashlib.sha256()
    cases = [(g, d) for g in range(1, 8) for d in range(-(g - 1), g)]
    for g, d in cases + [(34, 33)]:
        h.update(json.dumps(mi.rep_to_dict(mi.build_representation(g, d))).encode())
    assert h.hexdigest() == (
        "4661c3545aacff17eef9612da12776213176293990066097b4c9adac8b61af3f"
    )
    with pytest.raises(InstabilityError) as info:
        mi.build_representation(35, 34)
    assert str(info.value) == (
        "float product of two GL+ matrices left GL+ (determinant -9660168.5 "
        "is not positive); largest entry 7.24939e+07"
    )


def test_conjugation_by_a_dyadic_matrix_is_pinned():
    rep = mi.build_representation(7, 6)
    crep = mi.conjugate_representation(rep, np.array([[1.5, 0.25], [2.0, 1.0]]))
    assert _rep_digest(crep) == (
        "994beb9ba0814fd26d24b108eadcfb4fa31612b433789159879b8e217adb975e"
    )
    assert mi.rep_to_dict(crep)["A"][0] == [-5058.25, 9244.6875, -2769.0, 5060.75]
    # det 5/4: the exact conjugates have fifths, which no float holds
    with pytest.raises(PreconditionError, match=r"defect 8\.104e-05 > 1e-08"):
        mi.conjugate_representation(rep, np.array([[1.5, 0.25], [1.0, 1.0]]))


def test_realization_table():
    """Every |d| < g <= 10 is built, with an exact relation, and the lift
    arithmetic and the winding oracle both read d."""
    for g in range(1, 11):
        for d in range(-(g - 1), g):
            rep = mi.build_representation(g, d)
            assert mi.relation_defect(rep) == 0.0
            assert mi.milnor_number(rep) == d
            assert abs(mi.milnor_number(rep)) <= g - 1
            assert mi.winding_number(rep) == d


def test_every_degree_up_to_32_builds_exactly():
    """Every |d| <= 32, both signs, on its smallest genus: an exact
    relation and the lift arithmetic reads d."""
    for d in range(-32, 33):
        rep = mi.build_representation(abs(d) + 1, d)
        assert mi.relation_defect(rep) == 0.0
        assert mi.milnor_number(rep) == d


def test_oracle_agrees_on_every_degree_up_to_32():
    """The winding oracle reads d on every |d| <= 32 that build makes,
    within the real sample cap."""
    for d in range(-32, 33):
        rep = mi.build_representation(abs(d) + 1, d)
        assert mi.winding_number(rep) == d


def test_flip_trivial():
    rep = mi.flip_orientation(mi.trivial_representation(2))
    assert mi.milnor_number(rep) == 0


def test_flip_negates_degree():
    rep = mi.build_representation(2, 1)
    assert mi.milnor_number(mi.flip_orientation(rep)) == -1


def test_double_flip_restores():
    rep = mi.build_representation(3, 2)
    twice = mi.flip_orientation(mi.flip_orientation(rep))
    assert mi.milnor_number(twice) == 2
    for m, n in zip(rep.A + rep.B, twice.A + twice.B):
        assert np.array_equal(m, n)


# -- invariants ---------------------------------------------------------------------

def test_lift_independence_under_deck_shifts():
    rep = mi.build_representation(2, 1)
    rng = np.random.default_rng(31)
    for _ in range(5):
        total = lg.COVER_IDENTITY
        for a, b in zip(rep.A, rep.B):
            x = lg.deck_shift(lg.principal_lift(a), 2 * int(rng.integers(-2, 3)))
            y = lg.deck_shift(lg.principal_lift(b), 2 * int(rng.integers(-2, 3)))
            total = lg.lift_mul(total, lg.lift_commutator(x, y))
        assert round(total.lift / (2 * math.pi)) == 1


def test_conjugation_invariance_float_on_shallow_rep():
    rep = mi.build_representation(2, 1)
    rng = np.random.default_rng(37)
    for _ in range(10):
        s = rng.uniform(-2.0, 2.0, size=(2, 2))
        if lg.det2(s) < 0.1:
            continue
        crep = mi.conjugate_representation(rep, s)
        assert mi.milnor_number(crep) == 1


def test_dual_method_agreement_with_dyadic_conjugation():
    rng = np.random.default_rng(41)
    conjs = dyadic_conjugators(rng, 6)
    for g, d in ((2, 1), (3, -2), (4, 3)):
        rep = mi.build_representation(g, d)
        for s in conjs[:2]:
            crep = mi.conjugate_representation(rep, s)
            assert mi.milnor_number(crep) == d
            assert mi.winding_number(crep) == d


# -- JSON schema ----------------------------------------------------------------------

def test_json_round_trip():
    rep = mi.build_representation(3, 2)
    data = mi.rep_to_dict(rep)
    assert data["genus"] == 3
    assert len(data["A"]) == 3 and len(data["A"][0]) == 4
    back = mi.rep_from_dict(data)
    for m, n in zip(rep.A + rep.B, back.A + back.B):
        assert np.array_equal(m, n)
    # the genus may also be an integer string
    assert mi.rep_from_dict({**data, "genus": "3"}).genus == 3


def test_json_malformed_payload():
    with pytest.raises(DomainError):
        mi.rep_from_dict({"genus": 2, "A": [[1, 0, 0, 1]], "B": "nope"})
    with pytest.raises(DomainError):
        mi.rep_from_dict({"A": [], "B": []})
