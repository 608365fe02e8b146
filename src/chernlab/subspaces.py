"""Exact rational subspaces in canonical echelon form.

A subspace of Q^n is stored as the reduced row-echelon basis of its span;
that form is unique, so equality of subspaces is equality of tuples.  All
arithmetic is exact: every rank decision is exact and no operation here
ever compares against a tolerance.

Elimination runs on primitive integer rows, fraction-free (Bareiss 1968).
_echelon is the one elimination loop: containment (a rank of the stacked
rows equal to dim), quotients (the pivots of [V | U]) and intersection (the
image of a preimage) all read its pivots or rows.  fractions.Fraction
appears at the boundary: rref and quotient_coordinates divide once, at the
end, and callers that need only pivots never divide.  A known answer costs
no elimination and equals the elimination's, errors included: rref returns
rows already in reduced echelon form as they stand, and on vectors with at
most one nonzero entry (see _positions) quotient_representatives and
_integer_coordinates read pivots and coordinates off positions.

Matrices are tuples of row tuples.  A matrix T: Q^n -> Q^m is an m-tuple of
n-tuples acting by matvec.

The matrices met in practice are sparse (unit-vector filtration bases,
small integer differentials), so every loop here skips zero entries instead
of multiplying by them.  Skipping a zero term leaves an exact sum unchanged,
so results are identical to the dense computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DomainError

Vector = tuple
Matrix = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def fractionize(values: Iterable) -> Vector:
    values = tuple(values)
    if set(map(type, values)) <= {Fraction}:
        return values
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


def mat_from_rows(rows: Sequence[Sequence]) -> Matrix:
    return tuple(fractionize(row) for row in rows)


def zero_matrix(nrows: int, ncols: int) -> Matrix:
    return tuple((ZERO,) * ncols for _ in range(nrows))


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def matvec(t: Matrix, v: Vector) -> Vector:
    if t and len(t[0]) != len(v):
        raise DomainError("matrix/vector dimension mismatch")
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(
        sum((row[j] * x for j, x in support if row[j]), ZERO) for row in t
    )


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DomainError("matrix dimension mismatch")
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries; a zero row stays as it is."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _integer_row(row: Sequence) -> list:
    """A row of Fraction or int entries scaled by the lcm of their
    denominators, as a primitive integer row."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return _primitive([x.numerator for x in row])
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _echelon(rows: Sequence[Vector]) -> tuple[list, tuple]:
    """Gauss-Jordan elimination on primitive integer rows.

    Rows of Fraction or int entries are scaled by the lcm of their
    denominators.  Eliminating with a pivot p against an entry f sets
    row <- (p/g) row - (f/g) pivot_row, g = gcd(p, f), and then divides the
    row by its content gcd.  Returns the nonzero rows in pivot order, as
    lists of ints, each zero at every pivot column but its own, and the
    pivot columns.
    """
    m = [_integer_row(row) for row in rows]
    if not m:
        return [], ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        # left of c the pivot row is zero, so only columns c.. can be nonzero
        support = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                if p != g:
                    a = p // g
                    row = [a * x for x in row]
                f //= g
                for j, b in support:
                    row[j] -= f * b
                m[i] = _primitive(row)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], tuple(pivots)


def _canonical_pivots(rows: Sequence[Vector]) -> tuple | None:
    """The pivot columns of rows already in reduced echelon form, else
    None: no zero row, each leading entry 1 and right of the row above's,
    and each leading column zero in every other row.  A row is zero left
    of its leading entry, so only the rows above a pivot need a look."""
    pivots = []
    for k, row in enumerate(rows):
        c = next(compress(count(), row), None)
        if c is None or row[c] != 1 or (pivots and c <= pivots[-1]):
            return None
        if any(map(itemgetter(c), rows[:k])):
            return None
        pivots.append(c)
    return tuple(pivots)


def rref(rows: Sequence[Vector]) -> tuple[tuple, tuple]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The rows of _echelon, each divided by its pivot: one Fraction per
    nonzero entry.  Rows already in that form (unit-vector filtration
    steps, canonical bases passed on) are returned as Fraction tuples
    without an elimination; the form is unique, so the result is the
    same."""
    pivots = _canonical_pivots(rows)
    if pivots is not None:
        return tuple(fractionize(row) for row in rows), pivots
    reduced, pivots = _echelon(rows)
    return tuple(
        tuple(Fraction(x, row[c]) if x else ZERO for x in row)
        for row, c in zip(reduced, pivots)
    ), pivots


def rank(rows: Sequence[Vector]) -> int:
    """Rank of the matrix with these rows: the pivot count of _echelon."""
    return len(_echelon(rows)[1])


def kernel_basis(t: Matrix, ncols: int) -> tuple:
    """Basis of {x in Q^ncols : T x = 0} from the RREF free variables."""
    reduced, pivots = rref(t)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim in canonical (RREF) basis form."""

    ambient_dim: int
    vectors: tuple

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [fractionize(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DomainError("vector length differs from ambient dim")
        reduced, _ = rref(vecs)
        return cls(ambient_dim, reduced)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, identity_matrix(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def is_full(self) -> bool:
        return len(self.vectors) == self.ambient_dim

    def contains_vector(self, v: Sequence) -> bool:
        """v lies in the span: appending it leaves the rank at dim."""
        v = fractionize(v)
        if len(v) != self.ambient_dim:
            raise DomainError("vector length differs from ambient dim")
        return rank(self.vectors + (v,)) == self.dim

    def contains(self, other: "Subspace") -> bool:
        """other lies inside: appending its basis leaves the rank at dim."""
        self._check_ambient(other)
        return rank(self.vectors + other.vectors) == self.dim

    def basis_columns(self) -> Matrix:
        """Basis vectors as the columns of an ambient_dim x dim matrix."""
        return tuple(
            tuple(vec[i] for vec in self.vectors)
            for i in range(self.ambient_dim)
        )

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DomainError("subspaces live in different ambient spaces")


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    u._check_ambient(v)
    return Subspace.span(u.ambient_dim, u.vectors + v.vectors)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """U cap V as B_U applied to {x : B_U x in V}, B_U = U's basis columns."""
    u._check_ambient(v)
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    if u.is_full:
        return v
    if v.is_full:
        return u
    basis = u.basis_columns()
    return image(basis, subspace_preimage(basis, v, u.dim))


def subspace_preimage(
    t: Matrix, w: Subspace, domain_dim: int | None = None
) -> Subspace:
    """{x : T x in W} for T: Q^n -> Q^m with W inside Q^m.

    A matrix with no rows carries no column count, so the domain dimension
    must be passed explicitly in that case.
    """
    if len(t) != w.ambient_dim:
        raise DomainError("matrix output dimension differs from W's ambient")
    if t:
        ncols = len(t[0])
        if domain_dim is not None and domain_dim != ncols:
            raise DomainError("domain_dim contradicts the matrix shape")
    elif domain_dim is None:
        raise DomainError("empty matrix needs an explicit domain_dim")
    else:
        ncols = domain_dim
    if w.is_full:
        return Subspace.full(ncols)
    dw = w.dim
    rows = tuple(
        tuple(t[i]) + tuple(-w.vectors[j][i] for j in range(dw))
        for i in range(len(t))
    )
    xs = [vec[:ncols] for vec in kernel_basis(rows, ncols + dw)]
    return Subspace.span(ncols, xs)


def image(t: Matrix, u: Subspace) -> Subspace:
    """Span of T applied to a basis of U."""
    if t and len(t[0]) != u.ambient_dim:
        raise DomainError("matrix input dimension differs from U's ambient")
    out_dim = len(t)
    return Subspace.span(out_dim, [matvec(t, v) for v in u.vectors])


def kernel(t: Matrix, ncols: int) -> Subspace:
    return Subspace.span(ncols, kernel_basis(t, ncols))


def quotient_dim(u: Subspace, v: Subspace) -> int:
    """dim(U / V), requiring V to be a subspace of U: the number of
    quotient_representatives, and raises as that does."""
    return len(quotient_representatives(u, v))


def _positions(vectors: Sequence[Vector], length: int) -> list | None:
    """The position of each vector's nonzero entry, None for a zero vector,
    when every vector has this length and at most one nonzero entry; else
    None."""
    positions = []
    indices = range(length)
    for v in vectors:
        support = list(compress(indices, v))
        if len(v) != length or len(support) > 1:
            return None
        positions.append(support[0] if support else None)
    return positions


def quotient_representatives(u: Subspace, v: Subspace) -> tuple:
    """Vectors extending V's canonical basis to U's, in deterministic order:
    U's basis vectors at the pivot columns of one elimination of [V | U] (as
    columns), so each is the first outside the span of V and those before
    it.  V lies in U exactly when the pivots number dim U.  When each
    vector has at most one nonzero entry, as in a coordinate filtration
    step, the pivots are each position's first column, with no elimination."""
    u._check_ambient(v)
    columns = (*v.vectors, *u.vectors)
    positions = _positions(columns, u.ambient_dim)
    if positions is None:
        _, pivots = _echelon(list(zip(*columns)))
    else:
        first = {}
        for c, i in enumerate(positions):
            first.setdefault(i, c)
        first.pop(None, None)
        pivots = list(first.values())
    if len(pivots) != u.dim:
        raise DomainError("quotient denominator is not contained in numerator")
    return tuple(columns[c] for c in pivots[v.dim:])


def _integer_coordinates(
    v_basis: Sequence[Vector], reps: Sequence[Vector], xs: Sequence[Vector]
) -> tuple[list, int]:
    """Coordinates of each x in xs along reps, modulo span(v_basis), as
    integers: (columns, scale), each column scale times the rational
    coordinates, scale > 0 the lcm of their denominators.  Solves every
    x = sum a_i v_i + sum b_j rep_j from one elimination of
    [v_basis | reps | xs] (as columns) and keeps the b parts; raises if the
    basis vectors are dependent or some x is outside their span.  Along
    basis vectors with one nonzero entry each, at distinct positions, a
    b part is x's entry there over rep_j's, with no elimination."""
    basis = (*v_basis, *reps)
    k, nv = len(basis), len(v_basis)
    length = len(basis[0]) if basis else len(xs[0]) if xs else 0
    positions = _positions(basis, length)
    covered = {None} if positions is None else set(positions)
    outside = set(range(length)) - covered
    if (
        None not in covered and len(covered) == k
        and set(map(len, xs)) <= {length}
        and not any(x[i] for x in xs for i in outside)
    ):
        at = [(i, rep[i], rep[i] == 1) for rep, i in zip(reps, positions[nv:])]
        columns = [
            [x[i] if one else Fraction(x[i]) / b for i, b, one in at] for x in xs
        ]
        scale = lcm(*[y.denominator for column in columns for y in column])
        return [[y.numerator * (scale // y.denominator) for y in column]
                for column in columns], scale
    reduced, pivots = _echelon(list(zip(*basis, *xs, strict=True)))
    if pivots != tuple(range(k)):
        raise DomainError("basis vectors dependent or a vector outside their span")
    rows = reduced[nv:]
    leads = [row[i] for i, row in enumerate(rows, nv)]
    scale = lcm(*leads)
    factors = [scale // lead for lead in leads]
    return [
        [row[k + j] * f for row, f in zip(rows, factors)]
        for j in range(len(xs))
    ], scale


def _integer_images(t: Matrix, vectors: Sequence[Vector]) -> list:
    """T applied to each vector, as integer rows: T scaled once by the lcm
    of its denominators, and each vector taken as its primitive integer
    row, so each image is a positive multiple of T v."""
    den = lcm(*[x.denominator for row in t for x in row])
    scaled = [[x.numerator * (den // x.denominator) for x in row] for row in t]
    images = []
    for v in vectors:
        support = [(j, x) for j, x in enumerate(_integer_row(v)) if x]
        images.append([sum(row[j] * x for j, x in support) for row in scaled])
    return images


def quotient_coordinates(
    v_basis: Sequence[Vector], reps: Sequence[Vector], xs: Sequence[Vector]
) -> list:
    """Coordinates of each x in xs along reps, modulo span(v_basis), as
    tuples of Fraction: the columns of _integer_coordinates divided by
    their scale.  Raises as that does."""
    columns, scale = _integer_coordinates(v_basis, reps, xs)
    return [tuple(Fraction(y, scale) for y in column) for column in columns]
