"""Spectral sequences of bounded filtered complexes, by two exact methods.

The subspace recursion builds each page from the explicit
cycles-up-to-filtration formulas.  For a decreasing filtration F of
subcomplexes it works with

    A_r[p, q] = {x in F^p C^{p+q} : d x in F^{p+r} C^{p+q+1}}
    E_r[p, q] = A_r[p, q] / (d A_{r-1}[p-r+1, q+r-2] + A_{r-1}[p+1, q-1])

with differentials of bidegree (r, -r+1) induced by d, and

    E_inf[p, q] = the stable value of E_r, reached once r exceeds the
                  filtration length.

It is the library's source of explicit E_r subspaces and d_r matrices
(page_entry, page_differential, compute_page, infinity_page).

The persistence pairing (Edelsbrunner-Letscher-Zomorodian; Basu-Parida
read it as the spectral sequence of a filtration) gives the dimensions of
every page at once.  In a basis adapted to the filtration, one column
reduction of each d^n pairs a vector at filtration degree p with one at
p + g; the pair lives on E_0..E_g and dies at E_{g+1}, and unpaired vectors
make up E_inf.  Constructing a complex builds and memoizes its pairing,
whose adapted bases are where the filtration is checked.  A degree whose
every step is spanned by unit vectors (a coordinate filtration: the
front ends below, and any payload giving levels on coordinates) needs no
elimination for that: the subspaces kernel reads its adapted basis, the
unit basis ordered by level, and coordinates in it off positions.
`chernlab spectral` prints only dimensions, so it takes every page, E_inf
and the stabilisation index from persistence_pairing, and its convergence
check compares that E_inf with graded_cohomology, the graded pieces of
F^p H read directly from ranks of cycles and boundaries, with no subspace
built.

Everything is exact arithmetic; a dimension equality asserted by this
module is an equality of integers, never a tolerance check.  Ranks, the
images under d that they and the pairing read, the pairing's coordinates
and its column reduction run on integer vectors, fraction-free (see
subspaces); subspaces and page matrices keep Fraction entries.

Index conventions follow the source text exactly.  In particular, for the
vertical filtration of a first-quadrant double complex the zeroth page is
the transposed array E_0[p, q] = Omega[q, p], the first page is horizontal
cohomology, and E_2[p, q] = H_V^p H_H^q.

Filtration degrees clamp: F^p is the full space for p <= p_min and zero
for p >= p_max, which totalises every formula at the boundary.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import zip_longest
from math import gcd
from typing import Callable, Literal

from .errors import (
    ConventionError,
    DomainError,
    InternalConsistencyError,
    PreconditionError,
)
from .subspaces import (
    Matrix,
    ZERO,
    Subspace,
    _integer_coordinates,
    _integer_images,
    _positions,
    _primitive,
    identity_matrix,
    image,
    mat_from_rows,
    matmul,
    matvec,
    quotient_coordinates,
    quotient_representatives,
    rank,
    subspace_intersect,
    subspace_preimage,
    subspace_sum,
    zero_matrix,
)

# Size caps on complexes; a complex beyond one is a DomainError.  The
# validators and the persistence pairing on the CLI path grow with the cube
# of the dimensions, and the library's page recursion also with the product
# of the degree and filtration ranges, so a short JSON line could otherwise
# start minutes of work.
MAX_TOTAL_DIM = 128          # sum of the dimensions of all degrees (or spots)
MAX_FILTRATION_LENGTH = 64   # p_max - p_min
MAX_BIDEGREE = 16            # i_max and j_max of a double complex
MAX_EXPONENT = 1000          # decimal exponent of a JSON entry, as in "1e-5"


def _is_identity(rows: Matrix, n: int) -> bool:
    """rows are the n x n identity matrix, entry by entry."""
    return (len(rows) == n and _positions(rows, n) == list(range(n))
            and all(row[i] == 1 for i, row in enumerate(rows)))


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Finite rational cochain complex with a bounded decreasing filtration.

    dims maps each degree in [n_min, n_max] to its dimension; d[n] is the
    matrix of C^n -> C^{n+1}; filtration[(p, n)] is a Subspace of C^n for
    every p in [p_min, p_max], with F^{p_min} the full space and F^{p_max}
    zero (exhaustive and bounded).

    Construction builds the persistence pairing and memoizes it; building
    its adapted bases is what checks that the filtration decreases and is
    a subcomplex.  The rest of the spectral sequence is memoized on first
    use: the A_r subspaces, the page entries E_r and the page differentials
    d_r are shared by every page and the stable page, and the rank of each
    d^n and the dimension of each F^p H^n by the cohomology and the graded
    cohomology.
    The memo is keyed by indices alone, so dims, d and filtration must not
    be mutated after construction.  Memo writes are idempotent, so
    concurrent per-entry page computations are safe.
    """

    n_min: int
    n_max: int
    dims: dict
    d: dict
    p_min: int
    p_max: int
    filtration: dict
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_min > self.n_max or self.p_min >= self.p_max:
            raise DomainError("empty degree range or trivial filtration range")
        for n in self.degrees():
            if self.dims.get(n) is None or self.dims[n] < 0:
                raise DomainError(f"missing or negative dimension at {n}")
        if sum(map(self.dim, self.degrees())) > MAX_TOTAL_DIM:
            raise DomainError(f"total dimension exceeds {MAX_TOTAL_DIM}")
        if self.filtration_length > MAX_FILTRATION_LENGTH:
            raise DomainError(f"filtration length exceeds {MAX_FILTRATION_LENGTH}")
        for n in range(self.n_min, self.n_max):
            m = self.d.get(n)
            if m is None:
                raise DomainError(f"missing differential at degree {n}")
            if len(m) != self.dims[n + 1] or (
                m and len(m[0]) != self.dims[n]
            ):
                raise DomainError(f"differential at degree {n} has wrong shape")
        for n in range(self.n_min, self.n_max - 1):
            if any(map(any, _integer_images(self.d[n + 1], zip(*self.d[n])))):
                raise PreconditionError(f"d^2 != 0 at degree {n}")
        # the end steps as stored: the identity rows, then no vectors
        for n in self.degrees():
            dim = self.dims[n]
            first = self.filtration.get((self.p_min, n))
            if not (isinstance(first, Subspace) and first.ambient_dim == dim
                    and _is_identity(first.vectors, dim)):
                raise PreconditionError(f"F^{self.p_min} C^{n} must be everything")
            last = self.filtration.get((self.p_max, n))
            if not (isinstance(last, Subspace) and last.ambient_dim == dim
                    and last.vectors == ()):
                raise PreconditionError(f"F^{self.p_max} C^{n} must be zero")
        self._memo[("pairing",)] = _build_pairing(self)

    def degrees(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def filtration_degrees(self) -> range:
        return range(self.p_min, self.p_max + 1)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def diff(self, n: int) -> Matrix:
        if self.n_min <= n < self.n_max:
            return self.d[n]
        return zero_matrix(self.dim(n + 1), self.dim(n))

    def level(self, p: int) -> int:
        """p clamped to [p_min, p_max]; F^p depends on p only through it."""
        return min(max(p, self.p_min), self.p_max)

    def filt(self, p: int, n: int) -> Subspace:
        """Filtration subspace with index clamping at both ends: the stored
        step at level(p), whose end steps construction checked to be full
        and zero.  Outside the degrees it is the full or the zero space."""
        if not self.n_min <= n <= self.n_max:
            if p <= self.p_min:
                return Subspace.full(self.dim(n))
            return Subspace.zero(self.dim(n))
        step = self.filtration.get((self.level(p), n))
        if step is None:
            raise DomainError(f"missing filtration step ({p}, {n})")
        return step

    @property
    def filtration_length(self) -> int:
        return self.p_max - self.p_min


@dataclass(frozen=True)
class PageEntry:
    """Quotient presentation of one spot on a page; one elimination gives
    its representatives, its containment check and its dim."""

    numerator: Subspace
    denominator: Subspace

    @cached_property
    def representatives(self) -> tuple:
        return quotient_representatives(self.numerator, self.denominator)

    @property
    def dim(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class Page:
    """One page: entry presentations plus the matrices of d_r."""

    r: int
    entries: dict
    differentials: dict
    stabilized_at: int | None = None

    def dim(self, p: int, q: int) -> int:
        entry = self.entries.get((p, q))
        return entry.dim if entry is not None else 0

    def dims(self) -> dict:
        return {
            key: entry.dim
            for key, entry in sorted(self.entries.items())
            if entry.dim > 0
        }


def _memo(c: FilteredComplex, key: tuple, build: Callable):
    """The value memoized under key on c, built by build() on first use."""
    try:
        return c._memo[key]
    except KeyError:
        value = c._memo[key] = build()
        return value


def cycles_up_to_filtration(
    c: FilteredComplex, r: int, p: int, q: int
) -> Subspace:
    """A_r[p, q]: filtered elements whose differential drops r steps.

    Total for every integer r: for r <= 0 the subcomplex property makes the
    condition automatic and the result is F^p itself.  The memo key clamps
    p but not p + r, so A_r past the stable page stays a computation of its
    own for the stability check in infinity_page to compare against.
    """
    n = p + q
    key = ("A", c.level(p), p + r, n)
    return _memo(c, key, lambda: subspace_intersect(
        c.filt(p, n),
        subspace_preimage(c.diff(n), c.filt(p + r, n + 1), c.dim(n)),
    ))


def page_entry(c: FilteredComplex, r: int, p: int, q: int) -> PageEntry:
    """E_r[p, q] = A_r[p,q] / (d A_{r-1}[p-r+1, q+r-2] + A_{r-1}[p+1, q-1])."""
    if r < 0:
        raise DomainError("pages are indexed by r >= 0")
    return _memo(c, ("E", r, p, q), lambda: _build_entry(c, r, p, q))


def _build_entry(c: FilteredComplex, r: int, p: int, q: int) -> PageEntry:
    numerator = cycles_up_to_filtration(c, r, p, q)
    boundary = image(
        c.diff(p + q - 1),
        cycles_up_to_filtration(c, r - 1, p - r + 1, q + r - 2),
    )
    lower = cycles_up_to_filtration(c, r - 1, p + 1, q - 1)
    return PageEntry(numerator, subspace_sum(boundary, lower))


def page_differential(c: FilteredComplex, r: int, p: int, q: int) -> Matrix:
    """Matrix of d_r: E_r[p, q] -> E_r[p+r, q-r+1] on quotient bases.

    Representatives extend the denominator's echelon basis to the
    numerator's, so the matrix is reproducible.  Well-definedness, the
    containment d(denominator) <= target denominator, is one exact rank;
    the coordinate solve refuses an image outside the target numerator.
    """
    return _memo(c, ("d", r, p, q), lambda: _build_differential(c, r, p, q))


def _build_differential(c: FilteredComplex, r: int, p: int, q: int) -> Matrix:
    src = page_entry(c, r, p, q)
    tgt = page_entry(c, r, p + r, q - r + 1)
    d = c.diff(p + q)
    lower = tgt.denominator.vectors
    if rank(lower + tuple(matvec(d, v) for v in src.denominator.vectors)) != len(lower):
        raise InternalConsistencyError(
            "page differential depends on the representative"
        )
    mapped = [matvec(d, v) for v in src.representatives]
    try:
        columns = quotient_coordinates(lower, tgt.representatives, mapped)
    except DomainError:
        raise InternalConsistencyError("page differential leaves the target") from None
    return tuple(tuple(col[i] for col in columns) for i in range(tgt.dim))


def _index_grid(c: FilteredComplex) -> list:
    return [
        (p, n - p)
        for p in range(c.p_min, c.p_max)
        for n in c.degrees()
    ]


def compute_page(c: FilteredComplex, r: int) -> Page:
    """All entries and differentials of one page over the index grid."""
    entries = {}
    diffs = {}
    for p, q in _index_grid(c):
        entries[(p, q)] = page_entry(c, r, p, q)
    for p, q in _index_grid(c):
        diffs[(p, q)] = page_differential(c, r, p, q)
    return Page(r, entries, diffs)


def infinity_page(c: FilteredComplex) -> Page:
    """The stable page; A_r and the denominators freeze once r exceeds the
    filtration length.  Stability is asserted, not assumed."""
    r_stable = c.filtration_length + 1
    page = compute_page(c, r_stable)
    for (p, q), entry in page.entries.items():
        if entry != page_entry(c, r_stable + 1, p, q):
            raise InternalConsistencyError(
                f"page failed to stabilize at r = {r_stable} for {(p, q)}"
            )
    return Page(
        r_stable, page.entries, page.differentials, stabilized_at=r_stable
    )


def _rank_d(c: FilteredComplex, n: int) -> int:
    """rank d^n, which is dim B^{n+1} and dim C^n - dim Z^n."""
    return _memo(c, ("rank", n), lambda: rank(c.diff(n)))


def _filtered_cohomology_dim(c: FilteredComplex, p: int, n: int) -> int:
    """dim F^p H^n, the image of F^p C^n cap Z^n in H^n.

    With B in Z, dim(F cap Z) = dim F - rank d|F and dim(F cap B) =
    dim F + dim B - dim(F + B), so the image has dimension
    rank(F + B) - rank B - rank d(F), three ranks of one elimination each.
    """
    def build() -> int:
        f = c.filt(p, n)
        if not f.vectors:
            return 0
        if f.is_full:
            return cohomology_dim(c, n)
        # B^n is spanned by the columns of d^{n-1}
        f_plus_b = rank(f.vectors + tuple(zip(*c.diff(n - 1))))
        d_f = rank(_integer_images(c.diff(n), f.vectors))
        return f_plus_b - _rank_d(c, n - 1) - d_f

    return _memo(c, ("H", c.level(p), n), build)


def cohomology_dim(c: FilteredComplex, n: int) -> int:
    """dim H^n(C) = dim C^n - rank d^n - rank d^{n-1}."""
    return c.dim(n) - _rank_d(c, n) - _rank_d(c, n - 1)


def graded_cohomology(c: FilteredComplex, p: int, q: int) -> int:
    """dim of F^p H^{p+q} / F^{p+1} H^{p+q} with the image filtration.

    Computed from ranks, independently of the page machinery and the
    pairing; the convergence theorem says it equals dim E_inf[p, q].
    """
    n = p + q
    return (
        _filtered_cohomology_dim(c, p, n)
        - _filtered_cohomology_dim(c, p + 1, n)
    )


# -- persistence pairing -------------------------------------------------------

@dataclass(frozen=True)
class Pairing:
    """Every page's dimensions, read off one filtration-adapted reduction.

    bars holds (p, n, gap) for each adapted basis vector: its filtration
    degree p, its degree n, and the gap of its pair, None if unpaired.  A
    pair of gap g lives on E_0..E_g and dies at E_{g+1}.
    """

    bars: tuple
    stabilized_at: int

    def dims(self, r: int | None = None) -> dict:
        """Nonzero dim E_r[p, q] keyed by (p, q) in order; E_inf for None."""
        counts = Counter(
            (p, n - p)
            for p, n, gap in self.bars
            if gap is None or (r is not None and gap >= r)
        )
        return dict(sorted(counts.items()))


def _adapted_basis(c: FilteredComplex, n: int) -> tuple[list, list]:
    """A basis of C^n, deepest first, extending a basis of F^{p+1} C^n to
    one of F^p C^n for each p in [p_min, p_max); and each vector's p.
    Walking p upward, it refuses the first F^{p+1} C^n outside F^p C^n.

    Each step is one quotient_representatives, which reads a coordinate
    filtration step (unit vectors) without an elimination."""
    vectors, levels = [], []
    upper = c.filt(c.p_min, n)
    for p in range(c.p_min, c.p_max):
        lower = c.filt(p + 1, n)
        upper._check_ambient(lower)
        try:
            reps = quotient_representatives(upper, lower)
        except DomainError:
            raise PreconditionError(f"filtration not decreasing at ({p}, {n})") from None
        vectors[:0] = reps
        levels[:0] = [p] * len(reps)
        upper = lower
    return vectors, levels


def _coordinates(c: FilteredComplex, n: int, basis: list, vectors: list) -> list:
    """Coordinates of vectors of C^n in basis, which must be a basis of C^n,
    as integer columns, all scaled by one positive integer: the pairing
    reads where a column is nonzero, and scaling does not move that.
    In a basis of unit vectors they are read off entries, with no
    elimination (see _integer_coordinates)."""
    try:
        if len(basis) == c.dim(n):
            return _integer_coordinates((), basis, vectors)[0]
    except DomainError:
        pass
    raise InternalConsistencyError(f"adapted vectors are no basis of C^{n}")


def _lowest(column: list) -> int | None:
    return next((i for i in reversed(range(len(column))) if column[i]), None)


def _reduce(columns: list) -> dict:
    """Column reduction, left to right, of integer columns: pivot row of
    each column that stays nonzero, keyed by column; a pivot is the lowest
    nonzero row.  Reducing by a column whose pivot entry is a against an
    entry b cross-multiplies, column <- (a/g) column - (b/g) other with
    g = gcd(a, b), and divides the column by its content gcd."""
    by_pivot = {}
    pairs = {}
    for j, column in enumerate(columns):
        column = list(column)
        low = _lowest(column)
        while low is not None and low in by_pivot:
            a, support = by_pivot[low]
            b = column[low]
            g = gcd(a, b)
            if a != g:
                k = a // g
                column = [k * x for x in column]
            b //= g
            for i, y in support:
                column[i] -= b * y
            column = _primitive(column)
            low = _lowest(column)
        if low is not None:
            by_pivot[low] = (column[low], [(i, y) for i, y in enumerate(column) if y])
            pairs[j] = low
    return pairs


def persistence_pairing(c: FilteredComplex) -> Pairing:
    """Dimensions of every page and of E_inf from one persistence pairing.

    Each d^n is written in adapted bases of C^n and C^{n+1}, deepest
    first, and its columns are reduced; a pivot pairs a source at level p
    with a target at level p + gap.  Constructing the complex builds it,
    checking the filtration on the way; this reads the memo.
    """
    return c._memo[("pairing",)]


def _build_pairing(c: FilteredComplex) -> Pairing:
    stable = c.filtration_length + 1
    bases = {n: _adapted_basis(c, n) for n in c.degrees()}
    gaps = {n: [None] * len(bases[n][0]) for n in c.degrees()}
    for n in c.degrees():
        source, source_levels = bases.get(n - 1, ([], []))
        target, target_levels = bases[n]
        images = _integer_images(c.diff(n - 1), source)
        columns = _coordinates(c, n, target, images)
        # target levels descend, so a column's lowest entry has its least level
        dropped = [
            target_levels[low]
            for column, level in zip(columns, source_levels)
            if (low := _lowest(column)) is not None and target_levels[low] < level
        ]
        if dropped:
            raise PreconditionError(
                f"filtration is not a subcomplex at ({min(dropped) + 1}, {n - 1})"
            )
        for j, i in _reduce(columns).items():
            gap = target_levels[i] - source_levels[j]
            if gap >= stable:
                raise InternalConsistencyError(
                    f"page failed to stabilize at r = {stable}: a pair in "
                    f"degrees {n - 1}, {n} lives to page {gap}"
                )
            gaps[n - 1][j] = gaps[n][i] = gap
    bars = tuple(
        (p, n, gap)
        for n in c.degrees()
        for p, gap in zip(bases[n][1], gaps[n])
    )
    return Pairing(bars, stable)


# -- double complexes ----------------------------------------------------------

# Each differential of a double complex: its field, its key in the JSON
# schema, and the step it moves the bidegree (i, j) by.
_ARROWS = {"d_h": ("dH", (1, 0)), "d_v": ("dV", (0, 1))}


@dataclass(frozen=True, eq=False)
class DoubleComplex:
    """Bounded first-quadrant double complex.

    dims[(i, j)] for 0 <= i <= i_max, 0 <= j <= j_max; d_h[(i, j)] maps
    (i, j) -> (i+1, j) and d_v[(i, j)] maps (i, j) -> (i, j+1).  Rows and
    columns must square to zero, and d_h and d_v must either all commute or
    all anticommute.
    """

    i_max: int
    j_max: int
    dims: dict
    d_h: dict
    d_v: dict

    def __post_init__(self) -> None:
        if not (0 <= self.i_max <= MAX_BIDEGREE and 0 <= self.j_max <= MAX_BIDEGREE):
            raise DomainError(
                f"i_max and j_max must be between 0 and {MAX_BIDEGREE}, "
                f"got {self.i_max} and {self.j_max}"
            )
        for spot in self.spots():
            if self.dims.get(spot) is None or self.dims[spot] < 0:
                raise DomainError(f"missing or negative dimension at {spot}")
        grid = set(self.spots())
        for name, keyed in (("dims", self.dims), ("d_h", self.d_h), ("d_v", self.d_v)):
            for spot in keyed:
                if spot not in grid:
                    raise DomainError(
                        f"{name} at {spot} is outside the grid 0 <= i <= "
                        f"{self.i_max}, 0 <= j <= {self.j_max}"
                    )
        if sum(self.dims[spot] for spot in self.spots()) > MAX_TOTAL_DIM:
            raise DomainError(f"total dimension exceeds {MAX_TOTAL_DIM}")
        for (i, j) in self.spots():
            for name, (_, (di, dj)) in _ARROWS.items():
                m = self._arrow(name, i, j)
                if len(m) != self.dim(i + di, j + dj) or (
                    m and len(m[0]) != self.dim(i, j)
                ):
                    raise DomainError(f"{name} at {(i, j)} has wrong shape")
        for (i, j) in self.spots():
            for name, (_, (di, dj)) in _ARROWS.items():
                second = self._arrow(name, i + di, j + dj)
                if any(map(any, matmul(second, self._arrow(name, i, j)))):
                    raise PreconditionError(f"{name}^2 != 0 at {(i, j)}")
        self.convention()

    def spots(self) -> list:
        return [
            (i, j)
            for i in range(self.i_max + 1)
            for j in range(self.j_max + 1)
        ]

    def dim(self, i: int, j: int) -> int:
        return self.dims.get((i, j), 0)

    def _arrow(self, name: str, i: int, j: int) -> Matrix:
        """The matrix of differential name out of (i, j); zero if not given."""
        _, (di, dj) = _ARROWS[name]
        m = getattr(self, name).get((i, j))
        if m is None:
            return zero_matrix(self.dim(i + di, j + dj), self.dim(i, j))
        return m

    def dh(self, i: int, j: int) -> Matrix:
        return self._arrow("d_h", i, j)

    def dv(self, i: int, j: int) -> Matrix:
        return self._arrow("d_v", i, j)

    def convention(self) -> str:
        """'anticommuting' or 'commuting'; mixed data is a convention error."""
        return self._convention

    @cached_property
    def _convention(self) -> str:
        anti = comm = True
        for (i, j) in self.spots():
            hv = matmul(self.dh(i, j + 1), self.dv(i, j))
            vh = matmul(self.dv(i + 1, j), self.dh(i, j))
            # a product through a zero-dimensional spot has empty rows, and
            # its missing entries are zeros
            pairs = [
                (a, b)
                for ra, rb in zip(hv, vh)
                for a, b in zip_longest(ra, rb, fillvalue=ZERO)
            ]
            anti = anti and all(a == -b for a, b in pairs)
            comm = comm and all(a == b for a, b in pairs)
        if anti:
            return "anticommuting"
        if comm:
            return "commuting"
        raise ConventionError(
            "d_h and d_v neither commute nor anticommute consistently"
        )


def _level_filtration(levels: dict, p_min: int, p_max: int) -> dict:
    """F^p C^n for p_min <= p <= p_max: the span of the unit vectors of C^n
    whose level is >= p, where levels[n] lists one level per coordinate.

    Unit vectors in ascending position are already in reduced echelon
    form, so each step is built as it stands, without an elimination.
    """
    filt = {}
    for n, coordinate_levels in levels.items():
        units = identity_matrix(len(coordinate_levels))
        for p in range(p_min, p_max + 1):
            filt[(p, n)] = Subspace(len(units), tuple(
                u for u, level in zip(units, coordinate_levels) if level >= p
            ))
    return filt


def from_double_complex(
    dc: DoubleComplex,
    filtration: Literal["vertical", "horizontal"] = "vertical",
) -> FilteredComplex:
    """Total complex with the vertical (j >= p) or horizontal (i >= p)
    filtration.

    The total differential uses d = d_h + (-1)^i d_v on the (i, j) summand
    when the input commutes; anticommuting input is taken as is.  Either
    way d squares to zero, blockwise by the checks DoubleComplex made.
    """
    if filtration not in ("vertical", "horizontal"):
        raise DomainError("filtration must be 'vertical' or 'horizontal'")
    twist = dc.convention() == "commuting"
    axis = 1 if filtration == "vertical" else 0
    n_max = dc.i_max + dc.j_max
    # the summands of C^n are the spots (i, n - i), i ascending: each spot's
    # offset in its C^n, and the level of each coordinate of C^n
    offsets, levels = {}, {n: [] for n in range(n_max + 1)}
    for n in levels:
        for i in range(max(0, n - dc.j_max), min(dc.i_max, n) + 1):
            offsets[(i, n - i)] = len(levels[n])
            levels[n] += [(i, n - i)[axis]] * dc.dim(i, n - i)
    dims = {n: len(levels[n]) for n in levels}

    rows = {n: [[ZERO] * dims[n] for _ in range(dims[n + 1])] for n in range(n_max)}
    for (i, j), off in offsets.items():
        for name, (_, (di, dj)) in _ARROWS.items():
            t_off = offsets.get((i + di, j + dj))
            if t_off is None:
                continue
            sign = (-1) ** (i * dj) if twist else 1  # (-1)^i on d_v
            for a, row in enumerate(dc._arrow(name, i, j)):
                rows[i + j][t_off + a][off:off + len(row)] = [sign * x for x in row]

    p_max = (dc.i_max, dc.j_max)[axis] + 1
    return FilteredComplex(
        n_min=0,
        n_max=n_max,
        dims=dims,
        d={n: tuple(tuple(row) for row in m) for n, m in rows.items()},
        p_min=0,
        p_max=p_max,
        filtration=_level_filtration(levels, 0, p_max),
    )


def bete_filtration(
    dims: dict, d: dict, n_min: int, n_max: int
) -> FilteredComplex:
    """The truncation filtration: (F^p C)^n is C^n for n >= p, else zero.

    Its spectral sequence stabilises at page two onto the cohomology.
    """
    # a missing degree is refused by FilteredComplex, with its message
    levels = {n: [n] * dims.get(n, 0) for n in range(n_min, n_max + 1)}
    return FilteredComplex(
        n_min=n_min,
        n_max=n_max,
        dims=dict(dims),
        d=dict(d),
        p_min=n_min,
        p_max=n_max + 1,
        filtration=_level_filtration(levels, n_min, n_max + 1),
    )


# -- JSON schemas --------------------------------------------------------------

def _matrix_to_lists(m: Matrix) -> list:
    return [[str(v) for v in row] for row in m]


# What reading a payload of the wrong shape raises: a missing key, a list
# where a dict belongs (AttributeError), a "1/0" entry, ...
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError)


def _entry(v) -> Fraction:
    """A JSON entry as a Fraction.  Fraction would expand "1e999999999" to
    a billion-digit integer, so a larger exponent than MAX_EXPONENT (which
    every float's repr stays within) is refused first."""
    text = str(v)
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > MAX_EXPONENT:
        raise ValueError(f"entry {text!r} has an exponent beyond {MAX_EXPONENT}")
    return Fraction(text)


def _entry_reader() -> Callable:
    """_entry memoized by the entry's text, for the entries of one payload.

    Most entries of a payload repeat a few texts ("0" and "1"), so each
    distinct text is parsed once.  An exception is not memoized: every bad
    entry raises as _entry does.  A payload's reader is dropped with it."""
    parse = cache(_entry)
    return lambda v: parse(str(v))


def _dimension(key: str, v) -> int:
    """The dimension at key: an int or an integer string.  int() would
    also truncate a float or read a bool, so those are refused."""
    if isinstance(v, (bool, float)):
        raise DomainError(f"dimension at {key} is {json.dumps(v)}, not an integer")
    return int(v)


def _matrix_from_lists(rows, entry: Callable) -> Matrix:
    return mat_from_rows([[entry(v) for v in row] for row in rows])


def filtered_complex_to_dict(c: FilteredComplex) -> dict:
    """Schema: degrees, differentials, filtration basis columns, all keyed
    by stringified integers; rational entries as "num/den" strings."""
    return {
        "degrees": {str(n): c.dim(n) for n in c.degrees()},
        "differentials": {
            str(n): _matrix_to_lists(c.d[n])
            for n in range(c.n_min, c.n_max)
        },
        "filtration": {
            str(p): {
                str(n): [
                    [str(v) for v in vec]
                    for vec in c.filt(p, n).vectors
                ]
                for n in c.degrees()
            }
            for p in c.filtration_degrees()
        },
    }


def filtered_complex_from_dict(data: dict) -> FilteredComplex:
    try:
        entry = _entry_reader()
        degrees = {int(k): _dimension(k, v) for k, v in data["degrees"].items()}
        n_min, n_max = min(degrees), max(degrees)
        d = {
            int(k): _matrix_from_lists(v, entry)
            for k, v in data["differentials"].items()
        }
        for n in d:
            if not n_min <= n < n_max:
                raise DomainError(
                    f"differential at {n} is outside the degrees "
                    f"{n_min} <= n < {n_max}"
                )
        p_keys = sorted(int(k) for k in data["filtration"])
        p_min, p_max = min(p_keys), max(p_keys)
        filt = {}
        for p in p_keys:
            for n_str, vecs in data["filtration"][str(p)].items():
                n = int(n_str)
                filt[(p, n)] = Subspace.span(
                    degrees[n], [[entry(v) for v in vec] for vec in vecs]
                )
    except _MALFORMED as exc:
        raise DomainError(f"malformed filtered-complex payload: {exc}") from exc
    return FilteredComplex(
        n_min=n_min,
        n_max=n_max,
        dims=degrees,
        d=d,
        p_min=p_min,
        p_max=p_max,
        filtration=filt,
    )


def double_complex_to_dict(dc: DoubleComplex) -> dict:
    data = {"dims": {f"{i},{j}": dc.dim(i, j) for i, j in dc.spots()}}
    for name, (key, (di, dj)) in _ARROWS.items():
        data[key] = {
            f"{i},{j}": _matrix_to_lists(dc._arrow(name, i, j))
            for i, j in dc.spots()
            if i + di <= dc.i_max and j + dj <= dc.j_max
        }
    return data


def _spot(key: str) -> tuple:
    i, j = (int(t) for t in key.split(","))
    return i, j


def double_complex_from_dict(data: dict) -> DoubleComplex:
    try:
        entry = _entry_reader()
        dims = {_spot(key): _dimension(key, v) for key, v in data["dims"].items()}
        i_max = max(i for i, _ in dims)
        j_max = max(j for _, j in dims)
        arrows = {
            name: {
                _spot(spot): _matrix_from_lists(rows, entry)
                for spot, rows in data.get(key, {}).items()
            }
            for name, (key, _) in _ARROWS.items()
        }
    except _MALFORMED as exc:
        raise DomainError(f"malformed double-complex payload: {exc}") from exc
    return DoubleComplex(i_max=i_max, j_max=j_max, dims=dims, **arrows)
