"""The Fraction elimination kernel, kept as a reference.

Before the exact kernel eliminated on primitive integer rows, rref ran
Gauss-Jordan on Fraction rows, scaling each pivot row to a unit pivot;
quotient_coordinates read its solutions off that rref; and the persistence
pairing reduced Fraction columns, each stored pivot column scaled to a unit
pivot.  These are those routines.  The integer kernel must give the same
rref tuple for tuple, the same coordinates and the same pairs.
"""

from fractions import Fraction

ONE = Fraction(1)


def reference_rref(rows):
    """Reduced row echelon form on Fraction rows: (nonzero rows, pivots)."""
    m = [list(row) for row in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        if prow[c] != 1:
            inv = ONE / prow[c]
            for j in range(c, ncols):
                if prow[j]:
                    prow[j] *= inv
        support = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        for i, row in enumerate(m):
            factor = row[c]
            if factor and i != r:
                for j, b in support:
                    row[j] -= factor * b
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def reference_quotient_coordinates(v_basis, reps, xs):
    """The b parts of x = sum a_i v_i + sum b_j rep_j, from one rref of
    [v_basis | reps | xs] as columns; None when that has no solution."""
    k = len(v_basis) + len(reps)
    reduced, pivots = reference_rref(list(zip(*v_basis, *reps, *xs, strict=True)))
    if pivots != tuple(range(k)):
        return None
    return [
        tuple(row[k + j] for row in reduced[len(v_basis):])
        for j in range(len(xs))
    ]


def _lowest(column):
    return next((i for i in reversed(range(len(column))) if column[i]), None)


def reference_reduce(columns):
    """Column reduction, left to right, of Fraction columns: pivot row of
    each column that stays nonzero, keyed by column."""
    by_pivot = {}
    pairs = {}
    for j, column in enumerate(columns):
        column = list(column)
        low = _lowest(column)
        while low is not None and low in by_pivot:
            other = by_pivot[low]
            factor = column[low]  # other[low] == 1
            for i, x in enumerate(other):
                if x:
                    column[i] -= factor * x
            low = _lowest(column)
        if low is not None:
            inv = 1 / column[low]
            by_pivot[low] = [x * inv for x in column]
            pairs[j] = low
    return pairs
