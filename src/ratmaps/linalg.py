"""Exact linear algebra: one fraction-free elimination loop for all matrices.

_bareiss is Bareiss' elimination (Math. Comp. 22, 1968): an entry a below
the pivot row becomes (pivot * a - b * c) / prev, exact by Sylvester's
identity.  Matrices over K run on ints (over QQ each row times the lcm of
its denominators; over GF(p) residues, reduced mod p with no division),
then back-substitute in K to the vectors of the reduced row echelon form.
Matrices over K[x] run on the packed-int kernel of polyring, each row
scaled to integer coefficients; polyring's _k_jacobian_rows builds the
Jacobian rows of subfield.trdeg_rank there directly.
"""

from __future__ import annotations

from functools import reduce
from math import lcm

from .polyring import (
    _grlex,
    _k_divexact,
    _k_mul,
    _k_sub,
    clear_denominators,
    on_kernel,
)


def _bareiss(work, step, one):
    """Eliminate the rows in work in place; returns the pivot columns.

    step(pivot, a, b, c, prev) updates entry a, with b below the pivot, c
    above a and prev the previous pivot (at first one).  Row k keeps its
    pivot at pivots[k]; entries in earlier pivot columns are left stale."""
    nrows, ncols = len(work), len(work[0]) if work else 0
    pivots, prev = [], one
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top, pivot = work[r], work[r][c]
        for row in work[r + 1 :]:
            b = row[c]
            for j in range(c + 1, ncols):
                row[j] = step(pivot, row[j], b, top[j], prev)
        prev = pivot
        pivots.append(c)
        if r + 1 == nrows:
            break
    return pivots


def _eliminate(rows, field):
    """(work, pivots): the rows cleared to ints, then run through _bareiss."""
    p = field.characteristic
    if p:
        work = [[v.v for v in row] for row in rows]
        return work, _bareiss(work, lambda piv, a, b, c, prev: (piv * a - b * c) % p, 1)
    work = []
    for row in rows:
        m = reduce(lcm, (v.denominator for v in row), 1)
        work.append([v.numerator * (m // v.denominator) for v in row])
    return work, _bareiss(work, lambda piv, a, b, c, prev: (piv * a - b * c) // prev, 1)


def _back_substitute(work, pivots, col, sign, ncols, field):
    """x over the field with x_j = 0 off the pivots and, for every pivot row
    k, sum_j work[k][j] x_j = sign * work[k][col], solved bottom-up."""
    x = [field.zero()] * ncols
    for k in range(len(pivots) - 1, -1, -1):
        row = work[k]
        acc = field.from_int(sign * row[col])
        for j in pivots[k + 1 :]:
            acc -= x[j] * row[j]
        x[pivots[k]] = acc / row[pivots[k]]
    return x


def field_rank(rows, field) -> int:
    return len(_eliminate(rows, field)[1])


def field_solve(rows, rhs, field):
    """One solution of A x = b over the field, or None if inconsistent; the
    free unknowns are 0."""
    if not rows:
        return None
    ncols = len(rows[0])
    work, pivots = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)], field)
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    return _back_substitute(work, pivots, ncols, 1, ncols, field)


def field_nullspace(rows, ncols, field):
    """A basis of the nullspace of A, as a list of length-ncols vectors: one
    per free column, 1 there and 0 at the other free columns."""
    work, pivots = _eliminate(rows, field)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = _back_substitute(work, pivots, fc, -1, ncols, field)
        vec[fc] = field.one()
        basis.append(vec)
    return basis


def independent_subset(vectors, field):
    """Indices of a maximal linearly independent subset, scanned in order.

    One elimination of the matrix whose columns are the vectors: its pivot
    columns are exactly the vectors outside the span of the earlier ones.
    """
    return _eliminate([list(col) for col in zip(*vectors)], field)[1]


def poly_matrix_rank(rows) -> int:
    """Rank of a matrix with polynomial entries, by Bareiss elimination.

    Runs on the packed-int kernel.  Over QQ each row is first multiplied
    by its own positive integer, which keeps the rank and gives integer
    polynomials; Bareiss is fraction free, so every division by the
    previous pivot is exact in Z[x] (resp. GF(p)[x]).
    """
    if not rows or not rows[0]:
        return 0
    return on_kernel(rows, _bareiss_rank)


def _bareiss_rank(K, work) -> int:
    def step(pivot, a, b, c, prev):
        return _k_divexact(_k_sub(_k_mul(pivot, a, K), _k_mul(b, c, K), K), prev, K)

    return len(_bareiss(work, step, {0: 1}))


def ratfunc_matrix_rank(rows) -> int:
    """Rank of a matrix of rational functions, each row cleared by its lcm."""
    return poly_matrix_rank([clear_denominators(r)[1] if r else r for r in rows])


def coefficient_rows(polys, field):
    """The matrix with one column per polynomial and one row per monomial
    that occurs in any of them, rows in grlex order of the monomials."""
    monos = sorted({e for p in polys for e in p.terms}, key=_grlex)
    return [[p.terms.get(e, field.zero()) for p in polys] for e in monos]
