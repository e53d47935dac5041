"""Exact linear algebra: Gaussian elimination over K, Bareiss over K[x].

The field-coefficient routines drive the many small linear systems in the
subfield and integrality modules (unit combinations, Moebius recovery,
membership searches).  The fraction-free routine computes ranks of matrices
with polynomial entries on the packed-int kernel of polyring, each row
scaled to integer coefficients.  subfield.trdeg_rank builds its Jacobian
rows on the kernel directly, each row of the rational Jacobian scaled by
its own denominator squared, which keeps the rank and needs no gcd.
"""

from __future__ import annotations

from .polyring import (
    _grlex,
    _k_divexact,
    _k_mul,
    _k_sub,
    clear_denominators,
    on_kernel,
)


def _echelonize(rows, field):
    """In-place row reduction; returns the list of pivot column indices."""
    if not rows:
        return []
    ncols = len(rows[0])
    zero = field.zero()
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def field_rank(rows, field) -> int:
    work = [list(r) for r in rows]
    return len(_echelonize(work, field))


def field_solve(rows, rhs, field):
    """One solution of A x = b over the field, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _echelonize(work, field)
    zero = field.zero()
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    sol = [zero] * ncols
    for r, c in enumerate(pivots):
        sol[c] = work[r][ncols]
    return sol


def field_nullspace(rows, ncols, field):
    """A basis of the nullspace of A, as a list of length-ncols vectors."""
    work = [list(r) for r in rows]
    pivots = _echelonize(work, field)
    zero, one = field.zero(), field.one()
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, c in enumerate(pivots):
            vec[c] = -work[r][fc]
        basis.append(vec)
    return basis


def independent_subset(vectors, field):
    """Indices of a maximal linearly independent subset, scanned in order.

    One elimination of the matrix whose columns are the vectors: its pivot
    columns are exactly the vectors outside the span of the earlier ones.
    """
    if not vectors:
        return []
    return _echelonize([list(col) for col in zip(*vectors)], field)


class PackedMatrix(list):
    """Rows of kernel polynomials on the packing K, which poly_matrix_rank
    takes in place of Poly rows; K must hold bareiss_bound of the matrix."""

    def __init__(self, rows, K):
        super().__init__(rows)
        self.K = K


def bareiss_bound(nrows: int, ncols: int, deg: int) -> int:
    """Top total degree in Bareiss on entries of degree <= deg: after k pivots
    entries are minors of degree (k+1)*deg, so products reach 2*min(m-1, n)*deg."""
    return max(2 * min(nrows - 1, ncols), 1) * deg


def poly_matrix_rank(rows) -> int:
    """Rank of a matrix with polynomial entries, by Bareiss elimination.

    Runs on the packed-int kernel.  Over QQ each row is first multiplied
    by its own positive integer, which keeps the rank and gives integer
    polynomials; Bareiss is fraction free, so every division by the
    previous pivot is exact in Z[x] (resp. GF(p)[x]).
    """
    if isinstance(rows, PackedMatrix):
        return _bareiss_rank(rows.K, [list(r) for r in rows])
    if not rows or not rows[0]:
        return 0
    deg = max((p.total_degree() for r in rows for p in r if p.terms), default=0)
    return on_kernel(rows, bareiss_bound(len(rows), len(rows[0]), deg), _bareiss_rank)


def _bareiss_rank(K, work) -> int:
    nrows, ncols = len(work), len(work[0])
    prev = {0: 1}
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                cross = _k_sub(
                    _k_mul(pivot, work[i][j], K), _k_mul(work[i][c], work[r][j], K), K
                )
                work[i][j] = _k_divexact(cross, prev, K)
            work[i][c] = {}
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def ratfunc_matrix_rank(rows) -> int:
    """Rank of a matrix of rational functions, each row cleared by its lcm."""
    return poly_matrix_rank([clear_denominators(r)[1] if r else r for r in rows])


def coefficient_rows(polys, field):
    """The matrix with one column per polynomial and one row per monomial
    that occurs in any of them, rows in grlex order of the monomials."""
    monos = sorted({e for p in polys for e in p.terms}, key=_grlex)
    return [[p.terms.get(e, field.zero()) for p in polys] for e in monos]
