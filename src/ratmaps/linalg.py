"""Exact linear algebra: Gaussian elimination over K, Bareiss over K[x].

The field-coefficient routines drive the many small linear systems in the
subfield and integrality modules (unit combinations, Moebius recovery,
membership searches).  The fraction-free routine computes ranks of matrices
with polynomial entries without ever leaving the polynomial ring.  Jacobian
ranks (and hence transcendence degrees in characteristic zero) are taken
with it: subfield.trdeg_rank scales each row of the rational Jacobian by
its own denominator first, which keeps the rank, and needs no gcd.
"""

from __future__ import annotations

from .polyring import Poly, clear_denominators


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
    """Indices of a maximal linearly independent subset, scanned in order."""
    if not vectors:
        return []
    ncols = len(vectors[0])
    zero = field.zero()
    rows = []
    chosen = []
    for idx, v in enumerate(vectors):
        work = [list(r) for r in rows] + [list(v)]
        if len(_echelonize(work, field)) > len(rows):
            rows.append(list(v))
            chosen.append(idx)
            if len(rows) == ncols:
                break
    return chosen


def poly_matrix_rank(rows) -> int:
    """Rank of a matrix with polynomial entries, by Bareiss elimination.

    Fraction free: every division is an exact polynomial division by the
    previous pivot, so entries stay in the ring throughout.
    """
    work = [list(r) for r in rows]
    if not work or not work[0]:
        return 0
    nrows, ncols = len(work), len(work[0])
    ring = work[0][0].ring
    prev = ring.one()
    rank = 0
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                work[i][j] = (pivot * work[i][j] - work[i][c] * work[r][j]).divexact(
                    prev
                )
            work[i][c] = ring.zero()
        prev = pivot
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def ratfunc_matrix_rank(rows) -> int:
    """Rank of a matrix of rational functions, each row cleared by its lcm."""
    return poly_matrix_rank([clear_denominators(r)[1] if r else r for r in rows])


def poly_to_row(p: Poly, index: dict, width: int, field):
    """Coefficient vector of p with respect to a fixed monomial indexing."""
    row = [field.zero()] * width
    for e, c in p.terms.items():
        row[index[e]] = c
    return row


def monomial_index(polys) -> dict:
    """Deterministic indexing of every monomial appearing in the given polys."""
    from .polyring import _grlex

    monos = set()
    for p in polys:
        monos.update(p.terms)
    return {e: i for i, e in enumerate(sorted(monos, key=_grlex))}
