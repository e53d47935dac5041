import itertools
from fractions import Fraction

import pytest

from conftest import (
    random_cond45_case,
    random_nonzero_poly,
    random_poly,
    random_square_map,
    reference_echelonize,
    reference_field_nullspace,
    reference_field_rank,
    reference_field_solve,
    reference_independent_subset,
    reference_poly_matrix_rank,
    seeded,
)
from ratmaps import linalg, polyring
from ratmaps.fields import PrimeField, QQ
from ratmaps.gordan_noether import _trace_conditions
from ratmaps.linalg import (
    field_nullspace,
    field_rank,
    field_solve,
    independent_subset,
    poly_matrix_rank,
)
from ratmaps.polyring import eval_univar_at_ratio, first_mismatch
from ratmaps.subfield import trdeg_rank

FIELDS = [QQ, PrimeField(3), PrimeField(32003)]


def random_matrix(rng, ring, nrows, ncols, max_deg=2):
    """A matrix whose rank the generator does not control: rows may be
    zero, constant, combinations of earlier rows, or scaled by fractions."""
    field = ring.field
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(6 if rows else 4)
        if kind == 0:
            row = [ring.zero()] * ncols
        elif kind == 1:
            row = [ring.const(rng.randint(-3, 3)) for _ in range(ncols)]
        elif kind in (2, 3):
            row = [random_poly(rng, ring, max_deg, 3) for _ in range(ncols)]
        else:
            # a polynomial combination of two earlier rows
            a, b = rng.choice(rows), rng.choice(rows)
            u = random_poly(rng, ring, 1, 2)
            v = random_nonzero_poly(rng, ring, 1, 2)
            row = [u * x + v * y for x, y in zip(a, b)]
        if field == QQ and rng.random() < 0.3:
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 7))
            row = [x.scale(c) for x in row]
        rows.append(row)
    return rows


def test_poly_matrix_rank_matches_reference_random():
    rng = seeded(61)
    for field in FIELDS:
        for n in (1, 2, 3):
            ring = polyring.PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
            seen = set()
            for _ in range(60):
                nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
                rows = random_matrix(rng, ring, nrows, ncols)
                rank = poly_matrix_rank(rows)
                assert rank == reference_poly_matrix_rank(rows), (field, rows)
                seen.add(rank)
            assert {0, 1, 2, 3} <= seen, (field, n, seen)


def test_poly_matrix_rank_of_rank_deficient_products():
    # an outer product u v^T has rank 1 whatever its size
    rng = seeded(62)
    for field in FIELDS:
        ring = polyring.PolyRing(field, ("x1", "x2"))
        for size in (2, 3, 4):
            u = [random_nonzero_poly(rng, ring, 2, 3) for _ in range(size)]
            v = [random_nonzero_poly(rng, ring, 2, 3) for _ in range(size)]
            rows = [[a * b for b in v] for a in u]
            assert poly_matrix_rank(rows) == reference_poly_matrix_rank(rows) == 1
    assert poly_matrix_rank([]) == 0 and poly_matrix_rank([[]]) == 0


def reference_inputs(rng, field, ncols):
    vectors = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(4 if vectors else 2)
        if kind == 0:
            v = [field.zero()] * ncols
        elif kind == 1:
            v = [field.from_int(rng.randint(-3, 3)) for _ in range(ncols)]
        else:
            # dependent on two earlier vectors
            a, b = rng.choice(vectors), rng.choice(vectors)
            s, t = (field.from_int(rng.randint(-2, 2)) for _ in range(2))
            v = [s * x + t * y for x, y in zip(a, b)]
        vectors.append(v)
    return vectors


def test_independent_subset_matches_per_vector_scan():
    rng = seeded(63)
    for field in FIELDS:
        for _ in range(150):
            vectors = reference_inputs(rng, field, rng.randint(0, 4))
            expected = reference_independent_subset(vectors, field)
            assert independent_subset(vectors, field) == expected, vectors


# -- field elimination against the Gauss-Jordan reference -------------------

ELIMINATION_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(2**61 - 1)]


def random_entry(rng, field):
    if field == QQ:
        num = rng.randint(-9, 9) if rng.random() < 0.8 else rng.randint(-(10**12), 10**12)
        return Fraction(num, rng.randint(1, 6))
    return field.from_int(rng.randrange(field.characteristic))


def random_field_matrix(rng, field, nrows, ncols):
    """Sparse or dense rows, zero rows, rows combined from earlier ones and
    zero columns, so that the rank is often below min(nrows, ncols)."""
    density = rng.choice([0.2, 0.5, 1.0])
    zero = field.zero()
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(5 if rows else 3)
        if kind == 0:
            row = [zero] * ncols
        elif kind in (1, 2):
            row = [random_entry(rng, field) if rng.random() < density else zero
                   for _ in range(ncols)]
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = random_entry(rng, field), random_entry(rng, field)
            row = [s * x + t * y for x, y in zip(a, b)]
        rows.append(row)
    for c in range(ncols):
        if rng.random() < 0.15:
            for row in rows:
                row[c] = zero
    return rows


def apply(rows, x, field):
    return [sum((a * b for a, b in zip(row, x)), field.zero()) for row in rows]


def test_field_elimination_matches_gauss_jordan_reference():
    rng = seeded(65)
    for field in ELIMINATION_FIELDS:
        ranks, inconsistent = set(), 0
        for _ in range(120):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = random_field_matrix(rng, field, nrows, ncols)
            expected = reference_echelonize([list(r) for r in rows], field)
            assert linalg._eliminate(rows, field)[1] == expected, rows
            rank = field_rank(rows, field)
            assert rank == reference_field_rank(rows, field) == len(expected)
            ranks.add(rank)
            basis = field_nullspace(rows, ncols, field)
            assert basis == reference_field_nullspace(rows, ncols, field), rows
            assert len(basis) == ncols - rank
            for vec in basis:
                assert apply(rows, vec, field) == [field.zero()] * nrows
            x0 = [random_entry(rng, field) for _ in range(ncols)]
            random_rhs = [random_entry(rng, field) for _ in range(nrows)]
            for rhs in (apply(rows, x0, field), random_rhs):
                sol = field_solve(rows, rhs, field)
                assert sol == reference_field_solve(rows, rhs, field), (rows, rhs)
                if sol is None:
                    inconsistent += 1
                else:
                    assert apply(rows, sol, field) == rhs
            columns = [list(col) for col in zip(*rows)]
            assert independent_subset(columns, field) == expected
        assert {0, 1, 2, 3} <= ranks and inconsistent > 10, (field, ranks)


def test_field_elimination_of_empty_matrices():
    for field in ELIMINATION_FIELDS:
        zero, one = field.zero(), field.one()
        # no rows: every unknown is free
        assert field_rank([], field) == reference_field_rank([], field) == 0
        assert field_solve([], [], field) is reference_field_solve([], [], field) is None
        identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
        assert field_nullspace([], 3, field) == reference_field_nullspace([], 3, field)
        assert field_nullspace([], 3, field) == identity
        assert independent_subset([], field) == []
        # no columns: consistent exactly when the right-hand side is zero
        empty = [[], []]
        assert field_rank(empty, field) == reference_field_rank(empty, field) == 0
        assert field_solve(empty, [zero, zero], field) == []
        assert reference_field_solve(empty, [zero, zero], field) == []
        assert field_solve(empty, [zero, one], field) is None
        assert reference_field_solve(empty, [zero, one], field) is None
        assert field_nullspace(empty, 0, field) == []
        assert independent_subset([[], [], []], field) == []


def _determinant(rows):
    """The Leibniz expansion, one signed product per permutation."""
    ring = rows[0][0].ring
    total = ring.zero()
    for perm in itertools.permutations(range(len(rows))):
        term = ring.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        total = total - term if odd else total + term
    return total


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_bareiss_entries_are_minors(field):
    """Sylvester's identity: after k pivots every entry below them is a
    (k+1)-minor, so row k stays within degree (k+1)*deg and the last pivot
    of a nonsingular square matrix is its determinant, up to the sign of
    the row swaps.  Without the exact division by the previous pivot the
    entries keep the earlier pivots as factors."""
    rng = seeded(66)
    ring = polyring.PolyRing(field, ("x1", "x2", "x3"))

    def eliminate(K, work):
        rank = linalg._bareiss_rank(K, work)
        return rank, [[polyring._k_poly(ring, K.unpack(t)) for t in row] for row in work]

    for size in (2, 3, 4, 5):
        # integer coefficients: the kernel scales no row
        rows = [
            [random_nonzero_poly(rng, ring, 2, 3) for _ in range(size)]
            for _ in range(size)
        ]
        deg = max(p.total_degree() for row in rows for p in row)
        rank, work = polyring.on_kernel(rows, eliminate)
        det = _determinant(rows)
        assert not det.is_zero()
        assert rank == size == reference_poly_matrix_rank(rows)
        assert work[-1][-1] in (det, -det)
        for k, row in enumerate(work):
            assert all(p.total_degree() <= (k + 1) * deg for p in row[k:]), (size, k)


def test_kernel_identities_need_no_second_width(monkeypatch):
    """At the first slot width each identity packs once on these inputs;
    gcds (which may rerun wider) are not counted."""
    widths, in_gcd = [], []

    class Recording(polyring._Packing):
        __slots__ = ()

        def __init__(self, n, w, mod):
            if not in_gcd:
                widths.append(w)
            super().__init__(n, w, mod)

    def gcd(real):
        def counted(*args):
            in_gcd.append(True)
            try:
                return real(*args)
            finally:
                in_gcd.pop()

        return counted

    def once(fn, *args):
        widths.clear()
        result = fn(*args)
        assert len(widths) == 1, (fn.__name__, args, widths)
        return result

    rng = seeded(64)
    monkeypatch.setattr(polyring, "_Packing", Recording)
    for name in ("_prs_gcd", "_modular_gcd"):
        monkeypatch.setattr(polyring, name, gcd(getattr(polyring, name)))
    for field in (QQ, PrimeField(32003)):
        ring = polyring.PolyRing(field, ("x1", "x2", "x3"))
        for size in (3, 4, 5):
            # dense, nonconstant and of full rank in general: every Bareiss
            # step divides by a pivot of growing degree
            rows = [
                [random_nonzero_poly(rng, ring, 2, 3) for _ in range(size)]
                for _ in range(size)
            ]
            assert once(poly_matrix_rank, rows) == size
        for _ in range(30):
            once(poly_matrix_rank, random_matrix(rng, ring, 4, 4))
            h = random_square_map(rng, ring)
            once(_trace_conditions, h)
            w, g, p, q, fs, s = random_cond45_case(rng, ring)
            cleared = [eval_univar_at_ratio(f, p, q, s) for f in fs]
            once(first_mismatch, w, g, cleared, q**s)
            if field == QQ:
                once(trdeg_rank, h, True)
