"""Reference polynomial algebra for the differential tests.

Nothing here imports ratmaps (a tier-1 test parses this file to hold it
to that), so a fault in a library routine cannot show on both sides of a
differential test.  A polynomial is a dict from exponent tuples to nonzero
coefficients, and ``mod`` is the field's characteristic: 0 for the
rationals (ints or Fractions), a prime p for GF(p) with residues kept in
0..p-1.  Every routine is written from its definition, for clarity rather
than speed: products term by term, substitution over one common
denominator, the trace identity as the sum that defines it, and rank as
the size of the largest nonzero minor.

Library values cross as plain dicts: {e: getattr(c, "v", c)} of a Poly's
terms, and K.unpack of packed kernel values.
"""

from fractions import Fraction
from itertools import combinations


def norm(c, mod):
    return c % mod if mod else c


def inverse(c, mod):
    return pow(c, -1, mod) if mod else 1 / Fraction(c)


def clean(t: dict, mod) -> dict:
    return {e: v for e, c in t.items() if (v := norm(c, mod))}


def one(nvars: int) -> dict:
    return {(0,) * nvars: 1}


def add(a: dict, b: dict, mod, sign=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return clean(out, mod)


def sub(a: dict, b: dict, mod) -> dict:
    return add(a, b, mod, -1)


def scale(a: dict, c, mod) -> dict:
    return clean({e: c * v for e, v in a.items()}, mod)


def mul(a: dict, b: dict, mod) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return clean(out, mod)


def total(ts, mod) -> dict:
    out = {}
    for t in ts:
        out = add(out, t, mod)
    return out


def dot(us, vs, mod) -> dict:
    """sum_i us[i] * vs[i]."""
    return total((mul(u, v, mod) for u, v in zip(us, vs)), mod)


def power(a: dict, k: int, nvars: int, mod) -> dict:
    out = one(nvars)
    for _ in range(k):
        out = mul(out, a, mod)
    return out


def derivative(a: dict, j: int, mod) -> dict:
    """d/dx_j, term by term: c x^e goes to e_j c x^(e - unit_j)."""
    return clean({e[:j] + (e[j] - 1,) + e[j + 1 :]: e[j] * c for e, c in a.items() if e[j]}, mod)


def divexact(a: dict, b: dict, mod) -> dict:
    """The quotient a / b by long division on grlex leading terms;
    ValueError unless b divides a."""

    def grlex(e):
        return sum(e), e

    eb = max(b, key=grlex)
    inv = inverse(b[eb], mod)
    rem, quot = dict(a), {}
    while rem:
        er = max(rem, key=grlex)
        e = tuple(x - y for x, y in zip(er, eb))
        if min(e) < 0:
            raise ValueError("not divisible")
        quot[e] = c = norm(rem[er] * inv, mod)
        rem = sub(rem, mul({e: c}, b, mod), mod)
    return quot


def substitute(a: dict, nums, dens, maxes, nvars: int, mod) -> dict:
    """sum_e c_e prod_i n_i^e_i d_i^(M_i - e_i) for a = sum_e c_e y^e: a at
    y_i = n_i / d_i times prod_i d_i^M_i, where M_i = maxes[i] bounds every
    e_i.  A d_i of None stands for 1, and its M_i is not read."""
    tables = {}

    def pw(t, k):
        tab = tables.setdefault(id(t), [one(nvars)])
        while len(tab) <= k:
            tab.append(mul(tab[-1], t, mod))
        return tab[k]

    out = {}
    for e, c in a.items():
        term = {(0,) * nvars: c}
        for i, k in enumerate(e):
            term = mul(term, pw(nums[i], k), mod)
            if dens[i] is not None:
                term = mul(term, pw(dens[i], maxes[i] - k), mod)
        out = add(out, term, mod)
    return out


def jacobian_rows(d: dict, nums, nvars: int, mod) -> list:
    """Row k is d grad N_k - N_k grad d: d^2 times the gradient of N_k / d
    by the quotient rule."""
    grad_d = [derivative(d, i, mod) for i in range(nvars)]

    def entry(nk, i):
        return sub(mul(d, derivative(nk, i, mod), mod), mul(nk, grad_d[i], mod), mod)

    return [[entry(nk, i) for i in range(nvars)] for nk in nums]


def trace_sides(d: dict, nums, mod):
    """(JH . H = tr JH . H, JH . H = 0) for H = N / d in n = len(N) variables.

    PAPER.md's identity sum_i H_i dH_k/dx_i = sum_i H_k dH_i/dx_i, times
    d^3: with m the rows above, sum_i N_i m_ki = N_k sum_i m_ii for all k.
    """
    m = jacobian_rows(d, nums, len(nums), mod)
    trace = total((row[i] for i, row in enumerate(m)), mod)
    lhs = [dot(nums, row, mod) for row in m]
    return all(s == mul(nk, trace, mod) for s, nk in zip(lhs, nums)), not any(lhs)


def nilpotent(m, mod) -> bool:
    """Whether m^n = 0 for the n x n polynomial matrix m: False on a
    nonzero trace (a nilpotent matrix has trace 0), True on a zero power."""
    if total((row[i] for i, row in enumerate(m)), mod):
        return False
    cols = list(zip(*m))
    power_k = m
    for _ in range(len(m) - 1):
        if not any(any(row) for row in power_k):
            return True
        power_k = [[dot(row, col, mod) for col in cols] for row in power_k]
    return not any(any(row) for row in power_k)


def rank(rows, mod) -> int:
    """The size of the largest nonzero minor of a polynomial matrix: r grows
    while some (r + 1)-minor is nonzero.  A minor is a determinant expanded
    along its first row, fraction free; sub-minors are shared."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    memo = {}

    def minor(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        if (rs, cs) not in memo:
            out = {}
            for j, c in enumerate(cs):
                if rows[rs[0]][c]:
                    rest = minor(rs[1:], cs[:j] + cs[j + 1 :])
                    out = add(out, mul(rows[rs[0]][c], rest, mod), mod, (-1) ** j)
            memo[rs, cs] = out
        return memo[rs, cs]

    r = 0
    while r < min(nrows, ncols) and any(
        minor(rs, cs)
        for rs in combinations(range(nrows), r + 1)
        for cs in combinations(range(ncols), r + 1)
    ):
        r += 1
    return r


def coefficient_rows(polys) -> list:
    """The matrix whose column j holds the coefficients of polys[j], one
    row per monomial."""
    monos = sorted({e for t in polys for e in t})
    return [[t.get(e, 0) for t in polys] for e in monos]


def nullspace(rows, ncols: int, mod) -> list:
    """A basis of {v : rows . v = 0}: one vector per free column of the
    reduced row echelon form, 1 there and minus that column's entries at
    the pivots (Gauss-Jordan over the field)."""
    work, pivots = [list(r) for r in rows], []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(work)) if work[i][c]), None)
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        inv = inverse(work[r][c], mod)
        work[r] = [norm(v * inv, mod) for v in work[r]]
        for j, row in enumerate(work):
            if j != r and row[c]:
                f = row[c]
                work[j] = [norm(a - f * b, mod) for a, b in zip(row, work[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, c in enumerate(pivots):
            v[c] = norm(-work[r][fc], mod)
        basis.append(v)
    return basis
