"""Seeded input generators for the benchmark workloads.

Only the standard library and the independent oracle are used here, so the
inputs cannot depend on the code under test.  Every workload draws from a
fixed population: member ``i`` of workload ``w`` is generated from its own
``random.Random(f"{w}:{i}")``.  The run seed only chooses which members run
(see ``Workload.select``).  Polynomials are dicts from exponent tuples to ints.
"""

from __future__ import annotations

import random

import oracle

GF_P = 32003

# cli_mix fields: the rationals and word-size primes up to about 10^4;
# GF(p) root search tries every residue, so P sets the cost of regen-integral
CLI_FIELDS = ("q", "q", "fp:1009", "fp:4001", "fp:10007")


def member_rng(workload: str, index: int, salt: str = "") -> random.Random:
    return random.Random(f"{workload}:{index}{salt}")


# -- polynomial generators (same draws as tests/conftest.py) -------------------


def random_poly(rng, nvars, max_deg=3, n_terms=4, nonzero=False, mod=None):
    while True:
        terms = {}
        for _ in range(n_terms):
            e = [0] * nvars
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(nvars)] += 1
            c = rng.randint(-4, 4)
            if c:
                terms[tuple(e)] = terms.get(tuple(e), 0) + c
        p = oracle.clean(terms, mod)
        if not nonzero or p:
            return p


def random_homog_poly(rng, s, n_terms=3, nonzero=False, mod=None):
    """A homogeneous bivariate polynomial of degree s (possibly zero)."""
    while True:
        terms = {}
        for _ in range(n_terms):
            a = rng.randint(0, s)
            c = rng.randint(-3, 3)
            if c:
                terms[(a, s - a)] = terms.get((a, s - a), 0) + c
        p = oracle.clean(terms, mod)
        if not nonzero or p:
            return p


def is_constant(p: dict) -> bool:
    return all(not any(e) for e in p)


def random_coprime_pair(rng, cert_rng, nvars, max_deg=3, n_terms=3, mod=None):
    """A pair with unit gcd, not both constant; coprimality by the oracle."""
    while True:
        p = random_poly(rng, nvars, max_deg, n_terms, mod=mod)
        q = random_poly(rng, nvars, max_deg, n_terms, mod=mod)
        if not p and not q:
            continue
        if is_constant(p) and is_constant(q):
            continue
        if oracle.certify_constant_gcd([p, q], cert_rng, mod):
            return p, q


# -- gcd_subst_qq / gcd_subst_fp ----------------------------------------------
#
# The criterion-02 distribution: a homogeneous bivariate tuple (1 to 3
# components of degree 1 to 3) at a random coprime pair (p, q) of degree at
# most 4.  Most results are units; the hard coprime inputs form a heavy tail
# that holds most of the time, so a gcd change shows here first.


def gcd_subst_member(index: int, mod):
    rng = member_rng("gcd_subst", index)
    cert_rng = member_rng("gcd_subst", index, ":cert")
    while True:
        m = rng.randint(1, 3)
        s = rng.randint(1, 3)
        hs = [random_homog_poly(rng, s, 3, mod=mod) for _ in range(m)]
        if not any(hs):
            continue
        p, q = random_coprime_pair(rng, cert_rng, 2, 4, mod=mod)
        return {"h": hs, "p": p, "q": q}


# -- classify -----------------------------------------------------------------
#
# The criterion-08 distribution: cond4 template maps H = (0, 0, g*f3(p/q)) in
# three variables over the rationals, each with its witness.  A fifth of the
# maps carry a planted wrong witness f3 + 1, which must be rejected.  The time
# goes to trdeg_rank (RatFunc normalisation inside the Jacobian, Bareiss
# rank) and to the trace identity.

WRONG_WITNESS_SHARE = 0.2


def classify_member(index: int):
    rng = member_rng("classify", index)
    while True:
        p = random_poly(rng, 3, 2, 3)
        q = random_poly(rng, 3, 2, 3)
        p = {e: c for e, c in p.items() if e[2] == 0}
        q = {e: c for e, c in q.items() if e[2] == 0}
        if not q:
            continue
        f3 = random_poly(rng, 1, 2, 2, nonzero=True)
        g_num = random_poly(rng, 3, 2, 2)
        g_den = random_poly(rng, 3, 2, 2, nonzero=True)
        if not g_num:
            continue
        s = max(sum(e) for e in f3)
        fpq3 = oracle.compose_univariate_at_ratio(f3, p, q, s, 3, None)
        if not fpq3:
            continue
        num = oracle.mul(g_num, fpq3, None)
        den = oracle.mul(g_den, oracle.power(q, s, 3, None), None)
        wrong = rng.random() < WRONG_WITNESS_SHARE
        f_witness = oracle.add(f3, {(0,): 1}, None) if wrong else f3
        return {
            "h_num": num,
            "h_den": den,
            "g_num": g_num,
            "g_den": g_den,
            "p": p,
            "q": q,
            "f3": f_witness,
            "wrong": wrong,
        }


# -- cli_mix --------------------------------------------------------------------
#
# README subcommands run in-process on larger generated inputs, over q and
# fp:P.  Each call pays argparse set-up, parsing and elaboration, then the
# decision procedure: field elimination (mobius-equiv, unit-combo, enother,
# member-kpq, luroth-gen), integrality and root search (regen-integral,
# pqtrans, valuation), the trace identity (qt-check, gn-classify, span-bound).
# gcd is a small share here, so a gcd change should leave it unchanged.
# A few inputs are planted to fail: exit 2 for text that does not parse and
# exit 1 for a violated precondition.

PLANTED_PARSE_SHARE = 0.05
PLANTED_PRECONDITION_SHARE = 0.05


def _monomial(names, e) -> str:
    parts = []
    for name, k in zip(names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def to_text(p: dict, names, mod=None) -> str:
    """Canonical text: terms by descending graded lex order, residues over GF(p)."""
    p = oracle.clean(p, mod)
    if not p:
        return "0"
    chunks = []
    for e in sorted(p, key=oracle.grlex, reverse=True):
        c = p[e]
        mono = _monomial(names, e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


X2 = ("x1", "x2")
X3 = ("x1", "x2", "x3")
Y1 = ("y1",)
Y12 = ("y1", "y2")


def _field_mod(flag: str):
    return int(flag[3:]) if flag.startswith("fp:") else None


def _rational_map(rng, nvars, mod, comps, deg):
    names = X2 if nvars == 2 else X3
    out = []
    for _ in range(comps):
        num = random_poly(rng, nvars, deg, 4, mod=mod)
        den = random_poly(rng, nvars, deg - 1, 2, nonzero=True, mod=mod)
        out.append(f"({to_text(num, names, mod)})/({to_text(den, names, mod)})")
    return "(" + ", ".join(out) + ")"


def _tuple(polys, names, mod):
    return "(" + ", ".join(to_text(c, names, mod) for c in polys) + ")"


def _nonconstant_coprime_pair(rng, cert_rng, mod):
    while True:
        p, q = random_coprime_pair(rng, cert_rng, 2, 3, 4, mod=mod)
        if q and not is_constant(p) and not is_constant(q):
            return p, q


def _nonconstant(rng, mod):
    while True:
        p = random_poly(rng, 2, 3, 4, nonzero=True, mod=mod)
        if not is_constant(p):
            return p


def _cond4_map(rng, mod):
    """(0, 0, q^s f(p/q)) over (x1, x2, x3): JH.H = tr JH.H holds by theorem."""
    while True:
        p = random_poly(rng, 2, 2, 3, mod=mod)
        q = random_poly(rng, 2, 2, 3, nonzero=True, mod=mod)
        f = random_poly(rng, 1, 3, 3, nonzero=True, mod=mod)
        s = max(sum(e) for e in f)
        comp = oracle.compose_univariate_at_ratio(f, p, q, s, 2, mod)
        if comp:
            return f"(0, 0, {to_text(comp, X2, mod)})"


def _pair_g(rng, mod, f2_roots):
    """'f1;f2' with f2 = u * prod (y1 - r) and f1 of lower degree."""
    f2 = random_poly(rng, 1, 1, 2, nonzero=True, mod=mod)
    for r in f2_roots:
        f2 = oracle.mul(f2, {(1,): 1, (0,): -r}, mod)
    d2 = max(e[0] for e in f2)
    f1 = random_poly(rng, 1, max(d2 - 1, 0), 3, nonzero=True, mod=mod)
    return f"{to_text(f1, Y1, mod)};{to_text(f2, Y1, mod)}"


# Each kind returns (expressions, options, expected JSON values).  The
# expected values follow from how the input was built.


def _cmd_gcd(rng, cert_rng, mod):
    common = random_poly(rng, 2, 3, 3, nonzero=True, mod=mod)
    parts = [oracle.mul(common, random_poly(rng, 2, 3, 4, nonzero=True, mod=mod), mod) for _ in range(3)]
    return [_tuple(parts, X2, mod)], [], {}


def _cmd_primpart(rng, cert_rng, mod):
    return [_rational_map(rng, 2, mod, 3, 3)], [], {}


def _cmd_trdeg(rng, cert_rng, mod):
    return [_rational_map(rng, 2, mod, 3, 2)], ["--with-t"], {}


def _cmd_qt_check(rng, cert_rng, mod):
    return [_cond4_map(rng, mod)], [], {"qt_condition": True}


def _cmd_gn_classify(rng, cert_rng, mod):
    return [_cond4_map(rng, mod)], [], {"qt_condition": True}


def _cmd_span_bound(rng, cert_rng, mod):
    return [_cond4_map(rng, mod)], [], {}


def _cmd_gcd_subst(rng, cert_rng, mod):
    s = rng.randint(2, 3)
    hs = [random_homog_poly(rng, s, 3, nonzero=True, mod=mod) for _ in range(2)]
    p, q = random_coprime_pair(rng, cert_rng, 2, 3, mod=mod)
    exprs = [_tuple(hs, Y12, mod), to_text(p, X2, mod), to_text(q, X2, mod)]
    return exprs, ["--mode=homog"], {}


def _cmd_mobius_equiv(rng, cert_rng, mod):
    # (p*, q*) = T (p, q) for an invertible T: equivalent by construction
    p, q = _nonconstant_coprime_pair(rng, cert_rng, mod)
    while True:
        t = [rng.randint(-4, 4) for _ in range(4)]
        if oracle.norm(t[0] * t[3] - t[1] * t[2], mod):
            break
    pstar = oracle.add({e: t[0] * c for e, c in p.items()}, {e: t[1] * c for e, c in q.items()}, mod)
    qstar = oracle.add({e: t[2] * c for e, c in p.items()}, {e: t[3] * c for e, c in q.items()}, mod)
    return [to_text(v, X2, mod) for v in (p, q, pstar, qstar)], [], {"equivalent": True}


def _unit_pair(rng, mod):
    # q = 1 - lam*p, so lam*p + q = 1
    p = _nonconstant(rng, mod)
    lam = rng.randint(1, 4)
    q = oracle.add({(0, 0): 1}, {e: lam * c for e, c in p.items()}, mod, sign=-1)
    return [to_text(p, X2, mod), to_text(q, X2, mod)]


def _cmd_unit_combo(rng, cert_rng, mod):
    return _unit_pair(rng, mod), [], {"exists": True}


def _cmd_enother(rng, cert_rng, mod):
    return _unit_pair(rng, mod), [], {"has_unit_combo": True}


def _cmd_member_kpq(rng, cert_rng, mod):
    # r = f1(p/q) / f2(p/q) with deg f1, f2 <= 2 lies in K(p/q) within bound 2
    p, q = _nonconstant_coprime_pair(rng, cert_rng, mod)
    f1 = random_poly(rng, 1, 2, 2, nonzero=True, mod=mod)
    f2 = random_poly(rng, 1, 2, 2, nonzero=True, mod=mod)
    num = oracle.compose_univariate_at_ratio(f1, p, q, 2, 2, mod)
    den = oracle.compose_univariate_at_ratio(f2, p, q, 2, 2, mod)
    r = f"({to_text(num, X2, mod)})/({to_text(den, X2, mod)})"
    return [r, to_text(p, X2, mod), to_text(q, X2, mod)], ["--bound=2"], {"found": True}


def _cmd_luroth_gen(rng, cert_rng, mod):
    rs = []
    for _ in range(2):
        den = random_poly(rng, 1, 2, 2, nonzero=True, mod=mod)
        # a numerator of higher degree than the denominator keeps r nonconstant
        num = random_poly(rng, 1, 3, 3, mod=mod)
        num = oracle.add(num, {(max(e[0] for e in den) + 1,): 1}, mod)
        rs.append(f"({to_text(num, ('x1',), mod)})/({to_text(den, ('x1',), mod)})")
    return rs, [], {}


def _cmd_valuation(rng, cert_rng, mod):
    # f = (y1 - theta)^k * u with u(theta) != 0 vanishes to order k at theta
    theta = rng.randint(-5, 5)
    k = rng.randint(1, 4)
    while True:
        u = random_poly(rng, 1, 4, 4, nonzero=True, mod=mod)
        if oracle.norm(sum(c * theta ** e[0] for e, c in u.items()), mod):
            break
    for _ in range(k):
        u = oracle.mul(u, {(1,): 1, (0,): -theta}, mod)
    return [to_text(u, Y1, mod)], [f"--theta={theta}"], {"valuation": k}


def _cmd_integral(rng, cert_rng, mod):
    # integral iff deg f1 > deg f2; cancelling a common factor keeps the order
    p, q = _nonconstant_coprime_pair(rng, cert_rng, mod)
    f1 = random_poly(rng, 1, 3, 3, nonzero=True, mod=mod)
    f2 = random_poly(rng, 1, 3, 3, nonzero=True, mod=mod)
    d1 = max(e[0] for e in f1)
    d2 = max(e[0] for e in f2)
    if d1 == d2:
        # unequal degrees keep the reduced pair from collapsing to constants
        f1 = oracle.mul(f1, {(1,): 1}, mod)
        d1 += 1
    g = f"--g={to_text(f1, Y1, mod)};{to_text(f2, Y1, mod)}"
    return [to_text(p, X2, mod), to_text(q, X2, mod)], [g], {"integral": d1 > d2}


def _cmd_regen_integral(rng, cert_rng, mod):
    p, q = _nonconstant_coprime_pair(rng, cert_rng, mod)
    g = _pair_g(rng, mod, [rng.randint(-9, 9) for _ in range(rng.randint(1, 2))])
    return [to_text(p, X2, mod), to_text(q, X2, mod)], [f"--g={g}"], {}


def _cmd_pqtrans(rng, cert_rng, mod):
    p, q = _nonconstant_coprime_pair(rng, cert_rng, mod)
    options = [f"--g={_pair_g(rng, mod, [rng.randint(-9, 9)])}"]
    if rng.random() < 0.5:
        options += ["--mode=shift", f"--eps={rng.randint(-5, 5)}"]
    else:
        options += ["--mode=invert", f"--theta={rng.randint(-5, 5)}", f"--eps={rng.randint(0, 3)}"]
    return [to_text(p, X2, mod), to_text(q, X2, mod)], options, {}


CLI_KINDS = {
    "gcd": _cmd_gcd,
    "primpart": _cmd_primpart,
    "trdeg": _cmd_trdeg,
    "qt-check": _cmd_qt_check,
    "gcd-subst": _cmd_gcd_subst,
    "mobius-equiv": _cmd_mobius_equiv,
    "unit-combo": _cmd_unit_combo,
    "enother": _cmd_enother,
    "member-kpq": _cmd_member_kpq,
    "luroth-gen": _cmd_luroth_gen,
    "valuation": _cmd_valuation,
    "integral": _cmd_integral,
    "regen-integral": _cmd_regen_integral,
    "pqtrans": _cmd_pqtrans,
    "gn-classify": _cmd_gn_classify,
    "span-bound": _cmd_span_bound,
}

# Jacobian-rank trdeg, and the classifier's trdeg precondition behind it,
# are defined only in characteristic zero
QQ_ONLY = {"trdeg", "gn-classify", "span-bound", "primpart"}

# texts that fail to parse (exit 2)
PARSE_ERRORS = ("(x1 +* x2)", "2x1 + x2", "(x1, x2", "x1 ^ -2", "x1 / (x2 - x2)")


def _planted_precondition(rng, mod):
    """A subcommand and input that violate a precondition (exit 1)."""
    command = rng.choice(("gcd", "unit-combo", "gcd-subst"))
    if command == "gcd":
        return command, ["(0, 0, 0)"], []
    common = _nonconstant(rng, mod)
    p = oracle.mul(common, random_poly(rng, 2, 2, 3, nonzero=True, mod=mod), mod)
    q = oracle.mul(common, random_poly(rng, 2, 2, 3, nonzero=True, mod=mod), mod)
    exprs = [to_text(p, X2, mod), to_text(q, X2, mod)]
    if command == "unit-combo":
        return command, exprs, []
    return command, ["(y1^2, y1*y2)"] + exprs, ["--mode=homog"]


def cli_member(index: int):
    """argv for one call, its expected exit code and expected JSON values.

    Options come before "--" and expressions after it, so that a canonical
    text starting with a minus sign is never read as an option.
    """
    rng = member_rng("cli_mix", index)
    cert_rng = member_rng("cli_mix", index, ":cert")
    kinds = sorted(CLI_KINDS)
    command = kinds[index % len(kinds)]
    flag = "q" if command in QQ_ONLY else rng.choice(CLI_FIELDS)
    mod = _field_mod(flag)
    draw = rng.random()
    expect = {}
    if draw < PLANTED_PARSE_SHARE:
        command = rng.choice(("gcd", "primpart", "qt-check"))
        exprs, options, code = [rng.choice(PARSE_ERRORS)], [], 2
    elif draw < PLANTED_PARSE_SHARE + PLANTED_PRECONDITION_SHARE:
        command, exprs, options = _planted_precondition(rng, mod)
        code = 1
    else:
        exprs, options, expect = CLI_KINDS[command](rng, cert_rng, mod)
        code = 0
    argv = [command] + options + ["--field", flag, "--json", "--"] + exprs
    return {"argv": argv, "exit": code, "expect": expect}
