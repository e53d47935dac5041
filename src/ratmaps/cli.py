"""Command-line front end: every decision procedure, text or JSON output.

Exit codes: 0 when the decision was computed (whatever the verdict),
1 for a precondition violation, 2 for a parse error, 3 for an internal
assertion, meaning a theorem-backed identity failed and the result cannot
be trusted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gordan_noether as gn
from . import homog, integrality, subfield
from .errors import InternalCheckError, NotPrime, ParseError, PreconditionError
from .expressions import (
    TupleExpr,
    elaborate,
    elaborate_map,
    elaborate_poly,
    elaborate_poly_tuple,
    parse,
    parse_scalar,
    x_ring_for,
)
from .fields import QQ, PrimeField
from .polyring import (
    PolyRing,
    RatMap,
    gcd_many,
    jacobian,
    primitive_part,
)


def _field_from_flag(text: str):
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            return PrimeField(int(text[3:]))
        except NotPrime as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown field {text!r} (use q or fp:P)")


def _exprs(args, expected=None):
    texts = list(args.exprs)
    if args.infile:
        with open(args.infile) as fh:
            texts.extend(line.strip() for line in fh if line.strip())
    if expected is not None and len(texts) != expected:
        raise ParseError(f"expected {expected} expression(s), got {len(texts)}", 0)
    if not texts:
        raise ParseError("no input expressions", 0)
    return texts


def _x_context(args, texts, minimum=1):
    trees = [parse(t) for t in texts]
    ring = x_ring_for(trees, args.field, minimum)
    return trees, ring


def _x_polys(args, texts) -> list:
    """The polynomials of texts, over the x ring they share."""
    trees, ring = _x_context(args, texts)
    return [elaborate_poly(t, ring) for t in trees]


def _x_map(args) -> RatMap:
    """The one map argument, over the x ring it names."""
    trees, ring = _x_context(args, _exprs(args, 1))
    return elaborate_map(trees[0], ring)


def _square_ring(args, tree, others=()) -> PolyRing:
    """The x ring of tree and others, padded so that the map tree is square.

    A tuple with more components than named variables gets dummy trailing
    variables absent from every component, so that tuples like the
    three-component core over (x1, x2) keep the square-map interface.
    """
    m = len(tree.items) if isinstance(tree, TupleExpr) else 1
    return x_ring_for([tree, *others], args.field, minimum=m)


def _square_map(args, text: str) -> RatMap:
    tree = parse(text)
    return elaborate_map(tree, _square_ring(args, tree))


def _reduced_pair(text: str, args) -> integrality.ReducedPair:
    parts = text.split(";")
    if len(parts) != 2:
        raise ParseError("--g expects 'f1;f2'", 0)
    ring = homog.uni_ring(args.field)
    f1 = elaborate_poly(parse(parts[0]), ring)
    f2 = elaborate_poly(parse(parts[1]), ring)
    return integrality.ReducedPair(f1, f2)


# -- handlers -----------------------------------------------------------------


def cmd_gcd(args):
    trees, ring = _x_context(args, _exprs(args))
    polys = []
    for t in trees:
        polys.extend(elaborate_poly_tuple(t, ring))
    return {"gcd": str(gcd_many(polys))}


def cmd_primpart(args):
    g, core = primitive_part(_x_map(args))
    return {"g": str(g), "core": [str(c) for c in core]}


def cmd_jacobian(args):
    return {"jacobian": [[str(e) for e in row] for row in jacobian(_x_map(args))]}


def cmd_homogenize(args):
    ring = homog.uni_ring(args.field)
    polys = elaborate_poly_tuple(parse(_exprs(args, 1)[0]), ring)
    degs = [int(p.total_degree()) for p in polys if not p.is_zero()]
    s = args.s if args.s is not None else (max(degs) if degs else 0)
    f = homog.UniTuple(polys, s)
    h = homog.homogenize(f)
    return {"h": [str(p) for p in h.polys], "s": h.degree}


def _homog_tuple(text: str, args, what: str) -> homog.HomogTuple:
    """The bivariate tuple of text, homogeneous of one degree: a ParseError
    about what otherwise."""
    polys = elaborate_poly_tuple(parse(text), homog.bi_ring(args.field))
    degs = {int(p.total_degree()) for p in polys if not p.is_zero()}
    if len(degs) != 1:
        raise ParseError(f"{what} must be homogeneous of one degree", 0)
    return homog.HomogTuple(polys, degs.pop())


def cmd_dehomogenize(args):
    f = homog.dehomogenize(_homog_tuple(_exprs(args, 1)[0], args, "components"))
    return {"f": [str(p) for p in f.polys], "bound": f.bound}


def cmd_divisor_transport(args):
    text = _exprs(args, 1)[0]
    if args.inverse:
        ring = homog.bi_ring(args.field)
        g = elaborate_poly(parse(text), ring)
        return {"result": str(homog.divisor_transport_inverse(g))}
    ring = homog.uni_ring(args.field)
    g = elaborate_poly(parse(text), ring)
    return {"result": str(homog.divisor_transport(g))}


def cmd_trdeg(args):
    h = _x_map(args)
    if args.field.characteristic == 0:
        return {"trdeg": subfield.trdeg_rank(h, with_t=args.with_t), "certified": True}
    search = subfield.trdeg_bounded_dependence(h, args.with_t, args.bound)
    return {"trdeg": search.value, "certified": False, "note": search.note}


def cmd_gcd_subst(args):
    texts = _exprs(args)
    if args.mode == "uni":
        if len(texts) != 2:
            raise ParseError("gcd-subst uni expects FTUPLE and P", 0)
        fs = elaborate_poly_tuple(parse(texts[0]), homog.uni_ring(args.field))
        (p,) = _x_polys(args, texts[1:])
        return {"gcd_substituted": str(subfield.gcd_subst_uni(fs, p))}
    if len(texts) != 3:
        raise ParseError("gcd-subst homog expects HTUPLE, P and Q", 0)
    hs = elaborate_poly_tuple(parse(texts[0]), homog.bi_ring(args.field))
    p, q = _x_polys(args, texts[1:])
    return {"gcd_substituted": str(subfield.gcd_subst_homog(hs, p, q))}


def cmd_mobius_equiv(args):
    p, q, ps, qs = _x_polys(args, _exprs(args, 4))
    t = subfield.mobius_equiv(p, q, ps, qs)
    if t is None:
        return {"equivalent": False, "matrix": None}
    return {
        "equivalent": True,
        "matrix": [[str(t.t11), str(t.t12)], [str(t.t21), str(t.t22)]],
    }


def cmd_unit_combo(args):
    p, q = _x_polys(args, _exprs(args, 2))
    combo = subfield.unit_combination(p, q)
    if combo is None:
        return {"exists": False}
    return {"exists": True, "lambda": str(combo[0]), "mu": str(combo[1])}


def cmd_enother(args):
    p, q = _x_polys(args, _exprs(args, 2))
    return subfield.enother_chain(p, q).to_dict()


def cmd_member_kp(args):
    r, p = _x_polys(args, _exprs(args, 2))
    f = subfield.member_Kp(r, p)
    if f is None:
        return {"member": False}
    return {"member": True, "witness": str(f)}


def cmd_member_kpq(args):
    trees, ring = _x_context(args, _exprs(args, 3))
    r = elaborate(trees[0], ring)
    p = elaborate_poly(trees[1], ring)
    q = elaborate_poly(trees[2], ring)
    out = subfield.member_Kpq(r, p, q, args.bound)
    if out is None:
        return {"found": False, "bound": args.bound}
    return {"found": True, "f1": str(out[0]), "f2": str(out[1]), "bound": args.bound}


def cmd_luroth_gen(args):
    texts = _exprs(args)
    ring = PolyRing(args.field, ("x1",))
    rs = [elaborate(parse(t), ring) for t in texts]
    p, q = subfield.luroth_generator_1var(rs)
    return {"p": str(p), "q": str(q)}


def _load_witness_file(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"witness file is not JSON: {exc.msg}", exc.pos) from None


def _witness_text(entry, key: str, default=None) -> str:
    """The string entry[key] of a witness object; a ParseError otherwise."""
    if not isinstance(entry, dict):
        raise ParseError("a witness entry must be a JSON object", 0)
    value = entry.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"witness entry needs a string {key!r}", 0)
    return value


def cmd_hmgrk2_verify(args):
    h_tree = parse(_exprs(args, 1)[0])
    data = _load_witness_file(args.witness)
    xtrees = [h_tree] + [parse(_witness_text(data, k)) for k in ("p", "q", "g")]
    ring = x_ring_for(xtrees, args.field)
    h_map = elaborate_map(h_tree, ring)
    p = elaborate_poly(xtrees[1], ring)
    q = elaborate_poly(xtrees[2], ring)
    g = elaborate(xtrees[3], ring)
    h_text = _witness_text(data, "h", "0")
    h_tuple = None if h_text.strip() == "0" else _homog_tuple(h_text, args, "witness h")
    w = subfield.LurothWitness(g, h_tuple, p, q)
    return subfield.hmgrk2_verify(h_map, w).to_dict()


def cmd_valuation(args):
    ring = homog.uni_ring(args.field)
    g = elaborate_poly(parse(_exprs(args, 1)[0]), ring)
    if args.theta == "inf":
        point = integrality.ProjPoint.infinity()
    else:
        point = integrality.ProjPoint.finite(parse_scalar(args.theta, args.field))
    v = integrality.valuation(g, point)
    return {"valuation": "inf" if v == float("inf") else int(v)}


def cmd_integral(args):
    p, q = _x_polys(args, _exprs(args, 2))
    g = _reduced_pair(args.g, args)
    res = integrality.integral_over_Kg(p, q, g)
    return res.to_dict()


def cmd_integral_set(args):
    p, q = _x_polys(args, _exprs(args, 2))
    gs = [_reduced_pair(g, args) for g in args.g]
    idx = integrality.integral_over_KG(p, q, gs)
    return {"index": idx, "found": idx is not None}


def cmd_regen_integral(args):
    p, q = _x_polys(args, _exprs(args, 2))
    g = _reduced_pair(args.g, args)
    out = integrality.regenerate_integral(p, q, g)
    if out is None:
        return {"found": False}
    return {"found": True, "pstar": str(out[0]), "qstar": str(out[1])}


def cmd_pqtrans(args):
    p, q = _x_polys(args, _exprs(args, 2))
    g = _reduced_pair(args.g, args)
    eps = parse_scalar(args.eps, args.field) if args.eps is not None else None
    theta = parse_scalar(args.theta, args.field) if args.theta is not None else None
    ps, qs, gs = integrality.pqtrans(p, q, g, args.mode, eps=eps, theta=theta)
    return {
        "pstar": str(ps),
        "qstar": str(qs),
        "f1star": str(gs.f1),
        "f2star": str(gs.f2),
    }


def cmd_qt_check(args):
    # both verdicts from one clearing of H
    qt, zero = gn._trace_conditions(_square_map(args, _exprs(args, 1)[0]))
    return {"qt_condition": qt, "jh_dot_h_zero": zero}


def cmd_gn_classify(args):
    h_tree = parse(_exprs(args, 1)[0])
    entries = []
    if args.witness:
        data = _load_witness_file(args.witness)
        entries = data if isinstance(data, list) else [data]
    xtrees = []
    parsed = []
    for entry in entries:
        trio = tuple(parse(_witness_text(entry, k)) for k in ("p", "q", "g"))
        parsed.append((_witness_text(entry, "kind"), trio))
        xtrees.extend(trio)
    ring = _square_ring(args, h_tree, xtrees)
    h = elaborate_map(h_tree, ring)
    witnesses = []
    for entry, (kind, (pt, qt, gt)) in zip(entries, parsed):
        p = elaborate_poly(pt, ring)
        q = elaborate_poly(qt, ring)
        g = elaborate(gt, ring)
        h_tuple = f_tuple = None
        if kind == "cond3":
            h_tuple = _parse_h_tuple(_witness_text(entry, "h", "0"), args)
        elif kind in ("cond4", "cond5"):
            yring = homog.uni_ring(args.field)
            f_tuple = elaborate_poly_tuple(parse(_witness_text(entry, "f")), yring)
        witnesses.append(gn.GNWitness(kind, g, p, q, h=h_tuple, f=f_tuple))
    return gn.gn_classify(h, witnesses).to_dict()


def cmd_translation_check(args):
    h = _square_map(args, _exprs(args, 1)[0])
    return {"invariant": gn.translation_invariance(h)}


def cmd_nilpotent_check(args):
    h = _square_map(args, _exprs(args, 1)[0])
    return {"nilpotent": gn.nilpotent_jacobian(h)}


def cmd_bivariate_core(args):
    tree = parse(_exprs(args, 1)[0])
    core = elaborate_poly_tuple(tree, _square_ring(args, tree))
    return {"zero": gn.bivariate_core_check(core)}


def cmd_span_bound(args):
    h = _square_map(args, _exprs(args, 1)[0])
    return gn.constant_span_bound(h).to_dict()


# -- wiring -------------------------------------------------------------------

_COMMANDS = [
    ("gcd", cmd_gcd, "gcd of a tuple of polynomials"),
    ("primpart", cmd_primpart, "primitive part decomposition H = g*core"),
    ("jacobian", cmd_jacobian, "Jacobian matrix of a rational map"),
    ("homogenize", cmd_homogenize, "y2^s f(y1/y2) for a univariate tuple"),
    ("dehomogenize", cmd_dehomogenize, "h(y1, 1) for a homogeneous tuple"),
    ("divisor-transport", cmd_divisor_transport, "transport a divisor across homogenization"),
    ("trdeg", cmd_trdeg, "transcendence degree of K(H) or K(tH)"),
    ("gcd-subst", cmd_gcd_subst, "gcd commutes with substitution"),
    ("mobius-equiv", cmd_mobius_equiv, "GL2 matrix linking two generator pairs"),
    ("unit-combo", cmd_unit_combo, "lambda*p + mu*q = 1 over K"),
    ("enother", cmd_enother, "unit-combination chain for K(p/q)"),
    ("member-kp", cmd_member_kp, "decide r in K[p]"),
    ("member-kpq", cmd_member_kpq, "bounded search for r in K(p/q)"),
    ("luroth-gen", cmd_luroth_gen, "single-variable field generator"),
    ("hmgrk2-verify", cmd_hmgrk2_verify, "verify a decomposition witness H = g*h(p,q)"),
    ("valuation", cmd_valuation, "vanishing order at a projective point"),
    ("integral", cmd_integral, "is p/q integral over K[g]"),
    ("integral-set", cmd_integral_set, "is p/q integral over K[G]"),
    ("regen-integral", cmd_regen_integral, "equivalent generator integral over K[g]"),
    ("pqtrans", cmd_pqtrans, "shift/invert generator transformation"),
    ("qt-check", cmd_qt_check, "JH.H = tr JH.H and JH.H = 0"),
    ("gn-classify", cmd_gn_classify, "full classification report"),
    ("translation-check", cmd_translation_check, "H(x + tH) = H"),
    ("nilpotent-check", cmd_nilpotent_check, "is JH nilpotent"),
    ("bivariate-core", cmd_bivariate_core, "J(core).core(y) = 0 check"),
    ("span-bound", cmd_span_bound, "constant-vector span against n - rk J(core)"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratmaps",
        description="Exact computations with rational maps of transcendence degree at most 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("exprs", nargs="*", help="input expressions")
        p.add_argument("--in", dest="infile", default=None, help="read expressions from FILE")
        p.add_argument(
            "--field",
            type=_field_from_flag,
            default=QQ,
            help="coefficient field: q (default) or fp:P",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")
        if name == "homogenize":
            p.add_argument("--s", type=int, default=None, help="homogenization degree")
        if name == "divisor-transport":
            p.add_argument("--inverse", action="store_true")
        if name in ("trdeg", "member-kpq"):
            p.add_argument("--bound", type=int, default=6, help="search bound (default 6)")
        if name == "trdeg":
            p.add_argument("--with-t", dest="with_t", action="store_true")
        if name == "gcd-subst":
            p.add_argument("--mode", choices=("uni", "homog"), default="uni")
        if name in ("hmgrk2-verify", "gn-classify"):
            p.add_argument("--witness", default=None, help="witness JSON file")
        if name == "valuation":
            p.add_argument("--theta", required=True, help="point in K, or inf")
        if name in ("integral", "regen-integral", "pqtrans"):
            p.add_argument("--g", required=True, help="generator as 'f1;f2' in y1")
        if name == "integral-set":
            p.add_argument("--g", action="append", required=True, help="repeatable 'f1;f2'")
        if name == "pqtrans":
            p.add_argument("--mode", choices=("shift", "invert"), required=True)
            p.add_argument("--eps", default=None)
            p.add_argument("--theta", default=None)
    return parser


def _render_text(payload: dict) -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{key}:")
            for row in value:
                lines.append("  [" + ", ".join(str(v) for v in row) + "]")
        elif isinstance(value, list):
            if value and isinstance(value[0], dict):
                lines.append(f"{key}:")
                for entry in value:
                    lines.append(
                        "  - " + ", ".join(f"{k}: {v}" for k, v in entry.items())
                    )
            else:
                lines.append(f"{key}: [" + ", ".join(str(v) for v in value) + "]")
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            for k2, v2 in value.items():
                lines.append(f"  {k2}: {v2}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _field_str(field) -> str:
    return "q" if field.characteristic == 0 else f"fp:{field.characteristic}"


_parser = None  # built by the first main call, not at import


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal assertion: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    envelope = {"command": args.command, "field": _field_str(args.field)}
    envelope.update(payload)
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        print(_render_text(envelope))
    return 0


if __name__ == "__main__":
    sys.exit(main())
