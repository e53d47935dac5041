"""The four benchmark workloads: build library inputs, call, check answers.

Each workload has a fixed population of generated members (see inputs.py)
and a committed stratification of that population (strata/<name>.json):
members sorted by their measured cost and cut into consecutive pairs.  A
run takes one member from every pair, chosen by the run seed.  Costs are
heavy-tailed (on gcd_subst_qq about one instance in a hundred holds half of
the time), so a plain random sample of a few hundred instances moves its
throughput by 30-50% from seed to seed; one member per pair keeps the mix
of cheap and expensive instances the same in every run while the instances
themselves change with the seed.  The pairs come from a file, so the code
under test cannot change which inputs run.

Answers are checked outside the timed region against the oracle or against
the construction of the input, never against the function under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import inputs
import oracle

STRATA_DIR = Path(__file__).resolve().parent / "strata"
CENSUS = 2


def plain(poly) -> dict:
    """A ratmaps Poly as a dict of ints or Fractions (GF(p) as residues)."""
    return {e: getattr(c, "v", c) for e, c in poly.terms.items()}


class Workload:
    name = ""
    population = 0  # members in the population; even
    # how much slower this workload runs on a busy machine than the speed
    # probe, as an exponent (see speed.py)
    sensitivity = 0.6

    def member(self, index: int):
        raise NotImplementedError

    def build(self, lib, data):
        """Library objects for one member (timed as set-up)."""
        raise NotImplementedError

    def call(self, lib, instance):
        """One instance to a verdict (timed); returns plain comparable data."""
        raise NotImplementedError

    def check(self, data, output, index: int):
        """None when the output is right, else the reason it is wrong."""
        raise NotImplementedError

    def strata(self) -> list:
        with open(STRATA_DIR / f"{self.name}.json") as fh:
            return json.load(fh)["strata"]

    def select(self, seed: int) -> list:
        """(member index, weight) for one run, in seeded order.

        One member per stratum, weight 1; the CENSUS costliest strata run
        both members at weight 1/2: on gcd_subst_qq and gcd_subst_fp the
        choice within each of them alone moved a run's total time by about
        a tenth.
        """
        rng = random.Random(seed)
        strata = self.strata()
        chosen = [(rng.choice(stratum), 1.0) for stratum in strata[:-CENSUS]]
        chosen += [(i, 0.5) for stratum in strata[-CENSUS:] for i in stratum]
        rng.shuffle(chosen)
        return chosen


class GcdSubst(Workload):
    def __init__(self, name, mod, population):
        self.name = name
        self.mod = mod
        self.population = population

    def member(self, index):
        return inputs.gcd_subst_member(index, self.mod)

    def build(self, lib, data):
        fields = lib.fields
        field = fields.PrimeField(self.mod) if self.mod else fields.QQ
        bring = lib.polyring.PolyRing(field, ("y1", "y2"))
        ring = lib.polyring.PolyRing(field, ("x1", "x2"))
        hs = [bring.poly(h) for h in data["h"]]
        return hs, ring.poly(data["p"]), ring.poly(data["q"])

    def call(self, lib, instance):
        return plain(lib.subfield.gcd_subst_homog(*instance))

    def check(self, data, output, index):
        mod = self.mod
        if not output:
            return "zero gcd"
        if oracle.leading(output)[1] != 1:
            return "gcd is not monic"
        composed = [oracle.compose_bivariate(h, data["p"], data["q"], 2, mod) for h in data["h"]]
        quotients = []
        for c in composed:
            if c:
                quot = oracle.divide_exact(c, output, mod)
                if quot is None:
                    return "gcd does not divide a composed component"
                quotients.append(quot)
        # the cofactors share no factor, so nothing larger divides them all
        rng = random.Random(f"check:{self.name}:{index}")
        if not oracle.certify_constant_gcd(quotients, rng, mod):
            return "cofactors not certified coprime"
        return None


class Classify(Workload):
    name = "classify"
    population = 1200
    sensitivity = 0.75

    def member(self, index):
        return inputs.classify_member(index)

    def build(self, lib, data):
        pr = lib.polyring
        ring = pr.PolyRing(lib.fields.QQ, ("x1", "x2", "x3"))
        yring = lib.homog.uni_ring(lib.fields.QQ)
        zero = pr.RatFunc.from_poly(ring.zero())
        h = pr.RatMap([zero, zero, pr.RatFunc(ring.poly(data["h_num"]), ring.poly(data["h_den"]))])
        g = pr.RatFunc(ring.poly(data["g_num"]), ring.poly(data["g_den"]))
        f = (yring.zero(), yring.zero(), yring.poly(data["f3"]))
        w = lib.gordan_noether.GNWitness("cond4", g, ring.poly(data["p"]), ring.poly(data["q"]), f=f)
        return h, w

    def call(self, lib, instance):
        h, w = instance
        report = lib.gordan_noether.gn_classify(h, [w])
        verdict = report.witnesses[0]
        return (report.qt, report.core_bivariate, verdict.verified, verdict.reason)

    def check(self, data, output, index):
        qt, core, verified, _ = output
        if not (qt and core):
            return "a cond4 template map must satisfy (1) and (2)"
        if verified == data["wrong"]:
            return "planted wrong witness accepted" if verified else "witness rejected"
        return None


# JSON keys per subcommand beyond command and field: (always, sometimes)
CLI_SCHEMA = {
    "gcd": ({"gcd"}, set()),
    "primpart": ({"g", "core"}, set()),
    "trdeg": ({"trdeg", "certified"}, set()),
    "qt-check": ({"qt_condition", "jh_dot_h_zero"}, set()),
    "gcd-subst": ({"gcd_substituted"}, set()),
    "mobius-equiv": ({"equivalent", "matrix"}, set()),
    "unit-combo": ({"exists"}, {"lambda", "mu"}),
    "enother": (
        {"has_unit_combo", "contains_nonconstant_poly", "field_equals_Kpq"},
        {"lambda", "mu", "generator", "p_as_poly_in_generator", "q_as_poly_in_generator"},
    ),
    "member-kpq": ({"found", "bound"}, {"f1", "f2"}),
    "luroth-gen": ({"p", "q"}, set()),
    "valuation": ({"valuation"}, set()),
    "integral": ({"integral", "relation"}, set()),
    "regen-integral": ({"found"}, {"pstar", "qstar"}),
    "pqtrans": ({"pstar", "qstar", "f1star", "f2star"}, set()),
    "gn-classify": (
        {
            "qt_condition",
            "bivariate_core_check",
            "jh_dot_h_zero",
            "trdeg_tH",
            "core",
            "witnesses",
            "char_zero_remark",
        },
        set(),
    ),
    "span-bound": ({"spanning_vectors", "span_dim", "rank_core", "bound", "bound_satisfied"}, set()),
}


class CliMix(Workload):
    name = "cli_mix"
    population = 900

    def member(self, index):
        return inputs.cli_member(index)

    def build(self, lib, data):
        return list(data["argv"])

    def call(self, lib, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def check(self, data, output, index):
        code, text = output
        if code != data["exit"]:
            return f"exit {code}, expected {data['exit']}"
        if code != 0:
            return "output on a failed call" if text else None
        payload = json.loads(text)
        command = data["argv"][0]
        flag = data["argv"][data["argv"].index("--field") + 1]
        if payload.get("command") != command or payload.get("field") != flag:
            return "wrong command or field in the envelope"
        always, sometimes = CLI_SCHEMA[command]
        keys = set(payload) - {"command", "field"}
        if not always <= keys or not keys <= always | sometimes:
            return f"keys {sorted(keys)} do not match the schema"
        for key, value in data["expect"].items():
            if payload.get(key) != value:
                return f"{key} is {payload.get(key)!r}, expected {value!r}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        GcdSubst("gcd_subst_qq", None, 960),
        GcdSubst("gcd_subst_fp", inputs.GF_P, 720),
        Classify(),
        CliMix(),
    )
}
