import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import time_limit
from ratmaps import expressions
from ratmaps.cli import main
from ratmaps.expressions import MAX_NESTING, MAX_VARIABLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def test_gcd_text(capsys):
    code, out, _ = run_cli(capsys, "gcd", "(x1^2, x1*x2)")
    assert code == 0
    assert "gcd: x1" in out


def test_gcd_json_envelope(capsys):
    code, data, _ = run_json(capsys, "gcd", "(x1^2, x1*x2)")
    assert code == 0
    assert data == {"command": "gcd", "field": "q", "gcd": "x1"}


def test_fp_field_flag(capsys):
    code, data, _ = run_json(capsys, "gcd", "(x1^2+x2^2, x1+x2)", "--field", "fp:2")
    assert code == 0
    assert data["field"] == "fp:2"
    assert data["gcd"] == "x1 + x2"


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "gcd", "(x1^")
    assert code == 2
    assert "parse error" in err


def test_long_sum_exits_0(capsys):
    # the parser and the lowering walk the 4,999 BinOps of the sum by loops
    text = " + ".join(f"{k + 1}*x1^{k % 71}*x2^{k // 71}" for k in range(5000))
    with time_limit(4):
        code, data, err = run_json(capsys, "gcd", text, "x1")
    assert (code, err) == (0, "")
    assert data["gcd"] == "1"
    with time_limit(4):
        code, data, _ = run_json(capsys, "gcd", " - ".join(["x1*x2"] * 5000))
    assert code == 0 and data["gcd"] == "x1*x2"


def test_nesting_beyond_the_cap_exits_2(capsys):
    def nested(depth):
        return "x1*(" * depth + "x1 + 1" + ")" * depth

    code, data, _ = run_json(capsys, "gcd", nested(MAX_NESTING), "x1")
    assert code == 0 and data["gcd"] == "x1"
    code, out, err = run_cli(capsys, "gcd", nested(MAX_NESTING + 1), "x1")
    assert (code, out) == (2, "")
    offset = 4 * MAX_NESTING + 3
    assert err == f"parse error: parentheses nested deeper than {MAX_NESTING} (at offset {offset})\n"


def test_variables_beyond_the_cap_exit_2(capsys, monkeypatch):
    sizes = []
    real = expressions.PolyRing

    def spy(field, names):
        sizes.append(len(names))
        return real(field, names)

    monkeypatch.setattr(expressions, "PolyRing", spy)
    top = f"x{MAX_VARIABLES}"
    code, data, _ = run_json(capsys, "gcd", f"{top}^2 + x1", f"{top} + 1")
    assert code == 0 and data["gcd"] == "1"
    for argv in (
        ("gcd", f"x{MAX_VARIABLES + 1}^2 + x1", f"x{MAX_VARIABLES + 1} + 1"),
        # a name of 5,000 digits, past what int() converts from a string
        ("gcd", "x1 + x" + "1" * 5000),
        # a square tuple padded past the cap
        ("qt-check", "(" + ", ".join(["x1"] * (MAX_VARIABLES + 1)) + ")"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: more than {MAX_VARIABLES} variables ("), err
        assert err.count("\n") == 1, err
    assert max(sizes) == MAX_VARIABLES


def test_precondition_exit_code(capsys):
    code, out, err = run_cli(capsys, "gcd", "(0, 0)")
    assert code == 1
    assert "precondition" in err


def test_non_prime_modulus_is_a_usage_error(capsys):
    # like a malformed modulus: argparse prints the reason and exits 2
    for flag, reason in (("fp:4", "modulus 4 is not prime"), ("fp:x", "'fp:x'")):
        with pytest.raises(SystemExit) as exc:
            main(["gcd", "x1", "--field", flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --field: " in err and reason in err, err


OUT_OF_RANGE = [
    (["member-kpq", "x1", "x1", "x2", "--bound", "-1"], "bound must be non-negative"),
    (
        ["trdeg", "(x1, x2)", "--field", "fp:5", "--bound", "0"],
        "degree_bound must be at least 1",
    ),
    (["homogenize", "y1^2", "--s", "1"], "component degree exceeds the bound"),
    (
        ["dehomogenize", "(y1^2 + y2)"],
        "component y1^2 + y2 is not homogeneous of degree 2",
    ),
    (
        ["divisor-transport", "y1^2 + y2", "--inverse"],
        "expected a homogeneous bivariate polynomial",
    ),
    (
        ["gcd-subst", "--mode", "homog", "(y1^2 + y2, y1)", "x1", "x2"],
        "components must be homogeneous or zero",
    ),
]


@pytest.mark.parametrize("argv, reason", OUT_OF_RANGE)
def test_out_of_range_arguments_are_precondition_errors(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"precondition violated: {reason}\n")


def test_verdict_false_still_exits_zero(capsys):
    code, data, _ = run_json(capsys, "qt-check", "(1, x2/x1)")
    assert code == 0
    assert data["qt_condition"] is False
    assert data["jh_dot_h_zero"] is True


def test_qt_check_clears_h_once(monkeypatch, capsys):
    # both verdicts come from one clearing of the denominators of H
    import ratmaps.gordan_noether as gn

    calls = []
    real = gn.clear_denominators

    def counted(fracs):
        calls.append(fracs)
        return real(fracs)

    monkeypatch.setattr(gn, "clear_denominators", counted)
    for field in ("q", "fp:7"):
        calls.clear()
        code, data, _ = run_json(capsys, "qt-check", "(x2/(x1+1), 0)", "--field", field)
        assert code == 0
        assert (data["qt_condition"], data["jh_dot_h_zero"]) == (True, False)
        assert len(calls) == 1


def test_infile(tmp_path, capsys):
    f = tmp_path / "inputs.txt"
    f.write_text("x1\n1 - x1\n")
    code, data, _ = run_json(capsys, "unit-combo", "--in", str(f))
    assert code == 0
    assert data["exists"] is True and data["lambda"] == "1"


def test_trdeg_char_p_fallback(capsys):
    code, data, _ = run_json(
        capsys, "trdeg", "(x1^2, x1*x2, x2^2)", "--field", "fp:2", "--bound", "2"
    )
    assert code == 0
    assert data["trdeg"] == 2 and data["certified"] is False


@pytest.mark.parametrize(
    "h, bound, trdeg",
    [
        # pairwise coprime denominators: columns built as reduced RatFunc
        # products and cleared by their lcm took 7.5 s
        ("(x1^2/(x2+1), x1*x2/(x1+x2^2+3), (x2^3+x1)/(x1^2+x2))", "7", 3),
        # one shared denominator: columns cleared by the product of the
        # denominators, not their lcm, took 5.7 s
        (
            "((x1^2+x2)/(x1^2*x2+x2^2+1), (x1*x2+1)/(x1^2*x2+x2^2+1),"
            " (x2^3+x1)/(x1^2*x2+x2^2+1))",
            "8",
            2,
        ),
    ],
)
def test_trdeg_char_p_search_finishes_within_4_s(capsys, h, bound, trdeg):
    with time_limit(4):
        code, data, _ = run_json(capsys, "trdeg", h, "--field", "fp:32003", "--bound", bound)
    assert code == 0
    assert data["trdeg"] == trdeg and data["certified"] is False


def test_member_kpq_bound_flag(capsys):
    code, data, _ = run_json(
        capsys, "member-kpq", "(x2^2)/(x1^2)", "x1", "x2", "--bound", "2"
    )
    assert code == 0
    assert data["found"] is True and data["f2"] == "y1^2"


def test_member_kpq_large_bound_solves_at_the_forced_degree(capsys):
    with time_limit(1):
        code, data, _ = run_json(
            capsys, "member-kpq", "x1^2 + x2", "x1 + x2^2", "x2", "--bound", "1000000"
        )
    assert code == 0
    assert data == {"command": "member-kpq", "field": "q", "found": False, "bound": 1000000}
    member = ["member-kpq", "((x1 + x2^2)^2 + x2^2)/((x1 + x2^2)*x2)", "x1 + x2^2", "x2"]
    with time_limit(1):
        code, data, _ = run_json(capsys, *member, "--bound", "1000000")
    assert code == 0
    _, forced, _ = run_json(capsys, *member, "--bound", "2")
    assert forced["found"] is True and forced["f1"] == "y1^2 + 1" and forced["f2"] == "y1"
    assert data == dict(forced, bound=1000000)


def test_regen_integral_with_a_40_digit_constant_term_within_1_s(capsys):
    # f2's constant term is the product of two 20-digit primes, both roots
    f2 = "(y1 - 99999999999999999989)*(y1 + 99999999999999999973)"
    with time_limit(1):
        code, data, _ = run_json(capsys, "regen-integral", "x1", "1", "--g", f"1;{f2}")
    assert code == 0
    assert data["found"] is True and data["qstar"] == "x1 + 99999999999999999973"


def test_valuation_infinity(capsys):
    code, data, _ = run_json(capsys, "valuation", "y1^2+3*y1", "--theta", "inf")
    assert code == 0
    assert data["valuation"] == -2


def test_hmgrk2_witness_file(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(
        json.dumps({"g": "1", "h": "(y1^2, y1*y2, y2^2)", "p": "x1", "q": "x2"})
    )
    code, data, _ = run_json(
        capsys, "hmgrk2-verify", "(x1^2, x1*x2, x2^2)", "--witness", str(w)
    )
    assert code == 0
    assert data["all_ok"] is True
    assert data["trdeg_tH"] == 2


def test_gn_classify_witness_file(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(
        json.dumps(
            {"kind": "cond4", "g": "1", "f": "(0, 0, y1)", "p": "x1", "q": "x2"}
        )
    )
    code, data, _ = run_json(
        capsys, "gn-classify", "(0, 0, x1/x2)", "--witness", str(w)
    )
    assert code == 0
    assert data["qt_condition"] is True
    assert data["witnesses"][0]["verified"] is True


MALFORMED_WITNESSES = [
    (
        "hmgrk2-verify",
        '{"g": "1", "h": "(y1^2, y1*y2, y2^2)", "q": "x2"}',
        "witness entry needs a string 'p' (at offset 0)",
    ),
    ("hmgrk2-verify", "{not json", "witness file is not JSON: "),
    ("gn-classify", "[1, 2", "witness file is not JSON: "),
    (
        "gn-classify",
        '{"g": "1", "f": "(0, 0, y1)", "p": "x1", "q": "x2"}',
        "witness entry needs a string 'kind' (at offset 0)",
    ),
    ("gn-classify", "[1]", "a witness entry must be a JSON object (at offset 0)"),
    ("gn-classify", "5", "a witness entry must be a JSON object (at offset 0)"),
    (
        "gn-classify",
        '{"kind": "cond4", "g": "1", "p": "x1", "q": "x2"}',
        "witness entry needs a string 'f' (at offset 0)",
    ),
    (
        "gn-classify",
        '{"kind": "cond4", "g": "1", "f": "(0, 0, y1)", "p": 1, "q": "x2"}',
        "witness entry needs a string 'p' (at offset 0)",
    ),
]


@pytest.mark.parametrize("command, text, reason", MALFORMED_WITNESSES)
def test_malformed_witness_file_is_a_parse_error(tmp_path, capsys, command, text, reason):
    w = tmp_path / "w.json"
    w.write_text(text)
    h = "(x1^2, x1*x2, x2^2)" if command == "hmgrk2-verify" else "(0, 0, x1/x2)"
    code, out, err = run_cli(capsys, command, h, "--witness", str(w))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {reason}"), err


def test_unknown_witness_kind_needs_no_f(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"kind": "cond9", "g": "1", "p": "x1", "q": "x2"}))
    code, data, _ = run_json(capsys, "gn-classify", "(0, 0, x1/x2)", "--witness", str(w))
    assert code == 0
    assert data["witnesses"] == [
        {"kind": "cond9", "verified": False, "reason": "unknown witness kind 'cond9'"}
    ]


def test_bound_only_where_it_is_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gcd", "x1", "--bound", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 3" in capsys.readouterr().err


def test_pqtrans_flags(capsys):
    code, data, _ = run_json(
        capsys,
        "pqtrans",
        "x1",
        "1",
        "--g",
        "1;(y1-1)^2",
        "--mode",
        "invert",
        "--theta",
        "1",
    )
    assert code == 0
    assert data["pstar"] == "1" and data["qstar"] == "x1 - 1"
    assert data["f1star"] == "y1^2" and data["f2star"] == "1"


ZERO_G = [("q", "0"), ("fp:2", "2*y1^2"), ("fp:7", "7")]


@pytest.mark.parametrize("field,zero", ZERO_G)
@pytest.mark.parametrize(
    "command,f2", [("regen-integral", "y1^3+y1"), ("integral", "y1+1"), ("integral-set", "y1+1")]
)
def test_a_zero_g_is_a_precondition_error(capsys, command, f2, field, zero):
    # f1 is zero in the field, so g = 0 lies in K; regen-integral used to
    # invert at a root of f2 and fail its own integrality cross-check
    code, out, err = run_cli(capsys, command, "x2", "1", "--g", f"{zero};{f2}", "--field", field)
    assert code == 1, (out, err)
    assert err.startswith("precondition violated: ") and "Traceback" not in err, err


def test_pqtrans_of_a_zero_g_is_zero_over_one(capsys):
    code, data, _ = run_json(
        capsys, "pqtrans", "x2", "1", "--g", "0;y1+1", "--mode", "invert", "--theta", "1"
    )
    assert code == 0
    assert data["f1star"] == "0" and data["f2star"] == "1"


def test_json_deterministic_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "gn-classify", "(0, 0, x1/x2)", "--json"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_internal_alarm_exit_code(monkeypatch, capsys):
    # force a theorem-contradiction alarm to confirm the exit-code mapping
    import ratmaps.cli as cli_mod
    from ratmaps.errors import AssertionFailure

    def boom(*a, **kw):
        raise AssertionFailure("forced disagreement")

    monkeypatch.setattr(cli_mod.subfield, "gcd_subst_uni", boom)
    code, out, err = run_cli(capsys, "gcd-subst", "--mode", "uni", "(y1, y1^2)", "x1")
    assert code == 3
    assert "internal assertion" in err


def test_cached_parser_matches_fresh_parser(monkeypatch, capsys):
    # main keeps its parser between calls: back-to-back calls (an append
    # option twice, a usage error in between) must print and exit exactly
    # as with a parser built afresh for each call
    import ratmaps.cli as cli_mod

    calls = [
        ("gcd", "(x1^2, x1*x2)"),
        ("gcd", "(x1^2+x2^2, x1+x2)", "--field", "fp:2", "--json"),
        ("integral-set", "x1", "x2", "--g", "1;y1", "--g", "y1;1", "--json"),
        ("integral-set", "x1", "x2", "--g", "1;(y1-1)^2", "--field", "fp:7", "--json"),
        ("gcd", "(x1, x2)", "--no-such-flag"),
        ("valuation", "y1^2+3*y1", "--theta", "inf", "--field", "fp:5", "--json"),
        ("gcd-subst", "--mode", "homog", "(y1^2, y1*y2)", "x1+1", "x1^2"),
    ]

    def run(argv):
        try:
            code = cli_mod.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cached = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli_mod, "_parser", None)
        fresh.append(run(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 2, 0, 0]
    # the second integral-set call sees only its own --g
    assert json.loads(cached[2][1])["index"] == 1
    assert json.loads(cached[3][1])["found"] is False


# -- golden outputs ---------------------------------------------------------
#
# The README's command-line examples, plus rational-map cases for jacobian,
# trdeg, span-bound, primpart, qt-check and gn-classify, each under both
# fields and in both output modes.  Expected stdout and exit codes live in
# tests/data/readme_golden.json as {key: [exit code, stdout]}, keyed as
# golden_runs yields them; a change that alters any byte of them must say
# why and record them anew.  WITNESS and HMG_WITNESS stand for witness
# files written by the test: a gn-classify list and an hmgrk2-verify entry.

GOLDEN_WITNESS = [
    {"kind": "cond4", "g": "1", "f": "(0, 0, y1)", "p": "x1", "q": "x2"},
    {"kind": "cond4", "g": "1", "f": "(0, 0, y1 + 1)", "p": "x1", "q": "x2"},
]
GOLDEN_HMG_WITNESS = {"g": "1", "h": "(y1^2, y1*y2, y2^2)", "p": "x1", "q": "x2"}

GOLDEN_CASES = [
    ["gcd", "(x1^2, x1*x2)"],
    ["primpart", "(1, x2/x1)"],
    ["trdeg", "(x1^2, x1*x2, x2^2)", "--with-t"],
    ["qt-check", "(1, x2/x1)"],
    ["gcd-subst", "--mode", "homog", "(y1^2, y1*y2)", "x1+1", "x1^2"],
    ["mobius-equiv", "x1", "x2", "x1+x2", "x2"],
    ["enother", "x1", "1-x1"],
    ["member-kpq", "(x2^2)/(x1^2)", "x1", "x2", "--bound", "2"],
    ["member-kpq", "(x2^2)/(x1^2)", "x1*x2", "x2^2", "--bound", "6"],
    ["member-kpq", "x1 + x2", "x1", "x2", "--bound", "6"],
    ["luroth-gen", "x1^2", "x1^3"],
    ["valuation", "y1^2+3*y1", "--theta", "inf"],
    ["integral", "x1", "x2", "--g", "y1^3;y1+1"],
    ["regen-integral", "x1", "1", "--g", "1;(y1-1)^2"],
    ["pqtrans", "x1", "1", "--g", "1;(y1-1)^2", "--mode", "invert", "--theta", "1"],
    ["gn-classify", "(0, 0, x1/x2)", "--witness", "WITNESS"],
    ["span-bound", "(0, 0, x1/x2)"],
    ["jacobian", "(x1/x2, x2^2/(x1+1))"],
    ["trdeg", "(x1/x2, x2/(x1+x2), x1^2/x2^2)"],
    ["trdeg", "(x1/x2, x2/(x1+x2))", "--with-t"],
    ["span-bound", "(0, 0, (x1^2 + 3*x2^2)/(x1*x2 - x2^2))"],
    ["span-bound", "(x2/x1, x1/(x1+x2))"],
    ["span-bound", "(x3^2 - x3, x3, 0)"],
    ["span-bound", "(x3^2/(x3+1), x3/(x3+1), 0)"],
    ["primpart", "(x1/(x1+x2), x2^2/(x1^2-x2^2), 2/(3*x1))"],
    ["qt-check", "(x2/(x1+1), 0, (x1 - x2)/(x1+1))"],
    ["gn-classify", "(0, 0, (2*x1 - x2)^2/(x1*x2 + x2^2))"],
    ["homogenize", "(y1^2 + 1, 2*y1)", "--s", "3"],
    ["dehomogenize", "(y1^2 + y1*y2, 3*y2^2)"],
    ["divisor-transport", "y1^2 - 1/2"],
    ["divisor-transport", "y1^2 - y1*y2", "--inverse"],
    ["gcd-subst", "--mode", "uni", "(y1^2 - 1, y1^2 + 2*y1 + 1)", "x1^2 + x2/3"],
    ["translation-check", "(x2/(x1+1), 0, (x1 - x2)/(x1+1))"],
    ["pqtrans", "x1", "x2", "--g", "y1^2;y1+1", "--mode", "shift", "--eps", "2/3"],
    ["member-kp", "x1^4 + 2*x1^2*x2 + x2^2 + 1", "x1^2 + x2"],
    ["nilpotent-check", "(x2^2, 0)"],
    ["nilpotent-check", "(x2/(x1+1), x1^2)"],
    ["nilpotent-check", "((x1*x3 - x2)*x3/(x3 + 1), (x1*x3 - x2)*x3^2/(x3 + 1), 0)"],
    ["bivariate-core", "(x3^2 - x3, x3, 0)"],
    ["bivariate-core", "(x2^2, -x1*x2)"],
    ["unit-combo", "x1", "1-x1"],
    ["integral-set", "x1", "x2", "--g", "1;y1", "--g", "y1^2;y1+1"],
    ["hmgrk2-verify", "(x1^2, x1*x2, x2^2)", "--witness", "HMG_WITNESS"],
]


def _golden_key(argv, field, json_mode):
    return " ".join(argv + ["--field", field] + (["--json"] if json_mode else []))


def golden_runs(witness_paths):
    """(key, argv) for every golden case, field and output mode; witness
    placeholders are replaced by the paths in witness_paths."""
    for argv in GOLDEN_CASES:
        for field in ("q", "fp:32003"):
            for json_mode in (False, True):
                key = _golden_key(argv, field, json_mode)
                run = [witness_paths.get(a, a) for a in argv]
                run += ["--field", field] + (["--json"] if json_mode else [])
                yield key, run


def _write_golden_witnesses(tmp_path):
    paths = {}
    for name, data in (("WITNESS", GOLDEN_WITNESS), ("HMG_WITNESS", GOLDEN_HMG_WITNESS)):
        path = tmp_path / f"{name.lower()}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def test_every_subcommand_has_a_golden_case():
    from ratmaps.cli import _COMMANDS

    covered = {argv[0] for argv in GOLDEN_CASES}
    assert [name for name, _, _ in _COMMANDS if name not in covered] == []


def test_readme_examples_golden(tmp_path, capsys):
    expected = json.loads(
        (pathlib.Path(__file__).parent / "data" / "readme_golden.json").read_text()
    )
    keys = []
    for key, argv in golden_runs(_write_golden_witnesses(tmp_path)):
        keys.append(key)
        code, out, _ = run_cli(capsys, *argv)
        assert [code, out] == expected[key], key
    assert sorted(keys) == sorted(expected)


def test_library_and_cli_load_only_the_standard_library():
    # ratmaps is dependency-free: a fresh interpreter imports it, runs one
    # command and holds standard-library modules only.  -S skips the .pth
    # files, which may import modules of their own; the installed packages
    # stay importable on PYTHONPATH, so an optional import would show.
    import site

    import ratmaps

    script = (
        "import json, sys\n"
        "from ratmaps.cli import main\n"
        "code = main(['regen-integral', 'x1', '1', '--g', '1;(y1-1)^2'])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    src = pathlib.Path(ratmaps.__file__).resolve().parent.parent
    path = [str(src), *site.getsitepackages(), site.getusersitepackages()]
    run = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    code, modules = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    tops = {name.split(".")[0] for name in modules}
    assert tops - sys.stdlib_module_names - {"__main__", "ratmaps"} == set()
