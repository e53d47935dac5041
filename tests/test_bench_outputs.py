"""Every benchmark member of every workload gives its recorded output.

The members come from bench/workloads.py (read only: the benchmark's own
generators build them, as a run does).  tests/data/bench_golden.json holds,
for each of the 960 gcd_subst_qq and 720 gcd_subst_fp members, a digest of
the gcd_subst_homog answer; for each of the 1,200 classify members, a digest
of gn_classify(...).to_dict(); and for each of the 900 cli_mix members, its
exit code and stdout.  A change that alters any of them must say why and
record them anew:

    PYTHONPATH=src python tests/test_bench_outputs.py --record
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = Path(__file__).resolve().parent / "data" / "bench_golden.json"
MODULES = ("polyring", "fields", "homog", "subfield", "gordan_noether", "cli")


def _workloads():
    """bench/workloads.py and the ratmaps modules its build and call use;
    no bytecode is written under bench/."""
    sys.path.insert(0, str(BENCH))
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = keep
    lib = types.SimpleNamespace(
        **{name: importlib.import_module(f"ratmaps.{name}") for name in MODULES}
    )
    return workloads.WORKLOADS, lib


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def gcd_subst_outputs(name):
    workloads, lib = _workloads()
    w = workloads[name]
    out = []
    for i in range(w.population):
        answer = w.call(lib, w.build(lib, w.member(i)))
        out.append(_digest(repr(sorted(answer.items()))))
    return out


def classify_outputs():
    workloads, lib = _workloads()
    w = workloads["classify"]
    out = []
    for i in range(w.population):
        h, witness = w.build(lib, w.member(i))
        report = lib.gordan_noether.gn_classify(h, [witness])
        out.append(_digest(json.dumps(report.to_dict(), sort_keys=True)))
    return out


def cli_outputs():
    workloads, lib = _workloads()
    w = workloads["cli_mix"]
    out = []
    for i in range(w.population):
        argv = w.build(lib, w.member(i))
        with contextlib.redirect_stderr(io.StringIO()):
            code, text = w.call(lib, argv)
        out.append([code, text])
    return out


def _expected():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name, population", [("gcd_subst_qq", 960), ("gcd_subst_fp", 720)])
def test_gcd_subst_answers_match_golden(name, population):
    expected = _expected()[name]
    got = gcd_subst_outputs(name)
    assert len(got) == len(expected) == population
    assert [i for i, (a, b) in enumerate(zip(got, expected)) if a != b] == []


def test_classify_reports_match_golden():
    expected = _expected()["classify"]
    got = classify_outputs()
    assert len(got) == len(expected) == 1200
    assert [i for i, (a, b) in enumerate(zip(got, expected)) if a != b] == []


def test_cli_mix_outputs_match_golden():
    expected = _expected()["cli_mix"]
    got = cli_outputs()
    assert len(got) == len(expected) == 900
    assert [i for i, (a, b) in enumerate(zip(got, expected)) if a != b] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    data = {
        "gcd_subst_qq": gcd_subst_outputs("gcd_subst_qq"),
        "gcd_subst_fp": gcd_subst_outputs("gcd_subst_fp"),
        "classify": classify_outputs(),
        "cli_mix": cli_outputs(),
    }
    GOLDEN.write_text(json.dumps(data, indent=0) + "\n")
