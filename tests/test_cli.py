"""Expression grammar, subcommand wiring, exit codes, report determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gkhopf.cli import main
from gkhopf.expr import MAX_NESTING, ExprError, evaluate, parse_expression
from gkhopf.scalars import make_root

from helpers import ev

SRC = Path(__file__).resolve().parents[1] / "src"

B23 = {"family": "B", "n": 1, "p": [2, 3], "q": {"L": 6, "k": 1}, "alpha": [0, 1]}
K22 = {"family": "K", "s": 2, "M": 2, "n": [1, 1], "p": [2, 2],
       "q": [{"L": 2, "k": 1}, {"L": 2, "k": 1}], "alpha": [0, 1]}
A25 = {"family": "A", "n": 2, "q": {"L": 5, "k": 1}}
C3 = {"family": "C", "n": 3}
N5 = {"n1": 1, "n2": 1, "q1": {"L": 5, "k": 1}, "q2": {"L": 5, "k": 2}}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_parse_examples(b23):
    node = parse_expression("y2*y1 - y1*y2", b23)
    assert evaluate(node, b23).is_zero()
    node = parse_expression("x^-3 * y1 + zeta(6,1)*(x^6 - 1)", b23)
    assert not evaluate(node, b23).is_zero()
    with pytest.raises(ExprError):
        parse_expression("y1^-1", b23)
    with pytest.raises(ExprError):
        parse_expression("y7", b23)
    with pytest.raises(ExprError):
        parse_expression("y1 + ", b23)


def test_parse_positions(b23):
    err = None
    try:
        parse_expression("1 + $", b23)
    except ExprError as exc:
        err = exc
    assert err is not None and err.pos == 4


def test_print_parse_round_trip(b23, c3):
    for built, texts in ((b23, ["y2^2*y2", "x^-3*y1 + 1/2", "zeta(6,1)*(x^6-1) - y1*y2"]),
                         (c3, ["x*y^-2", "y^-1*x + 2"])):
        for text in texts:
            value = ev(built, text)
            printed = built.rs.format_poly(value)
            again = evaluate(parse_expression(printed, built), built)
            assert again == value, (text, printed)


def test_c_family_generator_rules(c3):
    assert not ev(c3, "y*y^-1 - 1")
    with pytest.raises(ExprError):
        parse_expression("x^-1", c3)


def test_single_skew_generator_alias(a25):
    assert ev(a25, "y") == ev(a25, "y1")
    assert ev(a25, "y*x - zeta(5,1)*x*y").is_zero()


def test_cli_validate(tmp_path, capsys):
    code, report = _run(capsys, "validate", _write(tmp_path, "b.json", B23))
    assert code == 0 and report["verdicts"]["ok"]
    bad = dict(B23, alpha=[0, 0])
    code, report = _run(capsys, "validate", _write(tmp_path, "bad.json", bad))
    assert code == 0  # informational flags stay reportable
    assert report["verdicts"]["conditions"]["alpha_separated"] is False


def test_cli_nf(tmp_path, capsys):
    path = _write(tmp_path, "b.json", B23)
    code, report = _run(capsys, "nf", path, "y2^2*y2")
    assert code == 0
    assert report["verdicts"]["normal_form"] == "-1 + y1^2 + x^6"
    code, _ = _run(capsys, "nf", path, "y1^-1")
    assert code == 2


@pytest.mark.parametrize("text", ["y1^\u0663", "y1^\u00b2"])
def test_cli_nf_reads_only_ascii_digits(tmp_path, capsys, text):
    # an Arabic-Indic three and a superscript two are digits to str.isdigit
    code = main(["nf", _write(tmp_path, "b.json", B23), text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: at position 3: expected an integer\n"


def test_cli_pbw_check(tmp_path, capsys):
    code, report = _run(capsys, "pbw-check", _write(tmp_path, "b.json", B23))
    assert code == 0
    assert report["verdicts"]["all_resolved"] and report["verdicts"]["ambiguities"] == 13


def test_cli_hopf_check(tmp_path, capsys):
    code, report = _run(capsys, "hopf-check", _write(tmp_path, "b.json", B23), "--cap", "3")
    assert code == 0 and report["verdicts"]["all_passed"]


# fails q_primitive and q_cross: three ambiguities stay unresolved, and Delta
# and S break two relations
K_NONCONFLUENT = {"family": "K", "M": 6, "n": [3, 2], "p": [2, 3],
                  "q": [{"L": 4, "k": 1}, {"L": 3, "k": 1}], "alpha": [0, 1]}


def test_cli_pbw_check_reports_unresolved_ambiguities(tmp_path, capsys):
    code, report = _run(capsys, "pbw-check", _write(tmp_path, "k.json", K_NONCONFLUENT))
    assert code == 1
    assert report["verdicts"] == {"ambiguities": 13, "resolved": 10, "all_resolved": False, "failures": [
        {"word": "y2*y2*y2*x", "kind": "overlap", "rules": ["y2^p", "y2*x"]},
        {"word": "y2*y2*y2*x^-1", "kind": "overlap", "rules": ["y2^p", "y2*x^-1"]},
        {"word": "y2*y2*y2*y1", "kind": "overlap", "rules": ["y2^p", "y2*y1"]},
    ]}


def test_cli_hopf_check_reports_broken_relations(tmp_path, capsys):
    path = _write(tmp_path, "k.json", K_NONCONFLUENT)
    code, report = _run(capsys, "hopf-check", path, "--cap", "3", "--window", "4")
    assert code == 1
    assert report["verdicts"] == {"monomials_checked": 27, "relation_checks": 8, "all_passed": False,
                                  "failures": ["coproduct does not preserve relation y2*y1",
                                               "antipode does not preserve relation y2*y1",
                                               "coproduct does not preserve relation y2^p",
                                               "antipode does not preserve relation y2^p"]}


def test_cli_timing_adds_only_timing_ms(tmp_path, capsys):
    path = _write(tmp_path, "b.json", B23)
    code, plain = _run(capsys, "hopf-check", path, "--cap", "2")
    timed_code, timed = _run(capsys, "--timing", "hopf-check", path, "--cap", "2")
    assert code == timed_code == 0
    timing = timed.pop("timing_ms")
    assert type(timing) in (int, float) and timing >= 0
    assert timed == plain


def test_cli_primitives(tmp_path, capsys):
    code, report = _run(capsys, "primitives", _write(tmp_path, "b.json", B23),
                        "--weight", "3", "--cap", "6")
    assert code == 0
    entries = report["verdicts"]["entries"]
    assert entries == [{"commutator": "-1", "dimension": 1,
                        "records": [{"element": "y1", "is_major": False, "level": 1}]}]


def test_cli_ext1_and_classify(tmp_path, capsys):
    path = _write(tmp_path, "b.json", B23)
    code, report = _run(capsys, "ext1", path)
    assert code == 0 and report["verdicts"]["ext1"] == 0
    code, report = _run(capsys, "classify", path)
    assert code == 0
    v = report["verdicts"]
    assert v["domain"] and v["ext1"] == 0 and v["gldim_finite"]
    assert v["invariants"] == [2, 3, 6]
    assert v["b_form"]["base_exponents"] == [1]
    assert v["omega"] and v["omega_prime"]


def test_cli_iso(tmp_path, capsys):
    a = _write(tmp_path, "a.json", B23)
    b = _write(tmp_path, "b.json", dict(B23, alpha=[0, 2]))
    c = _write(tmp_path, "c.json", dict(B23, alpha=[0, 0]))
    code, report = _run(capsys, "iso", a, b)
    assert code == 0 and report["verdicts"]["isomorphic"]
    assert report["witnesses"]["scale"] == "2"
    code, report = _run(capsys, "iso", a, c)
    assert code == 1 and not report["verdicts"]["isomorphic"]


def test_cli_iso_witness_past_conductor_limit(tmp_path, capsys):
    # the generator scales are a square root of zeta_255, zeta_510 = -zeta_255^128,
    # and a cube root, zeta_765, of conductor past CONDUCTOR_LIMIT
    a = _write(tmp_path, "a.json", B23)
    b = _write(tmp_path, "b.json", dict(B23, alpha=[0, {"L": 255, "k": 1}]))
    code, report = _run(capsys, "iso", a, b)
    assert code == 0 and report["verdicts"]["isomorphic"]
    assert report["witnesses"]["generator_scales"] == [str(-make_root(255, 128)), None]
    assert report["witnesses"]["field_note"] == "witness scalar outside coefficient field"


def test_cli_structural_error_is_one_line(tmp_path, capsys):
    path = _write(tmp_path, "k11.json", dict(K22, n=[2, 2], p=[1, 1], q=[1, 1]))
    lines = []
    for argv in (["classify", path], ["iso", path, path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.append(captured.err)
    assert lines[0] == lines[1] == "error: parameters fail structural validation: p_nontrivial\n"


def test_cli_nichols(tmp_path, capsys):
    path = _write(tmp_path, "n5.json", N5)
    code, report = _run(capsys, "nichols", path)
    assert code == 0
    entry = report["verdicts"]["data"][0]
    assert entry["supplementary"] == "N5" and entry["remark43_finite"]
    batch = {"data": [N5, {"n1": 1, "n2": 1, "q1": {"L": 5, "k": 1},
                           "q2": {"L": 5, "k": 4}, "epsilon": 5}]}
    code, report = _run(capsys, "nichols", _write(tmp_path, "batch.json", batch))
    assert code == 0
    second = report["verdicts"]["data"][1]
    assert second["supplementary"] == "none" and second["prop42_case"] == "I"


def test_cli_zerodiv(tmp_path, capsys):
    code, report = _run(capsys, "zerodiv", _write(tmp_path, "k.json", K22), "--cap", "4")
    assert code == 0 and report["verdicts"]["found"]
    assert "left" in report["witnesses"]
    code, report = _run(capsys, "zerodiv", _write(tmp_path, "b.json", B23), "--cap", "3")
    assert code == 1 and not report["verdicts"]["found"]


def test_cli_zerodiv_witness_past_conductor_limit(tmp_path, capsys):
    # the square root of zeta_255 has conductor 255 and zeta_4 conductor 4;
    # the square root of -zeta_255 has conductor 1020
    path = _write(tmp_path, "k.json", dict(K22, alpha=[0, {"L": 255, "k": 1}]))
    code, report = _run(capsys, "zerodiv", path, "--cap", "3")
    assert code == 1 and not report["verdicts"]["found"]
    assert report["verdicts"]["notes"] == [
        "witness unavailable in coefficient field: zeta_4 and the degree-2 root of alpha_2-alpha_1 "
        "need conductor 1020",
        "witness unavailable in coefficient field: no degree-2 root of alpha_1-alpha_2"]


def test_cli_deterministic_output(tmp_path, capsys):
    path = _write(tmp_path, "b.json", B23)
    main(["classify", path])
    first = capsys.readouterr().out
    main(["classify", path])
    second = capsys.readouterr().out
    assert first == second


GOLDEN_CLASSIFY = {
    "schema_version": 1,
    "command": "classify",
    "input_digest": "3f6707f513a22c7f",
    "verdicts": {
        "b_form": {"base_exponents": [1], "n": 1, "p": [2, 3], "q": "1 + zeta(3,1)"},
        "domain": True,
        "ext1": 0,
        "ext_vanishes": True,
        "gldim_finite": True,
        "invariants": [2, 3, 6],
        "omega": True,
        "omega_prime": True,
    },
}


def test_cli_golden_classify(tmp_path, capsys):
    code, report = _run(capsys, "classify", _write(tmp_path, "b.json", B23))
    assert code == 0 and report == GOLDEN_CLASSIFY


def test_cli_input_errors(tmp_path, capsys):
    code, _ = _run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(capsys, "validate", str(bad))
    assert code == 2
    weird = _write(tmp_path, "weird.json", {"family": "Z"})
    code, _ = _run(capsys, "validate", weird)
    assert code == 2
    # deep operation errors surface as input errors, not tracebacks
    path = _write(tmp_path, "b.json", B23)
    code, _ = _run(capsys, "primitives", path, "--weight", "40", "--cap", "2", "--window", "5")
    assert code == 2
    k = _write(tmp_path, "k.json", K22)
    code, _ = _run(capsys, "iso", k, k)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("hopf-check", "--cap", "-1"),
    ("hopf-check", "--window", "-1"),
    ("primitives", "--weight", "0", "--cap", "-1"),
    ("primitives", "--weight", "0", "--window", "-2"),
    ("zerodiv", "--cap", "-1"),
])
def test_cli_rejects_negative_cap_and_window(tmp_path, capsys, monkeypatch, argv):
    import gkhopf.cli as cli

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(cli, "_load", no_work)
    path = _write(tmp_path, "b.json", B23)
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "must be non-negative" in captured.err


@pytest.mark.parametrize("argv", [
    ("hopf-check", "--cap", "1000000000"),
    ("hopf-check", "--window", "1000000000"),
    ("primitives", "--weight", "0", "--cap", "1000000000"),
    ("primitives", "--weight", "0", "--window", "1000000000"),
    ("zerodiv", "--cap", "1000000000"),
])
def test_cli_rejects_cap_and_window_above_size_limit(tmp_path, capsys, monkeypatch, argv):
    import gkhopf.cli as cli

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(cli, "_load", no_work)
    path = _write(tmp_path, "b.json", B23)
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "exceeds SIZE_LIMIT=256" in captured.err


def test_cli_accepts_cap_and_window_at_size_limit(tmp_path, capsys):
    path = _write(tmp_path, "b.json", B23)
    code, report = _run(capsys, "primitives", path, "--weight", "0", "--cap", "0", "--window", "256")
    assert code == 0 and report["verdicts"]["x_window"] == 256


@pytest.mark.parametrize("options, size", [
    (("--cap", "64"), 49216),                    # 64 shapes x (2 * 384 + 1)
    (("--cap", "32", "--window", "256"), 16416),  # 32 shapes x 513
])
def test_cli_rejects_primitives_ansatz_above_limit(tmp_path, capsys, monkeypatch, options, size):
    from gkhopf import hopfops

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the ansatz size was checked")

    monkeypatch.setattr(hopfops, "skew_primitives", no_work)
    path = _write(tmp_path, "b.json", B23)
    code = main(["primitives", path, "--weight", "0", *options])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1
    assert f"ansatz of {size} monomials, above ANSATZ_LIMIT=16384" in captured.err


@pytest.mark.parametrize("options, window", [
    (("--cap", "32"), 192),                     # 32 shapes x 385 = 12,320 monomials
    (("--cap", "32", "--window", "255"), 255),  # 32 shapes x 511 = 16,352
])
def test_cli_accepts_primitives_ansatz_within_limit(tmp_path, capsys, monkeypatch, options, window):
    from gkhopf import hopfops

    def empty_report(built, g_exponent, degree_cap, x_window=None):
        if x_window is None:
            x_window = hopfops.default_window(built, degree_cap)
        return hopfops.PrimitiveSpaceReport(g_exponent, [], 0, degree_cap, x_window)

    monkeypatch.setattr(hopfops, "skew_primitives", empty_report)
    path = _write(tmp_path, "b.json", B23)
    code, report = _run(capsys, "primitives", path, "--weight", "0", *options)
    assert code == 0 and report["verdicts"]["x_window"] == window


@pytest.mark.parametrize("options, size", [
    (("--cap", "64", "--window", "63"), 8128),    # 64 shapes x (2 * 63 + 1)
    (("--cap", "64", "--window", "128"), 16448),  # 64 shapes x 257
    (("--cap", "256"), 131328),                   # the window defaults to the cap
])
def test_cli_rejects_hopf_check_window_above_limit(tmp_path, capsys, monkeypatch, options, size):
    from gkhopf import hopfops

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the window size was checked")

    monkeypatch.setattr(hopfops, "check_hopf_axioms", no_work)
    path = _write(tmp_path, "b.json", B23)
    code = main(["hopf-check", path, *options])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1
    assert f"window of {size} monomials, above WINDOW_LIMIT=6144" in captured.err


@pytest.mark.parametrize("options, window", [
    (("--cap", "32", "--window", "64"), 64),  # 32 shapes x 129 = 4,128 monomials
    (("--cap", "48", "--window", "63"), 63),  # 48 shapes x 127 = 6,096
    (("--cap", "48"), 48),                    # 48 shapes x 97 = 4,656
])
def test_cli_accepts_hopf_check_window_within_limit(tmp_path, capsys, monkeypatch, options, window):
    from gkhopf import hopfops

    calls = []

    def empty_report(built, degree_cap, x_window=None):
        calls.append((degree_cap, x_window))
        return hopfops.AxiomReport(0, 0)

    monkeypatch.setattr(hopfops, "check_hopf_axioms", empty_report)
    path = _write(tmp_path, "b.json", B23)
    code, report = _run(capsys, "hopf-check", path, *options)
    assert code == 0 and report["verdicts"]["all_passed"]
    assert calls == [(int(options[1]), window)]


def test_cli_rejects_zerodiv_pool_above_limit(tmp_path, capsys, monkeypatch):
    from gkhopf import hopfops

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the candidate pool was checked")

    monkeypatch.setattr(hopfops, "find_zero_divisors", no_work)
    code = main(["zerodiv", _write(tmp_path, "c3.json", C3), "--cap", "64"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # 65 shapes x (2 * 64 + 1)
    assert captured.err == ("error: --cap=64 with an x-window of 64 makes a candidate pool of "
                            "8385 monomials, above WINDOW_LIMIT=6144\n")


def test_cli_accepts_zerodiv_pool_within_limit(tmp_path, capsys):
    # 33 shapes x (2 * 32 + 1) = 2,145 monomials, searched as before
    code, report = _run(capsys, "zerodiv", _write(tmp_path, "c3.json", C3), "--cap", "32")
    assert code == 1 and report["verdicts"] == {"found": False, "notes": []}


@pytest.mark.parametrize("budget", ["-1", "-5"])
@pytest.mark.parametrize("argv", [
    ("nf", "y1*y2"),
    ("hopf-check",),
    ("pbw-check",),
    ("primitives", "--weight", "0"),
    ("zerodiv",),
    ("classify",),
])
def test_cli_rejects_negative_budget(tmp_path, capsys, monkeypatch, argv, budget):
    import gkhopf.cli as cli

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(cli, "_load", no_work)
    path = _write(tmp_path, "b.json", B23)
    code = main(["--budget", budget, argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "--budget must be non-negative" in captured.err


@pytest.fixture
def time_bound():
    """Fail a test that runs past five seconds instead of letting it run on."""
    import signal

    def expire(*_args):
        raise TimeoutError("ran past the time bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("order", [257, 100000])
def test_cli_nf_rejects_zeta_past_conductor_limit(tmp_path, capsys, time_bound, order):
    code = main(["nf", _write(tmp_path, "b.json", B23), f"zeta({order},1)"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "CONDUCTOR_LIMIT" in captured.err


@pytest.mark.parametrize("q1", [
    {"L": 100000, "k": 1},
    {"L": 257, "k": 1},
    {"L": 100000, "poly": [[0, 1], [1, 1]]},
    {"L": 0, "poly": [[1, 1]]},
])
def test_cli_rejects_json_scalar_past_conductor_limit(tmp_path, capsys, time_bound, q1):
    code = main(["nichols", _write(tmp_path, "n.json", {"data": [dict(N5, q1=q1)]})])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "conductor" in captured.err
    code = main(["validate", _write(tmp_path, "b.json", dict(B23, q=q1))])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "conductor" in captured.err


def test_cli_budget_error_names_the_word(tmp_path, capsys):
    code = main(["--budget", "0", "nf", _write(tmp_path, "k.json", K22), "y2*y2"])
    _check_error_report(code, captured := capsys.readouterr())
    assert captured.err == "error: rewriting exceeded 0 steps at y2*y2\n"
    code = main(["--budget", "30", "nf", _write(tmp_path, "c.json", dict(C3, n=200)), "x*y^3"])
    _check_error_report(code, captured := capsys.readouterr())
    line = captured.err.rstrip("\n")
    assert line.startswith("error: rewriting exceeded 30 steps at y*y*y*") and line.endswith("...")
    assert len(line) == len("error: rewriting exceeded 30 steps at ") + 80


def test_cli_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    from gkhopf import hopfops
    from gkhopf.ncpoly import StructureError

    def crash(built):
        raise StructureError("free letters out of order\nin (3, 2)")

    monkeypatch.setattr(hopfops, "ext1_dimension", crash)
    code = main(["ext1", _write(tmp_path, "b.json", B23)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: internal error: StructureError: "
                            "free letters out of order in (3, 2)\n")


# a report that cannot be encoded is a fault of the program: exit 3 with one
# error line and nothing on stdout, not a traceback (exit 1, "negative
# verdict") and not exit 2 ("bad input") for a ValueError
_UNENCODABLE_LABELS = [
    (make_root(5, 1), "TypeError: Object of type Cyclo is not JSON serializable"),
    pytest.param(10 ** 5000, "ValueError: Exceeds the limit (4300 digits) for integer string conversion",
                 marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                          reason="no limit on int to str conversion")),
]


@pytest.mark.parametrize("label, message", _UNENCODABLE_LABELS, ids=["Cyclo", "long-int"])
def test_cli_unencodable_report_exits_3(tmp_path, capsys, monkeypatch, label, message):
    from gkhopf import heckenberger

    monkeypatch.setattr(heckenberger, "lemma41_case",
                        lambda q: heckenberger.NicholsVerdict(label, False, ()))
    code = main(["nichols", _write(tmp_path, "n.json", N5)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"error: internal error: {message}")
    assert captured.err.count("\n") == 1


# the two self-checks of the library, each broken by a patch of hopfops:
# (argv, patch, message).  A solution of another weight than the one asked
# for, and a seeded zero-divisor pair whose product is not zero, are faults
# of the program, not of the input.
_BROKEN_SELF_CHECKS = [
    (["primitives", "b23.json", "--weight", "3", "--cap", "4"],
     "real = hopfops.weight_commutator\n"
     "def wrong_weight(rec, built):\n"
     "    g, lam, level = real(rec, built)\n"
     "    return g + 1, lam, level\n"
     "hopfops.weight_commutator = wrong_weight\n",
     "a solution for the weight x^3 has weight x^4"),
    (["zerodiv", "k22.json"],
     "hopfops._seeded_zero_divisors = lambda built, notes: ((built.unit(), built.unit()), [])\n",
     "the seeded zero-divisor pair does not multiply to zero"),
]


@pytest.mark.parametrize("argv, patch, message", _BROKEN_SELF_CHECKS, ids=["weight", "zero-divisor"])
def test_cli_failed_self_checks_exit_3_under_python_O(tmp_path, argv, patch, message):
    # python -O strips assert statements, so the checks must raise themselves
    _write(tmp_path, "b23.json", B23)
    _write(tmp_path, "k22.json", K22)
    script = ("import sys\nfrom gkhopf import hopfops\nfrom gkhopf.cli import main\n"
              + patch + "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (
        3, "", f"error: internal error: RuntimeError: {message}\n")


def _k_of_length(s):
    return {"family": "K", "M": 2, "n": [1] * s, "p": [2] * s, "q": [-1] * s,
            "alpha": list(range(s))}


# (a document at a limit, the same document one past it): the first reaches a
# report (exit 0 or 1), the second is refused as input (exit 2)
_AT_AND_PAST_LIMITS = [
    (dict(C3, n=256), dict(C3, n=257)),
    (dict(K22, M=-256), dict(K22, M=-257)),
    (dict(A25, n=256), dict(A25, n=257)),
    (dict(K22, M=256), dict(K22, M=257)),
    (dict(K22, n=[1, 256]), dict(K22, n=[1, 257])),
    (dict(K22, p=[256, 2]), dict(K22, p=[257, 2])),
    (dict(B23, n=1, p=[256], q={"L": 256, "k": 1}, alpha=[0]),
     dict(B23, n=1, p=[257], q={"L": 256, "k": 1}, alpha=[0])),
    (dict(B23, n=42), dict(B23, n=43)),  # M = 6n: 252, then 258
    (dict(B23, alpha=[0, "1" + "0" * 99]), dict(B23, alpha=[0, "1" + "0" * 100])),
    (_k_of_length(16), _k_of_length(17)),
]


@pytest.mark.parametrize("accepted, refused", _AT_AND_PAST_LIMITS,
                         ids=["C-n", "K-M-negative", "A-n", "K-M", "K-n", "K-p", "B-p", "B-M",
                              "scalar-text", "K-s"])
def test_cli_size_limits(tmp_path, capsys, time_bound, accepted, refused):
    code = main(["validate", _write(tmp_path, "ok.json", accepted)])
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == "", captured.err
    code = main(["validate", _write(tmp_path, "over.json", refused)])
    _check_error_report(code, captured := capsys.readouterr())
    assert "LIMIT" in captured.err


@pytest.mark.parametrize("scalar", ["1e1000000000", "1E5", "2.5e-3"])
def test_cli_rejects_exponent_notation_scalars(tmp_path, capsys, time_bound, scalar):
    code = main(["validate", _write(tmp_path, "b.json", dict(B23, alpha=[0, scalar]))])
    _check_error_report(code, captured := capsys.readouterr())
    assert "exponent notation" in captured.err


@pytest.mark.parametrize("scalar, value", [("1.5", "3/2"), ("-3/4", "-3/4"), (" 7 ", "7")])
def test_cli_string_scalars_still_read(scalar, value):
    from gkhopf.presentations import scalar_from_json

    assert str(scalar_from_json(scalar)) == value


@pytest.mark.parametrize("text, ok", [("x^1000", True), ("x^-1000", True),
                                      ("x^1001", False), ("x^-1001", False), ("3^1001", False)])
def test_cli_nf_exponent_limit(tmp_path, capsys, time_bound, text, ok):
    code = main(["nf", _write(tmp_path, "b.json", B23), text])
    captured = capsys.readouterr()
    if ok:
        assert code == 0 and captured.err == ""
    else:
        _check_error_report(code, captured)
        assert "EXPONENT_LIMIT" in captured.err


def test_cli_rejects_infinite_sizes(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"family": "C", "n": Infinity}')
    _check_error_report(main(["validate", str(path)]), capsys.readouterr())


@pytest.mark.parametrize("data", [5, "N5", {"n1": 1}, None])
def test_cli_nichols_rejects_non_list_data(tmp_path, capsys, data):
    code = main(["nichols", _write(tmp_path, "n.json", {"data": data})])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "must be a list" in captured.err


def _random_ast_text(rng, depth=0):
    roll = rng.random()
    if roll < 0.25 or depth > 2:
        return rng.choice(["x", "y1", "y2", str(rng.randrange(-3, 4)),
                           f"zeta(6,{rng.randrange(6)})", "1/2", "x^-2", "y1^2"])
    if roll < 0.5:
        return f"({_random_ast_text(rng, depth + 1)} + {_random_ast_text(rng, depth + 1)})"
    if roll < 0.75:
        return f"({_random_ast_text(rng, depth + 1)} - {_random_ast_text(rng, depth + 1)})"
    return f"{_random_ast_text(rng, depth + 1)} * {_random_ast_text(rng, depth + 1)}"


def test_print_parse_fuzz(b23):
    import random

    rng = random.Random(23)
    for _ in range(60):
        text = _random_ast_text(rng)
        try:
            value = ev(b23, text)
        except Exception:
            continue  # negative literals can underflow the grammar; skip
        printed = b23.rs.format_poly(value)
        assert evaluate(parse_expression(printed, b23), b23) == value, (text, printed)


def test_cli_comparison_families(tmp_path, capsys):
    code, report = _run(capsys, "ext1", _write(tmp_path, "a.json", A25))
    assert code == 0 and report["verdicts"]["ext1"] == 1
    code, report = _run(capsys, "pbw-check", _write(tmp_path, "c.json", C3))
    assert code == 0 and report["verdicts"]["all_resolved"]


@pytest.mark.parametrize("text", [
    "(" * 5000 + "y1" + ")" * 5000,
    "(" * (MAX_NESTING + 1) + "y1" + ")" * (MAX_NESTING + 1),
    "(1 + " * (MAX_NESTING + 1) + "y1" + ")" * (MAX_NESTING + 1),
])
def test_cli_nf_rejects_deep_nesting(tmp_path, capsys, text):
    code = main(["nf", _write(tmp_path, "b.json", B23), text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "MAX_NESTING" in captured.err


@pytest.mark.parametrize("text, expected", [
    ("(" * MAX_NESTING + "y1" + ")" * MAX_NESTING, "y1"),
    ("(1 + " * MAX_NESTING + "y1" + ")" * MAX_NESTING, f"{MAX_NESTING} + y1"),
    ("(x*" * MAX_NESTING + "y2" + ")^1" * MAX_NESTING, f"x^{MAX_NESTING}*y2"),
])
def test_cli_nf_accepts_deepest_nesting(tmp_path, capsys, text, expected):
    code, report = _run(capsys, "nf", _write(tmp_path, "b.json", B23), text)
    assert code == 0 and report["verdicts"]["normal_form"] == expected


def _expressions(depth):
    """Texts from the expression grammar, nested at most ``depth`` deep."""
    scalar = st.one_of(
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.tuples(st.integers(-2, 40), st.integers(-12, 12)).map(lambda t: f"zeta({t[0]},{t[1]})"),
    )
    atom = st.one_of(st.sampled_from(["x", "y1", "y2"]), scalar)
    if depth:
        atom = st.one_of(atom, _expressions(depth - 1).map(lambda e: f"({e})"))
    exponent = st.none() | st.integers(0, 6) | st.integers(-6, 6)
    factor = st.tuples(atom, exponent).map(
        lambda t: t[0] if t[1] is None else f"{t[0]}^{t[1]}")
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    return st.tuples(st.sampled_from(["", "-"]), term,
                     st.lists(st.tuples(st.sampled_from(["+", "-"]), term), max_size=2)).map(
        lambda t: t[0] + t[1] + "".join(f" {op} {rest}" for op, rest in t[2]))


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=_expressions(8))
def test_cli_nf_fuzz(tmp_path_factory, text):
    path = _write(tmp_path_factory.getbasetemp(), "b23.json", B23)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--budget", "20000", "nf", path, "--", text])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        json.loads(out.getvalue())


def test_cli_nf_leading_minus(tmp_path, capsys):
    path = _write(tmp_path, "b.json", B23)
    plain = main(["nf", path, "-x"]), capsys.readouterr()
    dashed = main(["nf", path, "--", "-x"]), capsys.readouterr()
    assert plain == dashed
    assert plain[0] == 0 and json.loads(plain[1].out)["verdicts"]["normal_form"] == "-x"


def test_cli_nf_rejects_empty_expression(tmp_path, capsys):
    code = main(["nf", _write(tmp_path, "b.json", B23)])
    _check_error_report(code, capsys.readouterr())


def test_cli_nf_power_stays_in_normal_form(tmp_path, capsys, time_bound, b23):
    from gkhopf.ncpoly import power

    code, report = _run(capsys, "nf", _write(tmp_path, "b.json", B23), "(x+y1+y2)^12")
    assert code == 0
    assert report["verdicts"]["normal_form"] == b23.rs.format_poly(power(ev(b23, "x+y1+y2"), 12, b23.rs))


def _check_error_report(code, captured):
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("doc", [
    dict(B23, alpha=[0, "1/0"]),
    dict(B23, alpha=[0, [1, 0]]),
    dict(B23, alpha=[0, {"L": 3, "poly": [[1, 0]]}]),
    dict(K22, q=["1/0", {"L": 2, "k": 1}]),
    3,
    [1, 2],
    None,
    dict(K22, p={"L": 1, "poly": []}),
    dict(K22, n=[1, "1"]),
], ids=lambda doc: json.dumps(doc))
@pytest.mark.parametrize("command", ["validate", "pbw-check"])
def test_cli_rejects_malformed_json_documents(tmp_path, capsys, doc, command):
    code = main([command, _write(tmp_path, "doc.json", doc)])
    _check_error_report(code, capsys.readouterr())


@pytest.mark.parametrize("command", ["validate", "nichols"])
def test_cli_refuses_deeply_nested_json(tmp_path, capsys, command):
    # json.load raises RecursionError here, which is bad input, not a fault
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    _check_error_report(code, captured)
    assert captured.err == f"error: {path} nests its JSON too deeply to read\n"


@pytest.mark.parametrize("command", ["validate", "nichols"])
@pytest.mark.parametrize("literal", ["1" * 5000, "-" + "9" * 4301], ids=["5000-digits", "minus-4301-digits"])
def test_cli_refuses_over_long_integer_literals(tmp_path, capsys, command, literal):
    # json.load raises a plain ValueError past int's digit limit (4,300 by
    # default), whose text names no file and differs between Python versions
    path = tmp_path / "long.json"
    path.write_text('{"data": [{"n1": ' + literal + ', "n2": 1}]}')
    code = main([command, str(path)])
    captured = capsys.readouterr()
    _check_error_report(code, captured)
    assert captured.err == f"error: {path} holds an integer too long to read\n"


@pytest.mark.parametrize("command", ["validate", "nichols"])
def test_cli_reports_a_file_that_is_no_utf8_text_as_before(tmp_path, capsys, command):
    # a UnicodeDecodeError is a ValueError too, but no over-long integer
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n1": "\xff"}')
    code = main([command, str(path)])
    captured = capsys.readouterr()
    _check_error_report(code, captured)
    assert "codec can't decode byte 0xff" in captured.err and "too long" not in captured.err


@pytest.mark.parametrize("q1", ["1/0", [1, 0], {"L": 3, "poly": [[1, 0]]}], ids=json.dumps)
def test_cli_nichols_rejects_zero_denominator(tmp_path, capsys, q1):
    code = main(["nichols", _write(tmp_path, "n.json", {"data": [dict(N5, q1=q1)]})])
    _check_error_report(code, capsys.readouterr())


@pytest.mark.parametrize("p", [[0, 2], [2, 0]])
def test_cli_k_family_rejects_nonpositive_p(tmp_path, capsys, p):
    path = _write(tmp_path, "k.json", dict(K22, p=p))
    code, report = _run(capsys, "validate", path)
    assert code == 1 and report["verdicts"]["conditions"]["degree_split"] is False
    for command in ("pbw-check", "ext1", "hopf-check", "classify"):
        code = main([command, path])
        _check_error_report(code, capsys.readouterr())


@pytest.mark.parametrize("doc", [dict(K22, s=0, n=[], p=[], q=[], alpha=[]),
                                 dict(B23, p=[], q=1, alpha=[])], ids=["K", "B"])
def test_cli_refuses_empty_p(tmp_path, capsys, doc):
    # s = 0 fails the sizes condition, and no command builds on it
    path = _write(tmp_path, "doc.json", doc)
    code, report = _run(capsys, "validate", path)
    assert code == 1 and report["verdicts"]["conditions"]["sizes"] is False
    for command in (["pbw-check"], ["ext1"], ["primitives", "--weight", "1"]):
        code = main([*command, path])
        _check_error_report(code, captured := capsys.readouterr())
        assert "p must be nonempty" in captured.err


def test_cli_refuses_negative_m(tmp_path, capsys):
    # x^M with M < 0 is no word, and no command builds on it
    path = _write(tmp_path, "doc.json", dict(K22, M=-4, n=[2, 2]))
    code, report = _run(capsys, "validate", path)
    assert code == 1 and report["verdicts"]["conditions"]["sizes"] is False
    for argv in (["pbw-check", path], ["nf", path, "y2^2"],
                 ["primitives", path, "--weight", "2", "--cap", "2"]):
        code = main(argv)
        _check_error_report(code, captured := capsys.readouterr())
        assert "M must be nonnegative, got M=-4" in captured.err


def _with(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` (keys and list indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


# (command, document, path of an integer field in it)
_INTEGER_FIELDS = [
    ("validate", K22, ("M",)), ("validate", K22, ("s",)), ("validate", K22, ("n", 1)),
    ("validate", K22, ("p", 0)), ("validate", B23, ("n",)), ("validate", B23, ("p", 1)),
    ("validate", A25, ("n",)), ("validate", C3, ("n",)),
    ("validate", B23, ("q", "L")), ("validate", B23, ("q", "k")),
    ("validate", dict(B23, alpha=[0, {"L": 3, "poly": [[1, 2]]}]), ("alpha", 1, "poly", 0, 1)),
    ("nichols", dict(N5, epsilon=5), ("n1",)), ("nichols", dict(N5, epsilon=5), ("n2",)),
    ("nichols", dict(N5, epsilon=5), ("epsilon",)),
]


@pytest.mark.parametrize("value", [1.9, 2.0, True, False, "2"], ids=json.dumps)
@pytest.mark.parametrize("command, doc, path", _INTEGER_FIELDS,
                         ids=[f"{doc.get('family', 'nichols')}-{'.'.join(map(str, path))}"
                              for _, doc, path in _INTEGER_FIELDS])
def test_cli_reads_integer_fields_strictly(tmp_path, capsys, command, doc, path, value):
    # the integer as given is read; a float, a bool or a numeric string in its place is refused
    code = main([command, _write(tmp_path, "ok.json", doc)])
    assert code in (0, 1) and capsys.readouterr().err == ""
    code = main([command, _write(tmp_path, "bad.json", _with(doc, path, value))])
    _check_error_report(code, captured := capsys.readouterr())
    assert "must be an integer" in captured.err


@pytest.mark.parametrize("poly, field", [
    ([[1, 2, 3]], "poly[0]"), (5, "poly"), ([7], "poly[0]"), ([[1, 2], [3]], "poly[1]"),
    ({"a": 1}, "poly"),
], ids=lambda v: json.dumps(v))
def test_cli_reads_poly_entries_as_pairs(tmp_path, capsys, poly, field):
    code = main(["validate", _write(tmp_path, "bad.json", dict(A25, q={"L": 3, "poly": poly}))])
    _check_error_report(code, captured := capsys.readouterr())
    assert f"field '{field}' must be a" in captured.err


@pytest.mark.parametrize("scalar", [True, False, [True, 2], [1, False]], ids=json.dumps)
def test_cli_refuses_boolean_scalars(tmp_path, capsys, scalar):
    for command, doc in (("validate", dict(B23, q=scalar)), ("validate", dict(B23, alpha=[0, scalar])),
                         ("nichols", dict(N5, q1=scalar))):
        code = main([command, _write(tmp_path, "bad.json", doc)])
        _check_error_report(code, captured := capsys.readouterr())
        assert "cannot read a scalar" in captured.err


# JSON values for the fuzz below: integers in -3..40, and integers at and
# just past the input limits (SIZE_LIMIT, CONDUCTOR_LIMIT, EXPONENT_LIMIT).
_INTS = st.one_of(st.integers(-3, 40), st.sampled_from([-257, -256, 255, 256, 257, 1000, 1001]))
_JSON_SCALARS = st.one_of(
    _INTS,
    st.tuples(_INTS, _INTS).map(lambda t: f"{t[0]}/{t[1]}"),
    st.lists(_INTS, min_size=2, max_size=2),
    st.fixed_dictionaries({"L": _INTS, "k": _INTS}),
    st.fixed_dictionaries({"L": _INTS, "poly": st.lists(st.lists(_INTS, min_size=2, max_size=2),
                                                          max_size=4)}),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.none(),
    st.booleans(),
    st.floats(-3, 40),
    st.sampled_from(["", "x", "K", "B", "A", "C", "1.5", "-"]),
    st.lists(_JSON_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["L", "k", "poly", "data"]), _INTS, max_size=2),
)


@st.composite
def _mutated(draw, base):
    """``base`` with up to three keys or list entries changed, or a stray value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON_VALUES)
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 3))):
        lists = sorted(key for key, value in doc.items() if isinstance(value, list) and value)
        if lists and draw(st.booleans()):
            key = draw(st.sampled_from(lists))
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(_JSON_SCALARS)
            continue
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_JSON_VALUES)
    return doc


_PRESENTATION_DOCS = st.sampled_from([B23, K22, A25, C3]).flatmap(_mutated)
_NICHOLS_DOCS = st.one_of(
    _mutated(dict(N5, epsilon=5)),
    st.lists(_mutated(dict(N5, epsilon=5)), max_size=3).map(lambda data: {"data": data}),
)
_FUZZ_COMMANDS = (["validate"], ["pbw-check"], ["ext1"], ["classify"],
                  ["hopf-check", "--cap", "1", "--window", "1"], ["zerodiv", "--cap", "1"],
                  ["primitives", "--weight", "1", "--cap", "1", "--window", "1"])


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(doc=_PRESENTATION_DOCS, nichols=_NICHOLS_DOCS)
def test_cli_json_fuzz(tmp_path_factory, doc, nichols):
    base = tmp_path_factory.getbasetemp()
    path, batch = _write(base, "fuzz.json", doc), _write(base, "fuzz-nichols.json", nichols)
    runs = [[command, path, *options] for command, *options in _FUZZ_COMMANDS]
    runs.append(["nichols", batch])
    for argv in runs:
        code, out, err = _run_quiet(["--budget", "20000", *argv])
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
        else:
            json.loads(out)
