"""Command-line front end: one JSON report per subcommand.

Every subcommand runs the same path: check the numeric options, read the
JSON input, run the command, print the report.  A report has sorted keys,
so identical inputs produce byte-identical output; timing is attached only
on request.  Exit codes: 0 on success, 1 when a check command reaches a
negative verdict, 2 on malformed input, 3 on an internal error (a fault of
the program, never a verdict, such as a report that cannot be encoded).  A
report is the text of ``json.dumps(report, sort_keys=True, indent=2)``,
written by ``encode_report``.  The expression language of ``nf`` lives in
``gkhopf.expr``.  At import the module loads ``presentations``, ``ncpoly``
and ``scalars``; ``expr`` loads in nf only; ``hopfops``
and ``_linalg`` in hopf-check, primitives, ext1, classify and zerodiv;
``classify`` in classify and iso; ``heckenberger`` in classify and nichols.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import Optional

from .ncpoly import STEP_BUDGET, BudgetExceeded, certify_confluence
from .presentations import (SIZE_LIMIT, HopfPresentation, build, int_from_json, presentation_from_json,
                            root_pair_from_json, to_b_form, validate_presentation)

SCHEMA_VERSION = 1

# monomials in the ``primitives`` ansatz, the ``hopf-check`` window and the ``zerodiv``
# candidate pool: free shapes of weighted degree <= cap times the 2 * window + 1 powers of x
ANSATZ_LIMIT = 16384
WINDOW_LIMIT = 6144


class InputError(Exception):
    pass


def encode_report(report) -> str:
    """The text of a report: exactly ``json.dumps(report, sort_keys=True,
    indent=2)``.  With an indent, ``json.dumps`` runs CPython's pure-Python
    encoder; ``_write`` covers what reports hold (dicts with ``str`` keys,
    lists, tuples, strings, ints, finite floats, booleans and None) in one
    recursion over the C string escaper, and any other report goes to
    ``json.dumps`` whole, which also raises where it raises."""
    parts: list[str] = []
    try:
        _write(report, parts, "\n")
    except TypeError:
        return json.dumps(report, sort_keys=True, indent=2)
    return "".join(parts)


_quote = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def _write(value, parts: list[str], newline: str) -> None:
    """Append the text of ``value`` to ``parts``, nested at ``newline`` (a
    line break and the indent of the line that holds ``value``); raise
    TypeError on a value outside the covered types."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):  # TypeError on keys that do not compare
            if type(key) is not str:
                raise TypeError(key)
            parts.append(sep + _quote(key) + ": ")
            _write(value[key], parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif value is None:
        parts.append("null")
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is float and -_INFINITY < value < _INFINITY:
        parts.append(float.__repr__(value))
    else:
        raise TypeError(value)


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str) -> tuple[dict, HopfPresentation]:
    data = _read_json(path)
    try:
        return data, presentation_from_json(data)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_batch(path: str) -> tuple[list, list]:
    data = _read_json(path)
    items = data["data"] if isinstance(data, dict) and "data" in data else [data]
    if not isinstance(items, list):
        raise InputError(f"{path}: 'data' must be a list of diagonal data")
    return items, items


def _parameterized(command: str, *presentations: HopfPresentation):
    if any(pres.family not in ("K", "B") for pres in presentations):
        raise InputError(f"{command} applies to the parameterized families only")
    return [pres.kparams for pres in presentations]


# ---------------------------------------------------------------------------
# subcommands: each returns (verdicts, exit code, witnesses or None)
# ---------------------------------------------------------------------------


def _cmd_validate(args, pres):
    report = validate_presentation(pres)
    verdicts = {"ok": report.ok, "conditions": report.flags, "messages": report.messages}
    return verdicts, 0 if report.ok else 1, None


def _cmd_nf(args, pres):
    from .expr import evaluate, parse_expression
    built = build(pres, args.budget)
    node = parse_expression(" ".join(args.expression), built)
    return {"normal_form": built.rs.format_poly(evaluate(node, built))}, 0, None


def _cmd_pbw_check(args, pres):
    rs = build(pres, args.budget).rs
    report = certify_confluence(rs)
    failures = []
    for res in report.failures:
        amb = res.ambiguity
        failures.append({"word": rs.format_word(amb.word), "kind": amb.kind,
                         "rules": [rs.rules[amb.rule_i].name, rs.rules[amb.rule_j].name]})
    verdicts = {
        "ambiguities": len(report),
        "resolved": len(report) - len(report.failures),
        "all_resolved": report.all_resolved,
        "failures": failures,
    }
    return verdicts, 0 if report.all_resolved else 1, None


def _require_monomials(built, cap: int, window: int, what: str, limit_name: str, limit: int) -> None:
    """Refuse, before any work, a monomial set of ``cap`` and ``window``
    larger than ``limit``."""
    size = len(built.free_shapes(cap)) * (2 * window + 1)
    if size > limit:
        raise InputError(f"--cap={cap} with an x-window of {window} makes {what} of "
                         f"{size} monomials, above {limit_name}={limit}")


def _cmd_hopf_check(args, pres):
    from . import hopfops
    built = build(pres, args.budget)
    window = args.cap if args.window is None else args.window
    _require_monomials(built, args.cap, window, "a window", "WINDOW_LIMIT", WINDOW_LIMIT)
    report = hopfops.check_hopf_axioms(built, args.cap, window)
    verdicts = {
        "monomials_checked": report.monomials_checked,
        "relation_checks": report.relation_checks,
        "all_passed": report.all_passed,
        "failures": report.failures,
    }
    return verdicts, 0 if report.all_passed else 1, None


def _cmd_primitives(args, pres):
    from . import hopfops
    built = build(pres, args.budget)
    window = hopfops.default_window(built, args.cap) if args.window is None else args.window
    _require_monomials(built, args.cap, window, "an ansatz", "ANSATZ_LIMIT", ANSATZ_LIMIT)
    report = hopfops.skew_primitives(built, args.weight, args.cap, window)
    entries = []
    for entry in report.entries:
        entries.append({
            "commutator": str(entry.commutator),
            "dimension": entry.dimension,
            "records": [{
                "element": built.rs.format_poly(r.element),
                "level": r.level,
                "is_major": entry.is_major,
            } for r in entry.records],
        })
    verdicts = {
        "weight_exponent": report.g_exponent,
        "trivial_dimension": report.trivial_dimension,
        "total_dimension": report.total_dimension,
        "entries": entries,
        "degree_cap": report.degree_cap,
        "x_window": report.x_window,
    }
    return verdicts, 0, None


def _cmd_ext1(args, pres):
    from . import hopfops
    return {"ext1": hopfops.ext1_dimension(build(pres, args.budget))}, 0, None


def _cmd_classify(args, pres):
    from . import classify as classify_mod, heckenberger, hopfops
    [params] = _parameterized("classify", pres)
    built = build(pres, args.budget)
    bform = to_b_form(params)
    omega, omega_prime = heckenberger.omega_checks(params)
    verdicts = {
        "domain": classify_mod.is_domain(params),
        "ext1": hopfops.ext1_dimension(built),
        "ext_vanishes": classify_mod.ext_vanishes(params),
        "gldim_finite": classify_mod.gldim_finite(params),
        "invariants": classify_mod.invariant_set(params),
        "omega": omega,
        "omega_prime": omega_prime,
        "b_form": None if bform is None else {
            "n": bform.bparams.n,
            "p": list(bform.bparams.p),
            "q": str(bform.bparams.q),
            "base_exponents": bform.base_exponents,
        },
    }
    return verdicts, 0, None


def _cmd_iso(args, pres_a, pres_b):
    from . import classify as classify_mod
    witness = classify_mod.iso_test(*_parameterized("iso", pres_a, pres_b))
    if witness is None:
        return {"isomorphic": False}, 1, None
    witnesses = {
        "permutation": list(witness.permutation),
        "scale": str(witness.scale),
        "generator_scales": [None if s is None else str(s) for s in witness.generator_scales],
        "field_note": witness.field_note,
    }
    return {"isomorphic": True}, 0, witnesses


def _nichols_entry(hk, obj) -> dict:
    try:
        datum = hk.DiagonalDatum.make(int_from_json("n1", obj["n1"]), int_from_json("n2", obj["n2"]),
                                      root_pair_from_json(obj["q1"]), root_pair_from_json(obj["q2"]))
        epsilon = int_from_json("epsilon", obj["epsilon"]) if "epsilon" in obj else None
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"bad diagonal datum {obj!r}: {exc}") from exc
    verdict = hk.lemma41_case(datum.braiding_matrix())
    supplementary = hk.supplementary_type(datum)
    entry = {
        "lemma41_case": verdict.case_label,
        "lemma41_permuted": verdict.permutation_applied,
        "lemma41_all_matches": list(verdict.all_matches),
        "supplementary": supplementary,
        "remark43_finite": supplementary != "none",  # remark43_finite(datum), by its definition
    }
    if epsilon is not None:
        entry["prop42_case"] = hk.prop42_case(datum, epsilon)
    return entry


def _cmd_nichols(args, items):
    from . import heckenberger
    return {"data": [_nichols_entry(heckenberger, obj) for obj in items]}, 0, None


def _cmd_zerodiv(args, pres):
    from . import hopfops
    built = build(pres, args.budget)
    window = hopfops.zero_divisor_window(built, args.cap)
    _require_monomials(built, args.cap, window, "a candidate pool", "WINDOW_LIMIT", WINDOW_LIMIT)
    report = hopfops.find_zero_divisors(built, args.cap)
    witnesses = None
    if report.found:
        witnesses = {"left": built.rs.format_poly(report.left),
                     "right": built.rs.format_poly(report.right)}
    return {"found": report.found, "notes": report.notes}, 0 if report.found else 1, witnesses


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkhopf",
        description="exact computations in a family of pointed Hopf algebra domains",
    )
    parser.add_argument("--budget", type=int, default=STEP_BUDGET,
                        help="rewrite step budget (default 1e6)")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock timing to the report")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, files=("file",)):
        p = sub.add_parser(name, help=help_text)
        for dest in files:
            p.add_argument(dest)
        p.set_defaults(func=func, files=files)
        return p

    command("validate", _cmd_validate, "check the parameter conditions")
    p = command("nf", _cmd_nf, "normal form of an expression")
    p.add_argument("expression", nargs=argparse.REMAINDER)
    command("pbw-check", _cmd_pbw_check, "certify confluence of the rewrite system")
    p = command("hopf-check", _cmd_hopf_check, "verify the Hopf axioms on a monomial window")
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--window", type=int, default=None)
    p = command("primitives", _cmd_primitives, "skew primitive space of a given weight")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--window", type=int, default=None)
    command("ext1", _cmd_ext1, "dimension of the linearized augmentation quotient")
    command("classify", _cmd_classify, "domain/Ext/gldim/invariants/base-form verdicts")
    command("iso", _cmd_iso, "isomorphism test for two parameter files",
            ("file_a", "file_b"))
    command("nichols", _cmd_nichols, "rank-2 diagonal braiding verdicts for a batch")
    p = command("zerodiv", _cmd_zerodiv, "search for a zero-divisor pair")
    p.add_argument("--cap", type=int, default=4)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _make_parser().parse_args(argv)
    started = time.monotonic()
    try:
        for name in ("budget", "cap", "window"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise InputError(f"--{name} must be non-negative, got {value}")
            if name != "budget" and value is not None and value > SIZE_LIMIT:
                raise InputError(f"--{name}={value} exceeds SIZE_LIMIT={SIZE_LIMIT}")
        load = _load_batch if args.command == "nichols" else _load
        documents, inputs = zip(*(load(getattr(args, dest)) for dest in args.files))
        verdicts, code, witnesses = args.func(args, *inputs)
    except (InputError, BudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_error(exc)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "input_digest": _digest(documents[0] if len(documents) == 1 else list(documents)),
        "verdicts": verdicts,
    }
    if witnesses:
        report["witnesses"] = witnesses
    if args.timing:
        report["timing_ms"] = round(1000 * (time.monotonic() - started), 3)
    try:
        text = encode_report(report)
    except Exception as exc:  # a report that cannot be encoded is a fault, never a verdict
        return _internal_error(exc)
    print(text)
    return code


def _internal_error(exc: Exception) -> int:
    text = " ".join(f"{type(exc).__name__}: {exc}".split())
    print(f"error: internal error: {text}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
