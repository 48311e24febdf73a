"""Command-line front end: expression parser, JSON reports, subcommands.

Expressions follow the grammar

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := generator | scalar | '(' expr ')'
    scalar := uint | uint '/' uint | 'zeta' '(' int ',' int ')'

with whitespace ignored and parentheses nested at most ``MAX_NESTING``
deep.  Generator symbols depend on the presentation: ``x`` and ``y1..ys``
for the Laurent-times-skew families, ``y`` (invertible) and ``x`` for the
differential-operator family.

Every subcommand prints a single JSON report with sorted keys, so identical
inputs produce byte-identical output; timing is attached only on request.
Exit codes: 0 on success, 1 when a check command reaches a negative
verdict, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import classify as classify_mod
from . import hopfops
from .heckenberger import DiagonalDatum, lemma41_case, prop42_case, remark43_finite, supplementary_type
from .ncpoly import BudgetExceeded, NCPoly, certify_confluence, normal_form
from .presentations import (BuiltPresentation, HopfPresentation, build,
                            presentation_from_json, to_b_form, validate_presentation)
from .scalars import CONDUCTOR_LIMIT, Cyclo, make_root

SCHEMA_VERSION = 1

# The parser and ``_eval_terms`` recurse a few frames per parenthesis level;
# this bound keeps both well inside the interpreter's recursion limit.
MAX_NESTING = 100


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------


class ExprError(InputError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class ENum:
    value: Cyclo


@dataclass(frozen=True)
class EGen:
    name: str


@dataclass(frozen=True)
class EPow:
    base: Union["ENum", "EGen", "EAdd", "EMul"]
    exponent: int


@dataclass(frozen=True)
class EMul:
    factors: tuple


@dataclass(frozen=True)
class EAdd:
    terms: tuple  # of (sign, node)


class _Parser:
    def __init__(self, src: str, built: Optional[BuiltPresentation]):
        self.src = src
        self.pos = 0
        self.depth = 0
        self.built = built

    def error(self, message: str) -> ExprError:
        return ExprError(message, self.pos)

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def _uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.src[start:self.pos])

    def _int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        return sign * self._uint()

    def parse(self):
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.src):
            raise self.error("trailing input")
        return node

    def expr(self):
        terms = []
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        terms.append((sign, self.term()))
        while self.peek() in ("+", "-"):
            sign = 1 if self.peek() == "+" else -1
            self.pos += 1
            terms.append((sign, self.term()))
        return EAdd(tuple(terms)) if len(terms) > 1 or terms[0][0] < 0 else terms[0][1]

    def term(self):
        factors = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        return EMul(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(self):
        atom = self.atom()
        if self.peek() == "^":
            self.pos += 1
            k = self._int()
            self._check_power(atom, k)
            return EPow(atom, k)
        return atom

    def _check_power(self, atom, k: int):
        if k >= 0:
            return
        if isinstance(atom, ENum):
            if atom.value.is_zero():
                raise self.error("division by zero")
            return
        if isinstance(atom, EGen):
            if self.built is not None and atom.name != self.built.rs.letter_names[1]:
                raise self.error(f"negative power of the non-invertible generator {atom.name}")
            if self.built is None and atom.name != "x":
                raise self.error(f"negative power of the non-invertible generator {atom.name}")
            return
        raise self.error("negative power of a compound expression")

    def atom(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than MAX_NESTING={MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.expect(")")
            return node
        if ch.isdigit():
            num = self._uint()
            if self.peek() == "/":
                self.pos += 1
                den = self._uint()
                if den == 0:
                    raise self.error("zero denominator")
                return ENum(Cyclo.from_rational(Fraction(num, den)))
            return ENum(Cyclo.from_rational(num))
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isalnum():
                self.pos += 1
            name = self.src[start:self.pos]
            if name == "zeta":
                self.expect("(")
                order = self._int()
                self.expect(",")
                exponent = self._int()
                self.expect(")")
                if order < 1:
                    raise self.error("zeta needs a positive order")
                if order > CONDUCTOR_LIMIT:
                    raise self.error(f"zeta order {order} exceeds CONDUCTOR_LIMIT={CONDUCTOR_LIMIT}")
                return ENum(make_root(order, exponent))
            return EGen(self._resolve_generator(name, start))
        raise self.error("expected an atom")

    def _resolve_generator(self, name: str, pos: int) -> str:
        if self.built is None:
            return name
        names = self.built.rs.letter_names
        if name in names:
            return name
        if name == "y" and "y1" in names and self.built.num_free == 1:
            return "y1"
        if name == "y1" and "y" in names:
            return "y"
        raise ExprError(f"unknown generator {name!r}", pos)


def parse_expression(src: str, built: Optional[BuiltPresentation] = None):
    """Parse to an AST; generator names are checked against the presentation."""
    return _Parser(src, built).parse()


def evaluate(node, built: BuiltPresentation) -> NCPoly:
    """Evaluate an AST to a normal-form element of the presented algebra."""
    return normal_form(_eval_terms(node, built), built.rs)


def _gen_word(name: str, k: int, built: BuiltPresentation):
    names = built.rs.letter_names
    letter = names.index(name)
    if letter == 1 and k < 0:
        return (0,) * (-k)
    if k < 0:
        raise InputError(f"negative power of the non-invertible generator {name}")
    return (letter,) * k


def _eval_terms(node, built: BuiltPresentation) -> list[tuple[Cyclo, tuple[int, ...]]]:
    if isinstance(node, ENum):
        return [(node.value, ())]
    if isinstance(node, EGen):
        return [(Cyclo.one(), _gen_word(node.name, 1, built))]
    if isinstance(node, EPow):
        if isinstance(node.base, ENum):
            return [(node.base.value ** node.exponent, ())]
        if isinstance(node.base, EGen):
            return [(Cyclo.one(), _gen_word(node.base.name, node.exponent, built))]
        if node.exponent < 0:
            raise InputError("negative power of a compound expression")
        terms = [(Cyclo.one(), ())]
        for _ in range(node.exponent):
            terms = _concat(terms, _eval_terms(node.base, built))
        return terms
    if isinstance(node, EMul):
        terms = [(Cyclo.one(), ())]
        for factor in node.factors:
            terms = _concat(terms, _eval_terms(factor, built))
        return terms
    if isinstance(node, EAdd):
        out = []
        for sign, sub in node.terms:
            for c, w in _eval_terms(sub, built):
                out.append((c if sign > 0 else -c, w))
        return out
    raise TypeError(f"not an expression node: {node!r}")


def _concat(a, b):
    return [(c1 * c2, w1 + w2) for c1, w1 in a for c2, w2 in b]


def poly_text(p: NCPoly, built: BuiltPresentation) -> str:
    return built.rs.format_poly(p)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _load(path: str) -> tuple[dict, HopfPresentation]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return data, presentation_from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(command: str, digest: str, verdicts: dict, args, started: float,
          witnesses: Optional[dict] = None) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": digest,
        "verdicts": verdicts,
    }
    if witnesses:
        report["witnesses"] = witnesses
    if getattr(args, "timing", False):
        report["timing_ms"] = round(1000 * (time.monotonic() - started), 3)
    print(json.dumps(report, sort_keys=True, indent=2))


def _build_from_args(pres: HopfPresentation, args) -> BuiltPresentation:
    return build(pres, step_budget=args.budget)


def _check_window_args(args) -> None:
    for name in ("cap", "window"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise InputError(f"--{name} must be non-negative, got {value}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    started = time.monotonic()
    data, pres = _load(args.file)
    report = validate_presentation(pres)
    verdicts = {"ok": report.ok, "conditions": report.flags, "messages": report.messages}
    _emit("validate", _digest(data), verdicts, args, started)
    return 0 if report.ok else 1


def _cmd_nf(args) -> int:
    started = time.monotonic()
    data, pres = _load(args.file)
    built = _build_from_args(pres, args)
    node = parse_expression(args.expression, built)
    result = evaluate(node, built)
    _emit("nf", _digest(data), {"normal_form": poly_text(result, built)}, args, started)
    return 0


def _cmd_pbw_check(args) -> int:
    started = time.monotonic()
    data, pres = _load(args.file)
    built = _build_from_args(pres, args)
    report = certify_confluence(built.rs)
    failures = []
    for res in report.failures:
        amb = res.ambiguity
        word = "*".join(built.rs.letter_names[l] for l in amb.word)
        failures.append({"word": word, "kind": amb.kind,
                         "rules": [built.rs.rules[amb.rule_i].name, built.rs.rules[amb.rule_j].name]})
    verdicts = {
        "ambiguities": len(report),
        "resolved": len(report) - len(report.failures),
        "all_resolved": report.all_resolved,
        "failures": failures,
    }
    _emit("pbw-check", _digest(data), verdicts, args, started)
    return 0 if report.all_resolved else 1


def _cmd_hopf_check(args) -> int:
    started = time.monotonic()
    _check_window_args(args)
    data, pres = _load(args.file)
    built = _build_from_args(pres, args)
    report = hopfops.check_hopf_axioms(built, args.cap, args.window)
    verdicts = {
        "monomials_checked": report.monomials_checked,
        "relation_checks": report.relation_checks,
        "all_passed": report.all_passed,
        "failures": report.failures,
    }
    _emit("hopf-check", _digest(data), verdicts, args, started)
    return 0 if report.all_passed else 1


def _cmd_primitives(args) -> int:
    started = time.monotonic()
    _check_window_args(args)
    data, pres = _load(args.file)
    built = _build_from_args(pres, args)
    report = hopfops.skew_primitives(built, args.weight, args.cap, args.window)
    entries = []
    for entry in report.entries:
        entries.append({
            "commutator": str(entry.commutator),
            "dimension": entry.dimension,
            "records": [{
                "element": poly_text(r.element, built),
                "level": r.level,
                "is_major": r.is_major,
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
    _emit("primitives", _digest(data), verdicts, args, started)
    return 0


def _cmd_ext1(args) -> int:
    started = time.monotonic()
    data, pres = _load(args.file)
    built = _build_from_args(pres, args)
    _emit("ext1", _digest(data), {"ext1": hopfops.ext1_dimension(built)}, args, started)
    return 0


def _cmd_classify(args) -> int:
    started = time.monotonic()
    data, pres = _load(args.file)
    if pres.family not in ("K", "B"):
        raise InputError("classify applies to the parameterized families only")
    params = pres.kparams
    built = _build_from_args(pres, args)
    from .heckenberger import omega_checks

    bform = to_b_form(params)
    omega, omega_prime = omega_checks(params)
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
    _emit("classify", _digest(data), verdicts, args, started)
    return 0


def _cmd_iso(args) -> int:
    started = time.monotonic()
    data_a, pres_a = _load(args.file_a)
    data_b, pres_b = _load(args.file_b)
    if pres_a.family not in ("K", "B") or pres_b.family not in ("K", "B"):
        raise InputError("iso applies to the parameterized families only")
    witness = classify_mod.iso_test(pres_a.kparams, pres_b.kparams)
    verdicts = {"isomorphic": witness is not None}
    witnesses = None
    if witness is not None:
        witnesses = {
            "permutation": list(witness.permutation),
            "scale": str(witness.scale),
            "generator_scales": [None if s is None else str(s) for s in witness.generator_scales],
            "field_note": witness.field_note,
        }
    _emit("iso", _digest([data_a, data_b]), verdicts, args, started, witnesses)
    return 0 if witness is not None else 1


def _datum_from_json(obj: dict) -> DiagonalDatum:
    from .presentations import scalar_from_json

    try:
        return DiagonalDatum.make(int(obj["n1"]), int(obj["n2"]),
                                  scalar_from_json(obj["q1"]), scalar_from_json(obj["q2"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad diagonal datum {obj!r}: {exc}") from exc


def _cmd_nichols(args) -> int:
    started = time.monotonic()
    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    items = data["data"] if isinstance(data, dict) and "data" in data else [data]
    if not isinstance(items, list):
        raise InputError(f"{args.file}: 'data' must be a list of diagonal data")
    verdicts = []
    for obj in items:
        datum = _datum_from_json(obj)
        verdict = lemma41_case(datum.braiding_matrix())
        entry = {
            "lemma41_case": verdict.case_label,
            "lemma41_permuted": verdict.permutation_applied,
            "lemma41_all_matches": list(verdict.all_matches),
            "supplementary": supplementary_type(datum),
            "remark43_finite": remark43_finite(datum),
        }
        if "epsilon" in obj:
            entry["prop42_case"] = prop42_case(datum, int(obj["epsilon"]))
        verdicts.append(entry)
    _emit("nichols", _digest(items), {"data": verdicts}, args, started)
    return 0


def _cmd_zerodiv(args) -> int:
    started = time.monotonic()
    _check_window_args(args)
    data, pres = _load(args.file)
    built = _build_from_args(pres, args)
    report = hopfops.find_zero_divisors(built, args.cap, budget=args.budget)
    verdicts = {"found": report.found, "notes": report.notes}
    witnesses = None
    if report.found:
        witnesses = {"left": poly_text(report.left, built),
                     "right": poly_text(report.right, built)}
    _emit("zerodiv", _digest(data), verdicts, args, started, witnesses)
    return 0 if report.found else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkhopf",
        description="exact computations in a family of pointed Hopf algebra domains",
    )
    parser.add_argument("--budget", type=int, default=1_000_000,
                        help="rewrite/search step budget (default 1e6)")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock timing to the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the parameter conditions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("file")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("pbw-check", help="certify confluence of the rewrite system")
    p.add_argument("file")
    p.set_defaults(func=_cmd_pbw_check)

    p = sub.add_parser("hopf-check", help="verify the Hopf axioms on a monomial window")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=_cmd_hopf_check)

    p = sub.add_parser("primitives", help="skew primitive space of a given weight")
    p.add_argument("file")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=_cmd_primitives)

    p = sub.add_parser("ext1", help="dimension of the linearized augmentation quotient")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ext1)

    p = sub.add_parser("classify", help="domain/Ext/gldim/invariants/base-form verdicts")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("iso", help="isomorphism test for two parameter files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("nichols", help="rank-2 diagonal braiding verdicts for a batch")
    p.add_argument("file")
    p.set_defaults(func=_cmd_nichols)

    p = sub.add_parser("zerodiv", help="search for a zero-divisor pair")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=4)
    p.set_defaults(func=_cmd_zerodiv)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if args.budget < 0:
            raise InputError(f"--budget must be non-negative, got {args.budget}")
        return args.func(args)
    except (InputError, BudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
