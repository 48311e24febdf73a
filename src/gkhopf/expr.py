"""The expression language of ``gkhopf nf``: grammar, AST and evaluation.

Expressions follow the grammar

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := generator | scalar | '(' expr ')'
    scalar := uint | uint '/' uint | 'zeta' '(' int ',' int ')'

with whitespace ignored, parentheses nested at most ``MAX_NESTING`` deep
and every exponent at most ``EXPONENT_LIMIT`` in absolute value.
Generator symbols depend on the presentation: ``x`` and ``y1..ys`` for the
Laurent-times-skew families, ``y`` (invertible) and ``x`` for the
differential-operator family.  A negative power is accepted on a nonzero
number (``3``, ``1/2``), on a ``zeta(L,k)`` atom and on the invertible
generator, and nowhere else: ``(zeta(15,2)+1)^-3`` is refused although its
base is a nonzero scalar.

A text is parsed whole before anything is evaluated, so a syntax error
stops a command before any work starts.  Evaluation then stays in normal
form throughout: sums, products and powers are ``NCPoly`` arithmetic, and
the rewrite budget bounds each normal-form computation on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .ncpoly import NCPoly, multiply, normal_form, power
from .presentations import EXPONENT_LIMIT, BuiltPresentation
from .scalars import CONDUCTOR_LIMIT, Cyclo, make_root

# The parser and ``evaluate`` recurse a few frames per parenthesis level;
# this bound keeps both well inside the interpreter's recursion limit.
MAX_NESTING = 100


class ExprError(ValueError):
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
    def __init__(self, src: str, built: BuiltPresentation):
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
        while self.pos < len(self.src) and "0" <= self.src[self.pos] <= "9":
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
            if abs(k) > EXPONENT_LIMIT:
                raise self.error(f"exponent {k} exceeds EXPONENT_LIMIT={EXPONENT_LIMIT}")
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
            if atom.name != self.built.rs.letter_names[1]:
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
        if "0" <= ch <= "9":
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
        names = self.built.rs.letter_names
        if name in names:
            return name
        if name == "y" and "y1" in names and self.built.num_free == 1:
            return "y1"
        if name == "y1" and "y" in names:
            return "y"
        raise ExprError(f"unknown generator {name!r}", pos)


def parse_expression(src: str, built: BuiltPresentation):
    """Parse to an AST; generator names are checked against the presentation."""
    return _Parser(src, built).parse()


def evaluate(node, built: BuiltPresentation) -> NCPoly:
    """Evaluate an AST from ``parse_expression(src, built)`` to its normal form."""
    rs = built.rs
    if isinstance(node, ENum):
        return built.unit().scale(node.value)
    if isinstance(node, EGen):
        return normal_form((rs.letter_names.index(node.name),), rs)
    if isinstance(node, EPow):
        if isinstance(node.base, ENum):
            return built.unit().scale(node.base.value ** node.exponent)
        if node.exponent < 0:
            # the parser admits this only on the invertible generator, letter 1
            return power(normal_form((0,), rs), -node.exponent, rs)
        return power(evaluate(node.base, built), node.exponent, rs)
    if isinstance(node, EMul):
        value = evaluate(node.factors[0], built)
        for factor in node.factors[1:]:
            value = multiply(value, evaluate(factor, built), rs)
        return value
    if isinstance(node, EAdd):
        total = NCPoly.zero()
        for sign, term in node.terms:
            value = evaluate(term, built)
            total = total + value if sign > 0 else total - value
        return total
    raise TypeError(f"not an expression node: {node!r}")
