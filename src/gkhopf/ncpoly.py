"""Noncommutative polynomials and the rewriting engine behind them.

Words live in a free monoid on an ordered alphabet: letter 0 is the inverse
of the distinguished invertible generator, letter 1 the generator itself,
and letters 2.. are the remaining (non-invertible) generators.  A rewrite
system orients the defining relations so that every left-hand side strictly
exceeds the right-hand side monomials in the order

    (weighted degree, word length, left-to-right letter comparison),

which the ``RewriteSystem`` constructor checks rule by rule.  The order is
compatible with concatenation: weights and lengths add, and a shared prefix
and suffix keep the lexicographic order of two words of equal length.  So
replacing a left-hand side inside any word by a right-hand word descends
too: every rewrite step descends without a further check, and exhaustive
rewriting terminates.

Irreducible words have the shape ``g^{w0} f_1^{w_1} ... f_s^{w_s}`` and are
recorded as NFMonomial values; confluence of the system is certified through
its overlap and inclusion ambiguities, after which those monomials form a
module basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .scalars import Cyclo, ScalarLike, add_terms

Word = tuple[int, ...]


class RewriteError(Exception):
    pass


class BudgetExceeded(RewriteError):
    pass


class StructureError(RewriteError):
    """An irreducible word fell outside the expected basis shape."""


@dataclass(frozen=True)
class NFMonomial:
    """Basis monomial g^{w0} f_1^{w_1}...f_s^{w_s}."""

    w0: int
    w: tuple[int, ...]

    def is_group_power(self) -> bool:
        return all(e == 0 for e in self.w)


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: tuple[tuple[Cyclo, Word], ...]
    name: str = ""


@dataclass(frozen=True)
class Ambiguity:
    kind: str  # "overlap" or "inclusion"
    rule_i: int
    rule_j: int
    word: Word
    offset: int  # start of rule_j's lhs inside word


@dataclass
class AmbiguityResult:
    ambiguity: Ambiguity
    resolved: bool
    left: "NCPoly"
    right: "NCPoly"


@dataclass
class ConfluenceReport:
    results: list[AmbiguityResult]

    @property
    def all_resolved(self) -> bool:
        return all(r.resolved for r in self.results)

    @property
    def failures(self) -> list[AmbiguityResult]:
        return [r for r in self.results if not r.resolved]

    def __len__(self) -> int:
        return len(self.results)


class SparseTerms:
    """Linear combination of basis keys with nonzero Cyclo coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        return type(self)(add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: ScalarLike):
        c = Cyclo.promote(c)
        if c.is_zero():
            return type(self)()
        return type(self)({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}({len(self.terms)} terms)"


class NCPoly(SparseTerms):
    """Linear combination of NFMonomial with Cyclo coefficients."""

    __slots__ = ()

    @staticmethod
    def monomial(m: NFMonomial, coeff: ScalarLike = 1) -> "NCPoly":
        return NCPoly({m: Cyclo.promote(coeff)})

    def coefficient(self, m: NFMonomial) -> Cyclo:
        return self.terms.get(m, Cyclo.zero())

    def __hash__(self):
        return hash(tuple(self.sorted_terms()))

    def sorted_terms(self) -> list[tuple[NFMonomial, Cyclo]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0].w0, kv[0].w))


RawTerms = Union[NCPoly, Word, Iterable[tuple[ScalarLike, Word]]]


class RewriteSystem:
    """An oriented, order-compatible rule set over a fixed alphabet."""

    def __init__(
        self,
        letter_names: Sequence[str],
        letter_weights: Sequence[int],
        rules: Sequence[Rule],
        step_budget: int = 1_000_000,
    ):
        if len(letter_names) != len(letter_weights):
            raise ValueError("one weight per letter")
        self.letter_names = tuple(letter_names)
        self.letter_weights = tuple(letter_weights)
        self.rules = tuple(rules)
        self.step_budget = step_budget
        self.num_free = len(letter_names) - 2
        self._by_first: dict[int, list[tuple[int, Rule]]] = {}
        for idx, rule in enumerate(self.rules):
            if not rule.lhs:
                raise ValueError("empty left-hand side")
            self._by_first.setdefault(rule.lhs[0], []).append((idx, rule))
            lk = self.word_key(rule.lhs)
            for _, w in rule.rhs:
                if self.word_key(w) >= lk:
                    raise ValueError(
                        f"rule {rule.name or idx}: right-hand word {w} does not "
                        f"descend below {rule.lhs}"
                    )
        self._product_cache: dict[tuple[NFMonomial, NFMonomial], tuple[tuple[NFMonomial, Cyclo], ...]] = {}

    # -- order -----------------------------------------------------------

    def word_key(self, word: Word):
        return (sum(self.letter_weights[l] for l in word), len(word), word)

    # -- basis shape -----------------------------------------------------

    def monomial_of_word(self, word: Word) -> NFMonomial:
        pos = 0
        neg = 0
        counts = [0] * self.num_free
        stage = 0  # 0: group prefix, 1: free letters
        last_free = -1
        for letter in word:
            if letter <= 1:
                if stage == 1:
                    raise StructureError(f"group letter after free letters in {word}")
                if letter == 0:
                    neg += 1
                else:
                    pos += 1
            else:
                stage = 1
                if letter < last_free:
                    raise StructureError(f"free letters out of order in {word}")
                last_free = letter
                counts[letter - 2] += 1
        if pos and neg:
            raise StructureError(f"mixed inverse pair survived rewriting in {word}")
        return NFMonomial(pos - neg, tuple(counts))

    def word_of_monomial(self, m: NFMonomial) -> Word:
        head: list[int]
        if m.w0 >= 0:
            head = [1] * m.w0
        else:
            head = [0] * (-m.w0)
        for i, e in enumerate(m.w):
            head.extend([i + 2] * e)
        return tuple(head)

    def unit_monomial(self) -> NFMonomial:
        return NFMonomial(0, (0,) * self.num_free)

    # -- rewriting -------------------------------------------------------

    def _find_redex(self, word: Word, from_right: bool = False):
        rng = range(len(word) - 1, -1, -1) if from_right else range(len(word))
        for i in rng:
            for idx, rule in self._by_first.get(word[i], ()):
                lhs = rule.lhs
                if word[i : i + len(lhs)] == lhs:
                    return i, rule
        return None

    def format_poly(self, p: NCPoly) -> str:
        if p.is_zero():
            return "0"
        chunks = []
        for m, c in p.sorted_terms():
            factors = []
            if m.w0:
                factors.append(f"{self.letter_names[1]}^{m.w0}" if m.w0 != 1 else self.letter_names[1])
            for i, e in enumerate(m.w):
                if e:
                    name = self.letter_names[i + 2]
                    factors.append(f"{name}^{e}" if e != 1 else name)
            body = "*".join(factors)
            if not body:
                chunk = f"({c})" if ("+" in str(c) or "-" in str(c)[1:]) else str(c)
            elif c == Cyclo.one():
                chunk = body
            elif c == Cyclo.from_rational(-1):
                chunk = f"-{body}"
            else:
                cs = str(c)
                chunk = f"({cs})*{body}" if ("+" in cs or "-" in cs[1:] or "/" in cs) else f"{cs}*{body}"
            chunks.append(chunk)
        out = chunks[0]
        for chunk in chunks[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out


def _as_terms(p: RawTerms, rs: RewriteSystem) -> list[tuple[Cyclo, Word]]:
    if isinstance(p, NCPoly):
        return [(c, rs.word_of_monomial(m)) for m, c in p.terms.items()]
    if isinstance(p, tuple) and all(isinstance(x, int) for x in p):
        return [(Cyclo.one(), p)]
    return [(Cyclo.promote(c), tuple(w)) for c, w in p]


def normal_form(p: RawTerms, rs: RewriteSystem, *, from_right: bool = False) -> NCPoly:
    """Exhaustively rewrite a linear combination of words to its normal form."""
    irreducible: list[tuple[NFMonomial, Cyclo]] = []
    stack = _as_terms(p, rs)
    steps = 0
    while stack:
        coeff, word = stack.pop()
        if coeff.is_zero():
            continue
        hit = rs._find_redex(word, from_right=from_right)
        if hit is None:
            irreducible.append((rs.monomial_of_word(word), coeff))
            continue
        steps += 1
        if steps > rs.step_budget:
            raise BudgetExceeded(f"rewriting exceeded {rs.step_budget} steps")
        i, rule = hit
        head, tail = word[:i], word[i + len(rule.lhs):]
        for rc, rw in rule.rhs:
            stack.append((coeff * rc, head + rw + tail))
    return NCPoly(add_terms({}, irreducible))


def _product_of_monomials(m1: NFMonomial, m2: NFMonomial, rs: RewriteSystem):
    cached = rs._product_cache.get((m1, m2))
    if cached is None:
        word = rs.word_of_monomial(m1) + rs.word_of_monomial(m2)
        nf = normal_form(word, rs)
        cached = tuple(nf.terms.items())
        rs._product_cache[(m1, m2)] = cached
    return cached


def multiply(a: NCPoly, b: NCPoly, rs: RewriteSystem) -> NCPoly:
    out: dict[NFMonomial, Cyclo] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            add_terms(out, _product_of_monomials(m1, m2, rs), c1 * c2)
    return NCPoly(out)


def power(p: NCPoly, k: int, rs: RewriteSystem) -> NCPoly:
    if k < 0:
        raise ValueError("negative power of a polynomial")
    result = NCPoly.monomial(rs.unit_monomial())
    for _ in range(k):
        result = multiply(result, p, rs)
    return result


def enumerate_ambiguities(rs: RewriteSystem) -> list[Ambiguity]:
    """All overlap and inclusion ambiguities among the rule left sides."""
    out = []
    rules = rs.rules
    for i, ri in enumerate(rules):
        for j, rj in enumerate(rules):
            li, lj = ri.lhs, rj.lhs
            for t in range(1, min(len(li), len(lj))):
                if li[len(li) - t:] == lj[:t]:
                    out.append(Ambiguity("overlap", i, j, li + lj[t:], len(li) - t))
            if i != j and len(lj) <= len(li):
                for off in range(len(li) - len(lj) + 1):
                    if li[off : off + len(lj)] == lj and (off > 0 or len(lj) < len(li)):
                        out.append(Ambiguity("inclusion", i, j, li, off))
    return out


def _apply_rule_at(word: Word, rule: Rule, pos: int) -> list[tuple[Cyclo, Word]]:
    head, tail = word[:pos], word[pos + len(rule.lhs):]
    return [(c, head + w + tail) for c, w in rule.rhs]


def certify_confluence(rs: RewriteSystem) -> ConfluenceReport:
    """Resolve every ambiguity both ways and compare the normal forms."""
    results = []
    for amb in enumerate_ambiguities(rs):
        left = normal_form(_apply_rule_at(amb.word, rs.rules[amb.rule_i], 0), rs)
        right = normal_form(_apply_rule_at(amb.word, rs.rules[amb.rule_j], amb.offset), rs)
        results.append(AmbiguityResult(amb, left == right, left, right))
    return ConfluenceReport(results)
