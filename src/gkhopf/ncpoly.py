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
module basis.  The ambiguities, like the redex pattern below, are derived
once per tuple of left-hand sides, which every draw of a shape shares.

``normal_form`` rewrites the leftmost redex first.  One compiled ``bytes``
pattern finds it: a group per left-hand side, in rule order, so the
leftmost-first alternation of ``re`` stops at the first position and there
at the first rule.  A letter is one byte, so a system has at most 256
letters.  A step whose rule has a single right-hand term is popped again at
once, so a chain of such steps can be taken as one bulk step, provided the
chain is exactly what the leftmost letter-by-letter strategy does.  The
result is then the same term list in the same order, and a bulk step counts
as the letter steps it replaces, so the step budget trips on exactly the
same inputs.  Bulk steps need every left-hand side to be a letter pair or a
letter power ``l^p``; any other system takes one letter per step.  The
leftmost redex is at ``i`` and nothing before ``i`` is a redex, so no
letter power fits inside the letter runs in front of ``i``.

* Cancel ``a b -> c`` (a != b) with k = min(a-run ending at i, b-run
  starting at i+1): each cancellation leaves ``a b`` at i - 1 with an
  unchanged prefix in front of it, so it is again the leftmost redex;
  factor ``c^k``, k steps.
* Swap ``v u -> c u v``: let B be the longest block ending at i of letters
  w with a swap rule ``w u``.  The first u of the run after i moves left
  across B one swap at a time, each swap being the leftmost redex, since
  the only new pair in front of u is ``w' u`` for the next block letter w'.
  In front of B stands l.  If ``l u`` is a left-hand side, it fires next:
  k = 1.  Otherwise, once u stands in front of B, a redex can start only at
  the new run of u's (a letter power u^p, reached after p minus the u-run
  already in front of B) or at the pair ``u B[0]`` (k = 1 if that is a
  left-hand side), and else at the end of B, where the next u starts the
  same walk.  A bulk step moves k u's across B with factor
  ``prod c_w^(k * count of w in B)`` and k |B| steps.  A cancel ``l u``
  after the block is a step of its own: since ``BENCH_11.json`` no K, B or
  A product rewrites a run of x's across ``y^u``, and folding the cancel
  into the swap chain measured as noise.
* Every other rule fires one rule application at a time.

Products of basis monomials are cached per pair.  Where every free letter
swaps with x and x^-1 (K, B and A), a product is read off the
Ore-extension formula ``x^a y^u * x^b y^v = c x^(a+b) (y^u * y^v)``, and
only ``y^u * y^v`` is rewritten, once per pair of shapes (see
``_ore_product``).  Each build starts with empty caches and the pair key
holds both x-exponents, so about half the products of a Hopf-axiom window
miss the pair cache; a miss reads the shape product and the swap factor
from their caches and shifts the x-exponents, and where the exponent stays
and the factor is 1 it returns the shape product's terms as they are.  Any
other system rewrites the joined word.  A rule constant's power ``c^k``
comes from the value memo of ``Cyclo.__pow__``.

The step budget bounds each rewriting that runs, on its own, by its letter
steps: a word, the joined word of a product, or ``y^u * y^v`` alone where
the formula applies.  A product taken from a cache costs nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .scalars import MEMO_SIZE, STEP_BUDGET, BudgetExceeded, Cyclo, ScalarLike, add_terms

Word = tuple[int, ...]


class StructureError(Exception):
    """An irreducible word fell outside the expected basis shape."""


class NFMonomial(NamedTuple):
    """Basis monomial g^{w0} f_1^{w_1}...f_s^{w_s}; ordered as the tuple (w0, w)."""

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
    def monomial(m: NFMonomial, coeff: ScalarLike = Cyclo.one()) -> "NCPoly":
        return NCPoly({m: Cyclo.promote(coeff)})

    def coefficient(self, m: NFMonomial) -> Cyclo:
        return self.terms.get(m, Cyclo.zero())

    def sorted_terms(self) -> list[tuple[NFMonomial, Cyclo]]:
        return sorted(self.terms.items())


RawTerms = Union[NCPoly, Word, Iterable[tuple[ScalarLike, Word]]]


@lru_cache(maxsize=MEMO_SIZE)
def _redex_pattern(lhss: tuple[Word, ...]) -> re.Pattern:
    """A group per left-hand side in rule order; with none, one that never matches."""
    return re.compile(b"|".join(b"(" + re.escape(bytes(lhs)) + b")" for lhs in lhss) or b"(?!)")


class RewriteSystem:
    """An oriented, order-compatible rule set over a fixed alphabet."""

    def __init__(
        self,
        letter_names: Sequence[str],
        letter_weights: Sequence[int],
        rules: Sequence[Rule],
        step_budget: int = STEP_BUDGET,
    ):
        if len(letter_names) != len(letter_weights):
            raise ValueError("one weight per letter")
        self.letter_names = tuple(letter_names)
        self.letter_weights = tuple(letter_weights)
        self.rules = tuple(rules)
        self.step_budget = step_budget
        self.num_free = len(letter_names) - 2
        if len(letter_names) > 256:
            raise ValueError(f"{len(letter_names)} letters: a rewrite system has at most 256, one byte each")
        for idx, rule in enumerate(self.rules):
            if not rule.lhs:
                raise ValueError("empty left-hand side")
            lk = self.word_key(rule.lhs)
            for _, w in rule.rhs:
                if self.word_key(w) >= lk:
                    raise ValueError(
                        f"rule {rule.name or idx}: right-hand word {w} does not "
                        f"descend below {rule.lhs}"
                    )
        self._redex = _redex_pattern(tuple(r.lhs for r in self.rules))
        # rule shapes for bulk steps: the first rule on each letter pair, the
        # swaps v u -> c u v and cancels a b -> c among them (by pair), and
        # the shortest letter power l^p with a rule (l's exponent in a normal
        # word is < p; p = 1, a rule l -> ..., turns bulk steps off)
        self._bulk = all(len(r.lhs) == 2 or (len(r.lhs) > 2 and len(set(r.lhs)) == 1)
                         for r in self.rules)
        self._pairs: dict[tuple[int, int], int] = {}
        self._swaps: dict[tuple[int, int], int] = {}
        self._cancels: dict[tuple[int, int], int] = {}
        self.min_power: dict[int, int] = {}
        for idx, rule in enumerate(self.rules):
            lhs = rule.lhs
            if len(set(lhs)) == 1:
                self.min_power[lhs[0]] = min(len(lhs), self.min_power.get(lhs[0], len(lhs)))
            if len(lhs) != 2 or lhs in self._pairs:
                continue
            self._pairs[lhs] = idx
            if lhs[0] != lhs[1] and len(rule.rhs) == 1 and rule.rhs[0][0]:
                if rule.rhs[0][1] == (lhs[1], lhs[0]):
                    self._swaps[lhs] = idx
                elif not rule.rhs[0][1]:
                    self._cancels[lhs] = idx
        # products by the Ore-extension formula (``_ore_product``) need every
        # free letter to swap with x and x^-1, the two to cancel to 1, no other
        # rule to read x or x^-1, and no rule but the swaps to write x^-1
        ore = [self._cancels.get((1, 0)), self._cancels.get((0, 1))]
        ore += [self._swaps.get((l, x)) for l in range(2, len(letter_names)) for x in (0, 1)]
        others = [rule for idx, rule in enumerate(self.rules) if idx not in ore]
        self._ore = (None not in ore
                     and all(self.rules[idx].rhs[0][0] == Cyclo.one() for idx in ore[:2])
                     and not any({0, 1} & set(rule.lhs) or any(0 in w for _, w in rule.rhs)
                                 for rule in others))
        self._product_cache: dict[tuple[NFMonomial, NFMonomial], tuple[tuple[NFMonomial, Cyclo], ...]] = {}
        # the terms of y^u * y^v per shape pair (u, v); None if y^u is not
        # irreducible
        self._shape_products: dict[tuple[tuple[int, ...], tuple[int, ...]], Optional[tuple]] = {}
        # ``_swap_factor`` per (u, b): the swap constants that x^b picks up
        # in crossing y^u
        self._swap_factors: dict[tuple[tuple[int, ...], int], Cyclo] = {}

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

    def format_word(self, word: Word) -> str:
        return "*".join(self.letter_names[l] for l in word)

    def _find_redex(self, word: Word):
        """The leftmost redex: its position and its rule index."""
        hit = self._redex.search(bytes(word))
        return None if hit is None else (hit.start(), hit.lastindex - 1)

    def _bulk_step(self, word: Word, i: int, idx: int):
        """The chain of steps that leftmost rewriting takes from the redex of
        rule ``idx`` at ``i``, taken at once: ``(letter steps, coefficient,
        word)``, or None unless the rule is a swap or a cancel (see the
        module docstring for why each chain is exact)."""
        v, u = word[i], word[i + 1]
        is_cancel = idx == self._cancels.get((v, u))
        if not is_cancel and idx != self._swaps.get((v, u)):
            return None
        j = i + 2
        while j < len(word) and word[j] == u:
            j += 1
        run = j - i - 1  # the u-run that starts at i + 1
        if is_cancel:
            t = i - 1
            while t >= 0 and word[t] == v:
                t -= 1
            k = min(run, i - t)
            return k, self.rules[idx].rhs[0][0] ** k, word[:i + 1 - k] + word[i + 1 + k:]
        # the block word[s..i] of letters that each swap with u
        swaps = self._swaps
        s = i
        while s and (word[s - 1], u) in swaps:
            s -= 1
        k = 1 if (s and (word[s - 1], u) in self._pairs) or (u, word[s]) in self._pairs else run
        p = self.min_power.get(u)
        if p is not None:
            r = 0  # the u-run in front of the block, shorter than p
            while r < s and word[s - 1 - r] == u:
                r += 1
            k = min(k, p - r)
        coeff = None
        t = s
        while t <= i:
            w = word[t]
            e = t + 1
            while e <= i and word[e] == w:
                e += 1
            c = self.rules[swaps[(w, u)]].rhs[0][0] ** ((e - t) * k)
            coeff = c if coeff is None else coeff * c
            t = e
        return k * (i + 1 - s), coeff, word[:s] + (u,) * k + word[s:i + 1] + word[i + 1 + k:]

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


def normal_form(p: RawTerms, rs: RewriteSystem) -> NCPoly:
    """Exhaustively rewrite a linear combination of words to its normal form:
    the irreducible leaves that leftmost rewriting reaches, merged in order."""
    irreducible: list[tuple[NFMonomial, Cyclo]] = []
    stack = _as_terms(p, rs)
    steps = 0
    while stack:
        coeff, word = stack.pop()
        if coeff.is_zero():
            continue
        hit = rs._find_redex(word)
        if hit is None:
            irreducible.append((rs.monomial_of_word(word), coeff))
            continue
        i, idx = hit
        bulk_step = rs._bulk_step(word, i, idx) if rs._bulk else None
        steps += 1 if bulk_step is None else bulk_step[0]
        if steps > rs.step_budget:
            raise BudgetExceeded(rs.step_budget, word, rs.format_word(word))
        if bulk_step is None:
            rule = rs.rules[idx]
            head, tail = word[:i], word[i + len(rule.lhs):]
            for rc, rw in rule.rhs:
                stack.append((coeff * rc, head + rw + tail))
        else:
            stack.append((coeff * bulk_step[1], bulk_step[2]))
    return NCPoly(add_terms({}, irreducible))


_MISSING = object()
_ONE = Cyclo.one()


def _shape_product(u: tuple[int, ...], v: tuple[int, ...], rs: RewriteSystem):
    """The terms of y^u * y^v, rewritten once per shape pair (u, v); None if
    y^u is not irreducible."""
    key = (u, v)
    terms = rs._shape_products.get(key, _MISSING)
    if terms is not _MISSING:
        return terms
    yu = rs.word_of_monomial(NFMonomial(0, u))
    terms = None
    if rs._find_redex(yu) is None:
        terms = tuple(normal_form(yu + rs.word_of_monomial(NFMonomial(0, v)), rs).terms.items())
    rs._shape_products[key] = terms
    return terms


def _swap_factor(u: tuple[int, ...], b: int, rs: RewriteSystem) -> Cyclo:
    """prod_i c_i^(u_i |b|), c_i the constant of the swap of y_i with the
    letter of x^b: y^u x^b = factor x^b y^u.  Cached per (u, b); the singleton
    1 where x^b crosses no swap."""
    factor = rs._swap_factors.get((u, b))
    if factor is None:
        factor = _ONE
        for letter, e in enumerate(u, start=2):
            if e and b:
                factor = factor * rs.rules[rs._swaps[(letter, 1 if b > 0 else 0)]].rhs[0][0] ** (e * abs(b))
        rs._swap_factors[(u, b)] = factor
    return factor


def _ore_product(m1: NFMonomial, m2: NFMonomial, rs: RewriteSystem):
    """m1 * m2 by x^a y^u * x^b y^v = (prod_i c_i^(u_i |b|)) x^(a+b) (y^u * y^v),
    the factor ``_swap_factor(u, b)``; None if y^u is not irreducible.  Only
    y^u * y^v is rewritten, so only its steps count against the budget.

    Leftmost rewriting of the joined word moves each letter of x^b across
    y^u and cancels it against x^a while it can, then rewrites y^u y^v
    behind x^(a+b), whose x's move to the front.  So the terms are those of
    ``normal_form`` on the joined word, in the same order."""
    terms = _shape_product(m1.w, m2.w, rs)
    if terms is None:
        return None
    k = m1.w0 + m2.w0
    factor = _swap_factor(m1.w, m2.w0, rs)
    if k == 0 and factor is _ONE:
        return terms
    # tuple.__new__ skips the argument parsing of NFMonomial's own __new__
    return tuple((tuple.__new__(NFMonomial, (m.w0 + k, m.w)), c * factor) for m, c in terms)


def _product_of_monomials(m1: NFMonomial, m2: NFMonomial, rs: RewriteSystem):
    """The terms of m1 * m2, cached per pair: by the Ore-extension formula
    where it applies, else by rewriting the joined word."""
    cached = rs._product_cache.get((m1, m2))
    if cached is None:
        cached = _ore_product(m1, m2, rs) if rs._ore else None
        if cached is None:
            word = rs.word_of_monomial(m1) + rs.word_of_monomial(m2)
            cached = tuple(normal_form(word, rs).terms.items())
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
    return list(_ambiguities(tuple(rule.lhs for rule in rs.rules)))


@lru_cache(maxsize=MEMO_SIZE)
def _ambiguities(lhss: tuple[Word, ...]) -> tuple[Ambiguity, ...]:
    """``enumerate_ambiguities`` once per tuple of left sides, shared by a shape's draws."""
    out = []
    for i, li in enumerate(lhss):
        for j, lj in enumerate(lhss):
            for t in range(1, min(len(li), len(lj))):
                if li[len(li) - t:] == lj[:t]:
                    out.append(Ambiguity("overlap", i, j, li + lj[t:], len(li) - t))
            if i != j and len(lj) <= len(li):
                for off in range(len(li) - len(lj) + 1):
                    if li[off : off + len(lj)] == lj and (off > 0 or len(lj) < len(li)):
                        out.append(Ambiguity("inclusion", i, j, li, off))
    return tuple(out)


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
