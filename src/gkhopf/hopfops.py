"""Hopf-structure computations on a built presentation.

The coproduct, counit and antipode extend the generator tables
(anti)multiplicatively through the rewrite engine.  On top of those this
module provides exhaustive axiom verification on a finite monomial window,
an exact linear solver for skew primitive elements of a prescribed weight,
weight/commutator extraction, the dimension of the degree-one cohomology of
the augmentation ideal, and a seeded zero-divisor search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import _linalg
from .ncpoly import NCPoly, NFMonomial, SparseTerms, _product_of_monomials, multiply
from .presentations import BuiltPresentation
from .scalars import CONDUCTOR_LIMIT, Cyclo, add_terms, make_root, nth_root_in_cyclotomics, order_of


class TensorPoly(SparseTerms):
    """Element of the two-fold tensor square, both legs in normal form."""

    __slots__ = ()


def tensor_of(left: NCPoly, right: NCPoly) -> TensorPoly:
    return TensorPoly({(ml, mr): cl * cr
                       for ml, cl in left.terms.items() for mr, cr in right.terms.items()})


def _left_times(table, d: dict, rs) -> dict:
    """Delta(letter) * d for the coproduct table of one letter."""
    out: dict[tuple[NFMonomial, NFMonomial], Cyclo] = {}
    for (l, r), c in d.items():
        for tc, tl, tr in table:
            scale = c * tc
            for ml, cl in _product_of_monomials(tl, l, rs):
                add_terms(out, (((ml, mr), cr) for mr, cr in _product_of_monomials(tr, r, rs)),
                          scale * cl)
    return out


def _walk(m: NFMonomial, built: BuiltPresentation, cache: dict, word_map):
    """The value of the basis monomial ``m`` under a map fixed on the letters
    and extended from the right: ``word_map(word, built, rest)`` is the value
    of ``word`` followed by a word of value ``rest``.  Each suffix of a basis
    word is one too, its monomial the previous one with the exponent of the
    dropped letter lowered.  The walk starts at the longest suffix in
    ``cache`` (or the empty word) and caches each suffix on the way back, so
    every key is a basis monomial.  Rule words, which need not be basis
    words, are folded by ``word_map`` alone, without a cache."""
    word = built.rs.word_of_monomial(m)
    chain = [m]
    # chain[k] is the monomial of word[k:]; only the last may be cached
    while chain[-1] not in cache and len(chain) <= len(word):
        m, letter = chain[-1], word[len(chain) - 1]
        if letter >= 2:
            w = list(m.w)
            w[letter - 2] -= 1
            chain.append(NFMonomial(m.w0, tuple(w)))
        else:
            chain.append(NFMonomial(m.w0 - 1 if letter else m.w0 + 1, m.w))
    value = cache.get(chain[-1])
    if value is None:
        value = cache[chain[-1]] = word_map((), built)
    for k in range(len(chain) - 2, -1, -1):
        value = cache[chain[k]] = word_map(word[k:k + 1], built, value)
    return value


def _coproduct_word(word, built: BuiltPresentation, rest: Optional[TensorPoly] = None) -> TensorPoly:
    """Delta(word w) from rest = Delta(w), by default Delta(1): Delta is
    multiplicative, so Delta(first letter) * Delta(rest)."""
    if rest is None:
        unit = built.rs.unit_monomial()
        rest = TensorPoly({(unit, unit): Cyclo.one()})
    for letter in reversed(word):
        rest = TensorPoly(_left_times(built.coproducts[letter], rest.terms, built.rs))
    return rest


def coproduct_monomial(m: NFMonomial, built: BuiltPresentation) -> TensorPoly:
    """Delta(m), cached per monomial."""
    hit = built.coproduct_cache.get(m)
    return hit if hit is not None else _walk(m, built, built.coproduct_cache, _coproduct_word)


def coproduct(p: NCPoly, built: BuiltPresentation) -> TensorPoly:
    out: dict[tuple[NFMonomial, NFMonomial], Cyclo] = {}
    for m, c in p.terms.items():
        add_terms(out, coproduct_monomial(m, built).terms.items(), c)
    return TensorPoly(out)


def _counit_word(word, built: BuiltPresentation, rest: Cyclo = Cyclo.one()) -> Cyclo:
    """epsilon(word w) from rest = epsilon(w), the product of the letter
    counits; a free letter's zero counit stands at the right end of a basis
    word, where the walk starts."""
    for letter in reversed(word):
        if not rest.is_zero():
            rest = built.counits[letter] * rest
    return rest


def _counit_monomial(m: NFMonomial, built: BuiltPresentation) -> Cyclo:
    hit = built.counit_cache.get(m)
    return hit if hit is not None else _walk(m, built, built.counit_cache, _counit_word)


def counit(p: NCPoly, built: BuiltPresentation) -> Cyclo:
    out = Cyclo.zero()
    for m, c in p.terms.items():
        out = out + c * _counit_monomial(m, built)
    return out


def _antipode_word(word, built: BuiltPresentation, rest: Optional[NCPoly] = None) -> NCPoly:
    """S(word w) from rest = S(w), by default S(1): S reverses products, so
    S(rest) * S(first letter)."""
    rest = built.unit() if rest is None else rest
    for letter in reversed(word):
        rest = multiply(rest, built.antipodes[letter], built.rs)
    return rest


def antipode_monomial(m: NFMonomial, built: BuiltPresentation) -> NCPoly:
    """S(m), cached per monomial."""
    hit = built.antipode_cache.get(m)
    return hit if hit is not None else _walk(m, built, built.antipode_cache, _antipode_word)


def antipode(p: NCPoly, built: BuiltPresentation) -> NCPoly:
    out: dict[NFMonomial, Cyclo] = {}
    for m, c in p.terms.items():
        add_terms(out, antipode_monomial(m, built).terms.items(), c)
    return NCPoly(out)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    monomials_checked: int
    relation_checks: int
    failures: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return not self.failures


def check_hopf_axioms(built: BuiltPresentation, degree_cap: int, x_window: int) -> AxiomReport:
    """Exhaustively verify the bialgebra and antipode axioms on a window,
    plus annihilation of every defining relation by the structure maps.

    One pass over the terms l (x) r of Delta(m) builds both sides of each
    axiom on a window monomial m: (Delta (x) id) Delta(m) and
    (id (x) Delta) Delta(m), the sums of eps(l) r and of l eps(r), and the
    sums of S(l) r and of l S(r)."""
    rs = built.rs
    unit = rs.unit_monomial()
    one = Cyclo.one()
    report = AxiomReport(0, 0)
    for m in built.nf_monomials(degree_cap, x_window):
        report.monomials_checked += 1
        co_left, co_right, eps_left, eps_right, s_left, s_right = {}, {}, {}, {}, {}, {}
        for (l, r), c in coproduct_monomial(m, built).terms.items():
            inner = coproduct_monomial(l, built).terms.items()
            add_terms(co_left, (((a, b, r), c2) for (a, b), c2 in inner), c)
            inner = coproduct_monomial(r, built).terms.items()
            add_terms(co_right, (((l, a, b), c2) for (a, b), c2 in inner), c)
            # a zero counit adds nothing
            e = _counit_monomial(l, built)
            if e:
                add_terms(eps_left, ((r, c * e),))
            e = _counit_monomial(r, built)
            if e:
                add_terms(eps_right, ((l, c * e),))
            for s, cs in antipode_monomial(l, built).terms.items():
                add_terms(s_left, _product_of_monomials(s, r, rs), c * cs)
            for s, cs in antipode_monomial(r, built).terms.items():
                add_terms(s_right, _product_of_monomials(l, s, rs), c * cs)
        eps = _counit_monomial(m, built)
        target = {unit: eps} if eps else {}
        failed = []
        if co_left != co_right:
            failed.append("coassociativity")
        if eps_left != {m: one} or eps_right != {m: one}:
            failed.append("counit axiom")
        if s_left != target or s_right != target:
            failed.append("antipode axiom")
        for axiom in failed:
            report.failures.append(f"{axiom} fails on {rs.format_poly(NCPoly.monomial(m))}")
    for rule in rs.rules:
        report.relation_checks += 1
        d_r: dict[tuple[NFMonomial, NFMonomial], Cyclo] = {}
        e_r = Cyclo.zero()
        s_r: dict[NFMonomial, Cyclo] = {}
        for c, w in rule.rhs:
            add_terms(d_r, _coproduct_word(w, built).terms.items(), c)
            e_r = e_r + c * _counit_word(w, built)
            add_terms(s_r, _antipode_word(w, built).terms.items(), c)
        if _coproduct_word(rule.lhs, built).terms != d_r:
            report.failures.append(f"coproduct does not preserve relation {rule.name}")
        if _counit_word(rule.lhs, built) != e_r:
            report.failures.append(f"counit does not preserve relation {rule.name}")
        if _antipode_word(rule.lhs, built).terms != s_r:
            report.failures.append(f"antipode does not preserve relation {rule.name}")
    return report


# ---------------------------------------------------------------------------
# skew primitive elements
# ---------------------------------------------------------------------------


@dataclass
class SkewPrimitiveRecord:
    element: NCPoly
    level: int


@dataclass
class PrimitiveEntry:
    commutator: Cyclo
    records: list[SkewPrimitiveRecord]

    @property
    def dimension(self) -> int:
        return len(self.records)

    @property
    def is_major(self) -> bool:
        order = order_of(self.commutator)
        return order is None or order == 1


@dataclass
class PrimitiveSpaceReport:
    g_exponent: int
    entries: list[PrimitiveEntry]
    trivial_dimension: int
    degree_cap: int
    x_window: int

    @property
    def total_dimension(self) -> int:
        return sum(e.dimension for e in self.entries)


def default_window(built: BuiltPresentation, degree_cap: int) -> int:
    """The x-window of ``skew_primitives`` when none is given."""
    if built.central_exponent:
        return degree_cap * built.central_exponent
    return degree_cap * max(1, max(abs(w) for w in built.skew_weights))


def zero_divisor_window(built: BuiltPresentation, degree_cap: int) -> int:
    """The x-window of the candidate pool that ``find_zero_divisors`` searches."""
    return min(degree_cap, built.central_exponent or degree_cap)


_MINUS_ONE = Cyclo.from_rational(-1)


def _primitive_rows(shape, built, x_window):
    """What the skew-primitive system of the nonzero ``shape`` keeps for
    every weight: ``(rows, open_cols)``.

    Column t stands for the ansatz monomial m = x^a f^shape with
    a = t - x_window.  The system has one row per pair (l, r) at which
    Delta(m) - m (x) 1 - g (x) m has terms.  The group letter is grouplike
    and stands leftmost in every basis word, so Delta(m) is Delta(f^shape)
    with both legs shifted by a, and the weight g touches only the rows at
    (g, m).  A single-entry row whose left leg is no group power forces its
    column to zero in every solution, with no reduction; ``open_cols`` lists
    the other columns.  ``rows`` maps each pair ((lx, lw), (rx, rw)) to its
    row of Delta(m) - m (x) 1 on the open columns, and holds no empty row."""
    zero = (0,) * built.num_free
    delta = [(l, r, c) for (l, r), c in coproduct_monomial(NFMonomial(0, shape), built).terms.items()]
    free = [term for term in delta if term[0].w != zero]  # the terms whose left leg is no group power

    def rows_on(columns, terms):
        rows: dict = {}  # (l, r) -> {t: c}
        for t in columns:
            a = t - x_window
            for (lx, lw), (rx, rw), c in terms:
                rows.setdefault(((lx + a, lw), (rx + a, rw)), {})[t] = c
            # - m (x) 1, which can cancel the row at (m, 1) to nothing
            pair = ((a, shape), (0, zero))
            if not add_terms(rows.setdefault(pair, {}), ((t, _MINUS_ONE),)):
                del rows[pair]
        return rows

    columns = range(2 * x_window + 1)
    closed = {t for row in rows_on(columns, free).values() if len(row) == 1 for t in row}
    open_cols = [t for t in columns if t not in closed]
    return rows_on(open_cols, delta), open_cols


def _solve_primitive_shape(shape, g_exponent, built, x_window) -> list[NCPoly]:
    """A basis of the skew primitives of weight x^g in the ansatz of the
    nonzero ``shape``: the cached rows of ``_primitive_rows`` with - g (x) m
    added at (g, m) for the monomial m of each open column, solved on the
    open columns."""
    # primitive_rows[(shape, window)]: see _primitive_rows; filled by the
    # first weight and never changed after
    cached = built.primitive_rows.get((shape, x_window))
    if cached is None:
        cached = built.primitive_rows[(shape, x_window)] = _primitive_rows(shape, built, x_window)
    kept, open_cols = cached
    g = (g_exponent, (0,) * built.num_free)
    rows = dict(kept)
    for t in open_cols:  # into a copy: the cached row is shared by every weight
        pair = (g, (t - x_window, shape))
        rows[pair] = add_terms(dict(rows.get(pair, ())), ((t, _MINUS_ONE),))
    basis = _linalg.nullspace([row for row in rows.values() if row], open_cols)
    return [NCPoly({NFMonomial(t - x_window, shape): c for t, c in vec.items()}) for vec in basis]


def skew_primitives(built: BuiltPresentation, g_exponent: int, degree_cap: int,
                    x_window: Optional[int] = None) -> PrimitiveSpaceReport:
    """Solve Delta(y) = y (x) 1 + g (x) y exactly over the monomial window.

    The defect equations never mix distinct free-generator shapes, so the
    system splits per shape.  The zero shape is not solved: the powers of
    the grouplike x are linearly independent, so its solutions are the
    multiples of x^g - 1, a line for g != 0 and nothing for g = 0, and the
    window check puts x^g - 1 in the ansatz.
    """
    if x_window is None:
        x_window = default_window(built, degree_cap)
    if abs(g_exponent) > x_window:
        raise ValueError("weight exponent lies outside the search window")
    by_commutator: dict[Cyclo, PrimitiveEntry] = {}
    for shape in built.free_shapes(degree_cap):
        if all(e == 0 for e in shape):
            continue
        for sol in _solve_primitive_shape(shape, g_exponent, built, x_window):
            g_exp, lam, level = weight_commutator(sol, built)
            if g_exp != g_exponent:
                # a fault of the solver, not of the input: not a ValueError
                raise RuntimeError(f"a solution for the weight x^{g_exponent} has weight x^{g_exp}")
            by_commutator.setdefault(lam, PrimitiveEntry(lam, [])).records.append(
                SkewPrimitiveRecord(sol, level))
    entries = sorted(by_commutator.values(), key=lambda e: str(e.commutator))
    return PrimitiveSpaceReport(g_exponent, entries, int(g_exponent != 0), degree_cap, x_window)


# the highest commutator level weight_commutator looks for
COMMUTATOR_LEVEL_CAP = 8


def _conjugate(p: NCPoly, exponent: int, built: BuiltPresentation) -> NCPoly:
    left = NCPoly.monomial(built.group_monomial(-exponent))
    right = NCPoly.monomial(built.group_monomial(exponent))
    return multiply(left, multiply(p, right, built.rs), built.rs)


def _group_part_only(p: NCPoly) -> bool:
    return all(m.is_group_power() for m in p.terms)


def weight_commutator(rec: NCPoly, built: BuiltPresentation) -> tuple[int, Cyclo, int]:
    """Weight exponent, commutator scalar and its level for a skew primitive.

    The weight is recovered from the coproduct and verified exactly; the
    level-n condition iterates (conjugation-by-g-inverse minus lambda) until
    the result lands in the grouplike span.
    """
    if rec.is_zero():
        raise ValueError("zero is not a skew primitive")
    unit = built.rs.unit_monomial()
    defect = coproduct(rec, built) - tensor_of(rec, built.unit())
    g_exp = None
    for (l, r), _ in defect.terms.items():
        if not l.is_group_power():
            raise ValueError("element is not skew primitive: stray left leg")
        g_exp = l.w0
        break
    if g_exp is None:
        raise ValueError("element is not skew primitive: empty coproduct defect")
    g = built.group_monomial(g_exp)
    if defect != tensor_of(NCPoly.monomial(g), rec):
        raise ValueError("element is not skew primitive")
    if _group_part_only(rec):
        return (g_exp, Cyclo.one(), 0)
    conj = _conjugate(rec, g_exp, built)
    probe = max(m for m in rec.terms if not m.is_group_power())
    lam = conj.coefficient(probe) / rec.coefficient(probe)
    if lam.is_zero():
        raise ValueError("commutator of finite level does not exist")
    residue = conj - rec.scale(lam)
    level = 1
    while not _group_part_only(residue):
        residue = _conjugate(residue, g_exp, built) - residue.scale(lam)
        level += 1
        if level > COMMUTATOR_LEVEL_CAP:
            raise ValueError(f"no commutator of level <= {COMMUTATOR_LEVEL_CAP}")
    return (g_exp, lam, level)


# ---------------------------------------------------------------------------
# Ext^1 via linearization of the augmented presentation
# ---------------------------------------------------------------------------


def _linear_part(word, built: BuiltPresentation) -> tuple[Cyclo, dict[int, Cyclo]]:
    """Constant and linear coefficients of a word after shifting every
    generator by its counit value."""
    eps = [built.counits[letter] for letter in word]
    n = len(word)
    prefix = [Cyclo.one()] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] * eps[i]
    suffix = [Cyclo.one()] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = eps[i] * suffix[i + 1]
    linear = add_terms({}, ((letter, prefix[i] * suffix[i + 1]) for i, letter in enumerate(word)))
    return prefix[n], linear


def ext1_dimension(built: BuiltPresentation) -> int:
    """dim m/m^2 for the augmentation ideal m, from the presentation.

    Each defining relation is linearized at the counit; the answer is the
    corank of the stacked linear parts on the shifted generators.
    """
    rows = []
    for rule in built.rs.rules:
        const_l, lin_l = _linear_part(rule.lhs, built)
        const = const_l
        row = dict(lin_l)
        for c, w in rule.rhs:
            const_r, lin_r = _linear_part(w, built)
            const = const - c * const_r
            add_terms(row, lin_r.items(), -c)
        if not const.is_zero():
            raise ValueError(f"relation {rule.name} is not annihilated by the counit")
        if row:
            rows.append(row)
    return len(built.rs.letter_names) - _linalg.rank(rows)


# ---------------------------------------------------------------------------
# zero divisors
# ---------------------------------------------------------------------------


@dataclass
class ZeroDivisorReport:
    found: bool
    left: Optional[NCPoly]
    right: Optional[NCPoly]
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.found


def _seeded_zero_divisors(built: BuiltPresentation, notes: list[str]):
    """Witness pairs from the factored power identity.

    For indices i != j take a = y_i + gamma x^{n_i} with gamma^{p_i} equal
    to the alpha difference.  Then b := y_j satisfies b a = q a b and
    b^{p_j} = a^{p_i} - gamma^{p_i}; when p_i = p_j = ord(q) =: P the
    q-binomials vanish, (zeta a + b)^P = -gamma^P for zeta^P = -1, and the
    product of the P linear factors (zeta a + b - eta gamma zeta) is zero.
    The first vanishing prefix product splits into a witness pair.
    """
    params = built.presentation.kparams
    rs = built.rs
    factor_pool = []
    for i in range(params.s):
        for j in range(params.s):
            if i == j:
                continue
            q_comm = params.q[j] ** params.n[i]
            if q_comm == Cyclo.one():
                continue
            if params.p[i] != params.p[j] or order_of(q_comm) != params.p[i]:
                notes.append(f"no factored identity for pair ({i+1},{j+1}): exponent/order mismatch")
                continue
            gamma = nth_root_in_cyclotomics(params.alpha[j] - params.alpha[i], params.p[i])
            if gamma is None:
                notes.append(f"witness unavailable in coefficient field: "
                             f"no degree-{params.p[i]} root of alpha_{j+1}-alpha_{i+1}")
                continue
            P = params.p[i]
            conductor = math.lcm(gamma.conductor, P if P % 2 else 2 * P)  # of Q(zeta_{2P}, gamma)
            if conductor > CONDUCTOR_LIMIT:
                notes.append(f"witness unavailable in coefficient field: zeta_{2 * P} and the degree-{P} "
                             f"root of alpha_{j+1}-alpha_{i+1} need conductor {conductor}")
                continue
            a = NCPoly({built.free_monomial(i): Cyclo.one(),
                        built.group_monomial(params.n[i]): gamma})
            b = NCPoly.monomial(built.free_monomial(j))
            zeta = make_root(2 * P, 1)
            w = a.scale(zeta) + b
            delta = gamma * zeta
            factors = [w - built.unit().scale(make_root(P, t) * delta) for t in range(P)]
            factor_pool.extend(factors)
            current = factors[0]
            if current.is_zero():
                continue
            for t in range(1, P):
                nxt = multiply(current, factors[t], rs)
                if nxt.is_zero():
                    if not factors[t].is_zero():
                        return (current, factors[t]), factor_pool
                    break
                current = nxt
    return None, factor_pool


def find_zero_divisors(built: BuiltPresentation, degree_cap: int) -> ZeroDivisorReport:
    """Search for a, b != 0 with a*b = 0; absent for the coprime (domain) case."""
    rs = built.rs
    notes: list[str] = []
    candidates: list[NCPoly] = []
    if built.family in ("K", "B"):
        hit, factors = _seeded_zero_divisors(built, notes)
        if hit is not None:
            left, right = hit
            if not multiply(left, right, rs).is_zero():
                raise RuntimeError("the seeded zero-divisor pair does not multiply to zero")
            return ZeroDivisorReport(True, left, right, notes)
        candidates.extend(factors)
    for i in range(built.num_free):
        candidates.append(NCPoly.monomial(built.free_monomial(i)))
    pool = list(built.nf_monomials(degree_cap, zero_divisor_window(built, degree_cap)))
    for u in candidates:
        if u.is_zero():
            continue
        rows: dict[NFMonomial, dict[int, Cyclo]] = {}
        for t, m in enumerate(pool):
            prod = multiply(u, NCPoly.monomial(m), rs)
            for mm, c in prod.terms.items():
                rows.setdefault(mm, {})[t] = c
        basis = _linalg.nullspace(rows.values(), list(range(len(pool))))
        for vec in basis:
            v = NCPoly({pool[t]: c for t, c in vec.items()})
            if not v.is_zero() and multiply(u, v, rs).is_zero():
                return ZeroDivisorReport(True, u, v, notes)
    return ZeroDivisorReport(False, None, None, notes)
