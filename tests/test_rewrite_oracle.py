"""Differential oracle for ``normal_form``: the letter-level rewriting loop.

``letter_normal_form`` is a verbatim copy of the one-letter-per-step loop
that ``normal_form`` is measured against: it scans the whole word from the
left for the first redex, applies one rule and counts one step, and returns
the step count beside the normal form.  ``normal_form`` must give the same
ordered term list on every input, confluent systems or not, and must pass
at ``step_budget`` = the oracle's step count and raise one step below it.
With ``rightmost`` the copy fires the rightmost redex instead, an
independent strategy that a confluent system must agree with.

A product of two basis monomials does not rewrite its joined word where the
Ore-extension formula applies, so ``_ore_product`` is held to the same
standard directly: the terms of letter rewriting of the joined word in the
same order, and a product that passes at ``step_budget`` = the letter step
count of its shape word ``y^u y^v`` and raises one step below it.

``letter_find_redex`` is a verbatim copy of the letter-by-letter scan that
``RewriteSystem._find_redex`` ran before it searched one compiled pattern:
both must find the same position and rule index, or no redex, on every word.
"""

import dataclasses
import random

import pytest

from gkhopf import ncpoly
from gkhopf.hopfops import check_hopf_axioms
from gkhopf.ncpoly import (BudgetExceeded, NCPoly, NFMonomial, RewriteSystem, Rule, _as_terms,
                           _ore_product, _product_of_monomials, certify_confluence, normal_form)
from gkhopf.presentations import HopfPresentation, KParams, build
from gkhopf.scalars import Cyclo, add_terms, make_root

from helpers import built_b, corrupted_b23, search_k_instances


def _letter_find_redex(word, by_first, rightmost=False):
    for i in (range(len(word) - 1, -1, -1) if rightmost else range(len(word))):
        for idx, rule in by_first.get(word[i], ()):
            lhs = rule.lhs
            if word[i : i + len(lhs)] == lhs:
                return i, rule
    return None


def letter_find_redex(by_first, word, start=0):
    """``RewriteSystem._find_redex`` as a scan over the rules by first letter."""
    for i in range(start, len(word)):
        for idx, rule in by_first.get(word[i], ()):
            lhs = rule.lhs
            if word[i : i + len(lhs)] == lhs:
                return i, idx, rule
    return None


def letter_normal_form(p, rs, rightmost=False):
    """Normal form of ``p`` and the number of letter steps taken."""
    by_first = {}
    for idx, rule in enumerate(rs.rules):
        by_first.setdefault(rule.lhs[0], []).append((idx, rule))
    irreducible = []
    stack = _as_terms(p, rs)
    steps = 0
    while stack:
        coeff, word = stack.pop()
        if coeff.is_zero():
            continue
        hit = _letter_find_redex(word, by_first, rightmost)
        if hit is None:
            irreducible.append((rs.monomial_of_word(word), coeff))
            continue
        steps += 1
        i, rule = hit
        head, tail = word[:i], word[i + len(rule.lhs):]
        for rc, rw in rule.rhs:
            stack.append((coeff * rc, head + rw + tail))
    return NCPoly(add_terms({}, irreducible)), steps


def assert_agrees(p, rs):
    want, steps = letter_normal_form(p, rs)
    assert list(normal_form(p, rs).terms.items()) == list(want.terms.items()), p
    saved = rs.step_budget
    try:
        rs.step_budget = steps
        assert normal_form(p, rs) == want
        if steps:
            rs.step_budget = steps - 1
            with pytest.raises(BudgetExceeded):
                normal_form(p, rs)
    finally:
        rs.step_budget = saved


def _recorded_inputs(monkeypatch, run):
    """Every input ``run`` hands to ``ncpoly.normal_form`` through the module:
    the product-cache misses and the ambiguity resolutions."""
    seen = []
    real = ncpoly.normal_form

    def record(p, rs, **kwargs):
        seen.append(p)
        return real(p, rs, **kwargs)

    monkeypatch.setattr(ncpoly, "normal_form", record)
    run()
    monkeypatch.setattr(ncpoly, "normal_form", real)
    return seen


def _runs(rng, letters, count, max_run):
    """``count`` runs of random letters, each repeated 1..``max_run`` times."""
    word = []
    for _ in range(count):
        word.extend([rng.choice(letters)] * rng.randint(1, max_run))
    return tuple(word)


def _random_words(rng, rs, n, max_heavy=None):
    """``n`` short random words and ``n`` words of long runs; at most
    ``max_heavy`` copies of letter 2 if given."""
    letters = range(len(rs.letter_names))
    words = []
    while len(words) < 2 * n:
        for word in (tuple(rng.choice(letters) for _ in range(rng.randint(0, 7))),
                     _runs(rng, letters, rng.randint(1, 5), 6)):
            if max_heavy is None or word.count(2) <= max_heavy:
                words.append(word)
    return words


def _hybrid_system() -> RewriteSystem:
    """A non-confluent system in basis shape with a rule at each place where
    a swap chain stops: a left-hand side in front of a swap block that is
    neither swap nor cancel (``y1*x``) or a cancel (``x^-1*x``), a letter
    power on a letter that moves (``y1^3``), and a rule on the pair a moved
    letter forms with the front of its block (``y2*y3``, which ``y2`` forms
    with a ``y3`` block)."""
    one, z, three = Cyclo.one(), make_root(5, 1), Cyclo.from_rational(3)
    rules = [
        Rule((1, 0), ((one, ()),), "x*x^-1"),
        Rule((0, 1), ((z, ()),), "x^-1*x"),
        Rule((2, 1), ((z, (1, 2)), (one, (1, 1)), (-one, (1,))), "y1*x"),
        Rule((2, 0), ((z, (0, 2)),), "y1*x^-1"),
        Rule((3, 1), ((z * z, (1, 3)),), "y2*x"),
        Rule((3, 0), ((z, (0, 3)),), "y2*x^-1"),
        Rule((4, 1), ((three, (1, 4)),), "y3*x"),
        Rule((4, 0), ((z, (0, 4)),), "y3*x^-1"),
        Rule((3, 2), ((three, (2, 3)),), "y2*y1"),
        Rule((4, 2), ((z, (2, 4)),), "y3*y1"),
        Rule((4, 3), ((-z, (3, 4)),), "y3*y2"),
        Rule((3, 4), ((Cyclo.from_rational(2), (1,)),), "y2*y3"),
        Rule((2, 2, 2), ((one, (2,)), (z, (0, 0))), "y1^3"),
    ]
    return RewriteSystem(["x^-1", "x", "y1", "y2", "y3"], [0, 0, 1, 1, 1], rules)


def _random_word_systems(b23, k22):
    k26 = search_k_instances((2, 6), 6, (0, 1))[0]
    return {
        "b23": b23.rs,
        "b25": built_b(1, (2, 5), 3, (0, 2)).rs,
        "b34": built_b(1, (3, 4), 5, (0, 1)).rs,
        "b27": built_b(1, (2, 7), 1, (0, 1)).rs,
        "b235": built_b(1, (2, 3, 5), 7, (0, 1, 2)).rs,
        "k22": k22.rs,
        "k26": build(HopfPresentation.from_k(k26)).rs,
        "a_zeta5sq": build(HopfPresentation.a_family(1, make_root(5, 2))).rs,
        "a_q2": build(HopfPresentation.a_family(2, 2)).rs,
        "c3": build(HopfPresentation.c_family(3)).rs,
        "b23_corrupted": corrupted_b23(b23),
        "hybrid": _hybrid_system(),
    }


def test_random_words_match_letter_steps(b23, k22):
    rng = random.Random(5)
    for name, rs in _random_word_systems(b23, k22).items():
        # each x of C3 passing a y-run multiplies the terms, so C3 words
        # carry at most two of them
        for word in _random_words(rng, rs, 40, max_heavy=2 if name == "c3" else None):
            assert_agrees(word, rs)


def test_long_runs_match_letter_steps(b23):
    # x^-a y.. x^b and y_j^a y_i^b shapes, the ones the Hopf windows rewrite
    rs = b23.rs
    for a in range(0, 9):
        for b in range(0, 9):
            assert_agrees((0,) * a + (2, 3, 3) + (1,) * b, rs)
            assert_agrees((1,) * a + (3, 2, 3) + (0,) * b, rs)
            assert_agrees((3,) * a + (2,) * b + (0,) * a, rs)


def test_find_redex_matches_letter_scan(b23, k22):
    rng = random.Random(19)
    systems = _random_word_systems(b23, k22)
    k1015 = search_k_instances((10, 15), 30, (0, 1))[0]
    systems["k1015"] = build(HopfPresentation.from_k(k1015)).rs
    systems["no_rules"] = RewriteSystem(["x^-1", "x", "y1", "y2"], [0, 0, 1, 1], [])
    # left-hand sides that match at one position: the first rule in index
    # order wins, longer or shorter, and a repeated left-hand side too
    one = Cyclo.one()
    systems["ties"] = RewriteSystem(["x^-1", "x", "y1", "y2"], [0, 0, 1, 1], [
        Rule((3, 3, 3), ((one, ()),)), Rule((3, 3), ((one, (2, 2)),)), Rule((3, 2), ((one, (2, 3)),)),
        Rule((3, 2, 2), ((one, (2,)),)), Rule((3, 2), ((one, (2,)),))])
    for name, rs in systems.items():
        by_first = {}
        for idx, rule in enumerate(rs.rules):
            by_first.setdefault(rule.lhs[0], []).append((idx, rule))
        letters = range(len(rs.letter_names))
        # runs up to 16 reach the letter powers of K{10,15}
        words = _random_words(rng, rs, 60) + [_runs(rng, letters, rng.randint(1, 4), 16)
                                             for _ in range(40)]
        for word in words:
            want = letter_find_redex(by_first, word)
            assert rs._find_redex(word) == (want and want[:2]), (name, word)


def test_block_boundaries_match_letter_steps():
    # a run behind a block, where in front of the block stands: a rule that
    # is neither swap nor cancel (y1*x), a cancel (x^-1*x), the letter that
    # moves under a letter power (y1^3), or nothing in front but a rule on
    # the pair the moved letter forms with the block (y2*y3)
    rs = _hybrid_system()
    for a in range(1, 5):
        for b in range(1, 4):
            assert_agrees((2,) + (3,) * b + (1,) * a, rs)
            assert_agrees((0,) * b + (3,) * b + (1,) * a, rs)
            assert_agrees((2,) * (b - 1) + (3,) * b + (2,) * a, rs)
            assert_agrees((4,) * b + (3,) * a, rs)


def test_hopf_window_products_match_letter_steps(monkeypatch):
    shapes = [((2, 3), 1, (0, 1)), ((2, 5), 3, (0, 1)), ((3, 4), 5, (0, 2)),
              ((2, 3, 5), 7, (0, 1, 2))]
    builts = [built_b(1, p, k, alpha) for p, k, alpha in shapes]
    builts.append(build(HopfPresentation.from_k(
        KParams.make(2, (1, 1), (2, 2), [Cyclo.from_rational(-1)] * 2, (0, 2)))))
    for built in builts:
        seen = _recorded_inputs(monkeypatch, lambda: (check_hopf_axioms(built, 3, 5),
                                                      certify_confluence(built.rs)))
        for p in seen:
            assert_agrees(p, built.rs)


def assert_product_agrees(m1, m2, rs):
    want, _ = letter_normal_form(rs.word_of_monomial(m1) + rs.word_of_monomial(m2), rs)
    shape_word = rs.word_of_monomial(NFMonomial(0, m1.w)) + rs.word_of_monomial(NFMonomial(0, m2.w))
    _, steps = letter_normal_form(shape_word, rs)
    saved = rs.step_budget
    try:
        rs.step_budget = steps
        rs._shape_products.clear()
        got = _ore_product(m1, m2, rs)
        assert got is not None and list(got) == list(want.terms.items()), (m1, m2)
        rs.step_budget = 0  # a cached shape product costs nothing
        assert _ore_product(m1, m2, rs) == got, (m1, m2)
        if steps:
            rs.step_budget = steps - 1
            rs._shape_products.clear()
            rs._product_cache.pop((m1, m2), None)
            with pytest.raises(BudgetExceeded):
                _product_of_monomials(m1, m2, rs)
    finally:
        rs.step_budget = saved


def _k523():
    """K(M=30, p=(5,2,3)) with alpha (0,1,2): the power rules of y1 and y3 write x^30."""
    q = [make_root(5, 1), Cyclo.from_rational(-1), make_root(3, 1)]
    return build(HopfPresentation.from_k(KParams.make(30, (6, 15, 10), (5, 2, 3), q, (0, 1, 2))))


def _corrupted_b23():
    """B{2,3} on the non-confluent system of ``corrupted_b23``."""
    built = built_b(1, (2, 3), 1, (0, 1))
    return dataclasses.replace(built, rs=corrupted_b23(built))


# (presentation, degree cap, x-exponents): every pair of the monomials x^a y^w,
# w a free shape up to the cap; the caps reach products that fire power rules,
# and K523's exponents put -(a+b) below, at and above the 30 of x^30
PRODUCT_CASES = {
    "b23": (lambda: built_b(1, (2, 3), 1, (0, 1)), 7, range(-3, 4)),
    "b23_corrupted": (_corrupted_b23, 7, range(-3, 4)),
    "b25": (lambda: built_b(1, (2, 5), 3, (0, 1)), 9, range(-2, 3)),
    "b34": (lambda: built_b(1, (3, 4), 5, (0, 2)), 9, range(-2, 3)),
    "b235": (lambda: built_b(1, (2, 3, 5), 7, (0, 1, 2)), 24, range(-1, 2)),
    "k22": (lambda: build(HopfPresentation.from_k(
        KParams.make(2, (1, 1), (2, 2), [Cyclo.from_rational(-1)] * 2, (0, 2)))), 6, range(-3, 4)),
    "k523": (_k523, 20, (-16, -15, -14, 0, 1)),
    "a25": (lambda: build(HopfPresentation.a_family(2, make_root(5, 1))), 4, range(-3, 4)),
}


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_products_match_letter_steps(name):
    make, cap, xs = PRODUCT_CASES[name]
    built = make()
    assert built.rs._ore
    monomials = [NFMonomial(a, w) for w in built.free_shapes(cap) for a in xs]
    for m1 in monomials:
        for m2 in monomials:
            assert_product_agrees(m1, m2, built.rs)


def test_ore_formula_needs_the_swap_and_cancel_rules(b23, c3):
    assert b23.rs._ore and not c3.rs._ore and not _hybrid_system()._ore


def test_confluence_grid_resolutions_match_letter_steps(monkeypatch):
    grid = [built_b(1, p, 1, (0, 1)) for p in ((2, 7), (2, 15), (3, 8), (4, 7), (5, 6))]
    for p, M in (((3, 3), 12), ((6, 10), 30), ((10, 15), 30)):
        grid.append(build(HopfPresentation.from_k(search_k_instances(p, M, (0, 1))[0])))
    for built in grid:
        for p in _recorded_inputs(monkeypatch, lambda: certify_confluence(built.rs)):
            assert_agrees(p, built.rs)
