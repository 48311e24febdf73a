"""Rewrite engine: normal forms, ring axioms, ambiguities, confluence."""

import random

import pytest

from gkhopf.ncpoly import (BudgetExceeded, NCPoly, NFMonomial, RewriteSystem, Rule,
                           certify_confluence, enumerate_ambiguities, multiply, normal_form,
                           power)
from gkhopf.presentations import HopfPresentation, KParams, build
from gkhopf.scalars import Cyclo, make_root

from helpers import corrupted_b23, ev
from test_rewrite_oracle import letter_normal_form


def test_rule_counts(b23, a15):
    assert len(b23.rs.rules) == 8
    names = [r.name for r in a15.rs.rules]
    assert names == ["x*x^-1", "x^-1*x", "y*x", "y*x^-1"]
    # single skew generator: no commutation or power rules
    degenerate = KParams.make(6, (3,), (2,), [Cyclo.from_rational(-1)], (0,))
    built = build(HopfPresentation.from_k(degenerate))
    assert len(built.rs.rules) == 4


def test_power_rule_instantiation(b23):
    rule = next(r for r in b23.rs.rules if r.name == "y2^p")
    assert rule.lhs == (3, 3, 3)
    rhs = {w: c for c, w in rule.rhs}
    assert rhs[(2, 2)] == Cyclo.one()
    assert rhs[(1,) * 6] == Cyclo.one()
    assert rhs[()] == Cyclo.from_rational(-1)


def test_normal_form_pins(b23):
    rs = b23.rs
    assert rs.format_poly(normal_form((3, 2), rs)) == "y1*y2"
    assert rs.format_poly(normal_form((2, 1), rs)) == "-x*y1"
    assert rs.format_poly(normal_form((1, 0), rs)) == "1"


def test_multiply_pins(b23):
    rs = b23.rs
    y1 = NCPoly.monomial(b23.free_monomial(0))
    assert rs.format_poly(multiply(y1, y1, rs)) == "y1^2"
    y2sq = ev(b23, "y2^2")
    y2 = NCPoly.monomial(b23.free_monomial(1))
    assert multiply(y2sq, y2, rs) == ev(b23, "y1^2 + x^6 - 1")
    p = ev(b23, "x^-2*y1 + 3")
    assert multiply(b23.unit(), p, rs) == p


def _random_word(rng, n_letters, max_len):
    return tuple(rng.randrange(n_letters) for _ in range(rng.randrange(max_len + 1)))


def test_normal_form_idempotent(b23):
    rng = random.Random(7)
    rs = b23.rs
    for _ in range(120):
        w = _random_word(rng, 4, 8)
        nf = normal_form(w, rs)
        again = normal_form(nf, rs)
        assert nf == again


def test_strategy_independence(b23, k22, c3):
    rng = random.Random(11)
    for built in (b23, k22, c3):
        rs = built.rs
        for _ in range(120):
            w = _random_word(rng, len(rs.letter_names), 8)
            assert normal_form(w, rs) == letter_normal_form(w, rs, rightmost=True)[0]


def test_ring_axioms(b23):
    rng = random.Random(13)
    rs = b23.rs

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            m = normal_form(_random_word(rng, 4, 5), rs)
            for mono, c in m.terms.items():
                terms[mono] = c * Cyclo.from_rational(rng.randrange(-3, 4))
        return NCPoly(terms)

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert multiply(multiply(a, b, rs), c, rs) == multiply(a, multiply(b, c, rs), rs)
        assert multiply(a, b + c, rs) == multiply(a, b, rs) + multiply(a, c, rs)


def test_central_elements(b23, b235, k22):
    for built in (b23, b235, k22):
        params = built.presentation.kparams
        rs = built.rs
        pivot = min(range(params.s), key=lambda i: params.p[i])
        for central in (NCPoly.monomial(built.group_monomial(params.M)),
                        NCPoly.monomial(NFMonomial(0, tuple(params.p[i] if i == pivot else 0
                                                            for i in range(params.s))))):
            for letter in range(len(rs.letter_names)):
                g = normal_form((letter,), rs)
                assert multiply(central, g, rs) == multiply(g, central, rs)


def test_defining_identity_all_pairs(b23, b235, k22):
    # y_j^{p_j} - y_i^{p_i} - (alpha_j - alpha_i)(x^M - 1) = 0 for every i < j
    for built in (b23, b235, k22):
        params = built.presentation.kparams
        rs = built.rs
        for i in range(params.s):
            for j in range(i + 1, params.s):
                diff = params.alpha[j] - params.alpha[i]
                lhs = normal_form((j + 2,) * params.p[j], rs)
                rhs = normal_form((i + 2,) * params.p[i], rs) \
                    + NCPoly.monomial(built.group_monomial(params.M), diff) \
                    + NCPoly.monomial(built.group_monomial(0), -diff)
                assert lhs == rhs, (i, j)


def test_ambiguity_enumeration(b23):
    ambs = enumerate_ambiguities(b23.rs)
    words = {a.word for a in ambs}
    assert (1, 0, 1) in words          # x * x^-1 * x
    assert (0, 1, 0) in words
    assert (3, 3, 3, 1) in words       # y2^3 * x
    assert (3, 3, 3, 2) in words       # y2^3 * y1
    assert (3, 3, 3, 3, 3) in words    # self-overlap of the power rule
    single = RewriteSystem(["x^-1", "x", "y"], [0, 0, 1],
                           [Rule((2, 1), ((make_root(5, 1), (1, 2)),), "y*x")])
    assert enumerate_ambiguities(single) == []


def test_draws_of_one_shape_share_pattern_and_ambiguities():
    # the redex pattern and the ambiguity list read only the left-hand sides,
    # so a second draw of B{2,3} with other alphas takes both from the cache
    from gkhopf import ncpoly
    from helpers import built_b

    first = built_b(1, (2, 3), 1, (0, 1)).rs
    ambs = enumerate_ambiguities(first)
    hits = ncpoly._redex_pattern.cache_info().hits
    second = built_b(1, (2, 3), 1, (1, 2)).rs
    assert ncpoly._redex_pattern.cache_info().hits > hits and second._redex is first._redex
    again = enumerate_ambiguities(second)
    assert again is not ambs and len(again) == len(ambs) and all(a is b for a, b in zip(again, ambs))


@pytest.mark.parametrize("lhs, rhs_word", [
    ((2,), (2,)),          # equal key
    ((2,), (2, 2)),        # heavier
    ((2,), (1, 2)),        # same weight, longer
    ((2, 3), (3, 2)),      # same weight and length, lexicographically greater
])
def test_rule_must_descend(lhs, rhs_word):
    # normal_form relies on this check alone: the order is compatible with
    # concatenation, so every rewrite step inside a word descends too
    with pytest.raises(ValueError, match="does not descend"):
        RewriteSystem(["x^-1", "x", "y1", "y2"], [0, 0, 1, 1],
                      [Rule(lhs, ((Cyclo.one(), rhs_word),), "bad")])


def test_confluence_positive(b23, b235, k22, a25, c3):
    for built in (b23, b235, k22, a25, c3):
        report = certify_confluence(built.rs)
        assert report.all_resolved, built.presentation.family
        assert len(report) > 0 or built.presentation.family == "?"


def test_confluence_across_instance_grid():
    # the ordered-monomial basis needs only the structural conditions, so
    # every validated instance certifies, coprime or not
    from gkhopf.presentations import validate
    from helpers import k_grid

    checked = 0
    for params in k_grid():
        if not validate(params).ok:
            continue
        built = build(HopfPresentation.from_k(params))
        assert certify_confluence(built.rs).all_resolved, params.p
        checked += 1
    assert checked >= 30


def test_rebuilt_system_powers_from_the_scalar_memo():
    # rule-constant powers are memoized by value, not per rewrite system, so a
    # second build of the same presentation computes no power afresh
    from helpers import built_b

    misses = []
    for _ in range(2):
        before = Cyclo.__pow__.cache_info().misses
        built = built_b(1, (2, 3), 1, (0, 1))
        assert certify_confluence(built.rs).all_resolved
        misses.append(Cyclo.__pow__.cache_info().misses - before)
    assert misses[1] == 0, misses


def test_rebuilt_system_sums_from_the_scalar_memo():
    # sums are memoized by value, not per build, so a second build of the same
    # presentation checked on the same window computes no sum afresh
    from gkhopf import scalars
    from gkhopf.hopfops import check_hopf_axioms
    from helpers import built_b

    misses = []
    for _ in range(2):
        before = scalars._sum.cache_info().misses
        assert check_hopf_axioms(built_b(1, (2, 3), 1, (0, 1)), 3, 4).all_passed
        misses.append(scalars._sum.cache_info().misses - before)
    assert misses[1] == 0, misses


def test_root_inverses_run_no_extended_euclid(monkeypatch):
    # every q_i of a validated K or B document is a root of unity, so each
    # q_i^-1 of an x^-1 swap rule is read off its exponent: once a warm-up
    # build has filled the cyclotomic polynomials, no polynomial division runs
    from gkhopf import scalars
    from helpers import built_b, search_k_instances

    k1015 = search_k_instances((10, 15), 30, (0, 1))[0]
    makes = [lambda: build(HopfPresentation.from_k(k1015)), lambda: built_b(1, (2, 3), 1, (0, 1))]
    for make in makes:
        make()

    def refuse(*args):
        raise AssertionError("extended Euclid ran")

    monkeypatch.setattr(scalars, "_poly_divmod", refuse)
    for make in makes:
        assert certify_confluence(make().rs).all_resolved


def test_rewrite_system_has_at_most_256_letters():
    names = [f"l{i}" for i in range(257)]
    with pytest.raises(ValueError, match="at most 256"):
        RewriteSystem(names, [0] * 257, [])
    assert RewriteSystem(names[:256], [0] * 256, []).num_free == 254


def test_system_without_rules_keeps_every_word():
    rs = RewriteSystem(["x^-1", "x", "y1", "y2"], [0, 0, 1, 1], [])
    z = make_root(5, 1)
    words = [(1, 1, 2, 3), (0, 2, 2), (), (3,)]
    p = normal_form([(z, w) for w in words], rs)
    assert p == NCPoly({NFMonomial(2, (1, 1)): z, NFMonomial(-1, (2, 0)): z,
                        NFMonomial(0, (0, 0)): z, NFMonomial(0, (0, 1)): z})
    assert all(rs._find_redex(w) is None for w in words)


def test_cancel_after_a_swap_block_is_its_own_step(b23):
    # x^-1*y1*x: y1*x swaps, then x^-1*x cancels in a step of its own, so a
    # budget of one letter step stops at the word after the swap
    rs = RewriteSystem(b23.rs.letter_names, b23.rs.letter_weights, b23.rs.rules, step_budget=1)
    with pytest.raises(BudgetExceeded) as err:
        normal_form((0, 2, 1), rs)
    assert err.value.word == (0, 1, 2)
    rs.step_budget = 2
    assert normal_form((0, 2, 1), rs) == normal_form((0, 2, 1), b23.rs)
    i, idx = rs._find_redex((0, 2, 1))
    assert rs._bulk_step((0, 2, 1), i, idx) == (1, rs.rules[idx].rhs[0][0], (0, 1, 2))
    # a plain run of cancels is still one bulk step
    i, idx = rs._find_redex((1, 1, 0, 0))
    assert rs._bulk_step((1, 1, 0, 0), i, idx) == (2, Cyclo.one(), ())


def test_negative_weight_comparison_family():
    from gkhopf.hopfops import check_hopf_axioms
    from gkhopf.scalars import make_root

    built = build(HopfPresentation.a_family(-2, make_root(5, 1)))
    assert certify_confluence(built.rs).all_resolved
    assert check_hopf_axioms(built, 3, 6).all_passed


def test_confluence_negative_control(b23):
    report = certify_confluence(corrupted_b23(b23))
    assert not report.all_resolved
    assert len(report.failures) >= 1


def test_budget_guard(b23):
    rs = RewriteSystem(b23.rs.letter_names, b23.rs.letter_weights, b23.rs.rules, step_budget=3)
    from gkhopf.ncpoly import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        normal_form((3, 3, 3, 3, 3, 3, 2, 1, 0), rs)


def test_budget_exceeded_names_steps_and_word(b23):
    from gkhopf.ncpoly import BudgetExceeded

    rs = RewriteSystem(b23.rs.letter_names, b23.rs.letter_weights, b23.rs.rules, step_budget=3)
    # y2 y2 x x x: the x-run crosses the y2 block in one bulk step of 6 letter steps
    with pytest.raises(BudgetExceeded) as info:
        normal_form((3, 3, 1, 1, 1), rs)
    assert info.value.steps == 3 and info.value.word == (3, 3, 1, 1, 1)
    assert str(info.value) == "rewriting exceeded 3 steps at y2*y2*x*x*x"
    with pytest.raises(BudgetExceeded) as info:
        normal_form((3,) * 30 + (0,) * 5, rs)
    text = str(info.value)
    assert text.startswith("rewriting exceeded 3 steps at y2*y2*y2*")
    assert text.endswith("...") and len(text) == len("rewriting exceeded 3 steps at ") + 80


def test_power_helper(b23):
    y2 = NCPoly.monomial(b23.free_monomial(1))
    assert power(y2, 3, b23.rs) == ev(b23, "y1^2 + x^6 - 1")


def test_c2_degenerate_tail():
    # n = 2 empties the y^{n-2} tail of the inverse commutation rule
    from gkhopf.hopfops import check_hopf_axioms

    built = build(HopfPresentation.c_family(2))
    assert certify_confluence(built.rs).all_resolved
    assert check_hopf_axioms(built, 3, 3).all_passed
    assert ev(built, "x*y - y*x - y^2 + y").is_zero()
