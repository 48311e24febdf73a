"""Differential oracles for the coproduct, the antipode and the skew-primitive solver.

``reference_coproduct_word`` is a verbatim copy of the coproduct that
``hopfops`` started from: it multiplies the generator coproduct tables
letter by letter from the left end of the word.  ``reference_solve_shape``
and ``reference_defect`` are verbatim copies of the skew-primitive solver
that builds the whole defect system ``Delta(m) - m(x)1 - g(x)m`` again for
every weight.  ``coproduct_monomial`` must equal the reference as a
TensorPoly on every window monomial, and ``skew_primitives`` must give the
same elements (as sorted term lists), commutators, levels and trivial
dimension at every weight.  ``reference_antipode_word`` is a verbatim copy of
the antipode that multiplies the generator antipodes once per letter from
the right end of the word; ``antipode_monomial`` must give the same terms in
the same order, whichever order its cache is filled in.
``reference_counit_word`` is a verbatim copy of the counit that multiplies
the generator counits letter by letter from the left end of the word.  The
word maps ``_coproduct_word``, ``_antipode_word`` and ``_counit_word`` must
agree with the references on every rule word and window monomial, with
cold caches and with caches that ``check_hopf_axioms`` has filled.
``reference_check_hopf_axioms`` is a verbatim copy of the axiom sweep that
makes six passes over the terms of each window monomial's coproduct, one per
side of each axiom (``_expand_leg``, ``_collapse_counit`` and
``_collapse_antipode``, copied with it); ``check_hopf_axioms`` must give the
same counts and the same failures in the same order, with cold and warm
caches, on sound presentations and on corrupted ones.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkhopf import _linalg
from gkhopf.hopfops import (AxiomReport, TensorPoly, _antipode_word, _coproduct_word,
                            _counit_monomial, _counit_word, antipode_monomial, check_hopf_axioms,
                            coproduct_monomial, default_window, skew_primitives, weight_commutator)
from gkhopf.ncpoly import NCPoly, NFMonomial, _product_of_monomials, multiply
from gkhopf.presentations import BParams, BuiltPresentation, HopfPresentation, KParams, build
from gkhopf.scalars import Cyclo, add_terms, make_root

from helpers import built_b, corrupted_b23


# -- reference ----------------------------------------------------------------


def reference_coproduct_word(word, built) -> TensorPoly:
    rs = built.rs
    unit = rs.unit_monomial()
    current = {(unit, unit): Cyclo.one()}
    for letter in word:
        table = built.coproducts[letter]
        nxt = {}
        for (l, r), c in current.items():
            for tc, tl, tr in table:
                scale = c * tc
                for ml, cl in _product_of_monomials(l, tl, rs):
                    add_terms(nxt, (((ml, mr), cr) for mr, cr in _product_of_monomials(r, tr, rs)),
                              scale * cl)
        current = nxt
    return TensorPoly(current)


def reference_antipode_word(word, built) -> NCPoly:
    out = built.unit()
    for letter in reversed(word):
        out = multiply(out, built.antipodes[letter], built.rs)
    return out


def reference_counit_word(word, built) -> Cyclo:
    out = Cyclo.one()
    for letter in word:
        out = out * built.counits[letter]
        if out.is_zero():
            break
    return out


def _expand_leg(d: TensorPoly, built: BuiltPresentation, leg: int) -> dict:
    out: dict[tuple[NFMonomial, NFMonomial, NFMonomial], Cyclo] = {}
    for (l, r), c in d.terms.items():
        inner = coproduct_monomial(l if leg == 0 else r, built).terms.items()
        add_terms(out, (((a, b, r) if leg == 0 else (l, a, b), c2) for (a, b), c2 in inner), c)
    return out


def _collapse_counit(d: TensorPoly, built: BuiltPresentation, leg: int) -> NCPoly:
    out: dict[NFMonomial, Cyclo] = {}
    for (l, r), c in d.terms.items():
        kept, dropped = (r, l) if leg == 0 else (l, r)
        add_terms(out, ((kept, c * _counit_monomial(dropped, built)),))
    return NCPoly(out)


def _collapse_antipode(d: TensorPoly, built: BuiltPresentation, leg: int) -> NCPoly:
    """S(l) r summed over the terms l (x) r of ``d`` (leg 0), or l S(r) (leg 1)."""
    rs = built.rs
    out: dict[NFMonomial, Cyclo] = {}
    for (l, r), c in d.terms.items():
        if leg == 0:
            for m, cm in antipode_monomial(l, built).terms.items():
                add_terms(out, _product_of_monomials(m, r, rs), c * cm)
        else:
            for m, cm in antipode_monomial(r, built).terms.items():
                add_terms(out, _product_of_monomials(l, m, rs), c * cm)
    return NCPoly(out)


def reference_check_hopf_axioms(built: BuiltPresentation, degree_cap: int, x_window: int) -> AxiomReport:
    """Exhaustively verify the bialgebra and antipode axioms on a window,
    plus annihilation of every defining relation by the structure maps."""
    rs = built.rs
    unit = built.unit()
    report = AxiomReport(0, 0)
    for m in built.nf_monomials(degree_cap, x_window):
        report.monomials_checked += 1
        mono = NCPoly.monomial(m)
        d = coproduct_monomial(m, built)
        if _expand_leg(d, built, 0) != _expand_leg(d, built, 1):
            report.failures.append(f"coassociativity fails on {rs.format_poly(mono)}")
        if _collapse_counit(d, built, 0) != mono or _collapse_counit(d, built, 1) != mono:
            report.failures.append(f"counit axiom fails on {rs.format_poly(mono)}")
        target = unit.scale(_counit_monomial(m, built))
        if _collapse_antipode(d, built, 0) != target or _collapse_antipode(d, built, 1) != target:
            report.failures.append(f"antipode axiom fails on {rs.format_poly(mono)}")
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


def reference_defect(m, g, built) -> TensorPoly:
    unit = built.rs.unit_monomial()
    d = TensorPoly(dict(reference_coproduct_word(built.rs.word_of_monomial(m), built).terms))
    add_terms(d.terms, (((m, unit), Cyclo.from_rational(-1)), ((g, m), Cyclo.from_rational(-1))))
    return d


def reference_solve_shape(shape, g_exponent, built, x_window) -> list[NCPoly]:
    g = built.group_monomial(g_exponent)
    ansatz = [NFMonomial(a, shape) for a in range(-x_window, x_window + 1)]
    rows = {}
    for t, m in enumerate(ansatz):
        for pair, c in reference_defect(m, g, built).terms.items():
            rows.setdefault(pair, {})[t] = c
    basis = _linalg.nullspace(rows.values(), list(range(len(ansatz))))
    return [NCPoly({ansatz[t]: c for t, c in vec.items()}) for vec in basis]


def reference_primitives(built, g_exponent, degree_cap, x_window):
    """(trivial dimension, [(commutator, [(sorted terms, level), ...]), ...])."""
    trivial = reference_solve_shape((0,) * built.num_free, g_exponent, built, x_window)
    by_commutator = {}
    for shape in built.free_shapes(degree_cap):
        if all(e == 0 for e in shape):
            continue
        for sol in reference_solve_shape(shape, g_exponent, built, x_window):
            g_exp, lam, level = weight_commutator(sol, built)
            assert g_exp == g_exponent
            by_commutator.setdefault(lam, []).append((sol.sorted_terms(), level))
    entries = sorted(by_commutator.items(), key=lambda kv: str(kv[0]))
    return len(trivial), [(str(lam), recs) for lam, recs in entries]


# -- instances ----------------------------------------------------------------


def _k22():
    params = KParams.make(2, (1, 1), (2, 2), [Cyclo.from_rational(-1)] * 2, (0, 1))
    return build(HopfPresentation.from_k(params))


# every case is built afresh, so that the coproduct cache starts empty
BUILDERS = {
    "b23": lambda: built_b(1, (2, 3), 1, (0, 1)),
    "b25": lambda: built_b(1, (2, 5), 1, (0, 1)),
    "b34": lambda: built_b(1, (3, 4), 1, (0, 1)),
    "b235": lambda: built_b(1, (2, 3, 5), 1, (0, 1, 2)),
    "k22": _k22,
    "k523": lambda: build(HopfPresentation.from_k(KParams.make(
        30, (6, 15, 10), (5, 2, 3), [make_root(5, 1), Cyclo.from_rational(-1), make_root(3, 1)],
        (0, 1, 2)))),
    "a25": lambda: build(HopfPresentation.a_family(2, make_root(5, 1))),
    "c3": lambda: build(HopfPresentation.c_family(3)),
}


# -- coproduct ----------------------------------------------------------------


@pytest.mark.parametrize("name, cap, window", [
    ("b23", 6, 6), ("b25", 6, 6), ("b34", 6, 6), ("b235", 16, 6), ("k22", 6, 6), ("a25", 6, 6),
    ("c3", 3, 3),
])
def test_coproduct_monomial_matches_reference(name, cap, window):
    built = BUILDERS[name]()
    window_monomials = list(built.nf_monomials(cap, window))
    # the highest x-powers first, so that most suffixes are filled on the way
    # down rather than found in the cache
    for m in reversed(window_monomials):
        want = reference_coproduct_word(built.rs.word_of_monomial(m), built)
        assert coproduct_monomial(m, built) == want, m


def test_coproduct_of_a_long_monomial():
    built = BUILDERS["b23"]()
    m = NFMonomial(-1100, (0, 1))
    want = reference_coproduct_word(built.rs.word_of_monomial(m), built)
    assert coproduct_monomial(m, built) == want


@pytest.mark.parametrize("name", BUILDERS)
def test_coproduct_is_shifted_by_the_group_power(name):
    # the group letter is grouplike and stands leftmost in every basis word,
    # so Delta(x^a f^w) is Delta(f^w) with both legs shifted by a, in the same
    # order; the skew-primitive systems are assembled by that shift
    built = BUILDERS[name]()
    window = default_window(built, 4)
    for w in built.free_shapes(4):
        base = list(coproduct_monomial(NFMonomial(0, w), built).terms.items())
        for a in range(-window, window + 1):
            want = [((NFMonomial(l.w0 + a, l.w), NFMonomial(r.w0 + a, r.w)), c) for (l, r), c in base]
            assert list(coproduct_monomial(NFMonomial(a, w), built).terms.items()) == want, (w, a)


# -- antipode -----------------------------------------------------------------


@pytest.mark.parametrize("longest_first", [True, False])
@pytest.mark.parametrize("name", ["b23", "b235", "k22", "a25", "c3"])
def test_antipode_monomial_matches_reference(name, longest_first):
    built = BUILDERS[name]()
    rs = built.rs
    window_monomials = sorted(built.nf_monomials(3, 4), key=lambda m: len(rs.word_of_monomial(m)),
                              reverse=longest_first)
    for m in window_monomials:
        want = reference_antipode_word(rs.word_of_monomial(m), built)
        assert list(antipode_monomial(m, built).terms.items()) == list(want.terms.items()), m


# -- words --------------------------------------------------------------------


def _k11():
    one = Cyclo.one()
    return build(HopfPresentation.from_k(KParams.make(2, (2, 2), (1, 1), [one, one], (0, 1))))


def _corrupted_rules(built):
    return dataclasses.replace(built, rs=corrupted_b23(built))


def _corrupted_b23():
    """B{2,3} on the non-confluent system of ``corrupted_b23``."""
    return _corrupted_rules(BUILDERS["b23"]())


WORD_CASES = {"b23": BUILDERS["b23"], "b235": BUILDERS["b235"], "k22": BUILDERS["k22"],
              "k11": _k11, "a25": BUILDERS["a25"], "c3": BUILDERS["c3"],
              "b23_corrupted": _corrupted_b23}


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("name", WORD_CASES)
def test_word_maps_match_reference(name, warm):
    built = WORD_CASES[name]()
    rs = built.rs
    if warm:
        check_hopf_axioms(built, 3, 4)
    words = [w for rule in rs.rules for w in (rule.lhs, *(w for _, w in rule.rhs))]
    words += [rs.word_of_monomial(m) for m in built.nf_monomials(3, 4)]
    for word in words:
        assert _coproduct_word(word, built) == reference_coproduct_word(word, built), word
        want = reference_antipode_word(word, built)
        assert list(_antipode_word(word, built).terms.items()) == list(want.terms.items()), word
        assert _counit_word(word, built) == reference_counit_word(word, built), word


# -- axiom sweep --------------------------------------------------------------


def _sweep_view(report):
    return report.monomials_checked, report.relation_checks, list(report.failures)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("name", ["b23", "b25", "b34", "b235", "k22", "k523", "a25", "c3"])
def test_axiom_sweep_matches_reference(name, warm):
    built = BUILDERS[name]()
    if warm:
        check_hopf_axioms(built, 3, 4)
        want = reference_check_hopf_axioms(built, 3, 4)
    else:
        want = reference_check_hopf_axioms(BUILDERS[name](), 3, 4)
    got = check_hopf_axioms(built, 3, 4)
    assert got.all_passed
    assert _sweep_view(got) == _sweep_view(want)


def _flip_antipode_y1(built):
    antis = list(built.antipodes)
    antis[2] = -antis[2]
    return dataclasses.replace(built, antipodes=tuple(antis))


def _unit_counit_y1(built):
    eps = list(built.counits)
    eps[2] = Cyclo.one()
    return dataclasses.replace(built, counits=tuple(eps))


def _extra_coproduct_y1(*extra):
    """Delta(y1) plus the terms c l (x) r of ``extra``, given as (c, w0 of l,
    shape of l, w0 of r, shape of r)."""
    def corrupt(built):
        cops = list(built.coproducts)
        cops[2] += tuple((Cyclo.from_rational(c), NFMonomial(a, u), NFMonomial(b, v))
                         for c, a, u, b, v in extra)
        return dataclasses.replace(built, coproducts=tuple(cops))
    return corrupt


# corruptions of B{2,3} and a failure each must report.  An extra y1 (x) 1
# makes Delta(y1) = 2 y1 (x) 1 + x^3 (x) y1.  The last four break one side of
# one axiom on y1 and keep the other: y1 (x) x^3 adds y1 to l eps(r) alone,
# x^3 (x) y1 adds y1 to eps(l) r alone; y1 (x) 1 + 1 (x) x^-3 y1 cancels in
# S(l) r but adds 2 y1 to l S(r), and x^-3 (x) x^-3 y1 + 1 (x) y1 the other
# way round
CORRUPTIONS = {
    "antipode_sign": (_flip_antipode_y1, "antipode axiom fails on y1"),
    "double_coproduct": (_extra_coproduct_y1((1, 0, (1, 0), 0, (0, 0))), "coassociativity fails on y1"),
    "unit_counit": (_unit_counit_y1, "counit axiom fails on y1"),
    "rules": (_corrupted_rules, "antipode axiom fails on x*y1"),
    "counit_right": (_extra_coproduct_y1((1, 0, (1, 0), 3, (0, 0))), "counit axiom fails on y1"),
    "counit_left": (_extra_coproduct_y1((1, 3, (0, 0), 0, (1, 0))), "counit axiom fails on y1"),
    "antipode_right": (_extra_coproduct_y1((1, 0, (1, 0), 0, (0, 0)), (1, 0, (0, 0), -3, (1, 0))),
                       "antipode axiom fails on y1"),
    "antipode_left": (_extra_coproduct_y1((1, -3, (0, 0), -3, (1, 0)), (1, 0, (0, 0), 0, (1, 0))),
                      "antipode axiom fails on y1"),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_axiom_sweep_matches_reference_on_corrupted_b23(name):
    corrupt, failure = CORRUPTIONS[name]
    got = check_hopf_axioms(corrupt(BUILDERS["b23"]()), 3, 4)
    want = reference_check_hopf_axioms(corrupt(BUILDERS["b23"]()), 3, 4)
    assert failure in got.failures
    assert _sweep_view(got) == _sweep_view(want)


# -- skew primitives ----------------------------------------------------------


def _report_view(report):
    return report.trivial_dimension, [
        (str(e.commutator), [(r.element.sorted_terms(), r.level) for r in e.records])
        for e in report.entries]


@pytest.mark.parametrize("name, cap", [("b23", 6), ("b25", 4), ("b34", 4), ("k22", 4), ("a25", 4),
                                       ("c3", 4)])
def test_skew_primitives_match_reference(name, cap):
    built = BUILDERS[name]()
    seen_nontrivial = False
    for g in range(-12, 13):
        try:
            report = skew_primitives(built, g, cap)
        except ValueError:
            # the weight lies outside the default window
            window = cap * (built.central_exponent or max(1, *map(abs, built.skew_weights)))
            assert abs(g) > window
            continue
        assert report.g_exponent == g
        want = reference_primitives(built, g, cap, report.x_window)
        assert _report_view(report) == want, g
        seen_nontrivial = seen_nontrivial or bool(report.entries)
    assert seen_nontrivial


def _units(ell):
    return [k for k in range(1, ell + 1) if math.gcd(k, ell) == 1]


# pairwise coprime p_1 < p_2 with l = p_1 p_2 <= 15
_SMALL_P = [(a, b) for a in range(2, 8) for b in range(a + 1, 8) if a * b <= 15 and math.gcd(a, b) == 1]
_SMALL_B = st.sampled_from(_SMALL_P).flatmap(lambda p: st.builds(
    lambda k, alpha: HopfPresentation.from_b(BParams.make(1, p, make_root(math.prod(p), k), alpha)),
    st.sampled_from(_units(math.prod(p))), st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
_SMALL_A = st.integers(1, 12).flatmap(lambda L: st.builds(
    lambda n, k: HopfPresentation.a_family(n, make_root(L, k)),
    st.integers(-3, 3), st.sampled_from(_units(L))))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(pres=st.one_of(_SMALL_B, _SMALL_A), data=st.data())
def test_skew_primitives_match_reference_on_drawn_parameters(pres, data):
    # B with any unit k and A with any root q, where the fixed cases above
    # all take k = 1; the weights are drawn from the multiples of the skew
    # weights, where the nonzero solutions lie, and from the whole window
    cap = 4
    built = build(pres)
    window = default_window(built, cap)
    multiples = sorted({j * w for w in built.skew_weights for j in range(1, cap + 1) if abs(j * w) <= window})
    weights = data.draw(st.lists(st.one_of(st.sampled_from(multiples), st.integers(-window, window)),
                                 min_size=1, max_size=3, unique=True))
    for g in weights:
        want = reference_primitives(built, g, cap, window)
        assert _report_view(skew_primitives(built, g, cap)) == want, g
