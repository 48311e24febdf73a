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
"""

import dataclasses

import pytest

from gkhopf import _linalg
from gkhopf.hopfops import (TensorPoly, _antipode_word, _coproduct_word, _counit_word,
                            antipode_monomial, check_hopf_axioms, coproduct_monomial,
                            skew_primitives, weight_commutator)
from gkhopf.ncpoly import NCPoly, NFMonomial, _product_of_monomials, multiply
from gkhopf.presentations import HopfPresentation, KParams, build
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


def _corrupted_b23():
    """B{2,3} on the non-confluent system of ``corrupted_b23``."""
    built = BUILDERS["b23"]()
    return dataclasses.replace(built, rs=corrupted_b23(built))


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


# -- skew primitives ----------------------------------------------------------


def _report_view(report):
    return report.trivial_dimension, [
        (str(e.commutator), [(r.element.sorted_terms(), r.level) for r in e.records])
        for e in report.entries]


@pytest.mark.parametrize("name, cap", [("b23", 6), ("b25", 4), ("b34", 4), ("k22", 4), ("a25", 4)])
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
