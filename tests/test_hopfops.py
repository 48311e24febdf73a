"""Coproduct/counit/antipode, axiom sweeps, primitives, Ext^1, zero divisors."""

import dataclasses
import sys

import pytest

from gkhopf import _linalg, hopfops
from gkhopf.hopfops import (TensorPoly, _antipode_word, _coproduct_word, _counit_monomial,
                            _counit_word, antipode, antipode_monomial, check_hopf_axioms, coproduct,
                            coproduct_monomial, counit, default_window, ext1_dimension,
                            find_zero_divisors, skew_primitives, tensor_of, weight_commutator)
from gkhopf.ncpoly import NCPoly, NFMonomial, multiply, normal_form
from gkhopf.presentations import BParams, HopfPresentation, build, presentation_from_json
from gkhopf.scalars import Cyclo, add_terms, make_root, qbinom

from cli_corpus import PRESENTATIONS
from helpers import b_grid, built_b, ev, perfbench_workloads
from test_linalg import reference_nullspace


def _tensor(built, left_text, right_text):
    return tensor_of(ev(built, left_text), ev(built, right_text))


def test_coproduct_grouplike_powers(b23):
    for k in (-2, 0, 1, 5):
        d = coproduct(NCPoly.monomial(b23.group_monomial(k)), b23)
        assert d == _tensor(b23, f"x^{k}", f"x^{k}")


def test_coproduct_y1_squared(b23):
    d = coproduct(ev(b23, "y1^2"), b23)
    assert d == _tensor(b23, "y1^2", "1") + _tensor(b23, "x^6", "y1^2")


def test_coproduct_y1y2_legs_normalized(b23):
    d = coproduct(ev(b23, "y1*y2"), b23)
    expected = (_tensor(b23, "y1*y2", "1") + _tensor(b23, "x^2*y1", "y2")
                + _tensor(b23, "x^3*y2", "y1") + _tensor(b23, "x^5", "y1*y2"))
    assert d == expected


def test_counit_pins(b23):
    assert counit(ev(b23, "x^5"), b23) == Cyclo.one()
    assert counit(ev(b23, "y1"), b23) == Cyclo.zero()
    assert counit(ev(b23, "3 + 2*y1*y2"), b23) == Cyclo.from_rational(3)


def test_antipode_pins(b23):
    rs = b23.rs
    assert antipode(ev(b23, "x"), b23) == ev(b23, "x^-1")
    assert antipode(ev(b23, "y1"), b23) == ev(b23, "-x^-3*y1")
    lhs = antipode(ev(b23, "y1*y2"), b23)
    rhs = multiply(antipode(ev(b23, "y2"), b23), antipode(ev(b23, "y1"), b23), rs)
    assert lhs == rhs


def test_hopf_axioms_pass(b23, a25, c3):
    assert check_hopf_axioms(b23, 4, 4).all_passed
    assert check_hopf_axioms(a25, 5, 5).all_passed
    assert check_hopf_axioms(c3, 3, 3).all_passed


def test_hopf_axioms_mixed_generators_three_variable(b235):
    # weighted degree 25 reaches monomials mixing all three skew generators
    report = check_hopf_axioms(b235, 25, 4)
    assert report.all_passed, report.failures[:3]
    shapes = {m.w for m in b235.nf_monomials(25, 0)}
    assert (1, 1, 0) in shapes and (1, 0, 1) in shapes and (0, 1, 1) in shapes


def test_hopf_axioms_corrupted_antipode(b23):
    antis = list(b23.antipodes)
    antis[2] = -antis[2]  # drop the sign of S(y1)
    corrupted = dataclasses.replace(b23, antipodes=tuple(antis))
    report = check_hopf_axioms(corrupted, 3, 3)
    assert any("antipode" in f and "y1" in f for f in report.failures)


def test_hopf_axioms_corrupted_coproduct_and_counit(b23):
    # Delta(y1) = 2 y1 (x) 1 + x^3 (x) y1 is not coassociative; eps(y1) = 1
    # breaks the counit axiom and the counit on the relation y1*x
    cops = list(b23.coproducts)
    cops[2] = ((Cyclo.from_rational(2),) + cops[2][0][1:],) + cops[2][1:]
    report = check_hopf_axioms(dataclasses.replace(b23, coproducts=tuple(cops)), 3, 3)
    assert "coassociativity fails on y1" in report.failures
    eps = list(b23.counits)
    eps[2] = Cyclo.one()
    report = check_hopf_axioms(dataclasses.replace(b23, counits=tuple(eps)), 3, 3)
    assert "counit axiom fails on y1" in report.failures
    assert "counit does not preserve relation y1*x" in report.failures


def test_monomial_walks_start_at_the_monomial(monkeypatch):
    # on fresh builds, Delta, S and epsilon of each basis monomial equal the
    # values of the word path, and the monomial path never reads the
    # monomial back from its word (only products read normal words); after
    # an axiom check, which also folds the rule words, every key of the
    # three caches is still a basis monomial
    from helpers import built_b

    by_word, by_monomial = built_b(1, (2, 3), 1, (0, 1)), built_b(1, (2, 3), 1, (0, 1))
    rs = by_monomial.rs
    callers = []

    def spy(word):
        callers.append(sys._getframe(1).f_code.co_name)
        return type(rs).monomial_of_word(rs, word)

    monkeypatch.setattr(rs, "monomial_of_word", spy)
    for m in by_monomial.nf_monomials(3, 4):
        word = rs.word_of_monomial(m)
        assert coproduct_monomial(m, by_monomial) == _coproduct_word(word, by_word), m
        assert antipode_monomial(m, by_monomial) == _antipode_word(word, by_word), m
        assert _counit_monomial(m, by_monomial) == _counit_word(word, by_word), m
    check_hopf_axioms(by_monomial, 3, 4)
    assert callers and "_walk" not in callers, set(callers)
    for cache in (by_monomial.coproduct_cache, by_monomial.counit_cache, by_monomial.antipode_cache):
        assert cache and all(normal_form(rs.word_of_monomial(m), rs) == NCPoly.monomial(m) for m in cache)


def test_axiom_sweep_calls_each_map_once_per_use(monkeypatch):
    # the traced benchmark counts the calls of coproduct_monomial and
    # antipode_monomial through wrappers set as module attributes, as these
    # are; on a fresh B{2,3} at cap 3, window 4 (27 monomials, 45 coproduct
    # terms) the sweep asks for Delta of m and of both legs of each term, eps
    # of m and of both legs, and S of both legs
    calls = dict.fromkeys(("coproduct_monomial", "antipode_monomial", "_counit_monomial"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(hopfops, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(hopfops, name, counted)
    report = check_hopf_axioms(built_b(1, (2, 3), 1, (0, 1)), 3, 4)
    assert (report.monomials_checked, report.relation_checks, report.all_passed) == (27, 8, True)
    assert calls == {"coproduct_monomial": 117, "antipode_monomial": 90, "_counit_monomial": 117}


def test_benchmark_window_verdicts():
    # hopf-check --cap 6 --window 12 on the first draw of each hopf-window
    # shape: every axiom passes, on the counts of the benchmark's golden report
    first = {}
    for task in perfbench_workloads().HopfWindow().inputs(1):
        first.setdefault(task["shape"], task["content"])
    got = {}
    for shape, data in first.items():
        report = check_hopf_axioms(build(presentation_from_json(data)), 6, 12)
        assert report.all_passed, (shape, report.failures[:3])
        got[shape] = (report.monomials_checked, report.relation_checks)
    assert got == {"b23": (150, 8), "b25": (125, 8), "b34": (100, 8), "b235": (50, 13), "k22": (175, 8)}


def test_qbinom_coproduct_expansion(b23, b235, k22):
    # Delta(y_i^w) = sum_j qbinom(w, j, q_i^{n_i}) x^{n_i j} y_i^{w-j} (x) y_i^j
    for built in (b23, b235, k22):
        params = built.presentation.kparams
        rs = built.rs
        for i in range(params.s):
            lam = params.q[i] ** params.n[i]
            for w in range(7):
                lhs = coproduct(normal_form((i + 2,) * w, rs), built)
                rhs = TensorPoly()
                for j in range(w + 1):
                    c = qbinom(w, j, lam)
                    left = normal_form((1,) * (params.n[i] * j) + (i + 2,) * (w - j), rs)
                    right = normal_form((i + 2,) * j, rs)
                    for (l, cl) in left.terms.items():
                        for (r, cr) in right.terms.items():
                            add_terms(rhs.terms, (((l, r), c * cl * cr),))
                assert lhs == rhs, (built.presentation.family, i, w)


def test_skew_primitives_pins(b23):
    rep = skew_primitives(b23, 3, 6)
    assert rep.total_dimension == 1 and rep.trivial_dimension == 1
    entry = rep.entries[0]
    assert entry.commutator == Cyclo.from_rational(-1) and not entry.is_major
    rec = entry.records[0]
    assert rec.level == 1
    assert rec.element == ev(b23, "y1")

    rep = skew_primitives(b23, 6, 6)
    assert rep.total_dimension == 1
    entry = rep.entries[0]
    assert entry.commutator == Cyclo.one() and entry.is_major
    assert entry.records[0].element == ev(b23, "y1^2")

    rep = skew_primitives(b23, 2, 6)
    assert rep.total_dimension == 1
    assert rep.entries[0].commutator == make_root(3, 2)

    assert skew_primitives(b23, 1, 6).total_dimension == 0


def test_primitive_weight_scan(b23):
    found = [g for g in range(-12, 13) if skew_primitives(b23, g, 6).total_dimension]
    assert found == [2, 3, 6]


def _primitive_report(rep):
    return (rep.g_exponent, rep.trivial_dimension, rep.total_dimension, rep.x_window,
            [(entry.commutator, entry.dimension, entry.is_major,
              [(list(rec.element.terms.items()), rec.level) for rec in entry.records])
             for entry in rep.entries])


def _primitive_rows_snapshot(value):
    rows, open_cols = value
    return [(pair, list(row.items())) for pair, row in rows.items()], list(open_cols)


class _SnapshotOnFill(dict):
    """``primitive_rows`` that records each entry as it is filled."""

    def __init__(self):
        super().__init__()
        self.snapshots = {}

    def __setitem__(self, key, value):
        self.snapshots[key] = _primitive_rows_snapshot(value)
        super().__setitem__(key, value)


@pytest.mark.parametrize("name, cap, window", [("b23", 6, None), ("b235", 10, 30), ("k22", 6, None)])
def test_warm_primitive_solves_match_fresh_builds(request, name, cap, window):
    # one built presentation answers every weight from its cached rows; each
    # weight must get the answer of a presentation built afresh for it, and
    # the cached rows and open columns must come out of the scan as
    # they went in
    warm = build(request.getfixturevalue(name).presentation)
    warm.primitive_rows = cache = _SnapshotOnFill()
    for g in range(-12, 13):
        got = _primitive_report(skew_primitives(warm, g, cap, window))
        want = _primitive_report(skew_primitives(build(warm.presentation), g, cap, window))
        assert got == want, (name, g)
    assert cache.snapshots and cache.keys() == cache.snapshots.keys()
    for key, value in cache.items():
        assert _primitive_rows_snapshot(value) == cache.snapshots[key], key


def test_primitive_scan_linear_algebra_work(monkeypatch, b23):
    # deterministic work, pinned: the rows the scan feeds to rref, and the
    # row additions rref spends on them.  The zero shape is answered in
    # closed form and solves nothing.  Each of the 5 other shapes closes the
    # columns of its single-entry weight-free rows with no reduction and
    # keeps its rows on the columns left open, and each weight reduces those
    # rows with its own - g (x) m added.  Here every shape has at most one
    # open column, so every row has one entry and none needs a row addition.
    work = {"calls": 0, "rows": 0, "entries": 0, "additions": 0}
    real_rref, real_add_terms = _linalg.rref, _linalg.add_terms

    def rref(rows):
        rows = list(rows)
        work["calls"] += 1
        work["rows"] += len(rows)
        work["entries"] += sum(map(len, rows))
        return real_rref(rows)

    def counted_add_terms(*args):
        work["additions"] += 1
        return real_add_terms(*args)

    monkeypatch.setattr(_linalg, "rref", rref)
    monkeypatch.setattr(_linalg, "add_terms", counted_add_terms)
    built = build(b23.presentation)
    assert sum(skew_primitives(built, g, 6).total_dimension for g in range(-12, 13)) == 3
    assert len(built.primitive_rows) == 5
    assert work == {"calls": 125, "rows": 144, "entries": 144, "additions": 0}


def _shift(m, k):
    return m._replace(w0=m.w0 + k)


# patches of Delta(y1) = y1 (x) 1 + x^3 (x) y1 in b23: each maps the weight-free
# term y1 (x) 1, as (left, right, coefficient), to the terms that replace it,
# and gives the open columns at window 4 (None: not diagonal, all open)
_PATCHED_Y1 = {
    # 2 x y1 (x) x, the first term with both legs shifted by 1: the row at
    # (x y1, x) holds the columns of y1 and x y1
    "shifted-copy": (lambda l, r, c: {(l, r): c, (_shift(l, 1), _shift(r, 1)): c + c}, None),
    # x^2 y1 (x) x alone: in the column of x^-1 y1 it lands on the row at
    # (x y1, 1), the - m (x) 1 row of the column of x y1
    "meets-m-tensor-1": (lambda l, r, c: {(_shift(l, 2), _shift(r, 1)): c}, None),
    # 2 y1 (x) 1: - m (x) 1 leaves y1 (x) 1 in the column of y1, which closes
    # it, so y1 is no longer a skew primitive of weight x^3
    "coefficient-2": (lambda l, r, c: {(l, r): c + c}, []),
    # y1 (x) y1 and its shifted copy share rows; y1 (x) 1 is alone in its
    # class, but meets - m (x) 1 in the column of y1, so it cannot close
    # every column by itself
    "shifted-copy-of-y1-y1": (lambda l, r, c: {(l, r): c, (l, l): c, (_shift(l, 1), _shift(l, 1)): c + c},
                              None),
    # y1 (x) x^2: x^-2 y1 stays open, a skew primitive of weight x
    "right-leg-x^2": (lambda l, r, c: {(l, _shift(r, 2)): c}, [2]),
    # y1 (x) x^5: the column it would leave open lies outside the window
    "right-leg-x^5": (lambda l, r, c: {(l, _shift(r, 5)): c}, []),
    # no weight-free term: every - m (x) 1 row closes its column
    "no-free-term": (lambda l, r, c: {}, []),
}


@pytest.mark.parametrize("patch", _PATCHED_Y1)
def test_multi_entry_weight_free_rows_are_kept(monkeypatch, b23, patch):
    # no presentation has a weight-free row with two entries, so Delta(y1) is
    # patched.  Every weight must get the basis of the whole system, built
    # from the same Delta and reduced by the reference.  A system that is
    # not diagonal keeps every column open and the rows of the whole system
    # for every weight; a diagonal one keeps the rows on its open columns.
    built = build(b23.presentation)
    shape, window = (1, 0), 4
    base = NFMonomial(0, shape)
    real = hopfops.coproduct_monomial
    delta = dict(real(base, built).terms)
    (left, right), c = next(((l, r), c) for (l, r), c in delta.items() if not l.is_group_power())
    replace, want_open = _PATCHED_Y1[patch]
    del delta[(left, right)]
    delta.update(replace(left, right, c))

    def patched(m, built):
        return TensorPoly(dict(delta)) if m == base else real(m, built)

    monkeypatch.setattr(hopfops, "coproduct_monomial", patched)
    ansatz = [base._replace(w0=a) for a in range(-window, window + 1)]
    unit, minus_one = built.rs.unit_monomial(), Cyclo.from_rational(-1)
    defects = []  # Delta(m) - m (x) 1 of each column
    for m in ansatz:
        defect = {(l._replace(w0=l.w0 + m.w0), r._replace(w0=r.w0 + m.w0)): v for (l, r), v in delta.items()}
        defects.append(add_terms(defect, (((m, unit), minus_one),)))
    for g in range(-window, window + 1):
        rows: dict = {}
        for t, m in enumerate(ansatz):
            defect = add_terms(dict(defects[t]), (((built.group_monomial(g), m), minus_one),))
            for pair, v in defect.items():
                rows.setdefault(pair, {})[t] = v
        want = [NCPoly({ansatz[t]: v for t, v in vec.items()})
                for vec in reference_nullspace(list(rows.values()), list(range(len(ansatz))))]
        assert hopfops._solve_primitive_shape(shape, g, built, window) == want, g
    if want_open is None:
        want_open = list(range(len(ansatz)))
    want_rows: dict = {}
    for t in want_open:
        for pair, v in defects[t].items():
            want_rows.setdefault(pair, {})[t] = v
    assert built.primitive_rows[(shape, window)] == (want_rows, want_open)


def test_corpus_primitive_systems_are_diagonal(monkeypatch):
    # the whole-system fallback would bring back the cold cost of a shape's
    # first weight: no corpus presentation takes it, at caps 4, 6 and 8 with
    # the default window and with window 8, and no shape leaves more than
    # one column open
    taken = []
    real = hopfops._diagonal_open_cols

    def spy(shape, free, x_window):
        open_cols = real(shape, free, x_window)
        if open_cols is None:
            taken.append((shape, x_window))
        return open_cols

    monkeypatch.setattr(hopfops, "_diagonal_open_cols", spy)
    for name, doc in PRESENTATIONS.items():
        built = build(presentation_from_json(doc))
        for cap in (4, 6, 8):
            for window in (default_window(built, cap), 8):
                skew_primitives(built, 0, cap, window)
        assert built.primitive_rows, name
        assert not taken, (name, taken)
        assert all(len(open_cols) <= 1 for _, open_cols in built.primitive_rows.values()), name


def test_cached_primitive_rows_lie_on_open_columns(request):
    # every row a shape keeps for all weights is nonempty and has entries on
    # the open columns only
    for name in ("b23", "b235", "k22", "a15", "a25", "c3"):
        built = build(request.getfixturevalue(name).presentation)
        for g in range(-12, 13):
            if abs(g) <= default_window(built, 6):
                skew_primitives(built, g, 6)
        assert built.primitive_rows, name
        for key, (rows, open_cols) in built.primitive_rows.items():
            assert all(row and set(row) <= set(open_cols) for row in rows.values()), (name, key)


def test_primitive_dimension_bound(b23, b235):
    for built in (b23, b235):
        for g in range(-8, 9):
            rep = skew_primitives(built, g, 5)
            for entry in rep.entries:
                assert entry.dimension <= 1


def test_weight_commutator_pins(b23):
    assert weight_commutator(ev(b23, "y1"), b23) == (3, Cyclo.from_rational(-1), 1)
    assert weight_commutator(ev(b23, "y1^2"), b23) == (6, Cyclo.one(), 1)
    assert weight_commutator(ev(b23, "x^2 - 1"), b23) == (2, Cyclo.one(), 0)
    with pytest.raises(ValueError):
        weight_commutator(ev(b23, "y1 + y2"), b23)


def test_weight_commutator_c_family(c3):
    # z = x*y^{-2} is skew primitive of weight y^{-2} in the n = 3 instance
    z = ev(c3, "x*y^-2")
    g, lam, level = weight_commutator(z, c3)
    assert g == -2 and lam == Cyclo.one() and level == 1


def test_ext1_pins(b23, a15):
    assert ext1_dimension(a15) == 1
    assert ext1_dimension(build(HopfPresentation.a_family(1, Cyclo.one()))) == 2
    assert ext1_dimension(b23) == 0
    b00 = build(HopfPresentation.from_b(BParams.make(1, (2, 3), make_root(6, 1), (0, 0))))
    assert ext1_dimension(b00) == 1


def test_ext1_matches_alpha_separation():
    count = 0
    for b in b_grid():
        built = build(HopfPresentation.from_b(b))
        separated = any(a != b.alpha[0] for a in b.alpha[1:])
        assert (ext1_dimension(built) == 0) == separated
        count += 1
    assert count >= 20


def test_ext1_on_noncoprime_instances():
    # the Ext criterion depends on alpha separation only, not on coprimality
    from gkhopf.presentations import validate
    from helpers import k_grid

    for params in k_grid():
        if not validate(params).ok:
            continue
        built = build(HopfPresentation.from_k(params))
        separated = any(a != params.alpha[0] for a in params.alpha[1:])
        assert (ext1_dimension(built) == 0) == separated


def test_zero_divisors_noncoprime(k22):
    report = find_zero_divisors(k22, 4)
    assert report.found
    prod = multiply(report.left, report.right, k22.rs)
    assert prod.is_zero()
    assert not report.left.is_zero() and not report.right.is_zero()


def test_zero_divisors_absent_for_domains(b23, a15):
    assert not find_zero_divisors(b23, 4)
    assert not find_zero_divisors(a15, 4)


def test_domain_predicate_matches_search_on_seeded_grid():
    # restricted to instances where the seeded factor family provably
    # applies: equal exponents p_i = p_j with ord(q_j^{n_i}) = p_i
    from gkhopf.classify import is_domain
    from gkhopf.scalars import order_of
    from helpers import k_grid

    checked = 0
    for params in k_grid():
        from gkhopf.presentations import validate

        if not validate(params).ok or params.s != 2:
            continue
        q_comm = params.q[1] ** params.n[0]
        seeded = (params.p[0] == params.p[1]
                  and order_of(q_comm) == params.p[0]) or is_domain(params)
        if not seeded:
            continue
        built = build(HopfPresentation.from_k(params))
        found = bool(find_zero_divisors(built, 4))
        assert found == (not is_domain(params)), params.p
        checked += 1
    assert checked >= 10


def test_power_identity_two_generator_instances(b23, k22):
    # y_2^{p_2} - y_1^{p_1} - (alpha_2 - alpha_1)(x^M - 1) = 0 exactly
    for built in (b23, k22):
        params = built.presentation.kparams
        diff = params.alpha[1] - params.alpha[0]
        lhs = normal_form((3,) * params.p[1], built.rs)
        rhs = normal_form((2,) * params.p[0], built.rs) \
            + NCPoly.monomial(built.group_monomial(params.M), diff) \
            + NCPoly.monomial(built.group_monomial(0), -diff)
        assert lhs == rhs


def test_primitive_records_are_conjugation_eigenvectors(b23):
    # the representative of each one-dimensional space can be chosen with
    # x^{-1} z x = chi(x) z exactly (character form, no grouplike shift)
    from gkhopf.hopfops import _conjugate

    for g in (2, 3, 6):
        for entry in skew_primitives(b23, g, 6).entries:
            for rec in entry.records:
                conj = _conjugate(rec.element, 1, b23)
                ratios = {tuple([m.w0, m.w]): (conj.coefficient(m) / c)
                          for m, c in rec.element.terms.items()}
                assert len(set(map(str, ratios.values()))) == 1


def test_total_primitive_space_is_finite_at_truncation(b23):
    assert sum(skew_primitives(b23, g, 6).total_dimension for g in range(-12, 13)) == 3


def test_weights_found_are_predicted_subset(b235):
    params = b235.presentation.kparams
    predicted = set(params.n) | {params.M}
    found = {g for g in range(-10, 11) if skew_primitives(b235, g, 6, x_window=30).total_dimension}
    assert found <= predicted
