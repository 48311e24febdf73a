"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance here is exact (integer or field equality).
"""

import contextlib
import json
import math
import time

from gkhopf.cli import main
from gkhopf.heckenberger import DiagonalDatum, lemma41_case, omega_checks, prop42_case, supplementary_type
from gkhopf.hopfops import (check_hopf_axioms, ext1_dimension, find_zero_divisors,
                            multiply, skew_primitives)
from gkhopf.classify import ext_vanishes, invariant_set, is_domain, iso_test
from gkhopf.ncpoly import RewriteSystem, Rule, certify_confluence
from gkhopf.presentations import (BParams, HopfPresentation, build, to_b_form, validate)
from gkhopf.scalars import Cyclo, RootOfUnity, add_terms, make_root, order_of

from helpers import b_grid, built_b, domain_pool, k_grid
from test_heckenberger import CASE_TABLE, _admissible_pairs


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{description}]: PASS")


FILES = {
    "b23": {"family": "B", "n": 1, "p": [2, 3], "q": {"L": 6, "k": 1}, "alpha": [0, 1]},
    "b235": {"family": "B", "n": 1, "p": [2, 3, 5], "q": {"L": 30, "k": 1}, "alpha": [0, 1, 2]},
    "k22": {"family": "K", "s": 2, "M": 2, "n": [1, 1], "p": [2, 2],
            "q": [{"L": 2, "k": 1}, {"L": 2, "k": 1}], "alpha": [0, 1]},
    "a25": {"family": "A", "n": 2, "q": {"L": 5, "k": 1}},
    "c3": {"family": "C", "n": 3},
}


def _write_inputs(tmp_path):
    paths = {}
    for name, data in FILES.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    return paths


def test_criterion_1_pbw_confluence(tmp_path, capsys):
    with criterion(1, "PBW confluence certificates"):
        paths = _write_inputs(tmp_path)
        for name in ("b23", "b235", "k22", "a25", "c3"):
            started = time.monotonic()
            code = main(["pbw-check", paths[name]])
            report = json.loads(capsys.readouterr().out)
            assert code == 0 and report["verdicts"]["all_resolved"], name
            assert time.monotonic() - started <= 10.0, name
        # negative control: square the coefficient of one commutation rule
        built = built_b(1, (2, 3), 1, (0, 1))
        rules = list(built.rs.rules)
        idx = next(i for i, r in enumerate(rules) if r.name == "y1*x")
        q1 = built.presentation.kparams.q[0]
        rules[idx] = Rule(rules[idx].lhs, ((q1 * q1, rules[idx].rhs[0][1]),), "corrupted")
        bad = RewriteSystem(built.rs.letter_names, built.rs.letter_weights, rules)
        assert not certify_confluence(bad).all_resolved


def test_criterion_2_hopf_axioms():
    with criterion(2, "Hopf axioms exhaustive to cap 6, x-window 12"):
        from gkhopf.presentations import KParams

        instances = [
            built_b(1, (2, 3), 1, (0, 1)),
            built_b(1, (2, 3, 5), 1, (0, 1, 2)),
            build(HopfPresentation.from_k(
                KParams.make(2, (1, 1), (2, 2), [Cyclo.from_rational(-1)] * 2, (0, 1)))),
        ]
        for built in instances:
            started = time.monotonic()
            report = check_hopf_axioms(built, 6, 12)
            assert report.all_passed, report.failures[:3]
            assert report.monomials_checked > 0
            assert time.monotonic() - started <= 60.0


def test_criterion_3_ext1_pins_and_grid():
    with criterion(3, "Ext^1 pinned values and alpha-separation grid"):
        assert ext1_dimension(build(HopfPresentation.a_family(1, make_root(5, 1)))) == 1
        assert ext1_dimension(build(HopfPresentation.a_family(1, Cyclo.one()))) == 2
        assert ext1_dimension(built_b(1, (2, 3), 1, (0, 1))) == 0
        assert ext1_dimension(built_b(1, (2, 3), 1, (0, 0))) >= 1
        count = 0
        for b in b_grid(max_ell=30):
            built = build(HopfPresentation.from_b(b))
            separated = any(a != b.alpha[0] for a in b.alpha[1:])
            assert (ext1_dimension(built) == 0) == separated
            count += 1
        assert count >= 20


def test_criterion_4_domain_criterion():
    with criterion(4, "domain <=> base-form recovery; zero-divisor witness"):
        checked = 0
        for params in k_grid(max_M=36):
            if not validate(params).ok:
                continue
            checked += 1
            assert is_domain(params) == (to_b_form(params) is not None)
        assert checked >= 30
        from gkhopf.presentations import KParams

        k22 = build(HopfPresentation.from_k(
            KParams.make(2, (1, 1), (2, 2), [Cyclo.from_rational(-1)] * 2, (0, 1))))
        report = find_zero_divisors(k22, 4)
        assert report.found
        assert not report.left.is_zero() and not report.right.is_zero()
        assert multiply(report.left, report.right, k22.rs).is_zero()


def test_criterion_5_skew_primitive_structure():
    with criterion(5, "skew primitive weights, dimensions, commutators"):
        built = built_b(1, (2, 3), 1, (0, 1))
        found = [g for g in range(-12, 13) if skew_primitives(built, g, 6).total_dimension]
        assert found == [2, 3, 6]
        expected = {2: make_root(3, 2), 3: Cyclo.from_rational(-1), 6: Cyclo.one()}
        for g, lam in expected.items():
            report = skew_primitives(built, g, 6)
            assert [ (e.commutator, e.dimension) for e in report.entries ] == [(lam, 1)]
            assert all(r.level == 1 for e in report.entries for r in e.records)
        for g in range(-12, 13):
            for entry in skew_primitives(built, g, 6).entries:
                assert entry.dimension <= 1


def test_criterion_6_qbinom_coproduct_identity():
    with criterion(6, "q-binomial coproduct expansion, w <= 6"):
        from gkhopf.hopfops import TensorPoly, coproduct
        from gkhopf.ncpoly import normal_form
        from gkhopf.presentations import KParams
        from gkhopf.scalars import qbinom

        instances = [
            built_b(1, (2, 3), 1, (0, 1)),
            built_b(1, (2, 3, 5), 1, (0, 1, 2)),
            build(HopfPresentation.from_k(
                KParams.make(2, (1, 1), (2, 2), [Cyclo.from_rational(-1)] * 2, (0, 1)))),
        ]
        for built in instances:
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
                        for l, cl in left.terms.items():
                            for r, cr in right.terms.items():
                                add_terms(rhs.terms, (((l, r), c * cl * cr),))
                    assert lhs == rhs


def test_criterion_7_case_machine():
    with criterion(7, "rank-2 case table and six-family consistency sweep"):
        started = time.monotonic()
        assert len(CASE_TABLE) >= 20
        from gkhopf.heckenberger import BraidingMatrix

        for label, entries in CASE_TABLE:
            verdict = lemma41_case(BraidingMatrix.make(*entries))
            assert verdict.case_label == label, (label, verdict)
        for n1, n2 in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            for eps in range(1, 9):
                for q1, q2 in _admissible_pairs(n1, n2, eps):
                    d = DiagonalDatum(n1, n2, q1, q2)
                    if lemma41_case(d.braiding_matrix()).case_label != "none":
                        assert prop42_case(d, eps) in ("I", "II", "III", "IV", "V", "VI")
        assert time.monotonic() - started <= 300.0


def test_criterion_8_supplementary_and_omega():
    with criterion(8, "supplementary pattern detection and omega hypotheses"):
        roots = [RootOfUnity(n, k) for n in range(1, 31) for k in range(n)
                 if math.gcd(k, n) == 1 or n == 1]
        patterns = {
            "N5": (1, 1, 5, 5, 2),
            "N7": (1, 1, 7, 7, 3),
            "N10": (1, 2, 10, 5, 6),
            "N21": (1, 3, 21, 7, 15),
        }

        def expected_tag(d):
            for tag, (n1, n2, o1, o2, e) in patterns.items():
                for dd in (d, d.swapped()):
                    if (dd.n1, dd.n2) == (n1, n2) and dd.q1.order == o1 \
                            and dd.q2.order == o2 and dd.q2 == dd.q1 ** e:
                        return tag
            return "none"

        hits = {tag: 0 for tag in patterns}
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                for q1 in roots:
                    for q2 in roots:
                        d = DiagonalDatum(n1, n2, q1, q2)
                        tag = supplementary_type(d)
                        assert tag == expected_tag(d), (n1, n2, q1, q2)
                        if tag != "none":
                            hits[tag] += 1
        assert all(v > 0 for v in hits.values())
        for b in b_grid(max_ell=30):
            params = b.expand()
            _, omega_prime = omega_checks(params)
            lambdas = [params.q[i] ** params.n[i] for i in range(params.s)]
            assert omega_prime == all(order_of(l) not in (5, 7) for l in lambdas)


def test_criterion_9_isomorphism_invariants():
    with criterion(9, "isomorphism equivalence and invariants"):
        pool = domain_pool()
        assert len(pool) >= 15
        for a in pool:
            assert iso_test(a, a) is not None
            for b in pool:
                ab = iso_test(a, b)
                ba = iso_test(b, a)
                assert (ab is None) == (ba is None)
                if ab is not None:
                    assert invariant_set(a) == invariant_set(b)
                    assert ext_vanishes(a) == ext_vanishes(b)
        a01 = BParams.make(1, (2, 3), make_root(6, 1), (0, 1)).expand()
        a02 = BParams.make(1, (2, 3), make_root(6, 1), (0, 2)).expand()
        a00 = BParams.make(1, (2, 3), make_root(6, 1), (0, 0)).expand()
        witness = iso_test(a01, a02)
        assert witness is not None and witness.scale == Cyclo.from_rational(2)
        assert iso_test(a01, a00) is None
