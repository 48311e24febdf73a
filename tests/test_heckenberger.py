"""Rank-2 case table, the six-family specialization, exceptional patterns."""

import math
import random

import pytest

from gkhopf.heckenberger import (BraidingMatrix, DiagonalDatum, _pair, lemma41_case,
                                 omega_checks, prop42_case, remark43_finite,
                                 supplementary_type)
from gkhopf.presentations import BParams
from gkhopf.scalars import Cyclo, RootOfUnity, make_root

from helpers import b_grid
from test_scalars import TUPLE_SLIPS

R = RootOfUnity
ONE = R.one()
MINUS = R.minus_one()


def test_non_root_entry_rejected():
    with pytest.raises(ValueError):
        BraidingMatrix.make(Cyclo.from_rational(2), ONE, ONE, ONE)


def test_pair_takes_a_root_as_it_is():
    root = R(10, 4)
    assert _pair(root) is root
    assert _pair((10, 4)) == (10, 4) and _pair(make_root(10, 4)) == root


@pytest.mark.parametrize("slip", TUPLE_SLIPS)
def test_datum_and_matrix_refuse_tuple_arithmetic(slip):
    datum = DiagonalDatum.make(1, 2, (5, 2), (3, 1))
    for value in (datum, datum.braiding_matrix()):
        with pytest.raises(TypeError):
            TUPLE_SLIPS[slip](value)
    n1, n2, N, x1, x2 = datum
    assert (n1, n2, N) == (1, 2, 30) and datum.q1 == R(5, 2)


def test_lemma41_pinned_examples():
    # q12*q21 = 1 regardless of the diagonal
    v = lemma41_case(BraidingMatrix.make(R(3, 1), R(5, 1), R(5, 4), R(7, 1)))
    assert v.case_label == "1"
    v = lemma41_case(BraidingMatrix.make(R(3, 1), R(3, 1), R(3, 1), R(3, 1)))
    assert v.case_label == "2.1"
    v = lemma41_case(BraidingMatrix.make(R(5, 1), R(5, 2), ONE, MINUS))
    assert v.case_label == "4.2"


# one constructible witness per sub-case, chosen to make that sub-case the
# first match; rho denotes q12*q21
CASE_TABLE = [
    ("1", (R(3, 1), R(5, 1), R(5, 4), R(7, 1))),
    ("2.1", (R(3, 2), R(3, 1), ONE, R(3, 2))),
    ("2.2", (MINUS, R(3, 1), ONE, R(3, 2))),
    ("2.3", (R(5, 1), R(5, 3), ONE, R(5, 2))),
    ("2.4", (R(7, 1), R(7, 4), ONE, R(7, 3))),
    ("2.5", (R(3, 1), R(5, 1), ONE, R(5, 4))),
    ("2.6", (R(4, 1), R(8, 1), ONE, R(8, 7))),
    ("2.7", (R(4, 1), R(24, 1), ONE, R(24, 23))),
    ("2.8", (R(5, 2), R(30, 1), ONE, R(30, 29))),
    ("3.1", (MINUS, R(3, 1), ONE, MINUS)),
    ("3.2", (R(3, 1), R(3, 1), ONE, MINUS)),
    ("3.3", (R(3, 1), R(4, 3), ONE, MINUS)),
    ("3.4", (R(3, 2), R(12, 1), ONE, MINUS)),
    ("3.5", (R(3, 2), R(9, 1), ONE, MINUS)),
    ("3.6", (R(3, 2), R(24, 1), ONE, MINUS)),
    ("3.7", (R(3, 2), R(30, 1), ONE, MINUS)),
    ("4.1", (R(5, 1), R(5, 3), ONE, MINUS)),
    ("4.2", (R(5, 1), R(5, 2), ONE, MINUS)),
    ("4.3", (R(10, 1), R(5, 3), ONE, MINUS)),
    ("4.4", (R(14, 1), R(14, 9), ONE, MINUS)),
    ("4.5", (R(4, 3), R(8, 1), ONE, MINUS)),
    ("4.6", (R(4, 3), R(12, 1), ONE, MINUS)),
    ("4.7", (R(5, 4), R(20, 1), ONE, MINUS)),
    ("4.8", (R(5, 4), R(30, 1), ONE, MINUS)),
    ("5.1", (R(3, 1), R(4, 3), ONE, R(3, 2))),
    ("5.2", (R(3, 2), R(12, 1), ONE, R(3, 2))),
    ("5.3", (R(4, 3), R(24, 1), ONE, R(3, 2))),
    ("5.4", (R(18, 1), R(9, 8), ONE, R(3, 2))),
    ("5.5", (R(30, 1), R(10, 9), ONE, R(3, 2))),
]


@pytest.mark.parametrize("label,entries", CASE_TABLE, ids=[c[0] for c in CASE_TABLE])
def test_lemma41_case_table(label, entries):
    verdict = lemma41_case(BraidingMatrix.make(*entries))
    assert verdict.case_label == label
    assert not verdict.permutation_applied


def test_lemma41_swap_coherence():
    rng = random.Random(5)
    roots = [R(n, k) for n in range(1, 31) for k in range(n) if math.gcd(k, n) == 1 or n == 1]
    for _ in range(400):
        q = BraidingMatrix.make(*(rng.choice(roots) for _ in range(4)))
        v1 = lemma41_case(q)
        v2 = lemma41_case(_swapped(q))
        assert (v1.case_label != "none") == (v2.case_label != "none")


def test_prop42_pinned_examples():
    # epsilon = 1: admissible roots have q1^{n2} = q2^{n1} = 1
    assert prop42_case(DiagonalDatum.make(2, 3, R(3, 1), MINUS), 1) == "I"
    assert prop42_case(DiagonalDatum.make(1, 1, MINUS, MINUS), 2) == "I"
    assert prop42_case(DiagonalDatum.make(1, 1, R(5, 1), R(5, 2)), 5) == "III"
    assert prop42_case(DiagonalDatum.make(1, 2, R(10, 1), R(10, 6)), 5) == "IV"
    assert prop42_case(DiagonalDatum.make(2, 1, R(10, 6), R(10, 1)), 5) == "IV"
    assert prop42_case(DiagonalDatum.make(1, 1, R(7, 1), R(7, 3)), 7) == "V"
    assert prop42_case(DiagonalDatum.make(1, 3, R(21, 1), R(21, 15)), 7) == "VI"
    assert prop42_case(DiagonalDatum.make(2, 3, ONE, ONE), 1) == "hypotheses-violated"


def test_prop42_family_is_no_finiteness_verdict():
    """Family membership is the paper's necessary condition, finiteness is
    Remark 4.3's verdict: with q1 = q2 = zeta_5 the datum lies in family III
    while no sub-case of the table and no supplementary pattern matches."""
    d = DiagonalDatum.make(1, 1, R(5, 1), R(5, 1))
    assert prop42_case(d, 5) == "III"
    assert lemma41_case(d.braiding_matrix()).case_label == "none"
    assert not remark43_finite(d)
    # and the other way round: the same family with q2 = q1^2 is finite
    d = DiagonalDatum.make(1, 1, R(5, 1), R(5, 2))
    assert prop42_case(d, 5) == "III"
    assert lemma41_case(d.braiding_matrix()).case_label != "none" and remark43_finite(d)


def _admissible_pairs(n1, n2, eps):
    p1, p2 = n2 * eps, n1 * eps
    if math.gcd(n1, p1) != 1 or math.gcd(n2, p2) != 1:
        return
    q1s = [R(p1, k) for k in range(p1) if math.gcd(k, p1) == 1 or p1 == 1]
    q2s = [R(p2, k) for k in range(p2) if math.gcd(k, p2) == 1 or p2 == 1]
    for q1 in q1s:
        for q2 in q2s:
            yield q1, q2


def test_prop42_exhaustive_consistency():
    """Whenever the case table matches, one of the six families applies."""
    checked = 0
    for n1, n2 in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
        for eps in range(1, 9):
            for q1, q2 in _admissible_pairs(n1, n2, eps):
                d = DiagonalDatum.make(n1, n2, q1, q2)
                checked += 1
                if lemma41_case(d.braiding_matrix()).case_label != "none":
                    assert prop42_case(d, eps) in ("I", "II", "III", "IV", "V", "VI")
    assert checked > 300


def test_supplementary_pins():
    assert supplementary_type(DiagonalDatum.make(1, 1, R(5, 1), R(5, 2))) == "N5"
    assert supplementary_type(DiagonalDatum.make(1, 1, R(7, 1), R(7, 3))) == "N7"
    assert supplementary_type(DiagonalDatum.make(1, 2, R(10, 1), R(10, 6))) == "N10"
    assert supplementary_type(DiagonalDatum.make(1, 3, R(21, 1), R(21, 15))) == "N21"
    assert supplementary_type(DiagonalDatum.make(1, 1, R(5, 1), R(5, 4))) == "none"
    # swapped labeling detects the same pattern
    assert supplementary_type(DiagonalDatum.make(2, 1, R(10, 6), R(10, 1))) == "N10"


def test_remark43_pins():
    assert remark43_finite(DiagonalDatum.make(1, 1, R(5, 1), R(5, 2)))
    assert remark43_finite(DiagonalDatum.make(1, 1, R(7, 1), R(7, 3)))
    assert remark43_finite(DiagonalDatum.make(1, 2, R(10, 1), R(10, 6)))
    assert remark43_finite(DiagonalDatum.make(1, 3, R(21, 1), R(21, 15)))
    assert not remark43_finite(DiagonalDatum.make(1, 1, R(5, 1), R(5, 4)))


def test_supplementary_exhaustive_detection():
    """Each pattern is detected from its own data and nothing else."""
    roots = [R(n, k) for n in range(1, 31) for k in range(n) if math.gcd(k, n) == 1 or n == 1]
    found = {tag: 0 for tag in ("N5", "N7", "N10", "N21")}
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for q1 in roots:
                for q2 in roots:
                    tag = supplementary_type(DiagonalDatum.make(n1, n2, q1, q2))
                    if tag == "none":
                        continue
                    found[tag] += 1
                    d = DiagonalDatum.make(n1, n2, q1, q2)
                    forward = _supplementary_data_matches(tag, d)
                    backward = _supplementary_data_matches(tag, DiagonalDatum.make(n2, n1, q2, q1))
                    assert forward or backward, (tag, n1, n2, q1, q2)
                    assert remark43_finite(d)
    assert all(found[tag] > 0 for tag in found)


def _supplementary_data_matches(tag, d):
    pattern = {
        "N5": (1, 1, 5, 5, 2),
        "N7": (1, 1, 7, 7, 3),
        "N10": (1, 2, 10, 5, 6),
        "N21": (1, 3, 21, 7, 15),
    }[tag]
    n1, n2, o1, o2, e = pattern
    return (d.n1, d.n2) == (n1, n2) and d.q1.order == o1 and d.q2.order == o2 \
        and d.q2 == d.q1 ** e


def test_patterns_mutually_exclusive():
    patterns = [
        DiagonalDatum.make(1, 1, R(5, 1), R(5, 2)),
        DiagonalDatum.make(1, 1, R(7, 1), R(7, 3)),
        DiagonalDatum.make(1, 2, R(10, 1), R(10, 6)),
        DiagonalDatum.make(1, 3, R(21, 1), R(21, 15)),
    ]
    tags = [supplementary_type(d) for d in patterns]
    assert sorted(tags) == ["N10", "N21", "N5", "N7"]


def test_omega_checks():
    b = BParams.make(1, (2, 3), make_root(6, 1), (0, 1)).expand()
    assert omega_checks(b) == (True, True)
    b57 = BParams.make(1, (5, 7), make_root(35, 1), (0, 1)).expand()
    omega, omega_prime = omega_checks(b57)
    assert not omega_prime
    # degenerate single-generator record with a commutator of order 7
    from gkhopf.presentations import KParams

    single = KParams.make(7, (1,), (7,), [make_root(7, 1)], (0,))
    assert omega_checks(single)[1] is False


def test_omega_prime_on_grid():
    for b in b_grid():
        params = b.expand()
        _, omega_prime = omega_checks(params)
        lambdas = [params.q[i] ** params.n[i] for i in range(params.s)]
        from gkhopf.scalars import order_of

        expected = all(order_of(lam) not in (5, 7) for lam in lambdas)
        assert omega_prime == expected


# ---------------------------------------------------------------------------
# oracle: the case table as written on RootOfUnity objects, kept verbatim
# ---------------------------------------------------------------------------

_MINUS_ONE = RootOfUnity.minus_one()


def _lemma41_matches(q: BraidingMatrix) -> list[str]:
    q11, q22 = q.q11, q.q22
    rho = q.q12 * q.q21
    out = []
    if rho.is_one():
        out.append("1")
    if not rho.is_one() and (rho * q22).is_one():
        if (q11 * rho).is_one():
            out.append("2.1")
        if q11 == _MINUS_ONE and not (rho ** 2).is_one():
            out.append("2.2")
        if (q11 ** 2 * rho).is_one():
            out.append("2.3")
        if (q11 ** 3 * rho).is_one() and not (q11 ** 2).is_one():
            out.append("2.4")
        if q11.order == 3 and not (rho ** 3).is_one():
            out.append("2.5")
        if rho.order == 8 and q11 == rho ** 2:
            out.append("2.6")
        if rho.order == 24 and q11 == rho ** 6:
            out.append("2.7")
        if rho.order == 30 and q11 == rho ** 12:
            out.append("2.8")
    shared = (not rho.is_one() and not (q11 * rho).is_one()
              and not (rho * q22).is_one())
    if shared and q22 == _MINUS_ONE and q11.order in (2, 3):
        if q11 == _MINUS_ONE and not (rho ** 2).is_one():
            out.append("3.1")
        if q11.order == 3 and rho in (q11, -q11):
            out.append("3.2")
        q0 = q11 * rho
        if q0.order == 12 and q11 == q0 ** 4:
            out.append("3.3")
        if rho.order == 12 and q11 == -(rho ** 2):
            out.append("3.4")
        if rho.order == 9 and q11 == rho ** -3:
            out.append("3.5")
        if rho.order == 24 and q11 == -(rho ** 4):
            out.append("3.6")
        if rho.order == 30 and q11 == -(rho ** 5):
            out.append("3.7")
    if shared and q22 == _MINUS_ONE and q11.order not in (2, 3):
        if rho == q11 ** -2:
            out.append("4.1")
        if q11.order in (5, 8, 12, 14, 20) and rho == q11 ** -3:
            out.append("4.2")
        if q11.order in (10, 18) and rho == q11 ** -4:
            out.append("4.3")
        if q11.order in (14, 24) and rho == q11 ** -5:
            out.append("4.4")
        if rho.order == 8 and q11 == rho ** -2:
            out.append("4.5")
        if rho.order == 12 and q11 == rho ** -3:
            out.append("4.6")
        if rho.order == 20 and q11 == rho ** -4:
            out.append("4.7")
        if rho.order == 30 and q11 == rho ** -6:
            out.append("4.8")
    if shared and q11 != _MINUS_ONE and q22.order == 3:
        q0 = q11 * rho
        if q0.order == 12 and q11 == q0 ** 4 and q22 == -(q0 ** 2):
            out.append("5.1")
        if rho.order == 12 and q11 == -(rho ** 2) and q22 == -(rho ** 2):
            out.append("5.2")
        if rho.order == 24 and q11 == rho ** -6 and q22 == rho ** -8:
            out.append("5.3")
        if q11.order == 18 and rho == q11 ** -2 and q22 == -(q11 ** 3):
            out.append("5.4")
        if q11.order == 30 and rho == q11 ** -3 and q22 == -(q11 ** 5):
            out.append("5.5")
    return out


def _swapped(q: BraidingMatrix) -> BraidingMatrix:
    return BraidingMatrix.make(q.q22, q.q21, q.q12, q.q11)


def _oracle_case(q: BraidingMatrix) -> tuple[str, bool, tuple[str, ...]]:
    for permuted, oriented in ((False, q), (True, _swapped(q))):
        matches = _lemma41_matches(oriented)
        if matches:
            return matches[0], permuted, tuple(matches)
    return "none", False, ()


# every order the table names, with 1, 4 and 6 for the products and powers
# that reach them
TABLE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 18, 20, 24, 30)
TABLE_ROOTS = [R(n, k) for n in TABLE_ORDERS for k in range(n) if math.gcd(k, n) == 1]


def test_lemma41_agrees_with_oracle():
    """q11 and rho = q12*q21 run over every root of a table order; q22 is
    each value the table singles out (1, -1, a cube root, rho^-1) and one
    random root; q12 and q21 split rho by a random root, so both enter."""
    rng = random.Random(41)
    cube_roots = (R(3, 1), R(3, 2))
    seen = set()
    for q11 in TABLE_ROOTS:
        for rho in TABLE_ROOTS:
            for q22 in (ONE, MINUS, *cube_roots, rho.inv(), rng.choice(TABLE_ROOTS)):
                t = rng.choice(TABLE_ROOTS)
                q = BraidingMatrix.make(q11, rho * t, t.inv(), q22)
                v = lemma41_case(q)
                assert (v.case_label, v.permutation_applied, v.all_matches) == _oracle_case(q), q
                seen.add(v.case_label)
    assert seen == {label for label, _ in CASE_TABLE} | {"none"}
