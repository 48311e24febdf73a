"""Finite-dimensionality case tables for rank-2 diagonal braidings.

``lemma41_case`` reproduces the published classification table for a 2x2
braiding matrix of roots of unity: five case groups with 29 sub-cases in
all, tried first in the given ordering of the basis and then with the two
basis vectors swapped.  ``prop42_case`` specializes the table to braidings
of the form q_{ij} = q_j^{n_i} and returns one of the six parameter
families that survive.  ``supplementary_type`` and ``remark43_finite``
detect the four exceptional parameter patterns, and ``omega_checks``
evaluates both subalgebra hypotheses on a parameter record: the pair
patterns among the visible rank-one subalgebras, and the orders of their
commutators.

No Nichols algebra is ever constructed; these are exact membership tests
on root-of-unity data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Union

from .presentations import KParams
from .scalars import Cyclo, RootOfUnity

RootLike = Union[RootOfUnity, Cyclo]


def _root(z: RootLike) -> RootOfUnity:
    if isinstance(z, RootOfUnity):
        return z
    return RootOfUnity.from_cyclo(z)  # raises for non-roots


_MINUS_ONE = RootOfUnity.minus_one()


@dataclass(frozen=True)
class BraidingMatrix:
    q11: RootOfUnity
    q12: RootOfUnity
    q21: RootOfUnity
    q22: RootOfUnity

    @staticmethod
    def make(q11: RootLike, q12: RootLike, q21: RootLike, q22: RootLike) -> "BraidingMatrix":
        return BraidingMatrix(_root(q11), _root(q12), _root(q21), _root(q22))

    def swapped(self) -> "BraidingMatrix":
        return BraidingMatrix(self.q22, self.q21, self.q12, self.q11)


@dataclass(frozen=True)
class DiagonalDatum:
    n1: int
    n2: int
    q1: RootOfUnity
    q2: RootOfUnity

    @staticmethod
    def make(n1: int, n2: int, q1: RootLike, q2: RootLike) -> "DiagonalDatum":
        if n1 < 1 or n2 < 1:
            raise ValueError("exponents must be positive")
        return DiagonalDatum(n1, n2, _root(q1), _root(q2))

    def swapped(self) -> "DiagonalDatum":
        return DiagonalDatum(self.n2, self.n1, self.q2, self.q1)

    def braiding_matrix(self) -> BraidingMatrix:
        return BraidingMatrix(self.q1 ** self.n1, self.q2 ** self.n1,
                              self.q1 ** self.n2, self.q2 ** self.n2)


@dataclass(frozen=True)
class NicholsVerdict:
    case_label: str            # "1", "2.1".."5.5", or "none"
    permutation_applied: bool
    all_matches: tuple[str, ...]


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


def lemma41_case(q: BraidingMatrix) -> NicholsVerdict:
    """First matching sub-case of the rank-2 table, trying the identity
    ordering of the basis and then the swap."""
    matches = _lemma41_matches(q)
    if matches:
        return NicholsVerdict(matches[0], False, tuple(matches))
    matches = _lemma41_matches(q.swapped())
    if matches:
        return NicholsVerdict(matches[0], True, tuple(matches))
    return NicholsVerdict("none", False, ())


def _prop42_hypotheses(d: DiagonalDatum, epsilon: int) -> bool:
    if epsilon < 1 or math.gcd(d.n1, d.n2) != 1:
        return False
    p1 = d.n2 * epsilon
    p2 = d.n1 * epsilon
    return (d.q1.order == p1 and (d.q1 ** d.n1).order == p1
            and d.q2.order == p2 and (d.q2 ** d.n2).order == p2)


def _prop42_match(d: DiagonalDatum, epsilon: int) -> str:
    n1, n2, q1, q2 = d.n1, d.n2, d.q1, d.q2
    if ((q2 ** n1) * (q1 ** n2)).is_one():
        return "I"
    if n1 == 1 and n2 == 1 and q1.order == 3 and q2.order == 3:
        return "II"
    if n1 == 1 and n2 == 1 and q1.order == 5 and q2.order == 5:
        return "III"
    if (n1, n2) == (1, 2) and epsilon == 5 \
            and (q1 ** 4 * q2).is_one() and (q1 ** 2 * q2 ** 3).is_one():
        return "IV"
    if n1 == 1 and n2 == 1 and epsilon == 7 and q1.order == 7 and q2.order == 7 \
            and (q1 * q2 ** 2).is_one() and (q1 ** 4 * q2).is_one():
        return "V"
    if (n1, n2) == (1, 3) and epsilon == 7 \
            and (q1 ** 3 * q2 ** 4).is_one() and (q1 ** 6 * q2).is_one():
        return "VI"
    return "none"


def prop42_case(d: DiagonalDatum, epsilon: int) -> str:
    """Which of the six surviving parameter families matches, up to swap."""
    if not _prop42_hypotheses(d, epsilon):
        return "hypotheses-violated"
    hit = _prop42_match(d, epsilon)
    if hit != "none":
        return hit
    return _prop42_match(d.swapped(), epsilon)


def _supplementary_match(d: DiagonalDatum) -> str:
    n1, n2, q1, q2 = d.n1, d.n2, d.q1, d.q2
    if (n1, n2) == (1, 1) and q1.order == 5 and q2.order == 5 and q2 == q1 ** 2:
        return "N5"
    if (n1, n2) == (1, 1) and q1.order == 7 and q2.order == 7 and q2 == q1 ** 3:
        return "N7"
    if (n1, n2) == (1, 2) and q1.order == 10 and q2.order == 5 and q2 == q1 ** 6:
        return "N10"
    if (n1, n2) == (1, 3) and q1.order == 21 and q2.order == 7 and q2 == q1 ** 15:
        return "N21"
    return "none"


def supplementary_type(d: DiagonalDatum) -> str:
    """Which of the four exceptional patterns the datum realizes, if any."""
    hit = _supplementary_match(d)
    if hit != "none":
        return hit
    return _supplementary_match(d.swapped())


def remark43_finite(d: DiagonalDatum) -> bool:
    """True iff the datum matches one of the four finite-dimensionality
    patterns communicated for braidings of this diagonal shape.

    They are the supplementary patterns: each fixes the order of q1 and
    q2 = q1^k, which fixes the order of q2, so the order check on q2 in
    ``supplementary_type`` changes no verdict.
    """
    return supplementary_type(d) != "none"


def omega_checks(params: KParams) -> tuple[bool, bool]:
    """(omega, omega_prime) for a parameter record.

    The rank-one Hopf subalgebra on (x^{n_i}, y_i) has commutator
    lambda_i = q_i^{n_i}; omega_prime fails when some lambda_i has order 5
    or 7, and omega fails when some pair (i, j) realizes a supplementary
    pattern after dividing out gcd(n_i, n_j).
    """
    roots = [_root(q) for q in params.q]
    lambdas = [roots[i] ** params.n[i] for i in range(params.s)]
    omega_prime = all(lam.order not in (5, 7) for lam in lambdas)
    omega = True
    for i, j in combinations(range(params.s), 2):
        g = math.gcd(params.n[i], params.n[j])
        datum = DiagonalDatum(params.n[i] // g, params.n[j] // g, roots[i], roots[j])
        if supplementary_type(datum) != "none":
            omega = False
    return omega, omega_prime
