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

The case table runs in integer arithmetic.  With N the lcm of 2 and the
four orders, each entry is zeta_N^x and is read as its exponent x mod N:
a product is a sum, the k-th power is k*x, the negative is x + N/2, the
order is N / gcd(x, N), and 1 is 0.  The swap exchanges the exponents of
q11 and q22 and keeps that of rho = q12*q21.

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


@dataclass(frozen=True)
class BraidingMatrix:
    q11: RootOfUnity
    q12: RootOfUnity
    q21: RootOfUnity
    q22: RootOfUnity

    @staticmethod
    def make(q11: RootLike, q12: RootLike, q21: RootLike, q22: RootLike) -> "BraidingMatrix":
        return BraidingMatrix(_root(q11), _root(q12), _root(q21), _root(q22))


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

    def braiding_matrix(self) -> BraidingMatrix:
        return BraidingMatrix(self.q1 ** self.n1, self.q2 ** self.n1,
                              self.q1 ** self.n2, self.q2 ** self.n2)


@dataclass(frozen=True)
class NicholsVerdict:
    case_label: str            # "1", "2.1".."5.5", or "none"
    permutation_applied: bool
    all_matches: tuple[str, ...]


def _lemma41_matches(N: int, a: int, r: int, d: int) -> list[str]:
    """Sub-cases matched by q11 = zeta_N^a, rho = q12*q21 = zeta_N^r and
    q22 = zeta_N^d, for an even N and exponents in 0..N-1."""
    h = N // 2  # -1 = zeta_N^h

    def order(x: int) -> int:
        return N // math.gcd(x, N)

    out = []
    if r == 0:
        out.append("1")
    if r and (r + d) % N == 0:
        if (a + r) % N == 0:
            out.append("2.1")
        if a == h and 2 * r % N:
            out.append("2.2")
        if (2 * a + r) % N == 0:
            out.append("2.3")
        if (3 * a + r) % N == 0 and 2 * a % N:
            out.append("2.4")
        if order(a) == 3 and 3 * r % N:
            out.append("2.5")
        if order(r) == 8 and a == 2 * r % N:
            out.append("2.6")
        if order(r) == 24 and a == 6 * r % N:
            out.append("2.7")
        if order(r) == 30 and a == 12 * r % N:
            out.append("2.8")
    shared = r and (a + r) % N and (r + d) % N
    if shared and d == h and order(a) in (2, 3):
        if a == h and 2 * r % N:
            out.append("3.1")
        if order(a) == 3 and r in (a, (a + h) % N):
            out.append("3.2")
        q0 = (a + r) % N
        if order(q0) == 12 and a == 4 * q0 % N:
            out.append("3.3")
        if order(r) == 12 and a == (2 * r + h) % N:
            out.append("3.4")
        if order(r) == 9 and a == -3 * r % N:
            out.append("3.5")
        if order(r) == 24 and a == (4 * r + h) % N:
            out.append("3.6")
        if order(r) == 30 and a == (5 * r + h) % N:
            out.append("3.7")
    if shared and d == h and order(a) not in (2, 3):
        if r == -2 * a % N:
            out.append("4.1")
        if order(a) in (5, 8, 12, 14, 20) and r == -3 * a % N:
            out.append("4.2")
        if order(a) in (10, 18) and r == -4 * a % N:
            out.append("4.3")
        if order(a) in (14, 24) and r == -5 * a % N:
            out.append("4.4")
        if order(r) == 8 and a == -2 * r % N:
            out.append("4.5")
        if order(r) == 12 and a == -3 * r % N:
            out.append("4.6")
        if order(r) == 20 and a == -4 * r % N:
            out.append("4.7")
        if order(r) == 30 and a == -6 * r % N:
            out.append("4.8")
    if shared and a != h and order(d) == 3:
        q0 = (a + r) % N
        if order(q0) == 12 and a == 4 * q0 % N and d == (2 * q0 + h) % N:
            out.append("5.1")
        if order(r) == 12 and a == (2 * r + h) % N and d == (2 * r + h) % N:
            out.append("5.2")
        if order(r) == 24 and a == -6 * r % N and d == -8 * r % N:
            out.append("5.3")
        if order(a) == 18 and r == -2 * a % N and d == (3 * a + h) % N:
            out.append("5.4")
        if order(a) == 30 and r == -3 * a % N and d == (5 * a + h) % N:
            out.append("5.5")
    return out


def lemma41_case(q: BraidingMatrix) -> NicholsVerdict:
    """First matching sub-case of the rank-2 table, trying the identity
    ordering of the basis and then the swap."""
    q11, q12, q21, q22 = q.q11, q.q12, q.q21, q.q22
    N = math.lcm(2, q11.order, q12.order, q21.order, q22.order)
    a = q11.exponent * (N // q11.order)
    r = (q12.exponent * (N // q12.order) + q21.exponent * (N // q21.order)) % N
    d = q22.exponent * (N // q22.order)
    matches = _lemma41_matches(N, a, r, d)
    if matches:
        return NicholsVerdict(matches[0], False, tuple(matches))
    matches = _lemma41_matches(N, d, r, a)  # the swap exchanges q11 and q22, keeps rho
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


def _prop42_match(n1: int, n2: int, q1: RootOfUnity, q2: RootOfUnity, epsilon: int) -> str:
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
    hit = _prop42_match(d.n1, d.n2, d.q1, d.q2, epsilon)
    if hit != "none":
        return hit
    return _prop42_match(d.n2, d.n1, d.q2, d.q1, epsilon)


def _supplementary_match(n1: int, n2: int, q1: RootOfUnity, q2: RootOfUnity) -> str:
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
    hit = _supplementary_match(d.n1, d.n2, d.q1, d.q2)
    if hit != "none":
        return hit
    return _supplementary_match(d.n2, d.n1, d.q2, d.q1)


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
