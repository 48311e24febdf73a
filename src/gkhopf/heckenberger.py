"""Finite-dimensionality case tables for rank-2 diagonal braidings.

``lemma41_case`` reproduces the published classification table for a 2x2
braiding matrix of roots of unity: five case groups with 29 sub-cases in
all, tried first in the given ordering of the basis and then with the two
basis vectors swapped.  ``prop42_case`` specializes the table to braidings
of the form q_{ij} = q_j^{n_i} and reports which of the six parameter
families that survive the datum lies in.  ``supplementary_type`` and
``remark43_finite`` detect the four exceptional parameter patterns, and
``omega_checks`` evaluates both subalgebra hypotheses on a parameter
record: the pair patterns among the visible rank-one subalgebras, and the
orders of their commutators.

Every table runs on integers.  A datum holds q_i = zeta_N^{x_i} with
N = lcm(2, ord q1, ord q2), and each root is read as its exponent x mod N:
a product is a sum, the k-th power is k*x, the negative is x + N/2, the
order is N / gcd(x, N), and 1 is 0.  The verdicts depend only on the roots,
so any even common multiple of the orders gives the same answer.  The swap
exchanges the exponents of q11 and q22 and keeps that of rho = q12*q21.

No Nichols algebra is ever constructed; these are exact membership tests
on root-of-unity data.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple, Union

from .scalars import Cyclo, RootOfUnity, _no_tuple_arithmetic

if TYPE_CHECKING:
    from .presentations import KParams

RootOrPair = Union[tuple[int, int], Cyclo]  # a pair (L, k), a RootOfUnity among them, is zeta_L^k


def _pair(z: RootOrPair) -> tuple[int, int]:
    """(L, k) with z = zeta_L^k; ValueError for a ``Cyclo`` that is no root."""
    return z if isinstance(z, tuple) else RootOfUnity.from_cyclo(z)


class BraidingMatrix(NamedTuple):
    """(q_ij) as q_ij = zeta_N^{e_ij}, N an even common multiple of the four orders."""

    N: int
    e11: int
    e12: int
    e21: int
    e22: int

    __add__ = __radd__ = __mul__ = __rmul__ = _no_tuple_arithmetic

    @staticmethod
    def make(q11: RootOrPair, q12: RootOrPair, q21: RootOrPair, q22: RootOrPair) -> "BraidingMatrix":
        pairs = [_pair(q) for q in (q11, q12, q21, q22)]
        N = math.lcm(2, *(L // math.gcd(k, L) for L, k in pairs))
        return BraidingMatrix(N, *(k * N // L % N for L, k in pairs))

    q11, q12, q21, q22 = (property(lambda self, i=i: RootOfUnity(self.N, self[i])) for i in range(1, 5))


class DiagonalDatum(NamedTuple):
    """The braiding q_ij = q_j^{n_i}, q_i = zeta_N^{x_i} with N = lcm(2, ord q1, ord q2)."""

    n1: int
    n2: int
    N: int
    x1: int
    x2: int

    __add__ = __radd__ = __mul__ = __rmul__ = _no_tuple_arithmetic

    @staticmethod
    def make(n1: int, n2: int, q1: RootOrPair, q2: RootOrPair) -> "DiagonalDatum":
        """A pair (L, k) builds no object; L / gcd(k, L) divides N, so k * N / L is an integer."""
        if n1 < 1 or n2 < 1:
            raise ValueError("exponents must be positive")
        (L1, k1), (L2, k2) = _pair(q1), _pair(q2)
        N = math.lcm(2, L1 // math.gcd(k1, L1), L2 // math.gcd(k2, L2))
        return DiagonalDatum(n1, n2, N, k1 * N // L1 % N, k2 * N // L2 % N)

    q1 = property(lambda self: RootOfUnity(self.N, self.x1))
    q2 = property(lambda self: RootOfUnity(self.N, self.x2))

    def braiding_matrix(self) -> BraidingMatrix:
        n1, n2, N, x1, x2 = self
        return BraidingMatrix(N, n1 * x1 % N, n1 * x2 % N, n2 * x1 % N, n2 * x2 % N)


class NicholsVerdict(NamedTuple):
    case_label: str            # "1", "2.1".."5.5", or "none"
    permutation_applied: bool
    all_matches: tuple[str, ...]


def _lemma41_matches(N: int, a: int, r: int, d: int) -> list[str]:
    """Sub-cases matched by q11 = zeta_N^a, rho = q12*q21 = zeta_N^r and
    q22 = zeta_N^d, for an even N and exponents in 0..N-1."""
    h = N // 2  # -1 = zeta_N^h
    order_a, order_r = N // math.gcd(a, N), N // math.gcd(r, N)
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
        if order_a == 3 and 3 * r % N:
            out.append("2.5")
        if order_r == 8 and a == 2 * r % N:
            out.append("2.6")
        if order_r == 24 and a == 6 * r % N:
            out.append("2.7")
        if order_r == 30 and a == 12 * r % N:
            out.append("2.8")
    shared = r and (a + r) % N and (r + d) % N
    if shared and d == h and order_a in (2, 3):
        if a == h and 2 * r % N:
            out.append("3.1")
        if order_a == 3 and r in (a, (a + h) % N):
            out.append("3.2")
        q0 = (a + r) % N
        if N // math.gcd(q0, N) == 12 and a == 4 * q0 % N:
            out.append("3.3")
        if order_r == 12 and a == (2 * r + h) % N:
            out.append("3.4")
        if order_r == 9 and a == -3 * r % N:
            out.append("3.5")
        if order_r == 24 and a == (4 * r + h) % N:
            out.append("3.6")
        if order_r == 30 and a == (5 * r + h) % N:
            out.append("3.7")
    if shared and d == h and order_a not in (2, 3):
        if r == -2 * a % N:
            out.append("4.1")
        if order_a in (5, 8, 12, 14, 20) and r == -3 * a % N:
            out.append("4.2")
        if order_a in (10, 18) and r == -4 * a % N:
            out.append("4.3")
        if order_a in (14, 24) and r == -5 * a % N:
            out.append("4.4")
        if order_r == 8 and a == -2 * r % N:
            out.append("4.5")
        if order_r == 12 and a == -3 * r % N:
            out.append("4.6")
        if order_r == 20 and a == -4 * r % N:
            out.append("4.7")
        if order_r == 30 and a == -6 * r % N:
            out.append("4.8")
    if shared and a != h and N // math.gcd(d, N) == 3:
        q0 = (a + r) % N
        if N // math.gcd(q0, N) == 12 and a == 4 * q0 % N and d == (2 * q0 + h) % N:
            out.append("5.1")
        if order_r == 12 and a == (2 * r + h) % N and d == (2 * r + h) % N:
            out.append("5.2")
        if order_r == 24 and a == -6 * r % N and d == -8 * r % N:
            out.append("5.3")
        if order_a == 18 and r == -2 * a % N and d == (3 * a + h) % N:
            out.append("5.4")
        if order_a == 30 and r == -3 * a % N and d == (5 * a + h) % N:
            out.append("5.5")
    return out


def lemma41_case(q: BraidingMatrix) -> NicholsVerdict:
    """First matching sub-case of the rank-2 table, trying the identity
    ordering of the basis and then the swap."""
    N, a, e12, e21, d = q
    r = (e12 + e21) % N
    matches = _lemma41_matches(N, a, r, d)
    if matches:
        return NicholsVerdict(matches[0], False, tuple(matches))
    matches = _lemma41_matches(N, d, r, a)  # the swap exchanges q11 and q22, keeps rho
    if matches:
        return NicholsVerdict(matches[0], True, tuple(matches))
    return NicholsVerdict("none", False, ())


def _prop42_hypotheses(d: DiagonalDatum, epsilon: int) -> bool:
    n1, n2, N, x1, x2 = d
    p1, p2 = n2 * epsilon, n1 * epsilon
    return (epsilon >= 1 and math.gcd(n1, n2) == 1
            and N // math.gcd(x1, N) == p1 == N // math.gcd(n1 * x1, N)
            and N // math.gcd(x2, N) == p2 == N // math.gcd(n2 * x2, N))


def _prop42_match(n1: int, n2: int, N: int, x1: int, x2: int, epsilon: int) -> str:
    if (n1 * x2 + n2 * x1) % N == 0:  # q2^{n1} q1^{n2} = 1
        return "I"
    o1, o2 = N // math.gcd(x1, N), N // math.gcd(x2, N)
    if n1 == 1 and n2 == 1 and o1 == o2 and o1 in (3, 5):
        return "II" if o1 == 3 else "III"
    if (n1, n2) == (1, 2) and epsilon == 5 \
            and (4 * x1 + x2) % N == 0 and (2 * x1 + 3 * x2) % N == 0:
        return "IV"
    if n1 == 1 and n2 == 1 and epsilon == 7 and o1 == 7 and o2 == 7 \
            and (x1 + 2 * x2) % N == 0 and (4 * x1 + x2) % N == 0:
        return "V"
    if (n1, n2) == (1, 3) and epsilon == 7 \
            and (3 * x1 + 4 * x2) % N == 0 and (6 * x1 + x2) % N == 0:
        return "VI"
    return "none"


def prop42_case(d: DiagonalDatum, epsilon: int) -> str:
    """Which of the six surviving parameter families the datum lies in, up
    to swap: the paper's necessary condition; finiteness is Remark 4.3's
    verdict.  n1 = n2 = 1, q1 = q2 = zeta_5 lies in family III, not finite."""
    if not _prop42_hypotheses(d, epsilon):
        return "hypotheses-violated"
    n1, n2, N, x1, x2 = d
    hit = _prop42_match(n1, n2, N, x1, x2, epsilon)
    return hit if hit != "none" else _prop42_match(n2, n1, N, x2, x1, epsilon)


# (tag, n1, n2, ord q1, ord q2, e): the datum realizes the pattern when q2 = q1^e
_SUPPLEMENTARY = (("N5", 1, 1, 5, 5, 2), ("N7", 1, 1, 7, 7, 3),
                  ("N10", 1, 2, 10, 5, 6), ("N21", 1, 3, 21, 7, 15))


def _supplementary_match(n1: int, n2: int, N: int, x1: int, x2: int) -> str:
    for tag, m1, m2, o1, o2, e in _SUPPLEMENTARY:
        if n1 == m1 and n2 == m2 and (x2 - e * x1) % N == 0 \
                and N // math.gcd(x1, N) == o1 and N // math.gcd(x2, N) == o2:
            return tag
    return "none"


def supplementary_type(d: DiagonalDatum) -> str:
    """Which of the four exceptional patterns the datum realizes, if any."""
    n1, n2, N, x1, x2 = d
    hit = _supplementary_match(n1, n2, N, x1, x2)
    return hit if hit != "none" else _supplementary_match(n2, n1, N, x2, x1)


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
    pairs, n = [_pair(q) for q in params.q], params.n
    omega_prime = all(L // math.gcd(k * m, L) not in (5, 7) for (L, k), m in zip(pairs, n))
    omega = True
    for i, j in combinations(range(params.s), 2):
        g = math.gcd(n[i], n[j])
        if supplementary_type(DiagonalDatum.make(n[i] // g, n[j] // g, pairs[i], pairs[j])) != "none":
            omega = False
    return omega, omega_prime
