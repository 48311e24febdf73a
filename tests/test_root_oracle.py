"""Differential oracle for ``to_b_form`` and ``nth_root_in_cyclotomics``.

``old_to_b_form`` and ``old_nth_root`` are verbatim copies of the base-root
scan over every unit k < ell and of the n-th-root search over up to
CONDUCTOR_LIMIT candidates, except that the copy of the search recognises a
root of unity zeta_N^k, N = lcm(2, conductor), by comparing it with every
``make_root(N, k)``.

``to_b_form`` must give the same base form, base exponents and permutation,
or raise the same error, on the K and B grids, on every base root of seven
coprime shapes, and on every order of their p for n = 11 and
q = zeta_ell^{+-1}.  On the values rho * zeta_N^k, N <= 60, and p = 1..6:
where the old search finds a p-th root, ``nth_root_in_cyclotomics`` must
return the same value; where it finds none, None or a true p-th root.  The old root-of-unity
branch did not check CONDUCTOR_LIMIT: it raised, or returned a root of a
larger conductor, where a root of conductor past the limit was asked for;
there too the new answer must be None or a true p-th root.
"""

import math
from fractions import Fraction
from itertools import permutations

import pytest

from gkhopf.presentations import BFormResult, BParams, KParams, to_b_form, validate
from gkhopf.scalars import (CONDUCTOR_LIMIT, Cyclo, RootOfUnity, ScalarLike, make_root,
                            nth_root_in_cyclotomics)
from gkhopf.scalars import _int_nth_root

from helpers import b_grid, k_grid


def old_to_b_form(params: KParams):
    report = validate(params)
    if report.structural_failures:
        raise ValueError("parameters fail structural validation: "
                         + ", ".join(report.structural_failures))
    if not report.flags["p_coprime"]:
        return None
    order = tuple(sorted(range(params.s), key=lambda i: params.p[i]))
    p_sorted = tuple(params.p[i] for i in order)
    q_sorted = tuple(params.q[i] for i in order)
    a_sorted = tuple(params.alpha[i] for i in order)
    ell = math.prod(p_sorted)
    if params.M % ell:
        return None
    hits = []
    for k in range(ell):
        if math.gcd(k, ell) != 1:
            continue
        q = make_root(ell, k)
        if all(q ** (ell // p_sorted[i]) == q_sorted[i] for i in range(params.s)):
            hits.append(k)
    if not hits:
        return None
    q = make_root(ell, hits[0])
    return BFormResult(BParams(params.M // ell, p_sorted, q, a_sorted), hits, order)


def _old_root_exponent(a: Cyclo):
    N = math.lcm(2, a.conductor)
    return next((k for k in range(N) if make_root(N, k) == a), None)


def old_nth_root(value: ScalarLike, p: int):
    value = Cyclo.promote(value)
    if p < 1:
        raise ValueError("root index must be positive")
    if value.is_zero():
        return Cyclo.zero()
    k = _old_root_exponent(value)
    if k is not None:
        root = RootOfUnity(math.lcm(2, value.conductor), k)
        return make_root(root.order * p, root.exponent)
    n0 = math.lcm(2, value.conductor)
    big = value ** n0
    if not big.is_rational():
        return None
    r = big.as_fraction()
    total = p * n0
    num = _int_nth_root(abs(r.numerator), total)
    den = _int_nth_root(r.denominator, total)
    if num is None or den is None:
        return None
    rho = Cyclo.from_rational(Fraction(num, den))
    order = 2 * total
    if order > CONDUCTOR_LIMIT:
        return None
    for j in range(order):
        cand = rho * make_root(order, j)
        if cand ** p == value:
            return cand
    return None


def _outcome(func, *args):
    try:
        result = func(*args)
    except ValueError as exc:
        return ("raises", str(exc))
    if isinstance(result, BFormResult):
        return (result.bparams, result.base_exponents, result.permutation)
    return result


def _reorderings(params: KParams):
    for perm in permutations(range(params.s)):
        yield KParams.make(params.M, [params.n[i] for i in perm], [params.p[i] for i in perm],
                           [params.q[i] for i in perm], [params.alpha[i] for i in perm])


def _base_roots(n, conjugate_pair_only=False):
    for p in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 3, 5), (2, 3, 7)):
        ell = math.prod(p)
        for k in (1, ell - 1) if conjugate_pair_only else range(ell):
            if math.gcd(k, ell) == 1:
                yield BParams.make(n, p, make_root(ell, k), range(len(p))).expand()


def test_to_b_form_matches_the_scan():
    inputs = list(k_grid()) + [b.expand() for b in b_grid()] + list(_base_roots(1))
    inputs += [shuffled for params in _base_roots(11, conjugate_pair_only=True)
               for shuffled in _reorderings(params)]
    # K with p_1 = 1 fails the structural check
    inputs.append(KParams.make(2, (2, 1), (1, 2), [Cyclo.one(), Cyclo.from_rational(-1)], (0, 1)))
    kinds = set()
    for params in inputs:
        want = _outcome(old_to_b_form, params)
        assert _outcome(to_b_form, params) == want, params
        kinds.add("none" if want is None else want[0] if isinstance(want[0], str) else "form")
    assert kinds == {"none", "raises", "form"}


RHOS = (1, -1, 4, 8, Fraction(1, 9), Fraction(27, 8), 2)


def _values():
    for N in range(1, 61):
        units = [k for k in range(N) if math.gcd(k, N) == 1]
        for rho in RHOS:
            yield rho * make_root(N, units[N % len(units)])


@pytest.mark.parametrize("p", range(1, 7))
def test_nth_root_matches_the_search(p):
    found = refused = 0
    for value in _values():
        want = _outcome(old_nth_root, value, p)
        got = nth_root_in_cyclotomics(value, p)
        if isinstance(want, Cyclo) and want.conductor <= CONDUCTOR_LIMIT:
            found += 1
            assert got == want, (value, p)
        else:
            refused += 1
            assert got is None or got ** p == value, (value, p)
    assert found and (refused or p == 1)
