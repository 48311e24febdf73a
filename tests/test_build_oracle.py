"""Differential oracle for ``build`` on the skew-Laurent families.

``old_build_k``, ``old_build_a`` and ``old_shape_bounds`` are verbatim
copies of the K/B and A constructors and of the basis-shape bounds that
re-derived the K constructor's power-rule pivot from the parameters.
``build`` must give the same letters, weights, rules in order, coalgebra
tables, skew weights and central exponent, and ``free_shapes`` the same
shapes, on every shape of the benchmark grids, on K with p_i = 1, and on A
with negative, small and non-root-of-unity parameters.
"""

import math

import pytest

from gkhopf.ncpoly import NCPoly, NFMonomial, RewriteSystem, Rule
from gkhopf.presentations import (BParams, BuiltPresentation, HopfPresentation, KParams,
                                  build)
from gkhopf.scalars import Cyclo, make_root

from helpers import perfbench_workloads


def old_build_k(pres: HopfPresentation, step_budget: int) -> BuiltPresentation:
    params = pres.kparams
    s = params.s
    if len({len(params.n), len(params.p), len(params.q), len(params.alpha), s}) != 1:
        raise ValueError("parameter sequences disagree with s")
    if any(q.is_zero() for q in params.q):
        raise ValueError("q_i must be nonzero")
    if any(pi < 1 for pi in params.p):
        raise ValueError("p_i must be positive")
    names = ["x^-1", "x"] + [f"y{i+1}" for i in range(s)]
    ell = math.prod(params.p)
    weights = [0, 0] + [ell // pi for pi in params.p]
    one = Cyclo.one()
    rules = [
        Rule((1, 0), ((one, ()),), "x*x^-1"),
        Rule((0, 1), ((one, ()),), "x^-1*x"),
    ]
    for i in range(s):
        yi = i + 2
        rules.append(Rule((yi, 1), ((params.q[i], (1, yi)),), f"y{i+1}*x"))
        rules.append(Rule((yi, 0), ((params.q[i].inv(), (0, yi)),), f"y{i+1}*x^-1"))
    for i in range(s):
        for j in range(i + 1, s):
            qij = params.q[j] ** params.n[i]
            rules.append(Rule((j + 2, i + 2), ((qij, (i + 2, j + 2)),), f"y{j+1}*y{i+1}"))
    # the power rules rewrite onto the generator with the smallest exponent,
    # which keeps them strictly descending in the monomial order
    pivot = min(range(s), key=lambda i: params.p[i])
    for j in range(s):
        if j == pivot:
            continue
        aj = params.alpha[j] - params.alpha[pivot]
        rhs = [(one, (pivot + 2,) * params.p[pivot])]
        if not aj.is_zero():
            rhs.append((aj, (1,) * params.M))
            rhs.append((-aj, ()))
        rules.append(Rule((j + 2,) * params.p[j], tuple(rhs), f"y{j+1}^p"))
    rs = RewriteSystem(names, weights, rules, step_budget)

    unit = rs.unit_monomial()
    x1 = NFMonomial(1, unit.w)
    xm1 = NFMonomial(-1, unit.w)
    cops = [((one, xm1, xm1),), ((one, x1, x1),)]
    eps = [one, one]
    antis = [NCPoly.monomial(x1), NCPoly.monomial(xm1)]
    for i in range(s):
        yi = NFMonomial(0, tuple(1 if t == i else 0 for t in range(s)))
        xw = NFMonomial(params.n[i], unit.w)
        cops.append(((one, yi, unit), (one, xw, yi)))
        eps.append(Cyclo.zero())
        antis.append(NCPoly.monomial(NFMonomial(-params.n[i], yi.w), -1))
    return BuiltPresentation(
        presentation=pres,
        rs=rs,
        coproducts=tuple(cops),
        counits=tuple(eps),
        antipodes=tuple(antis),
        skew_weights=tuple(params.n),
        central_exponent=params.M,
    )


def old_build_a(pres: HopfPresentation, step_budget: int) -> BuiltPresentation:
    params = pres.aparams
    one = Cyclo.one()
    rules = [
        Rule((1, 0), ((one, ()),), "x*x^-1"),
        Rule((0, 1), ((one, ()),), "x^-1*x"),
        Rule((2, 1), ((params.q, (1, 2)),), "y*x"),
        Rule((2, 0), ((params.q.inv(), (0, 2)),), "y*x^-1"),
    ]
    rs = RewriteSystem(["x^-1", "x", "y"], [0, 0, 1], rules, step_budget)
    unit = rs.unit_monomial()
    x1, xm1, y = NFMonomial(1, (0,)), NFMonomial(-1, (0,)), NFMonomial(0, (1,))
    cops = (
        ((one, xm1, xm1),),
        ((one, x1, x1),),
        ((one, y, unit), (one, NFMonomial(params.n, (0,)), y)),
    )
    eps = (one, one, Cyclo.zero())
    antis = (
        NCPoly.monomial(x1),
        NCPoly.monomial(xm1),
        NCPoly.monomial(NFMonomial(-params.n, (1,)), -1),
    )
    return BuiltPresentation(pres, rs, cops, eps, antis,
                             skew_weights=(params.n,),
                             central_exponent=None)


def old_shape_bounds(self):
    if self.family in ("K", "B"):
        params = self.presentation.kparams
        pivot = min(range(params.s), key=lambda i: params.p[i])
        return [None if i == pivot else params.p[i] - 1 for i in range(params.s)]
    return [None]


def old_free_shapes(built, degree_cap):
    """``free_shapes`` with the bounds of ``old_shape_bounds``."""
    weights = built.rs.letter_weights[2:]
    bounds = old_shape_bounds(built)
    shapes = []

    def rec(i, acc, left):
        if i == len(weights):
            shapes.append(tuple(acc))
            return
        e = 0
        while e * weights[i] <= left and (bounds[i] is None or e <= bounds[i]):
            rec(i + 1, acc + [e], left - e * weights[i])
            e += 1
    rec(0, [], degree_cap)
    return shapes


def _cases():
    wl = perfbench_workloads()
    out = []
    for p in wl.GRID_B:
        ell = math.prod(p)
        for alpha in ((0,) * len(p), tuple(range(len(p)))):
            out.append((f"B{p}{alpha}", HopfPresentation.from_b(
                BParams.make(1, p, make_root(ell, 1), alpha))))
    for p, M in wl.GRID_K:
        q = [make_root(pi, ki) for pi, ki in zip(p, wl.k_exponents(p, M)[0])]
        for alpha in ((0, 0), (0, 1)):
            out.append((f"K{p},{M}{alpha}", HopfPresentation.from_k(
                KParams.make(M, [M // pi for pi in p], p, q, alpha))))
    one, minus = Cyclo.one(), Cyclo.from_rational(-1)
    out.append(("K p=[1,1]", HopfPresentation.from_k(KParams.make(2, (2, 2), (1, 1), [one, one], (0, 1)))))
    out.append(("K p=[2,1]", HopfPresentation.from_k(KParams.make(2, (1, 2), (2, 1), [minus, one], (0, 1)))))
    for n in (-3, 1, 2):
        for q in (make_root(5, 1), 2, Cyclo.from_rational(-1) / 3):
            out.append((f"A({n},{q})", HopfPresentation.a_family(n, q)))
    return out


CASES = _cases()


def _old_build(pres):
    return (old_build_a if pres.family == "A" else old_build_k)(pres, 1_000_000)


@pytest.mark.parametrize("pres", [pres for _, pres in CASES], ids=[name for name, _ in CASES])
def test_build_matches_old_constructors(pres):
    new, old = build(pres), _old_build(pres)
    assert new.rs.letter_names == old.rs.letter_names
    assert new.rs.letter_weights == old.rs.letter_weights
    assert [(r.lhs, r.rhs, r.name) for r in new.rs.rules] == \
        [(r.lhs, r.rhs, r.name) for r in old.rs.rules]
    assert new.coproducts == old.coproducts
    assert new.counits == old.counits
    assert [list(a.terms.items()) for a in new.antipodes] == \
        [list(a.terms.items()) for a in old.antipodes]
    assert new.skew_weights == old.skew_weights
    assert new.central_exponent == old.central_exponent
    for cap in range(13):
        assert new.free_shapes(cap) == old_free_shapes(old, cap), cap


def test_free_shapes_of_c_family_unbounded():
    c3 = build(HopfPresentation.c_family(3))
    for cap in range(13):
        assert c3.free_shapes(cap) == old_free_shapes(c3, cap)
