"""Shared builders and instance grids for the test suite."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

from gkhopf.expr import evaluate, parse_expression
from gkhopf.ncpoly import RewriteSystem, Rule
from gkhopf.presentations import BParams, BuiltPresentation, HopfPresentation, KParams, build, validate
from gkhopf.scalars import RootOfUnity, make_root


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def perfbench_workloads():
    """``perfbench/workloads.py``, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ev(built: BuiltPresentation, text: str):
    return evaluate(parse_expression(text, built), built)


def built_b(n, p, q_exp, alpha) -> BuiltPresentation:
    ell = math.prod(p)
    return build(HopfPresentation.from_b(BParams.make(n, p, make_root(ell, q_exp), alpha)))


def corrupted_b23(b23: BuiltPresentation) -> RewriteSystem:
    """B{2,3}'s rewrite system with the constant of ``y1*x`` squared: not confluent."""
    rules = list(b23.rs.rules)
    idx = next(i for i, r in enumerate(rules) if r.name == "y1*x")
    q1 = b23.presentation.kparams.q[0]
    rules[idx] = Rule(rules[idx].lhs, ((q1 * q1, rules[idx].rhs[0][1]),), "y1*x corrupted")
    return RewriteSystem(b23.rs.letter_names, b23.rs.letter_weights, rules)


def b_grid(max_ell: int = 30) -> list[BParams]:
    """Validated coprime instances with varied alpha, ell <= max_ell."""
    p_sets = [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (2, 13), (2, 15),
              (3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (4, 5), (4, 7), (5, 6),
              (2, 3, 5)]
    out = []
    for p in p_sets:
        ell = math.prod(p)
        if ell > max_ell:
            continue
        alphas = [(0,) * len(p)]
        alphas.append(tuple(range(len(p))))
        if len(p) == 2:
            alphas.append((0, 2))
        for alpha in alphas:
            out.append(BParams.make(1, p, make_root(ell, 1), alpha))
    return out


def search_k_instances(p: tuple[int, ...], M: int, alpha, limit: int = 1) -> list[KParams]:
    """Brute-force admissible q tuples for given (p, M) by root-of-unity search."""
    s = len(p)
    if any(M % pi for pi in p):
        return []
    n = [M // pi for pi in p]
    if any(math.gcd(n[i], p[i]) != 1 for i in range(s)):
        return []
    primitive = lambda m: [RootOfUnity(m, k) for k in range(m) if math.gcd(k, m) == 1 or m == 1]
    out = []

    def rec(i: int, qs: list[RootOfUnity]):
        if len(out) >= limit:
            return
        if i == s:
            params = KParams.make(M, n, p, [q.to_cyclo() for q in qs], alpha)
            if all(validate(params).flags[f] for f in
                   ("sizes", "degree_split", "q_nonzero", "q_primitive", "q_cross")):
                out.append(params)
            return
        for q in primitive(p[i]):
            if all((q ** n[j]) == (qs[j] ** n[i]).inv() for j in range(i)):
                rec(i + 1, qs + [q])

    rec(0, [])
    return out


def k_grid(max_M: int = 36) -> list[KParams]:
    """A mixed grid: coprime (domain) and non-coprime instances."""
    out = [b.expand() for b in b_grid(max_ell=max_M) if b.M <= max_M]
    noncoprime = [((2, 2), 2), ((2, 2), 6), ((2, 2), 10), ((3, 3), 3), ((3, 3), 6),
                  ((4, 4), 4), ((5, 5), 5), ((6, 6), 6), ((2, 6), 6), ((6, 10), 30),
                  ((10, 15), 30), ((2, 2), 14), ((3, 3), 12), ((2, 6), 18)]
    for p, M in noncoprime:
        if M <= max_M:
            out.extend(search_k_instances(p, M, (0, 1), limit=1))
    return out


def domain_pool() -> list[KParams]:
    """Validated domain instances for the isomorphism property tests."""
    out = []
    for p in ((2, 3), (2, 5), (3, 5)):
        ell = math.prod(p)
        for alpha in ((0, 0), (0, 1), (0, 2), (0, 4)):
            out.append(BParams.make(1, p, make_root(ell, 1), alpha).expand())
    for alpha in ((0, 1, 2), (0, 2, 4), (0, 1, 3)):
        out.append(BParams.make(1, (2, 3, 5), make_root(30, 1), alpha).expand())
    return out
