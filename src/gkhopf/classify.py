"""Decision procedures on parameter records.

Everything here is parameter-level: the domain test reduces to pairwise
coprimality of the p_i, Ext-vanishing to separation of the alpha_i, finite
global dimension to (s = 2 and alpha_1 != alpha_2), and isomorphism to a
permutation matching of (p_i, q_i) together with one scalar rescaling the
alpha differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .presentations import KParams, require_structural
from .scalars import Cyclo, ScalarLike, nth_root_in_cyclotomics


def is_domain(params: KParams) -> bool:
    """True iff the p_i are pairwise coprime."""
    return require_structural(params).flags["p_coprime"]


def ext_vanishes(params: KParams) -> bool:
    """True iff the degree-one Ext group of the trivial module vanishes,
    i.e. some pair of alpha values differs."""
    return require_structural(params).flags["alpha_separated"]


def invariant_set(params: KParams) -> list[int]:
    """The multiset {n_1, ..., n_s, M}, sorted."""
    require_structural(params)
    return sorted(list(params.n) + [params.M])


def gldim_finite(params: KParams) -> bool:
    """Finite global dimension happens exactly for s = 2 with separated alphas."""
    return require_structural(params).flags["alpha_separated"] and params.s == 2


@dataclass
class IsoWitness:
    permutation: tuple[int, ...]      # index i of the source matches this index of the target
    scale: Cyclo                      # alpha'_{perm(i)} - alpha'_{perm(j)} = scale * (alpha_i - alpha_j)
    generator_scales: tuple[Optional[Cyclo], ...]  # c_i with c_i^{p_i} = scale, when cyclotomic
    field_note: Optional[str] = None


def iso_test(a: KParams, b: KParams) -> Optional[IsoWitness]:
    """Decide isomorphism of two domain presentations.

    The criterion: some permutation matches (p_i, q_i) exactly and a single
    nonzero scalar c rescales all alpha differences.  The generator scales
    c_i with c_i^{p_i} = c always exist over an algebraically closed field;
    here they are searched cyclotomically and flagged when absent.
    """
    if not is_domain(a) or not is_domain(b):
        raise ValueError("isomorphism test requires domain parameters")
    # coprime p_i of size >= 2 are distinct, hence so are the n_i = M/p_i;
    # the scaling maps below describe every Hopf map only under that shape
    assert len(set(a.n)) == a.s and len(set(b.n)) == b.s
    if a.s != b.s or a.M != b.M:
        return None
    for perm in permutations(range(a.s)):
        if any(a.p[i] != b.p[perm[i]] or a.q[i] != b.q[perm[i]] for i in range(a.s)):
            continue
        scale = None
        ok = True
        for i, j in combinations(range(a.s), 2):
            da = a.alpha[i] - a.alpha[j]
            db = b.alpha[perm[i]] - b.alpha[perm[j]]
            if da.is_zero() != db.is_zero():
                ok = False
                break
            if da.is_zero():
                continue
            c = db / da
            if scale is None:
                scale = c
            elif scale != c:
                ok = False
                break
        if not ok:
            continue
        if scale is None:
            scale = Cyclo.one()
        scales = tuple(nth_root_in_cyclotomics(scale, p) for p in a.p)
        note = None
        if any(s is None for s in scales):
            note = "witness scalar outside coefficient field"
        return IsoWitness(perm, scale, scales, note)
    return None


def a_family_iso(m: int, r: ScalarLike, n: int, q: ScalarLike) -> bool:
    """Isomorphism of the skew Laurent planes: (m,r) = (n,q) or (-n, q^{-1})."""
    r = Cyclo.promote(r)
    q = Cyclo.promote(q)
    if r.is_zero() or q.is_zero():
        raise ValueError("parameters must be nonzero")
    return (m, r) == (n, q) or (m == -n and r == q.inv())
