"""Parameter records and constructors for the Hopf algebra families.

Four families are supported:

* ``K``: generators x^{+-1}, y_1..y_s with commutations y_i x = q_i x y_i,
  y_j y_i = q_j^{n_i} y_i y_j and the power identities
  y_j^{p_j} = y_i^{p_i} + (alpha_j - alpha_i)(x^M - 1);
* ``B``: the coprime sub-family presented by a single base root q with
  q_i = q^{ell/p_i};
* ``A``: the skew Laurent plane x^{+-1}, y with y x = q x y and y skew
  primitive of weight x^n;
* ``C``: the differential-operator family on k[y^{+-1}] with grouplike y
  and x y = y x + y^n - y.

``validate`` reports the defining parameter conditions one by one, and
``require_structural`` refuses parameters that fail a structural one.
``to_b_form`` reads a base root for coprime K-parameters off the q_i by the
Chinese remainder theorem.  ``build`` derives the oriented rewrite system
with the coproduct, counit and antipode tables on the generators: for K, B
and A through one skew-Laurent constructor (A is its rank-one case without
power rules), for C on its own.
``free_shapes`` reads the exponent bounds of normal words off the rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .ncpoly import STEP_BUDGET, NCPoly, NFMonomial, RewriteSystem, Rule, normal_form
from .scalars import (CONDUCTOR_LIMIT, Cyclo, RootOfUnity, ScalarLike, is_primitive_pth_root,
                      make_root)

# validation flags, in reporting order; the starred ones are informational
CONDITION_NAMES = (
    "sizes",            # s >= 2 and M >= 2
    "degree_split",     # M = n_i * p_i with positive integers
    "q_nonzero",
    "q_primitive",      # q_i and q_i^{n_i} are primitive p_i-th roots
    "q_cross",          # q_j^{n_i} = q_i^{-n_j} for i < j
    "alpha_scalars",
    "p_coprime",        # * governs the domain property only
    "alpha_separated",  # * governs Ext vanishing only
    "p_nontrivial",     # p_i >= 2
)
INFORMATIONAL = frozenset({"p_coprime", "alpha_separated"})


def _promote_all(values: Sequence[ScalarLike]) -> tuple[Cyclo, ...]:
    return tuple(Cyclo.promote(v) for v in values)


@dataclass(frozen=True)
class KParams:
    s: int
    M: int
    n: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[Cyclo, ...]
    alpha: tuple[Cyclo, ...]

    def __post_init__(self):
        if len({self.s, len(self.n), len(self.p), len(self.q), len(self.alpha)}) != 1:
            raise ValueError("parameter sequences must share one length")

    @staticmethod
    def make(M: int, n: Sequence[int], p: Sequence[int],
             q: Sequence[ScalarLike], alpha: Sequence[ScalarLike]) -> "KParams":
        return KParams(len(p), M, tuple(n), tuple(p), _promote_all(q), _promote_all(alpha))


@dataclass(frozen=True)
class BParams:
    n: int
    p: tuple[int, ...]
    q: Cyclo
    alpha: tuple[Cyclo, ...]

    @staticmethod
    def make(n: int, p: Sequence[int], q: ScalarLike, alpha: Sequence[ScalarLike]) -> "BParams":
        p = tuple(p)
        if len(alpha) != len(p):
            raise ValueError("one alpha per p")
        if n < 1:
            raise ValueError("n must be a positive integer")
        if any(a >= b for a, b in zip(p, p[1:])) or (p and p[0] < 2):
            raise ValueError("p must be strictly increasing with every entry > 1")
        if any(math.gcd(a, b) != 1 for a, b in combinations(p, 2)):
            raise ValueError("p must be pairwise coprime")
        q = Cyclo.promote(q)
        if not is_primitive_pth_root(q, math.prod(p)):
            raise ValueError("q must be a primitive root of unity of order p_1*...*p_s")
        return BParams(n, p, q, _promote_all(alpha))

    @property
    def ell(self) -> int:
        return math.prod(self.p)

    @property
    def M(self) -> int:
        return self.n * self.ell

    def expand(self) -> KParams:
        ell = self.ell
        q = tuple(self.q ** (ell // pi) for pi in self.p)
        return KParams(len(self.p), self.M, tuple(self.M // pi for pi in self.p),
                       self.p, q, self.alpha)


@dataclass(frozen=True)
class AParams:
    n: int
    q: Cyclo

    @staticmethod
    def make(n: int, q: ScalarLike) -> "AParams":
        q = Cyclo.promote(q)
        if q.is_zero():
            raise ValueError("q must be nonzero")
        return AParams(n, q)


@dataclass(frozen=True)
class CParams:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("the differential-operator family needs n >= 2")


@dataclass(frozen=True)
class HopfPresentation:
    family: str  # "K", "B", "A", "C"
    kparams: Optional[KParams] = None
    aparams: Optional[AParams] = None
    cparams: Optional[CParams] = None

    @staticmethod
    def from_k(params: KParams) -> "HopfPresentation":
        return HopfPresentation("K", kparams=params)

    @staticmethod
    def from_b(params: BParams) -> "HopfPresentation":
        return HopfPresentation("B", kparams=params.expand())

    @staticmethod
    def a_family(n: int, q: ScalarLike) -> "HopfPresentation":
        return HopfPresentation("A", aparams=AParams.make(n, q))

    @staticmethod
    def c_family(n: int) -> "HopfPresentation":
        return HopfPresentation("C", cparams=CParams(n))


@dataclass
class ValidationReport:
    flags: dict[str, bool]
    messages: list[str]

    @property
    def structural_failures(self) -> list[str]:
        """The failed flags outside INFORMATIONAL, in reporting order."""
        return [k for k, v in self.flags.items() if not v and k not in INFORMATIONAL]

    @property
    def ok(self) -> bool:
        return not self.structural_failures


def validate(params: KParams) -> ValidationReport:
    """Check every defining condition of the K family, one flag each."""
    flags = {name: True for name in CONDITION_NAMES}
    messages: list[str] = []

    def fail(name: str, msg: str) -> None:
        flags[name] = False
        messages.append(msg)

    if params.s < 2 or params.M < 2:
        fail("sizes", f"need s >= 2 and M >= 2, got s={params.s}, M={params.M}")
    for i in range(params.s):
        if params.n[i] < 1 or params.p[i] < 1 or params.n[i] * params.p[i] != params.M:
            fail("degree_split", f"M != n_{i+1} * p_{i+1}")
        if params.q[i].is_zero():
            fail("q_nonzero", f"q_{i+1} = 0")
        if params.p[i] < 2:
            fail("p_nontrivial", f"p_{i+1} < 2")
    if flags["q_nonzero"]:
        for i in range(params.s):
            qi, ni, pi = params.q[i], params.n[i], params.p[i]
            if not (is_primitive_pth_root(qi, pi) and is_primitive_pth_root(qi ** ni, pi)):
                fail("q_primitive", f"q_{i+1} or q_{i+1}^n_{i+1} is not a primitive root of order p_{i+1}")
        for i, j in combinations(range(params.s), 2):
            if params.q[j] ** params.n[i] != params.q[i] ** (-params.n[j]):
                fail("q_cross", f"q_{j+1}^n_{i+1} != q_{i+1}^-n_{j+1}")
    if not any(params.alpha[i] != params.alpha[j] for i, j in combinations(range(params.s), 2)):
        flags["alpha_separated"] = False
    if any(math.gcd(params.p[i], params.p[j]) != 1 for i, j in combinations(range(params.s), 2)):
        flags["p_coprime"] = False
    return ValidationReport(flags, messages)


def validate_presentation(pres: HopfPresentation) -> ValidationReport:
    if pres.family in ("K", "B"):
        return validate(pres.kparams)
    # comparison families carry their constraints in the constructors
    return ValidationReport({"well_formed": True}, [])


def require_structural(params: KParams) -> ValidationReport:
    """``validate(params)``, raising ValueError if a structural condition fails."""
    report = validate(params)
    if report.structural_failures:
        raise ValueError("parameters fail structural validation: "
                         + ", ".join(report.structural_failures))
    return report


@dataclass
class BFormResult:
    bparams: BParams
    base_exponents: list[int]   # the one exponent k with q = zeta_ell^k
    permutation: tuple[int, ...]  # sorted position -> original index


def to_b_form(params: KParams) -> Optional[BFormResult]:
    """The base root q = zeta_ell^k with q_i = q^{ell/p_i}, after sorting the p_i,
    or None unless they are pairwise coprime.  With q_i = zeta_{p_i}^{k_i}, k is
    the residue mod ell = p_1...p_s with k = k_i mod p_i for every i (by CRT)."""
    if not require_structural(params).flags["p_coprime"]:
        return None
    order = tuple(sorted(range(params.s), key=lambda i: params.p[i]))
    ell = math.prod(params.p)
    k = sum(RootOfUnity.from_cyclo(params.q[i]).exponent * (ell // params.p[i])
            * pow(ell // params.p[i], -1, params.p[i]) for i in order) % ell
    bparams = BParams(params.M // ell, tuple(params.p[i] for i in order), make_root(ell, k),
                      tuple(params.alpha[i] for i in order))
    return BFormResult(bparams, [k], order)


# ---------------------------------------------------------------------------
# build: rewrite system + coalgebra tables
# ---------------------------------------------------------------------------

CoproductTable = tuple[tuple[tuple[Cyclo, NFMonomial, NFMonomial], ...], ...]


@dataclass
class BuiltPresentation:
    presentation: HopfPresentation
    rs: RewriteSystem
    coproducts: CoproductTable          # per letter
    counits: tuple[Cyclo, ...]          # per letter
    antipodes: tuple[NCPoly, ...]       # per letter
    skew_weights: tuple[int, ...]       # weight exponent of each free letter
    central_exponent: Optional[int]     # group-letter power that is central
    # coproduct, counit and antipode of each basis-shaped word, per
    # (shape, x_window) the rows every weight shares and the open columns
    # (at most one, or all if the system is not diagonal) of each nonzero
    # shape's skew-primitive system, and per degree cap the free shapes,
    # filled on first use; init=False keeps dataclasses.replace from copying
    # them into a changed copy
    coproduct_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    counit_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    antipode_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    primitive_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    shape_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def family(self) -> str:
        return self.presentation.family

    @property
    def num_free(self) -> int:
        return self.rs.num_free

    def unit(self) -> NCPoly:
        return NCPoly.monomial(self.rs.unit_monomial())

    def group_monomial(self, k: int) -> NFMonomial:
        return NFMonomial(k, (0,) * self.num_free)

    def free_monomial(self, i: int) -> NFMonomial:
        w = [0] * self.num_free
        w[i] = 1
        return NFMonomial(0, tuple(w))

    def nf_monomials(self, degree_cap: int, x_window: int):
        """All basis monomials with weighted degree <= cap, |w0| <= window."""
        shapes = self.free_shapes(degree_cap)
        for w0 in range(-x_window, x_window + 1):
            for w in shapes:
                yield NFMonomial(w0, w)

    def free_shapes(self, degree_cap: int) -> list[tuple[int, ...]]:
        """Exponent vectors of the free letters with weighted degree <= cap.
        A letter with a letter-power rule l^p -> ... has exponent < p in a
        normal word; a letter without one is unbounded.  The list is built
        once per cap and shared by every caller, which must not change it."""
        shapes = self.shape_cache.get(degree_cap)
        if shapes is None:
            weights = self.rs.letter_weights[2:]
            powers = [self.rs.min_power.get(l + 2) for l in range(len(weights))]
            shapes = self.shape_cache[degree_cap] = _exponent_vectors(weights, powers, degree_cap)
        return shapes


def _exponent_vectors(weights: Sequence[int], powers: Sequence[Optional[int]],
                      degree_cap: int) -> list[tuple[int, ...]]:
    """Every (e_1, ..., e_k) with sum e_i * weights[i] <= cap and e_i below
    powers[i] where that is not None, in lexicographic order."""
    shapes: list[tuple[int, ...]] = []

    def rec(i: int, acc: list[int], left: int):
        if i == len(weights):
            shapes.append(tuple(acc))
            return
        e = 0
        while e * weights[i] <= left and (powers[i] is None or e < powers[i]):
            rec(i + 1, acc + [e], left - e * weights[i])
            e += 1
    rec(0, [], degree_cap)
    return shapes


def build(pres: HopfPresentation, step_budget: int = STEP_BUDGET) -> BuiltPresentation:
    if pres.family in ("K", "B"):
        return _build_k(pres, step_budget)
    if pres.family == "A":
        return _build_a(pres, step_budget)
    if pres.family == "C":
        return _build_c(pres, step_budget)
    raise ValueError(f"unknown family {pres.family}")


def _skew_laurent(pres: HopfPresentation, ys: Sequence[str], weights: Sequence[int],
                  q: Sequence[Cyclo], n: Sequence[int], step_budget: int,
                  extra_rules: Sequence[Rule] = (),
                  central_exponent: Optional[int] = None) -> BuiltPresentation:
    """k[x^{+-1}] with skew-primitive letters ``ys``: y_i x = q_i x y_i,
    Delta(y_i) = y_i (x) 1 + x^{n_i} (x) y_i, eps(y_i) = 0 and
    S(y_i) = -x^{-n_i} y_i; ``extra_rules`` follow the commutation rules."""
    one = Cyclo.one()
    rules = [Rule((1, 0), ((one, ()),), "x*x^-1"), Rule((0, 1), ((one, ()),), "x^-1*x")]
    for i, (name, qi) in enumerate(zip(ys, q), start=2):
        rules.append(Rule((i, 1), ((qi, (1, i)),), f"{name}*x"))
        rules.append(Rule((i, 0), ((qi.inv(), (0, i)),), f"{name}*x^-1"))
    rs = RewriteSystem(["x^-1", "x", *ys], [0, 0, *weights], rules + list(extra_rules), step_budget)
    unit = rs.unit_monomial()
    x1, xm1 = NFMonomial(1, unit.w), NFMonomial(-1, unit.w)
    cops = [((one, xm1, xm1),), ((one, x1, x1),)]
    antis = [NCPoly.monomial(x1), NCPoly.monomial(xm1)]
    for i, ni in enumerate(n):
        yi = NFMonomial(0, tuple(1 if t == i else 0 for t in range(len(n))))
        cops.append(((one, yi, unit), (one, NFMonomial(ni, unit.w), yi)))
        antis.append(NCPoly.monomial(NFMonomial(-ni, yi.w), -1))
    eps = (one, one) + (Cyclo.zero(),) * len(n)
    return BuiltPresentation(pres, rs, tuple(cops), eps, tuple(antis), tuple(n), central_exponent)


def _build_k(pres: HopfPresentation, step_budget: int) -> BuiltPresentation:
    params = pres.kparams
    s = params.s
    if s == 0:
        raise ValueError("p must be nonempty")
    if params.M < 0:
        raise ValueError(f"M must be nonnegative, got M={params.M}")
    if any(q.is_zero() for q in params.q):
        raise ValueError("q_i must be nonzero")
    if any(pi < 1 for pi in params.p):
        raise ValueError("p_i must be positive")
    one = Cyclo.one()
    rules = []
    for i, j in combinations(range(s), 2):
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
            rhs += [(aj, (1,) * params.M), (-aj, ())]
        rules.append(Rule((j + 2,) * params.p[j], tuple(rhs), f"y{j+1}^p"))
    ell = math.prod(params.p)
    return _skew_laurent(pres, [f"y{i+1}" for i in range(s)], [ell // pi for pi in params.p],
                         params.q, params.n, step_budget, rules, params.M)


def _build_a(pres: HopfPresentation, step_budget: int) -> BuiltPresentation:
    return _skew_laurent(pres, ["y"], [1], [pres.aparams.q], [pres.aparams.n], step_budget)


def _build_c(pres: HopfPresentation, step_budget: int) -> BuiltPresentation:
    n = pres.cparams.n
    one = Cyclo.one()
    minus = Cyclo.from_rational(-1)
    rules = [
        Rule((1, 0), ((one, ()),), "y*y^-1"),
        Rule((0, 1), ((one, ()),), "y^-1*y"),
        Rule((2, 1), ((one, (1, 2)), (one, (1,) * n), (minus, (1,))), "x*y"),
        Rule((2, 0), ((one, (0, 2)), (one, (0,)), (minus, (1,) * (n - 2))), "x*y^-1"),
    ]
    rs = RewriteSystem(["y^-1", "y", "x"], [0, 0, 1], rules, step_budget)
    unit = rs.unit_monomial()
    y1, ym1, x = NFMonomial(1, (0,)), NFMonomial(-1, (0,)), NFMonomial(0, (1,))
    cops = (
        ((one, ym1, ym1),),
        ((one, y1, y1),),
        ((one, x, NFMonomial(n - 1, (0,))), (one, unit, x)),
    )
    eps = (one, one, Cyclo.zero())
    s_of_x = normal_form([(minus, (2,) + (0,) * (n - 1))], rs)
    antis = (NCPoly.monomial(y1), NCPoly.monomial(ym1), s_of_x)
    return BuiltPresentation(pres, rs, cops, eps, antis,
                             skew_weights=(1 - n,),
                             central_exponent=None)


# ---------------------------------------------------------------------------
# JSON parameter schema (consumed by the CLI)
# ---------------------------------------------------------------------------

# The input limits, checked before any work: by ``presentation_from_json``
# and ``scalar_from_json`` here, by the ``nf`` parser in ``gkhopf.expr``.
# CONDUCTOR_LIMIT (``gkhopf.scalars``) bounds every root order.
SIZE_LIMIT = CONDUCTOR_LIMIT  # |M| (n * p_1 * ... * p_s for B), each |n_i| and |p_i|, A and C |n|
LENGTH_LIMIT = 16  # K-family s: about s^2/2 rules, every pair of them compared for ambiguities
EXPONENT_LIMIT = 1000  # |N| of a power e^N in an nf expression
SCALAR_TEXT_LIMIT = 100  # characters of a scalar written as a string


def int_from_json(name: str, value) -> int:
    """The JSON integer field ``name``: an ``int`` and no ``bool``, else ValueError."""
    if type(value) is not int:
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _pair_from_json(name: str, value) -> tuple[int, int]:
    """The JSON pair ``[num, den]`` of integers ``name``, else ValueError."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"field {name!r} must be a pair [num, den] of integers")
    return int_from_json(name, value[0]), int_from_json(name, value[1])


def _sized(name: str, value) -> int:
    value = int_from_json(name, value)
    if abs(value) > SIZE_LIMIT:
        raise ValueError(f"{name}={value} exceeds SIZE_LIMIT={SIZE_LIMIT}")
    return value


def _fraction(*args) -> Fraction:
    try:
        return Fraction(*args)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in the scalar {args!r}") from None


def scalar_from_json(obj) -> Cyclo:
    """Scalars appear as ints, "a/b" strings, [num, den], {"L","k"} roots,
    or {"L","poly": [[num,den],...]} coefficient lists."""
    if type(obj) is int:
        return Cyclo.from_rational(obj)
    if isinstance(obj, str):
        if len(obj) > SCALAR_TEXT_LIMIT:
            raise ValueError(f"scalar text longer than SCALAR_TEXT_LIMIT={SCALAR_TEXT_LIMIT} characters")
        if "e" in obj or "E" in obj:
            raise ValueError(f"scalar {obj!r} uses exponent notation")
        return Cyclo.from_rational(_fraction(obj))
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(type(v) is int for v in obj):
        return Cyclo.from_rational(_fraction(obj[0], obj[1]))
    if isinstance(obj, dict) and "poly" in obj:
        L = _conductor_from_json(obj)
        if not isinstance(obj["poly"], list):
            raise ValueError("field 'poly' must be a list of [num, den] pairs")
        return Cyclo(L, {e: _fraction(*_pair_from_json(f"poly[{e}]", v))
                         for e, v in enumerate(obj["poly"])})
    if isinstance(obj, dict) and "k" in obj:
        return root_from_json(obj).to_cyclo()
    raise ValueError(f"cannot read a scalar from {obj!r}")


def root_from_json(obj) -> RootOfUnity:
    """A JSON scalar that must be a root of unity: a {"L","k"} root is read
    as its exponent, any other form through ``scalar_from_json``."""
    if isinstance(obj, dict) and "k" in obj and "poly" not in obj:
        return RootOfUnity(_conductor_from_json(obj), int_from_json("k", obj["k"]))
    return RootOfUnity.from_cyclo(scalar_from_json(obj))


def root_pair_from_json(obj) -> tuple[int, int]:
    """(L, k) with zeta_L^k the root ``root_from_json`` reads; a {"L","k"} root builds no object."""
    if isinstance(obj, dict) and "k" in obj and "poly" not in obj:
        return _conductor_from_json(obj), int_from_json("k", obj["k"])
    root = root_from_json(obj)
    return root.order, root.exponent


def _conductor_from_json(obj: dict) -> int:
    L = int_from_json("L", obj["L"])
    if not 1 <= L <= CONDUCTOR_LIMIT:
        raise ValueError(f"conductor L={L} outside 1..{CONDUCTOR_LIMIT}")
    return L


def _int_list(data: dict, key: str) -> list[int]:
    value = data[key]
    if not isinstance(value, list):
        raise ValueError(f"field {key!r} must be a list of integers")
    return [_sized(f"{key}[{i}]", v) for i, v in enumerate(value)]


def _scalar_list(data: dict, key: str) -> list[Cyclo]:
    value = data[key]
    if not isinstance(value, list):
        raise ValueError(f"field {key!r} must be a list of scalars")
    return [scalar_from_json(v) for v in value]


def presentation_from_json(data: dict) -> HopfPresentation:
    if not isinstance(data, dict):
        raise ValueError("a presentation must be a JSON object")
    family = data.get("family")
    if family == "K":
        p = _int_list(data, "p")
        if len(p) > LENGTH_LIMIT:
            raise ValueError(f"s={len(p)} exceeds LENGTH_LIMIT={LENGTH_LIMIT}")
        q, alpha = _scalar_list(data, "q"), _scalar_list(data, "alpha")
        if "s" in data and int_from_json("s", data["s"]) != len(p):
            raise ValueError("field 's' disagrees with the length of 'p'")
        M = _sized("M", data["M"])
        return HopfPresentation.from_k(KParams.make(M, _int_list(data, "n"), p, q, alpha))
    if family == "B":
        q = scalar_from_json(data["q"])
        alpha = _scalar_list(data, "alpha")
        n, p = _sized("n", data["n"]), _int_list(data, "p")
        _sized("M = n*p_1*...*p_s", n * math.prod(p))
        return HopfPresentation.from_b(BParams.make(n, p, q, alpha))
    if family == "A":
        return HopfPresentation.a_family(_sized("n", data["n"]), scalar_from_json(data["q"]))
    if family == "C":
        return HopfPresentation.c_family(_sized("n", data["n"]))
    raise ValueError(f"unknown family {family!r}")
