"""Cyclotomic arithmetic, root-of-unity predicates, Gaussian binomials."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkhopf import scalars
from gkhopf.scalars import (CONDUCTOR_LIMIT, Cyclo, RootOfUnity, cyclotomic_polynomial, euler_phi,
                            is_primitive_pth_root, make_root, nth_root_in_cyclotomics, order_of,
                            qbinom)
from gkhopf.scalars import (_ONE, _ZERO, _canonicalize, _divisors, _int_nth_root, _poly_divmod,
                            _prime_factors, _reduce_mod_phi, add_terms)

ONE = Cyclo.one()
ZERO = Cyclo.zero()


def rat(x):
    return Cyclo.from_rational(x)


@st.composite
def cyclos(draw):
    L = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    coeffs = {}
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(0, euler_phi(L) - 1))
        coeffs[e] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return Cyclo(L, coeffs)


def test_make_root_pins():
    assert make_root(1, 0) == ONE
    assert make_root(2, 1) == rat(-1)
    # zeta_6^3 reduces to -1
    assert make_root(6, 3) == rat(-1)


def test_make_root_conductor_limit():
    # the conductor, not the order L given, is held to CONDUCTOR_LIMIT
    with pytest.raises(ValueError, match="conductor 296 exceeds CONDUCTOR_LIMIT=256"):
        make_root(296, 41)
    assert make_root(510, 300) == make_root(17, 10)
    assert make_root(510, 1) == -make_root(255, 128)


def test_field_op_pins():
    z3 = make_root(3, 1)
    assert z3 * make_root(3, 2) == ONE
    assert ONE + z3 + make_root(3, 2) == ZERO
    assert rat(-1).inv() == rat(-1)
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_canonical_equality_is_map_equality():
    # same value entering through different conductors
    assert make_root(6, 2) == make_root(3, 1)
    assert make_root(10, 5) == rat(-1)
    a = make_root(12, 3)
    assert a.conductor == 4 and a == make_root(4, 1)
    assert ZERO.coeffs == {}


def test_order_of_pins():
    assert order_of(ONE) == 1
    assert order_of(make_root(6, 3)) == 2
    assert order_of(rat(2)) is None
    assert order_of(make_root(6, 1) + 1) is None
    with pytest.raises(ValueError):
        order_of(ZERO)


def test_order_of_grid():
    for L in range(1, 31):
        for k in range(L):
            assert order_of(make_root(L, k)) == L // math.gcd(L, k)


def test_is_primitive_pth_root():
    assert is_primitive_pth_root(make_root(6, 3), 2)
    assert is_primitive_pth_root(make_root(6, 2), 3)
    assert is_primitive_pth_root(ONE, 1)
    assert not is_primitive_pth_root(make_root(6, 1), 3)
    assert not is_primitive_pth_root(ZERO, 1)


def test_qbinom_pins():
    assert qbinom(2, 1, rat(-1)) == ZERO
    assert qbinom(3, 1, make_root(3, 1)) == ZERO
    for w in range(7):
        assert qbinom(w, 0, make_root(7, 3)) == ONE
        assert qbinom(w, w, rat(5)) == ONE
    with pytest.raises(ValueError):
        qbinom(2, 3, ONE)


def test_qbinom_product_formula_generic():
    # generic root: order exceeds w^2, so the product formula divides exactly
    w = 5
    q = make_root(37, 1)
    for j in range(w + 1):
        prod = ONE
        for t in range(1, j + 1):
            prod = prod * (ONE - q ** (w - t + 1)) / (ONE - q ** t)
        assert qbinom(w, j, q) == prod


@lru_cache(maxsize=None)
def recursive_qbinom(w: int, j: int, q: Cyclo) -> Cyclo:
    """The recursive ``qbinom`` that the row-by-row loop replaced, as it was."""
    if j < 0 or j > w:
        raise ValueError(f"binomial index j={j} outside 0..{w}")
    q = Cyclo.promote(q)
    if j == 0 or j == w:
        return ONE
    return recursive_qbinom(w - 1, j - 1, q) + (q ** j) * recursive_qbinom(w - 1, j, q)


@pytest.mark.parametrize("q", [make_root(7, 3), rat(-1), rat(2)])
def test_qbinom_matches_recursive_reference(q):
    for w in range(31):
        for j in range(w + 1):
            assert qbinom(w, j, q) == recursive_qbinom(w, j, q), (w, j, q)
    for j in (-1, 31):
        with pytest.raises(ValueError):
            qbinom(30, j, q)


@pytest.mark.parametrize("w, j", [(500, 1), (500, 2), (3000, 1), (3000, 3)])
def test_qbinom_large_w(w, j):
    # the recursive version ran out of stack from w = 500 on; the product
    # formula divides exactly here, since 1 - q^t != 0 for t <= j < 7
    q = make_root(7, 1)
    prod = ONE
    for t in range(1, j + 1):
        prod = prod * (ONE - q ** (w - t + 1)) / (ONE - q ** t)
    assert qbinom(w, j, q) == prod


def test_qbinom_large_w_and_j_by_q_lucas():
    # the Pascal rows alone take about w * j = 4.5e6 field operations here;
    # q-Lucas reduces [3000, 1500] at a root of order 7 to C(428, 214) [4, 2]
    import math
    import time

    q = make_root(7, 1)
    qbinom.cache_clear()
    started = time.perf_counter()
    value = qbinom(3000, 1500, q)
    assert time.perf_counter() - started < 2
    assert value == rat(math.comb(428, 214)) * recursive_qbinom(4, 2, q)
    assert qbinom(3000, 1503, q) == ZERO  # 1503 mod 7 = 5 > 3000 mod 7 = 4


def test_qbinom_vanishing_at_primitive_roots():
    for p in range(2, 13):
        q = make_root(p, 1)
        for j in range(1, p):
            assert qbinom(p, j, q) == ZERO, (p, j)


@settings(max_examples=200, deadline=None)
@given(cyclos(), cyclos())
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@settings(max_examples=150, deadline=None)
@given(cyclos())
def test_mul_inv_roundtrip(a):
    if not a.is_zero():
        assert a * a.inv() == ONE


@settings(max_examples=150, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_pow_negative():
    z = make_root(5, 2)
    assert z ** -3 == z.inv() ** 3
    assert z ** 0 == ONE


def test_nth_root_search():
    assert nth_root_in_cyclotomics(ONE, 2) == ONE
    i = nth_root_in_cyclotomics(rat(-1), 2)
    assert i is not None and i ** 2 == rat(-1)
    assert nth_root_in_cyclotomics(rat(8), 3) == rat(2)
    r = nth_root_in_cyclotomics(make_root(5, 2), 3)
    assert r is not None and r ** 3 == make_root(5, 2)
    # 2 has no rational square root and the search stays inside the
    # rational-times-root-of-unity family
    assert nth_root_in_cyclotomics(rat(2), 2) is None
    assert nth_root_in_cyclotomics(ZERO, 5) == ZERO


def test_nth_root_of_roots_of_unity():
    # zeta_n^k with gcd(k, n) = 1 has the p-th root zeta_{np}^k
    for n in range(1, 31):
        for k in range(n):
            if math.gcd(k, n) == 1 or n == 1:
                for p in (1, 2, 3):
                    z = make_root(n, k)
                    assert nth_root_in_cyclotomics(z, p) == make_root(n * p, k), (n, k, p)
                    assert nth_root_in_cyclotomics(-z, p) ** p == -z, (n, k, p)


def test_nth_root_order_bound():
    # rho * zeta_{Np}^k needs only its own conductor within CONDUCTOR_LIMIT:
    # the search refused 4*zeta_35 (2*p*lcm(2, 35) = 280), zeta_3 has the
    # 43rd root zeta_129 although lcm(2, 3) * 43 = 258, and zeta_510 is
    # -zeta_255^128
    assert nth_root_in_cyclotomics(4 * make_root(35, 1), 2) == -2 * make_root(35, 18)
    assert nth_root_in_cyclotomics(make_root(3, 1), 43) == make_root(129, 1)
    assert nth_root_in_cyclotomics(make_root(255, 1), 2) == -make_root(255, 128)
    assert nth_root_in_cyclotomics(make_root(128, 1), 2) == make_root(256, 1)
    # zeta_765 and zeta_512 lie past it: no root rather than a conductor error
    assert nth_root_in_cyclotomics(make_root(255, 1), 3) is None
    assert nth_root_in_cyclotomics(make_root(128, 1), 4) is None
    assert nth_root_in_cyclotomics(-make_root(37, 2), 4) is None


def test_nth_root_of_large_rationals_is_exact():
    # a float root loses the last digits of a 21-digit root and overflows past 1e308
    big = 10 ** 20 + 7
    assert nth_root_in_cyclotomics(rat(big ** 2), 2) == rat(big)
    assert _int_nth_root(10 ** 400, 2) == 10 ** 200
    assert _int_nth_root(10 ** 400 + 1, 2) is None
    assert _int_nth_root(big ** 7, 7) == big
    assert _int_nth_root(big ** 7 - 1, 7) is None


def test_int_nth_root_small_values():
    for n in range(1, 7):
        for x in range(300):
            expected = next((r for r in range(x + 1) if r ** n == x), None)
            assert _int_nth_root(x, n) == expected, (x, n)
    assert _int_nth_root(-4, 2) is None


def test_root_of_unity_canonical_pairs():
    r = RootOfUnity(6, 4)
    assert (r.order, r.exponent) == (3, 2)
    assert RootOfUnity(5, 0) == RootOfUnity.one()
    assert RootOfUnity(4, 2) == RootOfUnity.minus_one()


def test_root_of_unity_is_its_pair():
    root = RootOfUnity(10, 4)
    assert root == (5, 2) and hash(root) == hash((5, 2))
    n, k = root
    assert (n, k) == (root.order, root.exponent) == (5, 2)
    assert RootOfUnity(10, 4) != RootOfUnity(10, 3) and RootOfUnity(3, 0) == (1, 0)


@pytest.mark.parametrize("name", ["order", "exponent", "other"])
def test_root_of_unity_refuses_attribute_writes(name):
    r = RootOfUnity(6, 1)
    with pytest.raises(AttributeError):
        setattr(r, name, 2)
    with pytest.raises(AttributeError):
        delattr(r, name)
    with pytest.raises(AttributeError):
        object.__getattribute__(r, "__dict__")
    assert (r.order, r.exponent) == (6, 1)


# the slips that tuple arithmetic would let pass: a repeated or concatenated
# pair, and a reversed product by an int
TUPLE_SLIPS = {"int_times": lambda v: 3 * v, "times_int": lambda v: v * 3, "plus_self": lambda v: v + v,
               "plus_tuple": lambda v: v + (1, 2), "tuple_plus": lambda v: (1, 2) + v}


@pytest.mark.parametrize("slip", TUPLE_SLIPS)
def test_root_of_unity_refuses_tuple_arithmetic(slip):
    root = RootOfUnity(5, 2)
    with pytest.raises(TypeError):
        TUPLE_SLIPS[slip](root)
    assert root * RootOfUnity(5, 1) == RootOfUnity(5, 3) and root == (5, 2)


def test_make_root_memo_keeps_one_entry_per_root():
    # 5,000 spellings zeta(5, k) of the five fifth roots, parsed as the nf
    # expression parser reads them
    from gkhopf.expr import parse_expression

    from helpers import built_b

    b23 = built_b(1, (2, 3), 1, (0, 1))
    before = scalars._lowest_root.cache_info().currsize
    for k in range(5000):
        parse_expression(f"zeta(5,{k})*y1", b23)
    assert scalars._lowest_root.cache_info().currsize - before <= 5
    assert make_root(10, 4) is make_root(5, 2) is make_root(5, -3)


def test_root_of_unity_arithmetic():
    a = RootOfUnity(6, 1)
    b = RootOfUnity(4, 1)
    assert (a * b).order == 12
    assert (a ** 6).is_one()
    assert a * a.inv() == RootOfUnity.one()
    assert (-a) == a * RootOfUnity.minus_one()
    assert RootOfUnity.from_cyclo(make_root(10, 4)) == RootOfUnity(5, 2)
    assert RootOfUnity(5, 2).to_cyclo() == make_root(5, 2)
    with pytest.raises(ValueError):
        RootOfUnity.from_cyclo(rat(2))


# -- differential oracle for the exact shortcuts ---------------------------------
#
# ``reference_reduce_mod_phi`` reduces by dense division by Phi_L, and
# ``reference_order_of`` / ``reference_from_cyclo`` find a root's order by
# powering and its exponent by scanning ``make_root``; ``slow_add`` and
# ``slow_mul`` have no identity-operand shortcut.  The power table, the
# identity operands and the root recognition in ``gkhopf.scalars`` must give
# the same value, or raise the same exception type.


def reference_reduce_mod_phi(L, raw):
    """Reduce a zeta_L-polynomial with arbitrary integer exponents."""
    folded = {}
    for e, c in raw.items():
        if c == 0:
            continue
        e %= L
        folded[e] = folded.get(e, _ZERO) + c
    phi = euler_phi(L)
    if all(e < phi for e in folded):
        return {e: c for e, c in folded.items() if c != 0}
    dense = [_ZERO] * L
    for e, c in folded.items():
        dense[e] = c
    _, rem = _poly_divmod(dense, list(cyclotomic_polynomial(L)))
    return {e: c for e, c in enumerate(rem) if c != 0}


@lru_cache(maxsize=None)  # reference_from_cyclo asks again for the same value
def reference_order_of(a):
    """Multiplicative order of ``a`` if it is a root of unity, else None."""
    a = Cyclo.promote(a)
    if a.is_zero():
        raise ValueError("0 has no multiplicative order")
    if a == ONE:
        return 1
    # the roots of unity inside Q(zeta_c) form the cyclic group of order lcm(2, c)
    bound = math.lcm(2, a.conductor)
    if a ** bound != ONE:
        return None
    for d in _divisors(bound):
        if a ** d == ONE:
            return d
    return bound


def reference_from_cyclo(z):
    z = Cyclo.promote(z)
    n = reference_order_of(z)
    if n is None:
        raise ValueError(f"{z} is not a root of unity")
    for k in range(n):
        if (math.gcd(k, n) == 1 or n == 1) and z == make_root(n, k):
            return RootOfUnity(n, k)
    raise AssertionError("unreachable: order was certified")


def slow_add(a, b):
    """``Cyclo.__add__`` without the zero-operand shortcut."""
    L = math.lcm(a.conductor, b.conductor)
    x = a._lift(L) if L != a.conductor else dict(a.coeffs)
    y = b._lift(L) if L != b.conductor else b.coeffs
    for e, c in y.items():
        x[e] = x.get(e, _ZERO) + c
        if x[e] == 0:
            del x[e]
    return Cyclo(*_canonicalize(L, x), _canonical=True)


def slow_mul(a, b):
    """``Cyclo.__mul__`` without the +-1 shortcut and the same-conductor lift skip."""
    if a.conductor == 1:
        r = a.coeffs.get(0, _ZERO)
        if not r:
            return ZERO
        return Cyclo(b.conductor, {e: c * r for e, c in b.coeffs.items()}, _canonical=True)
    if b.conductor == 1:
        return slow_mul(b, a)
    L = math.lcm(a.conductor, b.conductor)
    x, y = a._lift(L), b._lift(L)
    raw = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = (e1 + e2) % L
            raw[e] = raw.get(e, _ZERO) + c1 * c2
    return Cyclo(*_canonicalize(L, reference_reduce_mod_phi(L, raw)), _canonical=True)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the oracle compares exception types too
        return "raises", type(exc)


def _clear_memos():
    scalars._sum.cache_clear()
    scalars._product.cache_clear()
    Cyclo.__neg__.cache_clear()
    Cyclo.__pow__.cache_clear()


@pytest.fixture
def reference_arithmetic(monkeypatch):
    """Run a callable with dense division in place of the power table.  The
    sum, negation, product and power memos are cleared on entering and
    leaving, so that no value computed outside skips the patched reduction,
    or is kept from inside."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(scalars, "_reduce_mod_phi", reference_reduce_mod_phi)
            _clear_memos()
            try:
                return _outcome(fn, *args)
            finally:
                _clear_memos()
    return run


def _root_value(r):
    """zeta_n^k of a RootOfUnity without building a field of conductor n."""
    n, k = r.order, r.exponent
    if n <= CONDUCTOR_LIMIT:
        return make_root(n, k)
    # n = 2m with m odd: zeta_{2m} = -zeta_m^{(m+1)/2}
    assert n % 4 == 2
    m = n // 2
    return rat((-1) ** k) * make_root(m, k * (m + 1) // 2)


def _check_roots(values, reference_arithmetic):
    for z in values:
        assert _outcome(order_of, z) == reference_arithmetic(reference_order_of, z), z
        got = _outcome(RootOfUnity.from_cyclo, z)
        want = reference_arithmetic(reference_from_cyclo, z)
        if want == ("raises", ValueError) and got[0] == "value":
            # the reference scan raises once it reaches make_root(n, k) with
            # n > CONDUCTOR_LIMIT; the order must still agree and the root match
            assert got[1].order == reference_arithmetic(reference_order_of, z)[1] > CONDUCTOR_LIMIT, z
            assert _root_value(got[1]) == z
        else:
            assert got == want, z


def test_reduce_mod_phi_matches_dense_division():
    rng = random.Random(3)
    for L in range(1, 121):
        for _ in range(6):
            raw = {}
            for _ in range(rng.randrange(1, 12)):
                raw[rng.randrange(-3 * L, 3 * L)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
            got = _reduce_mod_phi(L, raw)
            want = reference_reduce_mod_phi(L, raw)
            assert list(got.items()) == list(want.items()), (L, raw)
        # every single power x^e, 0 <= e < L: each row of the power table
        for e in range(L):
            assert _reduce_mod_phi(L, {e: _ONE}) == reference_reduce_mod_phi(L, {e: _ONE}), (L, e)
    with pytest.raises(ValueError):
        _reduce_mod_phi(2 * CONDUCTOR_LIMIT + 2, {CONDUCTOR_LIMIT + 1: _ONE})


def test_random_cyclos_match_reference_arithmetic(reference_arithmetic):
    rng = random.Random(5)
    values = []
    for _ in range(150):
        L = rng.randrange(1, 61)
        raw = {rng.randrange(-2 * L, 2 * L): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
               for _ in range(rng.randrange(1, 5))}
        got = _outcome(Cyclo, L, raw)
        assert got == reference_arithmetic(Cyclo, L, raw), (L, raw)
        if got[1]:
            values.append(got[1])
    _check_roots(values, reference_arithmetic)


def test_roots_and_sums_of_roots_match_reference(reference_arithmetic):
    rng = random.Random(7)
    for L in range(1, 61):
        values = []
        # every k up to L = 24, then k = 0, 1, L - 1 and five more: with the
        # reference's powering, every k up to 60 takes minutes
        ks = range(L) if L <= 24 else [0, 1, L - 1] + rng.sample(range(2, L - 1), 5)
        for k in ks:
            z = make_root(L, k)
            values += [z, -z]
        values += [rat(2) * make_root(L, k) for k in rng.sample(range(L), min(L, 3))]
        partners = [M for M in range(1, 61) if math.lcm(L, M) <= 60]
        for _ in range(3):
            z, w = make_root(L, rng.randrange(L)), make_root(rng.choice(partners), rng.randrange(60))
            values.append(z + w)
            assert reference_arithmetic(slow_add, z, w) == ("value", z + w)
            assert reference_arithmetic(slow_mul, z, w) == ("value", z * w)
        _check_roots(values, reference_arithmetic)


@pytest.mark.parametrize("L", [129, 160, 210, 255])
def test_large_conductor_roots_match_reference(L, reference_arithmetic):
    values = []
    for k in (1, 2):
        z = make_root(L, k)
        values += [z, -z]
    _check_roots(values, reference_arithmetic)


def test_large_conductor_root_exponents():
    # powering the dense roots zeta_L^k, k >= phi(L), takes the reference seconds
    # each, so here the known order and exponent stand in for it
    rng = random.Random(13)
    for L in range(129, CONDUCTOR_LIMIT):
        for k in (rng.randrange(L), rng.randrange(euler_phi(L), L)):
            z = make_root(L, k)
            r = RootOfUnity(L, k)
            assert order_of(z) == r.order and RootOfUnity.from_cyclo(z) == r, (L, k)
            minus = RootOfUnity(2 * L, 2 * k + L)
            assert order_of(-z) == minus.order and RootOfUnity.from_cyclo(-z) == minus, (L, k)


def test_order_of_past_the_reference_scan():
    z = -make_root(255, 1)
    assert order_of(z) == 510
    r = RootOfUnity.from_cyclo(z)
    assert (r.order, r.exponent) == (510, 257)
    assert _root_value(r) == z
    assert order_of(make_root(255, 2)) == 255


def test_identity_operands_match_slow_path():
    rng = random.Random(11)
    minus_one = rat(-1)
    values = [ZERO, ONE, minus_one, rat(Fraction(-3, 2))]
    for _ in range(60):
        L = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 20, 24, 30])
        values.append(Cyclo(L, {rng.randrange(L): rng.randrange(-3, 4) for _ in range(3)}))
    for x in values:
        for y in (ZERO, ONE, minus_one):
            assert x + y == y + x == slow_add(x, y), (x, y)
            assert x * y == y * x == slow_mul(x, y), (x, y)
            assert (x + y).coeffs == slow_add(x, y).coeffs
        assert -x == slow_mul(minus_one, x) and (-x).conductor == x.conductor
        assert 0 + x == x + 0 == x and 1 * x == x * 1 == x and x * -1 == -x


def _fresh(x):
    """A value equal to ``x`` but a distinct object with its own coefficient map."""
    return Cyclo(x.conductor, dict(x.coeffs), _canonical=True)


def test_products_match_slow_path_cold_warm_and_fresh():
    # irrational pairs of mixed conductors up to 60, and each irrational value
    # against +-1 on either side; every case runs cold, again on the same
    # objects, and on equal but distinct objects
    rng = random.Random(15)
    irrational = []
    while len(irrational) < 60:
        L = rng.randrange(3, 61)
        x = Cyclo(L, {rng.randrange(L): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                      for _ in range(rng.randrange(1, 4))})
        if x.conductor > 1:
            irrational.append(x)
    irrational += [make_root(L, 1) for L in (3, 4, 5, 7, 12, 15, 20, 60)]
    cases = []
    for x in irrational:
        partners = [y for y in irrational if y.conductor != x.conductor
                    and math.lcm(x.conductor, y.conductor) <= 60]
        cases += [(x, y) for y in rng.sample(partners, min(3, len(partners)))]
        cases += [(x, x), (x, ONE), (ONE, x), (x, rat(-1)), (rat(-1), x)]
    cases += [(ONE, ONE), (ONE, rat(-1)), (rat(-1), rat(-1))]
    want = [(slow_mul(x, y), slow_add(x, y)) for x, y in cases]
    _clear_memos()
    for run in ("cold", "warm", "fresh"):
        for (x, y), (product, total) in zip(cases, want):
            if run == "fresh":
                x, y = _fresh(x), _fresh(y)
            assert x * y == product and y * x == product, (run, x, y)
            assert x + y == total and y + x == total, (run, x, y)


def unmemoized_pow(x, n: int):
    """The ``Cyclo.__pow__`` body before powers were memoized, recursing into
    itself instead of the operator."""
    root = scalars._as_root(x) if x.coeffs else None
    if root is not None:
        return (root ** n).to_cyclo()
    if n < 0:
        return unmemoized_pow(x.inv(), -n)
    result = ONE
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _memo_values():
    """Roots of conductors 1..60 (four exponents each, some negated), and
    rationals and dense values that are no root."""
    rng = random.Random(17)
    roots = [make_root(L, k) for L in range(1, 61) for k in {0, 1, L - 1, rng.randrange(L)}]
    roots += [-z for z in roots[::7]]
    others = [rat(2), rat(Fraction(-1, 3)), ONE + make_root(5, 1), rat(Fraction(3, 2)) * make_root(12, 1)]
    while len(others) < 16:
        L = rng.randrange(3, 61)
        x = Cyclo(L, {rng.randrange(L): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                      for _ in range(rng.randrange(1, 4))})
        if x and order_of(x) is None:
            others.append(x)
    return roots, others


def test_powers_match_unmemoized_pow_cold_warm_and_fresh():
    # roots and non-roots of conductors up to 60, each to the powers -7..12,
    # and roots to 10**6; every case runs cold, again on the same objects,
    # and on equal but distinct objects
    roots, others = _memo_values()
    cases = [(x, n) for x in roots + others for n in range(-7, 13)]
    cases += [(x, 10 ** 6) for x in roots]
    want = [unmemoized_pow(x, n) for x, n in cases]
    _clear_memos()
    for run in ("cold", "warm", "fresh"):
        for (x, n), value in zip(cases, want):
            if run == "fresh":
                x = _fresh(x)
            assert x ** n == value, (run, x, n)
        assert ZERO ** 0 is ONE and ZERO ** 3 == ZERO, run
        with pytest.raises(ZeroDivisionError):
            ZERO ** -1
        with pytest.raises(ZeroDivisionError):
            _fresh(ZERO) ** -1


def unmemoized_add(self, other):
    """The ``Cyclo.__add__`` body before sums were memoized."""
    other = Cyclo.promote(other)
    if not other.coeffs:
        return self
    if not self.coeffs:
        return other
    L = math.lcm(self.conductor, other.conductor)
    a = self._lift(L) if L != self.conductor else dict(self.coeffs)
    b = other._lift(L) if L != other.conductor else other.coeffs
    return scalars._scalar(*_canonicalize(L, add_terms(a, b.items())))


def unmemoized_neg(self):
    """``Cyclo.__neg__`` before negations were memoized."""
    return scalars._scalar(self.conductor, {e: -c for e, c in self.coeffs.items()})


def unmemoized_rational_mul(self, other):
    """The rational branch of ``Cyclo.__mul__`` (``self`` rational) before
    its products went through the ``_product`` memo, negating unmemoized."""
    if self is ONE:
        return other
    r = self.coeffs.get(0, _ZERO)
    if not r:
        return ZERO
    if r == 1:
        return other
    if r == -1:
        return unmemoized_neg(other)
    return scalars._scalar(other.conductor, {e: c * r for e, c in other.coeffs.items()})


def test_sums_negations_and_rational_products_match_unmemoized_cold_warm_and_fresh():
    # the values of the power test, each added to two random partners of a
    # common conductor <= 60, to itself, its negation and the units, and each
    # rational times every value; every case runs cold, again on the same
    # objects, and on equal but distinct objects.  Each memo gets fewer entries
    # than MEMO_SIZE, so the warm run finds them.  A computed 0, 1 or -1 is its
    # singleton; a fresh unit operand, returned by identity, is not.
    rng = random.Random(19)
    roots, others = _memo_values()
    values = roots + others
    rationals = [ZERO, ONE, rat(-1), rat(2), rat(Fraction(-1, 3)), rat(Fraction(3, 2)), rat(7)]
    sums = []
    for x in values:
        partners = [y for y in values if math.lcm(x.conductor, y.conductor) <= 60]
        sums += [(x, y) for y in rng.sample(partners, 2)]
        sums += [(x, x), (x, unmemoized_neg(x)), (x, ZERO), (x, ONE), (x, rat(-1))]
    products = [(r, x) for r in rationals for x in values + rationals]
    assert 2 * len(sums) < scalars.MEMO_SIZE and len(products) < scalars.MEMO_SIZE
    want_sums = [unmemoized_add(x, y) for x, y in sums]
    want_negs = [unmemoized_neg(x) for x in values + rationals]
    want_products = [unmemoized_rational_mul(r, x) for r, x in products]
    _clear_memos()
    for run in ("cold", "warm", "fresh"):
        fresh = _fresh if run == "fresh" else (lambda x: x)
        singletons = () if run == "fresh" else (ZERO, ONE, rat(-1))
        for (x, y), total in zip(sums, want_sums):
            x, y = fresh(x), fresh(y)
            for got in (x + y, y + x):
                assert got == total and (got is total or total not in singletons), (run, x, y)
        for x, negation in zip(values + rationals, want_negs):
            got = -fresh(x)
            assert got == negation and (got is negation or negation not in (ZERO, ONE, rat(-1))), (run, x)
            assert -got == x, (run, x)
        for (r, x), product in zip(products, want_products):
            r, x = fresh(r), fresh(x)
            for got in (r * x, x * r):
                assert got == product and (got is product or product not in singletons), (run, r, x)
        for x in others:
            assert x + 2 == 2 + x == unmemoized_add(x, rat(2)), (run, x)
            assert x - x is ZERO and 3 * x == unmemoized_rational_mul(rat(3), x), (run, x)


# -- the RREF descent and square-and-multiply powering, kept as references -------
#
# ``_descent_solver`` and ``_try_descend`` are verbatim copies of the Gauss-Jordan
# test for membership of Q(zeta_{L/p}) in Q(zeta_L) that ``_canonicalize`` once
# ran, and ``reference_pow`` is the square-and-multiply ``Cyclo.__pow__`` for
# every value.  The conductor and the powers in ``gkhopf.scalars`` must give
# the same value, or raise the same exception type.


@lru_cache(maxsize=None)
def _descent_solver(L: int, p: int):
    """RREF data for testing membership of Q(zeta_{L/p}) inside Q(zeta_L)."""
    d = L // p
    cols = []
    for j in range(euler_phi(d)):
        cols.append(_reduce_mod_phi(L, {(p * j) % L: _ONE}))
    basis: list[tuple[int, dict[int, Fraction], dict[int, Fraction]]] = []
    for j, col in enumerate(cols):
        col = dict(col)
        coord = {j: _ONE}
        for piv, bcol, bcoord in basis:
            c = col.get(piv)
            if c:
                add_terms(col, bcol.items(), -c)
                add_terms(coord, bcoord.items(), -c)
        assert col, "embedded basis vectors must stay independent"
        piv = min(col)
        inv = 1 / col[piv]
        col = {e: v * inv for e, v in col.items()}
        coord = {e: v * inv for e, v in coord.items()}
        for opiv, ocol, ocoord in basis:
            c = ocol.get(piv)
            if c:
                add_terms(ocol, col.items(), -c)
                add_terms(ocoord, coord.items(), -c)
        basis.append((piv, col, coord))
    return tuple(basis)


def _try_descend(L: int, p: int, coeffs: dict[int, Fraction]) -> Optional[dict[int, Fraction]]:
    res = dict(coeffs)
    coord: dict[int, Fraction] = {}
    for piv, col, cvec in _descent_solver(L, p):
        c = res.get(piv)
        if not c:
            continue
        add_terms(res, col.items(), -c)
        add_terms(coord, cvec.items(), c)
    if res:
        return None
    return coord


def reference_canonicalize(L, coeffs):
    """``_canonicalize`` with the RREF descent."""
    coeffs = {e: c for e, c in coeffs.items() if c != 0}
    while True:
        if not coeffs or set(coeffs) == {0}:
            return 1, coeffs
        for p in _prime_factors(L):
            if L // p == 1:
                continue
            down = _try_descend(L, p, coeffs)
            if down is not None:
                L, coeffs = L // p, down
                break
        else:
            return L, coeffs


def reference_pow(self, n: int) -> "Cyclo":
    """``Cyclo.__pow__`` by square-and-multiply; ``reference_powers`` installs it."""
    if n < 0:
        return self.inv() ** (-n)
    result = Cyclo.one()
    base = self
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def canonicalize_with_half_step(L, coeffs):
    """``_canonicalize`` with the L = 2 mod 4 shortcut it used to take first."""
    coeffs = {e: c for e, c in coeffs.items() if c != 0}
    while True:
        if not coeffs or set(coeffs) == {0}:
            return 1, coeffs
        if L % 4 == 2:
            # Q(zeta_{2m}) = Q(zeta_m) for odd m: zeta_{2m} = -zeta_m^{(m+1)/2}
            m = L // 2
            half = (m + 1) // 2
            raw: dict[int, Fraction] = {}
            for e, c in coeffs.items():
                ee = (e * half) % m
                raw[ee] = raw.get(ee, _ZERO) + (c if e % 2 == 0 else -c)
            L, coeffs = m, _reduce_mod_phi(m, raw)
            continue
        for p in _prime_factors(L):
            if L // p == 1:
                continue
            down = _try_descend(L, p, coeffs)
            if down is not None:
                L, coeffs = L // p, down
                break
        else:
            return L, coeffs


def test_canonicalize_matches_half_step_oracle():
    """The generic descent takes p = 2 first, so it needs no shortcut at L = 2 mod 4."""
    rng = random.Random(6)
    for L in range(6, 255, 4):
        values = [_reduce_mod_phi(L, {k: _ONE}) for k in range(L)]
        for _ in range(20):
            values.append({rng.randrange(euler_phi(L)): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                           for _ in range(rng.randrange(1, 4))})
        for coeffs in values:
            got = _canonicalize(L, coeffs)
            want = canonicalize_with_half_step(L, coeffs)
            assert (got[0], sorted(got[1].items())) == (want[0], sorted(want[1].items())), (L, coeffs)


def _same_canonical(L, coeffs):
    got = _canonicalize(L, coeffs)
    want = reference_canonicalize(L, coeffs)
    assert (got[0], sorted(got[1].items())) == (want[0], sorted(want[1].items())), (L, coeffs)


def _random_coeffs(rng, L):
    return {rng.randrange(euler_phi(L)): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            for _ in range(rng.randrange(1, 5))}


def test_canonicalize_matches_rref_descent():
    rng = random.Random(10)
    for L in range(1, CONDUCTOR_LIMIT + 1):
        # every zeta_L^k up to L = 64, then k = 0, 1, L - 1 and three more
        ks = range(L) if L <= 64 else [0, 1, L - 1] + rng.sample(range(2, L - 1), 3)
        for k in ks:
            _same_canonical(L, _reduce_mod_phi(L, {k: _ONE}))
        for _ in range(2):
            _same_canonical(L, _random_coeffs(rng, L))
        # a random value of each subfield Q(zeta_d), written in Q(zeta_L)
        for d in _divisors(L):
            raw = {e * (L // d): c for e, c in _random_coeffs(rng, d).items()}
            _same_canonical(L, _reduce_mod_phi(L, raw))


@pytest.fixture
def reference_powers(monkeypatch):
    """Run a callable with square-and-multiply powering for every value."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(Cyclo, "__pow__", reference_pow)
            return _outcome(fn, *args)
    return run


def test_powers_match_square_and_multiply(reference_powers):
    # the reference takes a second or more to power a dense value of a large
    # conductor through n = 39, so past L = 10 only the roots of the cheap
    # 2-power conductors, and -zeta_255, whose cube zeta_510^261 has conductor
    # 85, up to n = 8
    rng = random.Random(12)
    z = -make_root(255, 1)
    for n in range(-6, 9):
        assert _outcome(pow, z, n) == reference_powers(pow, z, n), (z, n)
    values = [ZERO]
    for L in list(range(1, 11)) + [64, 128, 256]:
        for k in (1, rng.randrange(L)):
            z = make_root(L, k)
            values += [z, -z, rat(2) * z]
        if L <= 10:
            values.append(make_root(L, 1) + 1)
    for z in values:
        for n in range(-6, 40):
            assert _outcome(pow, z, n) == reference_powers(pow, z, n), (z, n)


def test_make_root_matches_cyclo():
    rng = random.Random(14)
    for L in range(1, CONDUCTOR_LIMIT + 1):
        ks = range(-L, L) if L <= 30 else [0, 1, -1, L // 2, L + 1] + rng.sample(range(L), 3)
        for k in ks:
            assert make_root(L, k) == Cyclo(L, {k % L: 1}), (L, k)


# -- extended Euclid inverses, kept as a reference -------------------------------
#
# ``euclid_inv`` is a verbatim copy of ``Cyclo.inv`` as it inverted every
# irrational value by extended Euclid against Phi_L.  ``Cyclo.inv`` must give
# the same canonical value, and so the same string and hash, on roots of
# unity and on every other value; a value that is no root still runs Euclid.


def euclid_inv(self) -> "Cyclo":
    """``Cyclo.inv`` by extended Euclid in Q[x] for every irrational value."""
    if self.is_zero():
        raise ZeroDivisionError("inverse of zero")
    if self.conductor == 1:
        return Cyclo.from_rational(1 / self.coeffs[0])
    L = self.conductor
    phi = list(cyclotomic_polynomial(L))
    a = [_ZERO] * euler_phi(L)
    for e, c in self.coeffs.items():
        a[e] = c
    # extended Euclid in Q[x]: u*a + v*phi = gcd = const
    r0, r1 = phi, a
    s0: list[Fraction] = [_ZERO]
    s1: list[Fraction] = [_ONE]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            break
        quo, rem = _poly_divmod(r0, r1)
        s2 = list(s0)
        ln = len(quo) + len(s1) - 1
        while len(s2) < ln:
            s2.append(_ZERO)
        for i, qc in enumerate(quo):
            if qc == 0:
                continue
            for j, sc in enumerate(s1):
                s2[i + j] -= qc * sc
        r0, r1 = r1, rem
        s0, s1 = s1, s2
    c = r1[0]
    inv_coeffs = {e: v / c for e, v in enumerate(s1) if v != 0}
    return Cyclo(L, inv_coeffs)


def test_inverses_match_extended_euclid_cold_and_warm(monkeypatch):
    # +-zeta_L^k for every L <= 60 and every k, samples at conductors 105, 128
    # and 255, rationals, and dense values of conductor <= 60 that are no root
    rng = random.Random(21)
    roots = [s * make_root(L, k) for L in range(1, 61) for k in range(L) for s in (ONE, rat(-1))]
    for L in (105, 128, 255):
        ks = {1, 2, L - 1, rng.randrange(euler_phi(L), L)} | set(rng.sample(range(L), 4))
        roots += [s * make_root(L, k) for k in ks for s in (ONE, rat(-1))]
    rationals = [rat(2), rat(Fraction(-3, 7)), rat(-1), ONE]
    dense = []
    while len(dense) < 20:
        L = rng.randrange(3, 61)
        x = Cyclo(L, {rng.randrange(L): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                      for _ in range(rng.randrange(2, 5))})
        if x.conductor > 1 and order_of(x) is None:
            dense.append(x)
    values = roots + rationals + dense
    want = [euclid_inv(x) for x in values]
    calls = []
    real = scalars._poly_divmod
    monkeypatch.setattr(scalars, "_poly_divmod", lambda *a: calls.append(1) or real(*a))
    _clear_memos()
    for run in ("cold", "warm"):
        for x, inverse in zip(values, want):
            before = len(calls)
            got = x.inv()
            assert got == inverse and got.conductor == inverse.conductor, (run, x)
            assert str(got) == str(inverse) and hash(got) == hash(inverse), (run, x)
            assert x * got == ONE, (run, x)
            if x in dense:
                assert len(calls) > before, (run, x)  # still by extended Euclid
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
