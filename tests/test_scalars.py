"""Cyclotomic arithmetic, root-of-unity predicates, Gaussian binomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkhopf.scalars import (Cyclo, RootOfUnity, euler_phi, is_primitive_pth_root,
                            make_root, nth_root_in_cyclotomics, order_of, qbinom)
from gkhopf.scalars import _int_nth_root

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
