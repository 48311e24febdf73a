"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A scalar is stored as a rational polynomial in zeta_L reduced modulo the
L-th cyclotomic polynomial, with L always the *minimal* conductor of the
value.  Two scalars are therefore equal iff their (conductor, coefficient
map) pairs are equal, zero is the empty map, and all rationals are kept in
lowest terms by ``fractions.Fraction``.

Mixed-conductor arithmetic lifts both operands into Q(zeta_lcm) and reduces
the result back down, so roots of unity of any order can be combined freely
("the field is enlarged on demand").

The arithmetic skips work whose result is known in advance, which relies on
these invariants:

- values are immutable: nothing writes to a ``Cyclo``'s ``coeffs`` after
  construction, so ``x + 0``, ``x * 1`` and ``1 * x`` return ``x`` itself,
  and the arithmetic that still computes is memoized by value, each memo
  bounded by ``MEMO_SIZE``: a sum of two nonzero values (``_sum``), a
  negation (``Cyclo.__neg__``), a product of two irrational values or of a
  rational other than 0 and +-1 with any value (``_product``), and a power
  (``Cyclo.__pow__``), and so is ``qbinom``;
- 0, 1 and -1 come back as the singletons ``_CYCLO_ZERO``, ``_CYCLO_ONE``
  and ``_CYCLO_MINUS_ONE`` from ``from_rational``, negation, ``make_root``
  and any product or sum of conductor 1, so a unit operand is recognised
  by identity (``x * 1``, and a unit ``factor`` of ``add_terms``);
- row ``e - phi(L)`` of ``_power_table(L)`` is x^e mod Phi_L for
  phi(L) <= e < L, so reduction mod Phi_L is a sparse sum of rows;
- every root of unity in Q(zeta_c) is +-zeta_c^j, so a root is recognised
  from its coefficients at its own conductor c, without powering it and
  without any field larger than Q(zeta_c);
- a root's powers and inverse are read off its exponent, and ``make_root``
  writes a root of order n at conductor n, or n/2 for n = 2 mod 4, without
  a descent;
- a value lies in Q(zeta_{L/p}) iff p divides its exponents (p | L/p) or
  the trace to Q(zeta_{L/p}) over p - 1 fixes it (otherwise).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

# All conductors in the intended workloads are small (orders <= 30 in the
# classification tables); the bound only guards against runaway lcm growth.
CONDUCTOR_LIMIT = 256

# entries that each value memo keeps: ``_sum``, ``_product``, ``Cyclo.__neg__``
# and ``Cyclo.__pow__``
MEMO_SIZE = 4096

RationalLike = Union[int, Fraction]
ScalarLike = Union["Cyclo", int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def add_terms(out: dict, items, factor=None) -> dict:
    """Add ``factor * value`` (``value`` if no factor) to ``out[key]`` for each
    ``(key, value)`` in ``items``, keeping only nonzero sums; returns ``out``.

    Works for ``Fraction`` and ``Cyclo`` values, both falsy exactly at zero;
    a ``factor`` that is the unit ``_CYCLO_ONE`` counts as no factor.
    A new key is appended and a key whose sum vanishes is deleted, so the key
    order is that of the first nonzero contribution since the last deletion.
    """
    if factor is _CYCLO_ONE:
        factor = None
    for key, value in items:
        if factor is not None:
            value = factor * value
        old = out.get(key)
        if old is None:
            if value:
                out[key] = value
        else:
            value = old + value
            if value:
                out[key] = value
            else:
                del out[key]
    return out


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = n
    for p in _prime_factors(n):
        phi -= phi // p
    return phi


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    # dense coefficient lists, lowest degree first; den must be monic-led
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quo = [_ZERO] * max(1, len(num) - dd)
    while len(num) - 1 >= dd:
        c = num[-1] / lead
        shift = len(num) - 1 - dd
        quo[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] -= c * dc
        while num and num[-1] == 0:
            num.pop()
        if not num:
            break
    return quo, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, lowest degree first."""
    if n > CONDUCTOR_LIMIT:
        raise ValueError(f"conductor {n} exceeds CONDUCTOR_LIMIT={CONDUCTOR_LIMIT}")
    poly = [_ZERO] * (n + 1)
    poly[0] = Fraction(-1)
    poly[n] = _ONE
    for d in _divisors(n):
        if d == n:
            continue
        quo, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
        assert not rem, f"Phi_{d} does not divide x^{n}-1"
        poly = quo
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(L: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row ``e - phi(L)`` holds x^e mod Phi_L for phi(L) <= e < L, as sparse (i, c) pairs."""
    phi_poly = cyclotomic_polynomial(L)
    phi = len(phi_poly) - 1
    low = [-int(c) for c in phi_poly[:phi]]  # x^phi == sum(low[i] * x^i) mod Phi_L
    rows = []
    row = low
    for _ in range(phi, L):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r + top * v for r, v in zip(row, low)]
    return tuple(rows)


def _reduce_mod_phi(L: int, raw: dict[int, Fraction]) -> dict[int, Fraction]:
    """Reduce a zeta_L-polynomial with arbitrary integer exponents."""
    phi = euler_phi(L)
    out: dict[int, Fraction] = {}
    table = None
    for e, c in raw.items():
        if c == 0:
            continue
        e %= L
        if e < phi:
            out[e] = out.get(e, _ZERO) + c
            continue
        if table is None:
            table = _power_table(L)
        for i, v in table[e - phi]:
            out[i] = out.get(i, _ZERO) + c * v
    if table is None:
        return {e: c for e, c in out.items() if c != 0}
    return {e: out[e] for e in sorted(out) if out[e] != 0}


def _descend(L: int, p: int, coeffs: dict[int, Fraction]) -> Optional[dict[int, Fraction]]:
    """Coordinates in Q(zeta_m), m = L/p, of a value of Q(zeta_L); None if it
    lies outside.  For p | m, Phi_L(x) = Phi_m(x^p): x^e is zeta_m^{e/p}, and
    the value lies in Q(zeta_m) iff p divides each exponent.  Otherwise the
    trace to Q(zeta_m) over p - 1 fixes zeta_L^e if p | e and else gives
    -zeta_L^f / (p - 1), with f = e mod m and f = 0 mod p; the value lies in
    Q(zeta_m) iff it equals this projection.
    """
    m = L // p
    if m % p == 0:
        if any(e % p for e in coeffs):
            return None
        return {e // p: c for e, c in coeffs.items()}
    p_inv = pow(p, -1, m)
    down: dict[int, Fraction] = {}  # the projection, zeta_L^f written as zeta_m^j, j = f/p = e/p mod m
    for e, c in coeffs.items():
        j = e * p_inv % m
        down[j] = down.get(j, _ZERO) + (c if e % p == 0 else -c / (p - 1))
    if _reduce_mod_phi(L, {j * p: c for j, c in down.items()}) != coeffs:
        return None
    return _reduce_mod_phi(m, down)


def _canonicalize(L: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    coeffs = {e: c for e, c in coeffs.items() if c != 0}
    while True:
        if not coeffs or set(coeffs) == {0}:
            return 1, coeffs
        for p in _prime_factors(L):
            if L // p == 1:
                continue
            down = _descend(L, p, coeffs)
            if down is not None:
                L, coeffs = L // p, down
                break
        else:
            return L, coeffs


class Cyclo:
    """An element of the cyclotomic closure of Q, in canonical form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs: dict[int, Fraction], *, _canonical: bool = False):
        if not _canonical:
            coeffs = _reduce_mod_phi(conductor, {e: Fraction(c) for e, c in coeffs.items()})
            conductor, coeffs = _canonicalize(conductor, coeffs)
        self.conductor = conductor
        self.coeffs = coeffs
        self._hash = None

    @staticmethod
    def from_rational(r: RationalLike) -> "Cyclo":
        return _scalar(1, {0: Fraction(r)})

    @staticmethod
    def zero() -> "Cyclo":
        return _CYCLO_ZERO

    @staticmethod
    def one() -> "Cyclo":
        return _CYCLO_ONE

    @staticmethod
    def promote(value: ScalarLike) -> "Cyclo":
        if isinstance(value, Cyclo):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclo.from_rational(value)
        raise TypeError(f"cannot interpret {value!r} as a field scalar")

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_fraction(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs.get(0, _ZERO)

    # -- arithmetic ------------------------------------------------------

    def _lift(self, L: int) -> dict[int, Fraction]:
        step = L // self.conductor
        return _reduce_mod_phi(L, {e * step: c for e, c in self.coeffs.items()})

    def __add__(self, other: ScalarLike) -> "Cyclo":
        other = Cyclo.promote(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        return _sum(self, other)

    __radd__ = __add__

    @lru_cache(maxsize=MEMO_SIZE)
    def __neg__(self) -> "Cyclo":
        return _scalar(self.conductor, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: ScalarLike) -> "Cyclo":
        return self + (-Cyclo.promote(other))

    def __rsub__(self, other: ScalarLike) -> "Cyclo":
        return Cyclo.promote(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Cyclo":
        if other is _CYCLO_ONE:
            return self
        other = Cyclo.promote(other)
        if self.conductor == 1:
            if self is _CYCLO_ONE:
                return other
            r = self.coeffs.get(0, _ZERO)
            if not r:
                return _CYCLO_ZERO
            if r == 1:
                return other
            if r == -1:
                return -other
        elif other.conductor == 1:
            return other * self
        return _product(self, other)

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.conductor == 1:
            return Cyclo.from_rational(1 / self.coeffs[0])
        root = _as_root(self)
        if root is not None:
            return root.inv().to_cyclo()
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

    def __truediv__(self, other: ScalarLike) -> "Cyclo":
        return self * Cyclo.promote(other).inv()

    def __rtruediv__(self, other: ScalarLike) -> "Cyclo":
        return Cyclo.promote(other) * self.inv()

    @lru_cache(maxsize=MEMO_SIZE)
    def __pow__(self, n: int) -> "Cyclo":
        root = _as_root(self) if self.coeffs else None
        if root is not None:
            return (root ** n).to_cyclo()
        if n < 0:
            return self.inv() ** (-n)
        if n < 2:
            return self if n else _CYCLO_ONE
        half = self ** (n >> 1)  # through the memo, as are the products
        return half * half * self if n & 1 else half * half

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.conductor, tuple(sorted(self.coeffs.items()))))
        return self._hash

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            base = f"zeta({self.conductor},{e})" if e else None
            if base is None:
                coef = str(c)
            elif c == 1:
                coef = base
            elif c == -1:
                coef = f"-{base}"
            elif c.denominator == 1:
                coef = f"{c}*{base}"
            else:
                coef = f"({c})*{base}"
            parts.append(coef)
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"Cyclo({self})"


_CYCLO_ZERO = Cyclo(1, {}, _canonical=True)
_CYCLO_ONE = Cyclo(1, {0: _ONE}, _canonical=True)
_CYCLO_MINUS_ONE = Cyclo(1, {0: -_ONE}, _canonical=True)


def _scalar(L: int, coeffs: dict[int, Fraction]) -> Cyclo:
    """The value with canonical coordinates (L, coeffs); 0, 1 and -1 as their singletons."""
    if L == 1:
        r = coeffs.get(0, _ZERO)
        if not r:
            return _CYCLO_ZERO
        if r == 1:
            return _CYCLO_ONE
        if r == -1:
            return _CYCLO_MINUS_ONE
    return Cyclo(L, coeffs, _canonical=True)


@lru_cache(maxsize=MEMO_SIZE)
def _sum(x: Cyclo, y: Cyclo) -> Cyclo:
    """x + y for two nonzero values, in Q(zeta_lcm) and reduced back down."""
    L = math.lcm(x.conductor, y.conductor)
    a = x._lift(L) if L != x.conductor else dict(x.coeffs)
    b = y._lift(L) if L != y.conductor else y.coeffs
    return _scalar(*_canonicalize(L, add_terms(a, b.items())))


@lru_cache(maxsize=MEMO_SIZE)
def _product(x: Cyclo, y: Cyclo) -> Cyclo:
    """x * y for x a rational other than 0 and +-1, or for two irrational
    values; those in Q(zeta_lcm) and reduced back down."""
    if x.conductor == 1:
        r = x.coeffs[0]
        return _scalar(y.conductor, {e: c * r for e, c in y.coeffs.items()})
    L = math.lcm(x.conductor, y.conductor)
    a = x._lift(L) if L != x.conductor else x.coeffs
    b = y._lift(L) if L != y.conductor else y.coeffs
    raw: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1 + e2) % L
            raw[e] = raw.get(e, _ZERO) + c1 * c2
    return _scalar(*_canonicalize(L, _reduce_mod_phi(L, raw)))


@lru_cache(maxsize=None)
def make_root(L: int, k: int) -> Cyclo:
    """The root of unity zeta_L^k as a canonical field scalar.

    In lowest terms zeta_L^k is zeta_n^k' with n = L / gcd(L, k) its order,
    and zeta_n^k' has conductor n, except that for n = 2 mod 4 it is
    -zeta_{n/2}^{(k'+n/2)/2} of conductor n/2, so no descent is needed.
    Raises ValueError only when L < 1 or that conductor is past CONDUCTOR_LIMIT.
    """
    root = RootOfUnity(L, k)
    n, k = root.order, root.exponent
    if n % 4 == 2:
        return -make_root(n // 2, (k + n // 2) // 2)
    if n > CONDUCTOR_LIMIT:
        raise ValueError(f"conductor {n} exceeds CONDUCTOR_LIMIT={CONDUCTOR_LIMIT}")
    return _scalar(n, _reduce_mod_phi(n, {k: _ONE}))


@lru_cache(maxsize=None)
def _roots(c: int) -> dict[tuple[tuple[int, int], ...], RootOfUnity]:
    """Sorted coefficient items of each root of unity in Q(zeta_c) -> that root.

    The roots of unity in Q(zeta_c) are exactly the +-zeta_c^j, and zeta_c^j
    is the single term x^j for j < phi(c) and a row of ``_power_table(c)``
    otherwise.
    """
    N = math.lcm(2, c)
    phi = euler_phi(c)
    table = _power_table(c)
    out = {}
    for j in range(c):
        row = ((j, 1),) if j < phi else table[j - phi]
        k = j * (N // c)
        out[row] = RootOfUnity(N, k)
        out[tuple((i, -v) for i, v in row)] = RootOfUnity(N, k + N // 2)
    return out


def _as_root(a: Cyclo) -> Optional[RootOfUnity]:
    """``a`` as a root of unity, None if it is none; read off its coefficients."""
    if a.is_zero():
        raise ValueError("0 has no multiplicative order")
    return _roots(a.conductor).get(tuple(sorted(a.coeffs.items())))


def order_of(a: ScalarLike) -> Optional[int]:
    """Multiplicative order of ``a`` if it is a root of unity, else None."""
    root = _as_root(Cyclo.promote(a))
    return None if root is None else root.order


def is_primitive_pth_root(a: ScalarLike, p: int) -> bool:
    """True iff ``a`` is a primitive p-th root of unity."""
    a = Cyclo.promote(a)
    return bool(a) and order_of(a) == p


@lru_cache(maxsize=MEMO_SIZE)
def qbinom(w: int, j: int, q: Cyclo) -> Cyclo:
    """Gaussian binomial coefficient [w, j]_q.

    At a root q of order l >= 2 the q-Lucas theorem gives
    [w, j]_q = C(w div l, j div l) * [w mod l, j mod l]_q, which leaves
    w < l.  Otherwise the division-free Pascal recurrence
    C(n,k)_q = C(n-1,k-1)_q + q^k * C(n-1,k)_q runs row by row for
    n = 1..w over k <= j.
    """
    if j < 0 or j > w:
        raise ValueError(f"binomial index j={j} outside 0..{w}")
    q = Cyclo.promote(q)
    if j == 0 or j == w:
        return _CYCLO_ONE
    ell = order_of(q)
    if ell is not None and 2 <= ell <= w:
        if j % ell > w % ell:
            return _CYCLO_ZERO
        return math.comb(w // ell, j // ell) * qbinom(w % ell, j % ell, q)
    powers = [q ** k for k in range(j + 1)]
    row = [_CYCLO_ONE] + [_CYCLO_ZERO] * j  # row n holds C(n,k)_q for k = 0..j
    for n in range(1, w + 1):
        for k in range(min(n, j), 0, -1):
            row[k] = row[k - 1] + powers[k] * row[k]
    return row[j]


def _int_nth_root(x: int, n: int) -> Optional[int]:
    """The exact n-th root of ``x`` if ``x`` is a perfect n-th power, else None."""
    if x < 0:
        return None
    if x in (0, 1):
        return x
    # integer Newton iteration from 2**ceil(bits/n) >= x**(1/n), decreasing to the floor root
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    return r if r ** n == x else None


def nth_root_in_cyclotomics(value: ScalarLike, p: int) -> Optional[Cyclo]:
    """A gamma with gamma**p == value, for value a rational times a root of unity.

    With n0 = lcm(2, conductor), rho is the positive rational (p*n0)-th root
    of |value^n0|, value / rho^p is a root of unity zeta_N^k, and gamma is
    rho * zeta_{Np}^k.  Returns None when value^n0 is not rational, |value^n0|
    is no (p*n0)-th power of a rational, or the conductor of zeta_{Np}^k is
    past CONDUCTOR_LIMIT (the caller reports the witness as unavailable in
    the coefficient field).  Other cyclotomic roots, such as sqrt(2), are not
    found.
    """
    value = Cyclo.promote(value)
    if p < 1:
        raise ValueError("root index must be positive")
    if value.is_zero():
        return _CYCLO_ZERO
    n0 = math.lcm(2, value.conductor)
    big = value ** n0
    if not big.is_rational():
        return None
    r = big.as_fraction()
    num = _int_nth_root(abs(r.numerator), p * n0)
    den = _int_nth_root(r.denominator, p * n0)
    if num is None or den is None:
        return None
    rho = Cyclo.from_rational(Fraction(num, den))
    root = _as_root(value / rho ** p)  # its n0-th power is r / |r| = +-1
    try:
        return rho * make_root(root.order * p, root.exponent)
    except ValueError:  # its conductor is past CONDUCTOR_LIMIT
        return None


class RootOfUnity:
    """zeta_n^k in lowest terms: integer-only arithmetic for table sweeps."""

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int):
        if order < 1:
            raise ValueError("order must be positive")
        exponent %= order
        g = math.gcd(order, exponent)  # order itself when exponent is 0, giving (1, 0)
        _set_order(self, order // g)
        _set_exponent(self, exponent // g)

    def __setattr__(self, *args):
        raise AttributeError("RootOfUnity is immutable")

    __delattr__ = __setattr__

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(1, 0)

    @staticmethod
    def minus_one() -> "RootOfUnity":
        return RootOfUnity(2, 1)

    @staticmethod
    def from_cyclo(z: ScalarLike) -> "RootOfUnity":
        root = _as_root(Cyclo.promote(z))
        if root is None:
            raise ValueError(f"{z} is not a root of unity")
        return root

    def to_cyclo(self) -> Cyclo:
        return make_root(self.order, self.exponent)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        return RootOfUnity(n, self.exponent * (n // self.order) + other.exponent * (n // other.order))

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exponent * k)

    def inv(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exponent)

    def __neg__(self) -> "RootOfUnity":
        return self * RootOfUnity.minus_one()

    def is_one(self) -> bool:
        return self.order == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.order == other.order and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.order, self.exponent))

    def __repr__(self) -> str:
        return f"RootOfUnity({self.order},{self.exponent})"


# the slot descriptors' own setters, which ``__init__`` uses past the refusing ``__setattr__``
_set_order = RootOfUnity.order.__set__
_set_exponent = RootOfUnity.exponent.__set__
