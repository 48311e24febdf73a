"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A scalar is stored as a rational polynomial in zeta_L reduced modulo the
L-th cyclotomic polynomial, with L always the *minimal* conductor of the
value.  Two scalars are therefore equal iff their (conductor, coefficient
map) pairs are equal, zero is the empty map, and all rationals are kept in
lowest terms by ``fractions.Fraction``.

Mixed-conductor arithmetic lifts both operands into Q(zeta_lcm) and reduces
the result back down, so roots of unity of any order can be combined freely
("the field is enlarged on demand").

A root of unity zeta_n^k also has an integer form, ``RootOfUnity``: the
tuple (n, k) in lowest terms, whose products, powers and inverses act on
the exponent.  ``RootOfUnity.from_cyclo`` reads it off a ``Cyclo`` and
``make_root`` writes it back.

The input limits, ``STEP_BUDGET`` with ``BudgetExceeded`` and the JSON
readers ``int_from_json``, ``scalar_from_json`` and ``root_pair_from_json``
live here too, so ``gkhopf nichols`` reads its data with no rewriting layer.

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
from operator import itemgetter
from typing import Optional, Union

# All conductors in the intended workloads are small (orders <= 30 in the
# classification tables); the bound only guards against runaway lcm growth.
CONDUCTOR_LIMIT = 256

# the input limits, checked before any work by the readers below, presentations and expr
SIZE_LIMIT = CONDUCTOR_LIMIT  # |M| (n * p_1 * ... * p_s for B), each |n_i| and |p_i|, A and C |n|
LENGTH_LIMIT = 16  # K-family s: about s^2/2 rules, every pair of them compared for ambiguities
EXPONENT_LIMIT = 1000  # |N| of a power e^N in an nf expression
SCALAR_TEXT_LIMIT = 100  # characters of a scalar written as a string

# the default step budget of a rewrite system, the CLI's --budget
STEP_BUDGET = 1_000_000


class BudgetExceeded(Exception):
    """The step budget ran out while ``word`` was being rewritten."""

    def __init__(self, steps: int, word: tuple[int, ...], text: str):
        if len(text) > 80:
            text = text[:77] + "..."
        super().__init__(f"rewriting exceeded {steps} steps at {text}")
        self.steps = steps
        self.word = word


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


def make_root(L: int, k: int) -> Cyclo:
    """The root of unity zeta_L^k as a canonical field scalar.

    In lowest terms zeta_L^k is zeta_n^k' with n = L / gcd(L, k) its order,
    and zeta_n^k' has conductor n, except that for n = 2 mod 4 it is
    -zeta_{n/2}^{(k'+n/2)/2} of conductor n/2, so no descent is needed.
    Raises ValueError only when L < 1 or that conductor is past CONDUCTOR_LIMIT.
    The memo is keyed by (n, k'), so every spelling of a root shares one entry.
    """
    return _lowest_root(*RootOfUnity(L, k))


@lru_cache(maxsize=None)
def _lowest_root(n: int, k: int) -> Cyclo:
    """``make_root`` of the lowest-terms pair (n, k)."""
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


def _no_tuple_arithmetic(self, other):
    """Refuses tuple concatenation and repetition on a value that is a
    tuple, where ``3 * root`` or ``root + root`` would silently give a
    longer plain tuple."""
    raise TypeError(f"{type(self).__name__} takes no tuple + and no * by an int")


class RootOfUnity(tuple):
    """zeta_n^k as its lowest-terms pair (n, k), 0 <= k < n and gcd(n, k) = 1:
    integer-only arithmetic for table sweeps.  A tuple, so it is immutable,
    unpacks as ``n, k = root`` and equals and hashes as its pair:
    ``RootOfUnity(10, 4) == (5, 2)``.  ``*`` is the product of roots; tuple
    ``+`` and ``int * root`` raise TypeError."""

    __slots__ = ()
    __add__ = __radd__ = __rmul__ = _no_tuple_arithmetic

    def __new__(cls, order: int, exponent: int) -> "RootOfUnity":
        if order < 1:
            raise ValueError("order must be positive")
        exponent %= order
        g = math.gcd(order, exponent)  # order itself when exponent is 0, giving (1, 0)
        return tuple.__new__(cls, (order // g, exponent // g))

    order = property(itemgetter(0))
    exponent = property(itemgetter(1))

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
        return _lowest_root(*self)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        (n, k), (m, j) = self, other
        L = math.lcm(n, m)
        return RootOfUnity(L, k * (L // n) + j * (L // m))

    def __pow__(self, e: int) -> "RootOfUnity":
        n, k = self
        return RootOfUnity(n, k * e)

    def inv(self) -> "RootOfUnity":
        n, k = self
        return RootOfUnity(n, -k)

    def __neg__(self) -> "RootOfUnity":
        return self * RootOfUnity.minus_one()

    def is_one(self) -> bool:
        return self.order == 1

    def __repr__(self) -> str:
        return f"RootOfUnity({self.order},{self.exponent})"


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
        return make_root(*root_pair_from_json(obj))
    raise ValueError(f"cannot read a scalar from {obj!r}")


def root_pair_from_json(obj) -> tuple[int, int]:
    """A JSON scalar that must be a root of unity, as a pair (L, k) with
    zeta_L^k that root: a {"L","k"} root as written, any other form as its
    ``RootOfUnity`` read through ``scalar_from_json``."""
    if isinstance(obj, dict) and "k" in obj and "poly" not in obj:
        return _conductor_from_json(obj), int_from_json("k", obj["k"])
    return RootOfUnity.from_cyclo(scalar_from_json(obj))


def _conductor_from_json(obj: dict) -> int:
    L = int_from_json("L", obj["L"])
    if not 1 <= L <= CONDUCTOR_LIMIT:
        raise ValueError(f"conductor L={L} outside 1..{CONDUCTOR_LIMIT}")
    return L
