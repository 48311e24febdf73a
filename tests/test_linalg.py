"""Differential test of ``_linalg`` against the plain row reduction.

``reference_rref`` and ``reference_nullspace`` are the textbook reduction,
without the rule of ``_linalg`` for single-entry rows (a new column's pivot
row is written as ``{c: 1}``, and a row on the column of a pivot row
``{c: 1}`` is skipped).  ``_linalg`` must give the same pivots, the same
rows and the same bases, in the same dict order, and must leave its input
rows as they were.  Apart from dict order, ``rref`` must also not depend on
the order of its input rows: it returns the unique reduced row echelon
form, which keeps skew-primitive reports independent of the order in which
their systems are assembled.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Hashable, Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkhopf import _linalg, hopfops
from gkhopf.hopfops import default_window, find_zero_divisors, skew_primitives
from gkhopf.scalars import Cyclo, make_root


# -- reference ----------------------------------------------------------------


def _subtract(row: dict, factor: Cyclo, other: dict) -> None:
    for col, val in other.items():
        new = row.get(col, Cyclo.zero()) - factor * val
        if new.is_zero():
            row.pop(col, None)
        else:
            row[col] = new


_NO_HIT = object()  # not None: None is a column key of the random systems


def reference_rref(rows: Iterable[dict]) -> dict[Hashable, dict]:
    """Reduced row echelon form; returns {pivot column: normalized row}."""
    pivots: dict[Hashable, dict] = {}
    for row in rows:
        row = dict(row)
        while True:
            hit = next((c for c in row if c in pivots), _NO_HIT)
            if hit is _NO_HIT:
                break
            _subtract(row, row[hit], pivots[hit])
        if not row:
            continue
        piv = min(row, key=_col_key)
        inv = row[piv].inv()
        row = {c: v * inv for c, v in row.items()}
        for prow in pivots.values():
            if piv in prow:
                _subtract(prow, prow[piv], row)
        pivots[piv] = row
    return pivots


def _col_key(col):
    return (repr(type(col)), repr(col))


def reference_nullspace(rows: Iterable[dict], columns: list) -> list[dict]:
    """Basis of the solution space of ``rows * x = 0`` over ``columns``."""
    pivots = reference_rref(rows)
    free = [c for c in columns if c not in pivots]
    basis = []
    for f in free:
        vec = {f: Cyclo.one()}
        for piv, row in pivots.items():
            coef = row.get(f)
            if coef is not None and not coef.is_zero():
                vec[piv] = -coef
        basis.append(vec)
    return basis


# -- comparison ---------------------------------------------------------------


def _ordered(pivots: dict) -> list:
    return [(piv, list(row.items())) for piv, row in pivots.items()]


def assert_same_as_reference(rows: list[dict], columns: list) -> None:
    """``rows``, reduced as one system, must give what the reference gives,
    and must come out unchanged."""
    before = [list(r.items()) for r in rows]
    assert _ordered(_linalg.rref(iter(rows))) == _ordered(reference_rref(rows))
    basis = _linalg.nullspace(iter(rows), columns)
    want = reference_nullspace(rows, columns)
    assert [list(v.items()) for v in basis] == [list(v.items()) for v in want]
    assert _linalg.rank(rows) == len(reference_rref(rows))
    assert [list(r.items()) for r in rows] == before, "rows must not be modified"


# -- random systems -----------------------------------------------------------

COLUMN_KEYS = [0, 1, 2, 7, -3, "a", "b", "zz", (0, 1), (1, 0), ("a", 2), None, frozenset({1})]
SCALARS = [Cyclo.from_rational(Fraction(n, d)) for n, d in ((1, 1), (-1, 1), (2, 1), (-3, 2), (5, 7))]
SCALARS += [make_root(L, k) for L, k in ((3, 1), (4, 1), (6, 5), (12, 7))]
SCALARS += [make_root(3, 1) + Cyclo.from_rational(2), make_root(4, 1) - make_root(12, 1)]


def _scalar(rng: random.Random) -> Cyclo:
    return rng.choice(SCALARS)


def _combine(rng: random.Random, rows: list[dict]) -> dict:
    """a*r1 + b*r2 for two earlier rows: the reduction cancels it to zero."""
    r1, r2 = rng.choice(rows), rng.choice(rows)
    a, b = _scalar(rng), _scalar(rng)
    out: dict = {}
    for factor, src in ((a, r1), (b, r2)):
        for c, v in src.items():
            acc = out.get(c, Cyclo.zero()) + factor * v
            if acc.is_zero():
                out.pop(c, None)
            else:
                out[c] = acc
    return out


def random_system(rng: random.Random) -> tuple[list[dict], list]:
    columns = rng.sample(COLUMN_KEYS, rng.randint(2, len(COLUMN_KEYS)))
    rows: list[dict] = []
    for _ in range(rng.randint(1, 14)):
        kind = rng.random()
        if kind < 0.35 or not rows:
            row = {rng.choice(columns): _scalar(rng)}
        elif kind < 0.5:
            row = dict(rng.choice(rows))
        elif kind < 0.6:
            factor = _scalar(rng)
            row = {c: factor * v for c, v in rng.choice(rows).items()}
        elif kind < 0.7:
            row = _combine(rng, rows)
        elif kind < 0.8:
            wide = rng.sample(columns, max(1, len(columns) - rng.randint(0, 1)))
            row = {c: _scalar(rng) for c in wide}
        else:
            row = {c: _scalar(rng) for c in rng.sample(columns, min(len(columns), rng.randint(2, 3)))}
        if row:
            rows.append(row)
    return rows, columns


@pytest.mark.parametrize("seed", range(8))
def test_random_systems_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows, columns = random_system(rng)
        assert_same_as_reference(rows, columns)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rref_does_not_depend_on_row_order(rng):
    rows, columns = random_system(rng)
    shuffled = rng.sample(rows, len(rows))

    def printed(pivots):
        return {piv: {c: str(v) for c, v in row.items()} for piv, row in pivots.items()}

    assert printed(_linalg.rref(shuffled)) == printed(_linalg.rref(rows))
    assert _linalg.nullspace(shuffled, columns) == _linalg.nullspace(rows, columns)


def test_single_entry_rows_and_back_substitution():
    one, two, z = Cyclo.one(), Cyclo.from_rational(2), make_root(6, 1)
    cases = [
        [{"a": two}],
        [{"a": z, "b": two, 3: one}, {"b": z}, {3: two}, {"a": one}],
        [{0: z}, {0: two}, {0: z, 1: one}, {1: two, 2: z}, {2: one}],
        [{(1, 0): z, None: one}, {None: two}, {(1, 0): one}],
    ]
    for rows in cases:
        assert_same_as_reference(rows, ["a", "b", 3, 0, 1, 2, (1, 0), None])
    pivots = _linalg.rref([{"a": z, "b": two}, {"b": z}])
    assert pivots == {"a": {"a": Cyclo.one()}, "b": {"b": Cyclo.one()}}


def singleton_heavy_system(rng: random.Random) -> tuple[list[dict], list]:
    """Mostly single-entry rows, as in the skew-primitive systems, mixed with
    the wider rows whose pivots the single-entry rows meet: repeated
    single-entry rows, single-entry rows on the least column of a wider row
    (the column it takes as pivot unless reduced first), and wider rows
    followed by single-entry rows on all their other columns, which
    back-substitution strips down to one entry."""
    columns = rng.sample(COLUMN_KEYS, rng.randint(2, len(COLUMN_KEYS)))
    rows: list[dict] = []
    for _ in range(rng.randint(1, 24)):
        kind = rng.random()
        singles = [r for r in rows if len(r) == 1]
        wide = [r for r in rows if len(r) > 1]
        if kind < 0.4 or not rows:
            rows.append({rng.choice(columns): _scalar(rng)})
        elif kind < 0.55 and singles:
            row = rng.choice(singles)
            rows.append(row if rng.random() < 0.5 else {next(iter(row)): _scalar(rng)})
        elif kind < 0.7 and wide:
            rows.append({min(rng.choice(wide), key=_col_key): _scalar(rng)})
        elif kind < 0.85:
            row = {c: _scalar(rng) for c in rng.sample(columns, min(len(columns), rng.randint(2, 4)))}
            rows.append(row)
            rest = sorted(row, key=_col_key)[1:]
            for c in rng.sample(rest, rng.randint(0, len(rest))):
                rows.append({c: _scalar(rng)})
            if rng.random() < 0.5:
                rows.append({min(row, key=_col_key): _scalar(rng)})
        else:
            rows.append(_combine(rng, rows))
    return [r for r in rows if r], columns


@pytest.mark.parametrize("seed", range(8))
def test_singleton_heavy_systems_match_reference(seed):
    rng = random.Random(1000 + seed)
    for _ in range(60):
        rows, columns = singleton_heavy_system(rng)
        assert_same_as_reference(rows, columns)


def test_single_entry_rows_on_every_kind_of_pivot():
    one, two, z = Cyclo.one(), Cyclo.from_rational(2), make_root(6, 1)
    w = make_root(4, 1) - make_root(12, 1)
    columns = ["a", "b", "c", "d"]
    # repeated single-entry rows, the same object and equal copies
    single = {"b": z}
    cases = [[single, single, {"b": z}, {"b": two}, {"a": one}, {"a": w}, single]]
    # single-entry rows on the pivot column of a wider pivot row
    cases.append([{"a": z, "b": two}, {"a": two}, {"c": one}])
    cases.append([{"a": z, "b": two, "c": w}, {"a": one}, {"a": z}, {"b": two}])
    # a wider pivot row that back-substitution shrinks to one entry, then
    # single-entry rows on its column
    cases.append([{"a": z, "b": two}, {"b": w}, {"a": two}, {"a": z}])
    cases.append([{"a": z, "b": two, "c": one}, {"c": z}, {"b": one}, {"a": w}, {"d": two}])
    for rows in cases:
        assert_same_as_reference(rows, columns)
    # the wider pivot row of "a" really is down to one entry
    assert reference_rref([{"a": z, "b": two}, {"b": w}])["a"] == {"a": one}
    assert len(reference_rref([{"a": z, "b": two}])["a"]) == 2


# -- the systems the Hopf computations build ----------------------------------


def _recorded_systems(monkeypatch, run) -> list[tuple[list[dict], list]]:
    """The rows and columns of every ``nullspace`` call of ``run``."""
    systems = []
    real = _linalg.nullspace

    def recording(rows, columns):
        rows = [dict(r) for r in rows]
        systems.append((rows, list(columns)))
        return real(rows, columns)

    monkeypatch.setattr(_linalg, "nullspace", recording)
    run()
    monkeypatch.undo()
    assert systems
    return systems


def test_skew_primitive_systems_match_reference(monkeypatch, request):
    def run():
        for name in ("b23", "b235", "k22", "a15", "a25", "c3"):
            built = request.getfixturevalue(name)
            for g in range(-12, 13):
                if abs(g) <= default_window(built, 6):
                    skew_primitives(built, g, 6)

    systems = _recorded_systems(monkeypatch, run)
    # each shape's weight-free rows are single-entry only, and every weight's
    # rows are built on the columns they leave open, so no row has more than
    # one entry and none is empty; rref's multi-entry path is covered by the
    # random systems above and by the zero-divisor systems below, and the
    # weight-free rows with more entries by
    # test_multi_entry_weight_free_rows_are_kept in test_hopfops.py
    assert not any(len(r) != 1 for rows, _ in systems for r in rows)
    for rows, columns in systems:
        assert_same_as_reference(rows, columns)


def test_zero_divisor_systems_match_reference(monkeypatch, k22):
    # withhold the seeded witness so that the search goes on to its linear systems
    seeded = hopfops._seeded_zero_divisors
    monkeypatch.setattr(hopfops, "_seeded_zero_divisors",
                        lambda built, notes: (None, seeded(built, notes)[1]))
    systems = _recorded_systems(monkeypatch, lambda: find_zero_divisors(k22, 4))
    for rows, columns in systems:
        assert_same_as_reference(rows, columns)
