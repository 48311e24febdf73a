"""Sparse exact linear algebra over the cyclotomic scalars.

Rows are dicts mapping a column key to a nonzero Cyclo.  Systems in this
package are small (at most a few hundred columns), so plain reduced row
echelon form is enough.

Every pivot row is normalised (its pivot entry is 1) and holds no other
pivot column, so a pivot row with a single entry is exactly ``{c: 1}``.
Reducing a row against it only drops column ``c``; ``_eliminate`` does
that with a deletion instead of Cyclo arithmetic.  Back-substitution only
removes columns, so a single-entry pivot row stays single-entry.  In the
skew-primitive systems nearly every row and pivot row has one entry.

``rref`` therefore keeps the pivot rows with more than one entry apart, in
``dense``: a new pivot column can only occur in those, so only they are
ever back-substituted into (a row that back-substitution strips to one
entry leaves ``dense``), and a single-entry row on the column of a
single-entry pivot row reduces to zero, so it is skipped without a copy.
Every other row is reduced as before, so the pivots, their rows and the
dict order of both are those of the plain reduction.

A system whose rows split into a part shared by many systems and a part of
their own is reduced in two steps: ``rref(shared)`` once, then
``rref(own, start=...)`` for each system.  ``start`` is the state the
reduction of the shared rows ended in, so the second step gives what one
reduction of the shared rows followed by the own rows gives, dict order
included.  Single-entry pivot rows are never changed, so ``start`` lends
them; its multi-entry rows are copied before back-substitution reaches
them, and ``start`` comes out unchanged.  The skew-primitive solver reduces
the rows that do not depend on the weight once per shape.  A column with a
single-entry pivot row there is zero in every solution, so each weight
reduces its few rows on the other columns only, seeded with the
multi-entry pivot rows alone.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from .scalars import Cyclo, add_terms


def _eliminate(row: dict, col: Hashable, prow: dict) -> None:
    """Clear ``col`` from ``row`` using the pivot row ``prow`` of ``col``."""
    if len(prow) == 1:
        del row[col]  # prow is {col: 1}
    else:
        add_terms(row, prow.items(), -row[col])


def rref(rows: Iterable[dict], start: Optional[dict] = None) -> dict[Hashable, dict]:
    """Reduced row echelon form; returns {pivot column: normalized row}.

    Each pivot is the least column of its row in the ``_col_key`` order, so
    the result is the unique reduced row echelon form of the row space for
    that column order: the same pivots and rows for every order of the
    input rows.  Only the dict order of the result depends on it.

    ``start``, a result of ``rref``, seeds the reduction: the rows of
    ``start`` count as rows of the system, reduced before ``rows``.
    """
    one = Cyclo.one()
    pivots: dict[Hashable, dict] = dict(start or {})
    # the pivot rows with more than one entry, copies of those of ``start``
    dense: dict[Hashable, dict] = {piv: dict(row) for piv, row in pivots.items() if len(row) > 1}
    pivots.update(dense)
    for row in rows:
        if len(row) == 1:
            [piv] = row
            if piv not in pivots:
                row = pivots[piv] = {piv: one}
                if dense:
                    _back_substitute(dense, piv, row)
                continue
            if piv not in dense:
                continue  # a multiple of the pivot row {piv: 1}
        row = dict(row)
        # a pivot row holds no other pivot column, so clearing one pivot
        # column brings in none: one pass clears them all
        for col in [c for c in row if c in pivots]:
            _eliminate(row, col, pivots[col])
        if not row:
            continue
        if len(row) == 1:
            piv = next(iter(row))
            row = {piv: one}
        else:
            piv = min(row, key=_col_key)
            inv = row[piv].inv()
            row = {c: v * inv for c, v in row.items()}
        _back_substitute(dense, piv, row)
        pivots[piv] = row
        if len(row) > 1:
            dense[piv] = row
    return pivots


def _back_substitute(dense: dict, piv: Hashable, row: dict) -> None:
    """Clear the new pivot column ``piv`` from the multi-entry pivot rows
    ``dense`` with its pivot row ``row``; a row left with one entry leaves."""
    for col in [c for c, prow in dense.items() if piv in prow]:
        prow = dense[col]
        _eliminate(prow, piv, row)
        if len(prow) == 1:
            del dense[col]


def _col_key(col):
    return (repr(type(col)), repr(col))


def rank(rows: Iterable[dict]) -> int:
    return len(rref(rows))


def nullspace(rows: Iterable[dict], columns: list, start: Optional[dict] = None) -> list[dict]:
    """Basis of the solution space of ``rows * x = 0`` over ``columns``;
    ``start`` seeds the reduction as in ``rref``."""
    pivots = rref(rows, start)
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
