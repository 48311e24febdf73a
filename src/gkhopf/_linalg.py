"""Sparse exact linear algebra over the cyclotomic scalars.

Rows are dicts mapping a column key to a nonzero Cyclo.  Systems in this
package are small (at most a few hundred columns), so plain reduced row
echelon form is enough.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .scalars import Cyclo, add_terms


def rref(rows: Iterable[dict]) -> dict[Hashable, dict]:
    """Reduced row echelon form; returns {pivot column: normalized row}.

    Each pivot is the least column of its row in the ``_col_key`` order, so
    the result is the unique reduced row echelon form of the row space for
    that column order: the same pivots and rows for every order of the
    input rows.  Only the dict order of the result depends on it.
    """
    one = Cyclo.one()
    pivots: dict[Hashable, dict] = {}
    for row in rows:
        if len(row) == 1 and (piv := next(iter(row))) not in pivots:
            row = {piv: one}  # a single entry on a new column: no arithmetic
        elif len(row) == 1 and len(pivots[piv]) == 1:
            continue  # a multiple of the pivot row {piv: 1}
        else:
            row = dict(row)
            # a pivot row holds no other pivot column, so clearing one pivot
            # column brings in none: one pass clears them all
            for col in [c for c in row if c in pivots]:
                add_terms(row, pivots[col].items(), -row[col])
            if not row:
                continue
            piv = min(row, key=_col_key)
            inv = row[piv].inv()
            row = {c: v * inv for c, v in row.items()}
        for prow in pivots.values():
            if piv in prow:
                add_terms(prow, row.items(), -prow[piv])
        pivots[piv] = row
    return pivots


def _col_key(col):
    return (repr(type(col)), repr(col))


def rank(rows: Iterable[dict]) -> int:
    return len(rref(rows))


def nullspace(rows: Iterable[dict], columns: list) -> list[dict]:
    """Basis of the solution space of ``rows * x = 0`` over ``columns``."""
    pivots = rref(rows)
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
