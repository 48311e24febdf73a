"""A fixed computation that times the machine rather than the program.

A shared virtual machine changes speed by up to 1.9x, on both vCPUs at once,
for anything from a fraction of a second to minutes (a 2-vCPU x86_64
guest), so a whole run can fall into a slow phase.  The benchmark runs
``reference()`` before the first task and after every task, and scales each
task's latency by ``REFERENCE_S`` over the reference time around it: the
result is the latency at the speed at which the reference takes
``REFERENCE_S``.  The reference uses only the standard library, with the
same kinds of work as ``gkhopf`` (``Fraction`` arithmetic, dicts keyed by
tuples, row elimination), so a change to ``gkhopf`` never moves it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the time ``reference()`` takes on a 2-vCPU x86_64 guest at full
# speed under CPython 3.11; a constant, so scaled times compare across runs
# and commits.
REFERENCE_S = 0.005

_N = 13


def reference() -> tuple[int, int]:
    """Six products of two Fraction polynomials modulo x^13 - 1, then the
    row echelon form of an 8 x 9 Fraction matrix."""
    a = {(i,): Fraction(i + 1, 7 + i % 3) for i in range(_N)}
    b = {(i,): Fraction(2 * i - 5, 3 + i % 4) for i in range(_N)}
    for _ in range(6):
        c: dict[tuple[int], Fraction] = {}
        for (i,), x in a.items():
            for (j,), y in b.items():
                k = ((i + j) % _N,)
                c[k] = c.get(k, 0) + x * y
        a = {k: v / 97 for k, v in c.items() if v}
    rows = [[Fraction((r * 7 + c * 3) % 11 - 5, 1 + (r + c) % 3) for c in range(9)]
            for r in range(8)]
    rank = 0
    for col in range(9):
        pivot = next((r for r in range(rank, 8) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(8):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return len(a), rank


def time_reference() -> float:
    """Seconds one ``reference()`` takes.  The garbage collector is off
    meanwhile, so the reference never pays for the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_speed(refs: list[float]) -> list[float]:
    """Given the reference times taken before the first task and after each
    task, the factor that scales each task's latency to the reference speed:
    ``REFERENCE_S`` over the mean of the reference times just before and
    just after it.  A mean, not a median, because a task takes the machine's
    average speed over its run, and the machine flips between fast and slow
    in well under a second."""
    return [2 * REFERENCE_S / (before + after) for before, after in zip(refs, refs[1:])]
