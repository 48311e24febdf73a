"""Oracle for the ``nichols`` datum path.

Below is a verbatim copy of the datum path written on ``RootOfUnity``
objects: ``DiagonalDatum.make`` over ``root_from_json``, then
``braiding_matrix``, ``lemma41_case``, ``supplementary_type`` and
``prop42_case``, and the entry they fill.  ``cli._nichols_entry`` must give
the same entry, or refuse with the same message, on every datum of the
corpus batches, of a bounded sweep and of the other scalar forms.  The sweep
writes each root at its own order, at a multiple of it and with exponents
below 0 and at least L, so it also checks that the verdicts do not depend on
the conductor a root is written at.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Union

from gkhopf import heckenberger
from gkhopf.cli import InputError, _nichols_entry
from gkhopf.heckenberger import NicholsVerdict, _lemma41_matches
from gkhopf.presentations import _conductor_from_json, int_from_json, scalar_from_json
from gkhopf.scalars import Cyclo, RootOfUnity

import cli_corpus

# ---------------------------------------------------------------------------
# the datum path on RootOfUnity objects, kept verbatim
# ---------------------------------------------------------------------------

RootLike = Union[RootOfUnity, Cyclo]


def _root(z: RootLike) -> RootOfUnity:
    if isinstance(z, RootOfUnity):
        return z
    return RootOfUnity.from_cyclo(z)  # raises for non-roots


@dataclass(frozen=True)
class BraidingMatrix:
    q11: RootOfUnity
    q12: RootOfUnity
    q21: RootOfUnity
    q22: RootOfUnity


@dataclass(frozen=True)
class DiagonalDatum:
    n1: int
    n2: int
    q1: RootOfUnity
    q2: RootOfUnity

    @staticmethod
    def make(n1: int, n2: int, q1: RootLike, q2: RootLike) -> "DiagonalDatum":
        if n1 < 1 or n2 < 1:
            raise ValueError("exponents must be positive")
        return DiagonalDatum(n1, n2, _root(q1), _root(q2))

    def braiding_matrix(self) -> BraidingMatrix:
        return BraidingMatrix(self.q1 ** self.n1, self.q2 ** self.n1,
                              self.q1 ** self.n2, self.q2 ** self.n2)


def root_from_json(obj) -> RootOfUnity:
    if isinstance(obj, dict) and "k" in obj and "poly" not in obj:
        return RootOfUnity(_conductor_from_json(obj), int_from_json("k", obj["k"]))
    return RootOfUnity.from_cyclo(scalar_from_json(obj))


def lemma41_case(q: BraidingMatrix) -> NicholsVerdict:
    q11, q12, q21, q22 = q.q11, q.q12, q.q21, q.q22
    N = math.lcm(2, q11.order, q12.order, q21.order, q22.order)
    a = q11.exponent * (N // q11.order)
    r = (q12.exponent * (N // q12.order) + q21.exponent * (N // q21.order)) % N
    d = q22.exponent * (N // q22.order)
    matches = _lemma41_matches(N, a, r, d)
    if matches:
        return NicholsVerdict(matches[0], False, tuple(matches))
    matches = _lemma41_matches(N, d, r, a)
    if matches:
        return NicholsVerdict(matches[0], True, tuple(matches))
    return NicholsVerdict("none", False, ())


def _prop42_hypotheses(d: DiagonalDatum, epsilon: int) -> bool:
    if epsilon < 1 or math.gcd(d.n1, d.n2) != 1:
        return False
    p1 = d.n2 * epsilon
    p2 = d.n1 * epsilon
    return (d.q1.order == p1 and (d.q1 ** d.n1).order == p1
            and d.q2.order == p2 and (d.q2 ** d.n2).order == p2)


def _prop42_match(n1: int, n2: int, q1: RootOfUnity, q2: RootOfUnity, epsilon: int) -> str:
    if ((q2 ** n1) * (q1 ** n2)).is_one():
        return "I"
    if n1 == 1 and n2 == 1 and q1.order == 3 and q2.order == 3:
        return "II"
    if n1 == 1 and n2 == 1 and q1.order == 5 and q2.order == 5:
        return "III"
    if (n1, n2) == (1, 2) and epsilon == 5 \
            and (q1 ** 4 * q2).is_one() and (q1 ** 2 * q2 ** 3).is_one():
        return "IV"
    if n1 == 1 and n2 == 1 and epsilon == 7 and q1.order == 7 and q2.order == 7 \
            and (q1 * q2 ** 2).is_one() and (q1 ** 4 * q2).is_one():
        return "V"
    if (n1, n2) == (1, 3) and epsilon == 7 \
            and (q1 ** 3 * q2 ** 4).is_one() and (q1 ** 6 * q2).is_one():
        return "VI"
    return "none"


def prop42_case(d: DiagonalDatum, epsilon: int) -> str:
    if not _prop42_hypotheses(d, epsilon):
        return "hypotheses-violated"
    hit = _prop42_match(d.n1, d.n2, d.q1, d.q2, epsilon)
    if hit != "none":
        return hit
    return _prop42_match(d.n2, d.n1, d.q2, d.q1, epsilon)


def _supplementary_match(n1: int, n2: int, q1: RootOfUnity, q2: RootOfUnity) -> str:
    if (n1, n2) == (1, 1) and q1.order == 5 and q2.order == 5 and q2 == q1 ** 2:
        return "N5"
    if (n1, n2) == (1, 1) and q1.order == 7 and q2.order == 7 and q2 == q1 ** 3:
        return "N7"
    if (n1, n2) == (1, 2) and q1.order == 10 and q2.order == 5 and q2 == q1 ** 6:
        return "N10"
    if (n1, n2) == (1, 3) and q1.order == 21 and q2.order == 7 and q2 == q1 ** 15:
        return "N21"
    return "none"


def supplementary_type(d: DiagonalDatum) -> str:
    hit = _supplementary_match(d.n1, d.n2, d.q1, d.q2)
    if hit != "none":
        return hit
    return _supplementary_match(d.n2, d.n1, d.q2, d.q1)


def _oracle_entry(obj) -> dict:
    try:
        datum = DiagonalDatum.make(int_from_json("n1", obj["n1"]), int_from_json("n2", obj["n2"]),
                                   root_from_json(obj["q1"]), root_from_json(obj["q2"]))
        epsilon = int_from_json("epsilon", obj["epsilon"]) if "epsilon" in obj else None
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"bad diagonal datum {obj!r}: {exc}") from exc
    verdict = lemma41_case(datum.braiding_matrix())
    supplementary = supplementary_type(datum)
    entry = {
        "lemma41_case": verdict.case_label,
        "lemma41_permuted": verdict.permutation_applied,
        "lemma41_all_matches": list(verdict.all_matches),
        "supplementary": supplementary,
        "remark43_finite": supplementary != "none",
    }
    if epsilon is not None:
        entry["prop42_case"] = prop42_case(datum, epsilon)
    return entry


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _outcome(entry, obj):
    try:
        return entry(obj)
    except InputError as exc:
        return ("refused", str(exc))


def _mismatches(data) -> list:
    return [obj for obj in data
            if _outcome(lambda o: _nichols_entry(heckenberger, o), obj) != _outcome(_oracle_entry, obj)]


def test_entry_matches_oracle_on_corpus_batches():
    data = [*cli_corpus.NICHOLS["data"], *cli_corpus.NICHOLS_FORMS["data"],
            *cli_corpus.MALFORMED_NICHOLS.values()]
    assert _mismatches(data) == []


def _written(rng: random.Random, L: int, k: int) -> dict:
    """zeta_L^k as a JSON root: at L or at a multiple of L, with the
    exponent moved below 0 or to at least the conductor half the time."""
    m = rng.choice((1, 1, 2, 3))
    if L * m <= 60:
        L, k = L * m, k * m
    return {"L": L, "k": k + L * rng.choice((-2, -1, 0, 0, 1, 2))}


def _sweep() -> list:
    """Every pair of conductors L1, L2 <= 30 and every n1, n2 <= 4 once,
    with random exponents and epsilon in 0..9; then every pair of roots of one
    order <= 30, which holds the pattern relations q2 = q1^e, with random
    n1, n2 <= 4 and an epsilon that meets the order part of Prop 4.2's
    hypotheses when one does; then every datum with coprime n1, n2 <= 4 and
    roots of the orders n2 * epsilon and n1 * epsilon <= 30 that the
    hypotheses name."""
    rng = random.Random(31)
    data = []
    for L1 in range(1, 31):
        for L2 in range(1, 31):
            for n1 in range(1, 5):
                for n2 in range(1, 5):
                    data.append({"n1": n1, "n2": n2,
                                 "q1": {"L": L1, "k": rng.randrange(-L1 - 2, 2 * L1 + 2)},
                                 "q2": {"L": L2, "k": rng.randrange(-L2 - 2, 2 * L2 + 2)},
                                 "epsilon": rng.randrange(10)})
    for L in range(1, 31):
        for k1 in range(L):
            for k2 in range(L):
                n1, n2 = rng.choice(((1, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1))) \
                    if rng.random() < 0.75 else (rng.randint(1, 4), rng.randint(1, 4))
                o1 = L // math.gcd(k1, L)
                epsilon = o1 // n2 if o1 % n2 == 0 and rng.random() < 0.8 else rng.randrange(10)
                datum = {"n1": n1, "n2": n2, "q1": _written(rng, L, k1), "q2": _written(rng, L, k2)}
                if epsilon < 10:
                    datum["epsilon"] = epsilon
                data.append(datum)
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            for epsilon in range(1, 10):
                p1, p2 = n2 * epsilon, n1 * epsilon
                if math.gcd(n1, n2) != 1 or max(p1, p2) > 30:
                    continue
                for k1 in range(p1):
                    for k2 in range(p2):
                        if math.gcd(k1, p1) == 1 and math.gcd(k2, p2) == 1:
                            data.append({"n1": n1, "n2": n2, "q1": _written(rng, p1, k1),
                                         "q2": _written(rng, p2, k2), "epsilon": epsilon})
    return data


def test_entry_matches_oracle_on_bounded_sweep():
    data = _sweep()
    assert _mismatches(data) == []
    entries = [_oracle_entry(obj) for obj in data]
    # the sweep reaches every verdict the tables give
    assert {e["supplementary"] for e in entries} == {"none", "N5", "N7", "N10", "N21"}
    assert {e["prop42_case"] for e in entries if "prop42_case" in e} \
        == {"I", "II", "III", "IV", "V", "VI", "none", "hypotheses-violated"}
    assert len({e["lemma41_case"] for e in entries}) >= 20
    assert any(e["lemma41_permuted"] for e in entries)


ROOT_FORMS = [1, -1, "-1", "1", [-1, 1], [1, 1], [2, -2], {"L": 5, "poly": [[0, 1], [1, 1]]},
              {"L": 3, "poly": [[-1, 1], [-1, 1]]}, {"L": 4, "poly": [[0, 1], [1, 1]], "k": 3},
              {"L": 10, "k": 2}, {"L": 5, "k": 1}, {"L": 5, "k": -4}, {"L": 5, "k": 11},
              {"L": 256, "k": 10 ** 30 + 1}, {"L": 1, "k": 7}]
REFUSED_ROOTS = [2, 0, "2", "1/2", "1e0", [1, 2], [1, 0], {"L": 5, "poly": [[2, 1]]},
                 {"L": 5, "poly": 5}, {"L": 5}, {"k": 1}, {"L": 0, "k": 1}, {"L": 257, "k": 1},
                 {"L": True, "k": 1}, {"L": 5, "k": 1.0}, {"L": 5, "k": "1"}, {"L": 5, "k": None},
                 None, 1.5, True]


def _other_forms() -> list:
    data = []
    for q1 in ROOT_FORMS + REFUSED_ROOTS:
        for q2 in ROOT_FORMS:
            for n1, n2 in ((1, 1), (1, 2), (2, 1), (3, 1)):
                data.append({"n1": n1, "n2": n2, "q1": q1, "q2": q2, "epsilon": 5})
                data.append({"n1": n1, "n2": n2, "q1": q2, "q2": q1})
    n5 = {"n1": 1, "n2": 1, "q1": {"L": 5, "k": 1}, "q2": {"L": 5, "k": 2}}
    for field in ("n1", "n2", "epsilon"):
        for value in (0, -1, True, 1.0, "1", None, 10 ** 20 + 1, -(10 ** 20)):
            data.append(dict(n5, **{field: value}))
    for field in ("n1", "n2", "q1", "q2"):
        data.append({key: value for key, value in n5.items() if key != field})
    # several faults in one datum: the message names the one read first
    data += [dict(n5, n1=0, q1=2), dict(n5, n1=0, epsilon=True), dict(n5, q1={"L": 5}, n2=1.5),
             dict(n5, q1=2, q2={"L": 0, "k": 1}), dict(n5, n2=0, q2="x"),
             5, "n1", [1, 2], None, {}]
    return data


def test_entry_matches_oracle_on_other_scalar_forms():
    data = _other_forms()
    assert _mismatches(data) == []
    outcomes = [_outcome(_oracle_entry, obj) for obj in data]
    assert any(isinstance(o, tuple) for o in outcomes) and any(isinstance(o, dict) for o in outcomes)


def test_exponent_roots_build_no_root_of_unity(monkeypatch):
    """A datum of {"L","k"} roots goes from JSON to its verdicts on integers."""
    data = cli_corpus.NICHOLS["data"] + _sweep()[:2000]
    expected = [_oracle_entry(obj) for obj in data]

    def refuse(*args):
        raise AssertionError("a RootOfUnity was built")

    monkeypatch.setattr(RootOfUnity, "__init__", refuse)
    assert [_nichols_entry(heckenberger, obj) for obj in data] == expected
