"""The golden CLI corpus: argument lists with the exit code and the sha256 of
stdout and stderr each one gives.

``tests/test_cli_corpus.py`` replays every entry of ``cli_corpus.json`` in
process and compares.  ``--check`` does the same replay with no pytest and
no assert statement, so it also runs under ``python -O``; it prints how many
entries match and exits 1 naming each entry that differs:

    PYTHONPATH=src python3 -O tests/cli_corpus.py --check

A change that alters a report on purpose regenerates the table in the same
commit and names every changed entry:

    PYTHONPATH=src python3 tests/cli_corpus.py

Every command runs in a directory that holds the input files under the
names below, and names them relatively, so an error line that quotes a file
name is the same wherever the corpus runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from gkhopf.cli import main

TABLE = Path(__file__).resolve().parent / "cli_corpus.json"

K22 = {"family": "K", "s": 2, "M": 2, "n": [1, 1], "p": [2, 2],
       "q": [{"L": 2, "k": 1}, {"L": 2, "k": 1}], "alpha": [0, 1]}
B23 = {"family": "B", "n": 1, "p": [2, 3], "q": {"L": 6, "k": 1}, "alpha": [0, 1]}
A25 = {"family": "A", "n": 2, "q": {"L": 5, "k": 1}}
ZETA_255 = {"L": 255, "k": 1}

PRESENTATIONS = {
    "b23": B23,
    "b25": {"family": "B", "n": 1, "p": [2, 5], "q": {"L": 10, "k": 3}, "alpha": [0, 2]},
    "b34": {"family": "B", "n": 1, "p": [3, 4], "q": {"L": 12, "k": 5}, "alpha": [0, 1]},
    "b235": {"family": "B", "n": 1, "p": [2, 3, 5], "q": {"L": 30, "k": 7}, "alpha": [0, 1, 2]},
    "k22": K22,
    "k11": dict(K22, n=[2, 2], p=[1, 1], q=[1, 1]),
    "k523": {"family": "K", "M": 30, "n": [6, 15, 10], "p": [5, 2, 3],
             "q": [{"L": 5, "k": 1}, {"L": 2, "k": 1}, {"L": 3, "k": 1}], "alpha": [0, 1, 2]},
    "a25": A25,
    "c3": {"family": "C", "n": 3},
    "k22z": dict(K22, alpha=[0, ZETA_255]),
    "b23z": dict(B23, alpha=[0, ZETA_255]),
}

NICHOLS = {"data": [
    {"n1": n1, "n2": n2, "q1": {"L": L, "k": k1}, "q2": {"L": L, "k": k2}, **extra}
    for L, n1, n2, k1, k2, extra in (
        (5, 1, 1, 1, 2, {}), (5, 1, 1, 1, 4, {"epsilon": 5}), (7, 1, 2, 1, 3, {}),
        (10, 1, 1, 3, 7, {"epsilon": 2}), (21, 2, 1, 4, 5, {}), (3, 1, 1, 1, 1, {"epsilon": 3}),
        (12, 3, 2, 5, 7, {}), (30, 1, 1, 7, 11, {"epsilon": 1}), (2, 1, 1, 1, 1, {}),
        (1, 1, 1, 0, 0, {}),
    )]}

# documents refused as input (exit 2): integer fields that are no JSON
# integer, scalar coefficient lists that are no list of [num, den] pairs,
# parameter lists of unequal length, and a zero q
MALFORMED = {
    "b23-float-n": dict(B23, n=1.9),
    "b23-bool-n": dict(B23, n=True),
    "b23-bool-alpha": dict(B23, alpha=[0, True]),
    "a25-poly-triple": dict(A25, q={"L": 3, "poly": [[1, 2, 3]]}),
    "a25-poly-int": dict(A25, q={"L": 3, "poly": 5}),
    "a25-poly-bare-entry": dict(A25, q={"L": 3, "poly": [7]}),
    "a25-poly-short-entry": dict(A25, q={"L": 3, "poly": [[1, 2], [3]]}),
    "a25-poly-object": dict(A25, q={"L": 3, "poly": {"a": 1}}),
    "k22-short-q": dict(K22, q=K22["q"][:1]),
    "k22-s-not-p": dict(K22, s=3),
    "b23-short-alpha": dict(B23, alpha=[0]),
    "a25-zero-q": dict(A25, q=0),
    # a string or an object in place of a list: iterating it would read B23's
    # alpha and K22's q
    "b23-string-alpha": dict(B23, alpha="01"),
    "k22-object-q": dict(K22, q={"-1": 0, "-1/1": 0}),
}

# expressions for every presentation, by the names of its generators
_NF_XY = ["y1*y2", "y2*y1", "y2^2*y2", "x^-3*y1 + zeta(6,1)*(x^6 - 1)", "(x + y1)^5",
          "x^-2*y2*x^3*y1", "(x^-1*y1 - 2)*(y1 + 1/3)", "(zeta(15,2) + 1)^3*x^-4",
          "zeta(4,1)^-3*y1^3*x^-7", "(x^-5*y1*y2)^2"]
_NF_A = ["y*x", "x^-3*y^4*x^2", "(x + y)^6", "zeta(5,2)^-2*(x^-1*y - y*x^-1)^3"]
_NF_C = ["x*y", "x*y^-2", "y^-1*x + 2", "(x + y)^4", "x^3*y^-2"]

# (file, expression, the least budget it passes at): each runs one step below
# that budget, where it trips, and at it; a least budget of 0 runs at 0 only
BUDGET_CASES = [
    ("b23", "y1*y2*x^5", 0), ("b23", "x^-2*y1*x^3", 0), ("k22", "x^-3*y2*y2", 1),
    ("k523", "x^-40*y1*y1*y1*y1*y1", 1), ("k523", "x^-20*y1^4*x^-3*y1^2", 3),
    ("a25", "y*x", 0), ("c3", "x*y^3", 4), ("c3", "x*y^-2", 4), ("b235", "(x^-1*y3)^3", 0),
    ("b235", "x^-9*y3^4*y3^3", 1),
]


def commands() -> list[list[str]]:
    """Every argument list of the corpus, in table order."""
    out = []
    for name, doc in PRESENTATIONS.items():
        path = f"{name}.json"
        out.append(["validate", path])
        out.append(["pbw-check", path])
        out.append(["ext1", path])
        out.append(["classify", path])
        out.append(["hopf-check", path, "--cap", "3", "--window", "4"])
        out.append(["zerodiv", path, "--cap", "3"])
        for w in range(-6, 7):
            out.append(["primitives", path, "--weight", str(w), "--cap", "4", "--window", "8"])
        texts = {"A": _NF_A, "C": _NF_C}.get(doc["family"], _NF_XY)
        for text in texts:
            out.append(["nf", path, text])
    for a in PRESENTATIONS:
        for b in PRESENTATIONS:
            out.append(["iso", f"{a}.json", f"{b}.json"])
    out.append(["nichols", "nichols.json"])
    out.append(["--budget", "0", "nf", "k22.json", "y2*y2"])
    for name, text, least in BUDGET_CASES:
        for budget in range(max(least - 1, 0), least + 1):
            out.append(["--budget", str(budget), "nf", f"{name}.json", text])
    for name in MALFORMED:
        out.append(["validate", f"{name}.json"])
    out.append(["zerodiv", "c3.json", "--cap", "64"])  # a candidate pool above WINDOW_LIMIT
    # weights on the edge of the window, where x^{+-8} - 1 is the ansatz's
    # outermost group element, and one just past it
    for name in PRESENTATIONS:
        for w in ("-8", "8"):
            out.append(["primitives", f"{name}.json", "--weight", w, "--cap", "4", "--window", "8"])
    out.append(["primitives", "b23.json", "--weight", "9", "--cap", "4", "--window", "8"])
    return out


def write_inputs(directory: Path) -> None:
    for name, doc in {**PRESENTATIONS, **MALFORMED}.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    (directory / "nichols.json").write_text(json.dumps(NICHOLS))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> dict:
    """One table entry: run ``main(argv)`` in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def run_all(directory: Path) -> list[dict]:
    """Every entry, run in ``directory`` after the input files are written there."""
    write_inputs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [run(argv) for argv in commands()]
    finally:
        os.chdir(cwd)


def _check() -> int:
    """Replay the table; print how many entries match, and return 1 naming
    each entry that differs."""
    want = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        got = run_all(Path(tmp))
    if len(got) != len(want):
        print(f"{len(got)} entries replayed, {len(want)} in the table")
        return 1
    differ = [" ".join(w["argv"]) for g, w in zip(got, want) if g != w]
    print(f"{len(got) - len(differ)} of {len(got)} entries match")
    for argv in differ:
        print(f"differs: {argv}")
    return 1 if differ else 0


def _main() -> int:
    """Rewrite the table, and print each entry that is new, gone, or whose
    exit code or digests changed, with its old and new exit code."""
    old = {tuple(e["argv"]): e for e in json.loads(TABLE.read_text())} if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        entries = run_all(Path(tmp))
    for e in entries:
        before = old.pop(tuple(e["argv"]), None)
        if before != e:
            print(f"{' '.join(e['argv'])}: exit {before['exit'] if before else 'new'} -> {e['exit']}")
    for argv, e in old.items():
        print(f"{' '.join(argv)}: exit {e['exit']} -> gone")
    TABLE.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {TABLE}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite or check the golden CLI corpus table.")
    parser.add_argument("--check", action="store_true",
                        help="replay the table and exit 1 if an entry differs, instead of rewriting it")
    sys.exit(_check() if parser.parse_args().check else _main())
