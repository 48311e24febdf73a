"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The smoke runs start ``run.py`` once per workload, each in its own process,
and take about a minute in all.
"""

from __future__ import annotations

import gc
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import REFERENCE_S, local_speed, reference, time_reference  # noqa: E402
from spans import Tracer, max_block_cols  # noqa: E402
from workloads import WORKLOADS, supplementary_oracle, write_files  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_and_units():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic(name, tmp_path):
    workload = WORKLOADS[name]
    first, again = workload.inputs(7), workload.inputs(7)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(workload.inputs(8))
    if "file" in first[0]:
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        write_files(first, tmp_path / "a")
        write_files(again, tmp_path / "b")
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for f in files:
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_self_time_on_a_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(d):
        now[0] += d

    leaf = tracer.wrap("leaf", advance)

    def mid_body():
        advance(1)
        leaf(2)
        advance(3)
        leaf(4)

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        advance(5)
        mid()
        leaf(1)
        advance(0.5)

    tracer.task = 9
    tracer.wrap("root", root_body)()
    assert tracer.stats["leaf"] == [3, 7.0, 7.0]
    assert tracer.stats["mid"] == [1, 10.0, 4.0]
    assert tracer.stats["root"] == [1, 16.5, 5.5]
    spans = [tuple(tracer.spans[i:i + 6]) for i in range(0, len(tracer.spans), 6)]
    by_id = {int(s[0]): s for s in spans}
    names = tracer.names
    assert [names[int(s[1])] for s in spans] == ["leaf", "leaf", "mid", "leaf", "root"]
    root_id = next(i for i, s in by_id.items() if names[int(s[1])] == "root")
    mid_id = next(i for i, s in by_id.items() if names[int(s[1])] == "mid")
    assert by_id[root_id][4] == -1 and by_id[mid_id][4] == root_id
    assert [int(s[4]) for s in spans if names[int(s[1])] == "leaf"] == [mid_id, mid_id, root_id]
    assert all(s[5] == 9 for s in spans)
    assert by_id[mid_id][2:4] == (5.0, 15.0)


def test_block_union_find_on_a_hand_made_system():
    rows = [{"a": 1, "b": 1}, {"b": 1}, {"c": 1}, {"d": 1, "e": 1}, {"e": 1, "f": 1}, {}]
    assert max_block_cols(rows) == 3
    # a later row joins two earlier blocks
    assert max_block_cols([{1: 1, 2: 1}, {3: 1, 4: 1}, {2: 1, 3: 1}, {9: 1}]) == 4
    assert max_block_cols([]) == 0


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    from gkhopf import _linalg
    from gkhopf.scalars import Cyclo

    return _linalg, Cyclo


def test_traced_linalg_gets_one_shot_iterables_intact():
    _linalg, Cyclo = _import_program()
    one, two = Cyclo.one(), Cyclo.from_rational(2)
    rows = [{0: one, 1: two}, {1: one}, {2: one, 3: one}]
    expected = _linalg.nullspace(list(rows), [0, 1, 2, 3, 4])
    original = _linalg.nullspace
    tracer = Tracer()
    tracer.install()
    try:
        got = _linalg.nullspace((r for r in rows), [0, 1, 2, 3, 4])
    finally:
        tracer.uninstall()
    assert _linalg.nullspace is original
    assert got == expected
    assert tracer.counters["rows"] == 3 and tracer.counters["nnz"] == 5
    assert tracer.counters["max_block_cols"] == 2
    assert tracer.stats["linalg.nullspace"][0] == 1 and tracer.stats["linalg.rref"][0] == 1


def test_reference_scaling():
    assert reference() == reference()
    gc.disable()
    try:
        assert time_reference() > 0 and not gc.isenabled()
    finally:
        gc.enable()
    assert time_reference() > 0 and gc.isenabled()
    # three tasks: at full speed, then two while the machine slows down
    assert local_speed([REFERENCE_S, REFERENCE_S, 5 * REFERENCE_S, 3 * REFERENCE_S]) \
        == pytest.approx([1.0, 1 / 3, 1 / 4])


def test_supplementary_oracle():
    def datum(n1, n2, L1, k1, L2, k2):
        return {"n1": n1, "n2": n2, "q1": {"L": L1, "k": k1}, "q2": {"L": L2, "k": k2}}

    assert supplementary_oracle(datum(1, 1, 5, 1, 5, 2)) == "N5"
    assert supplementary_oracle(datum(1, 1, 5, 1, 5, 4)) == "none"
    assert supplementary_oracle(datum(2, 1, 5, 3, 10, 1)) == "N10"   # swapped orientation
    assert supplementary_oracle(datum(1, 3, 21, 2, 7, 3)) == "N21"
    assert supplementary_oracle(datum(1, 1, 7, 2, 7, 6)) == "N7"
    assert supplementary_oracle(datum(1, 2, 10, 1, 5, 4)) == "none"


def _run(name: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name):
    result = _run(name, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    traced = _run(name, 1)
    assert traced["correct"] and traced["failed"] == 0
    metrics = traced["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    linalg = metrics["linalg.rref.calls"]["value"]
    if name == "primitive-scan":
        assert linalg > 0 and metrics["linalg.max_block_cols"]["value"] >= 1
    elif name in ("confluence-grid", "nichols-batch"):
        assert linalg == 0 and metrics["linalg.nullspace.calls"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nichols-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
