"""``cli.encode_report`` against its oracle, ``json.dumps(v, sort_keys=True,
indent=2)``: on the report of every golden-corpus entry (plus two with
``--timing``, whose report holds a float), on drawn nested JSON values, on
the edge values of ``cli_corpus.py --check``, and on values that only
``json.dumps`` covers or refuses."""

import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkhopf import cli
from gkhopf.cli import encode_report

import cli_corpus
from cli_corpus import EDGE_NUMBERS, EDGE_STRINGS, first_encoder_mismatch, run_all


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def test_encoder_matches_json_dumps_on_every_corpus_report(tmp_path, monkeypatch):
    reports = []

    def recording(report):
        reports.append(report)
        return encode_report(report)

    monkeypatch.setattr(cli, "encode_report", recording)
    entries = run_all(tmp_path)
    assert len(reports) == sum(entry["exit"] in (0, 1) for entry in entries)
    monkeypatch.chdir(tmp_path)
    for argv in (["nichols", "nichols.json"], ["validate", "b23.json"]):
        assert cli.main(["--timing", *argv]) == 0
        assert type(reports[-1]["timing_ms"]) is float
    assert {report["command"] for report in reports} == {
        "validate", "nf", "pbw-check", "hopf-check", "primitives", "ext1", "classify", "iso",
        "nichols", "zerodiv"}
    for report in reports:
        assert encode_report(report) == dumps(report)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.sampled_from(EDGE_STRINGS), st.sampled_from(EDGE_NUMBERS))


def _containers(children):
    keys = st.one_of(st.text(max_size=6), st.sampled_from(EDGE_STRINGS))
    return st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(keys, children, max_size=4))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=24))
def test_encoder_matches_json_dumps_on_drawn_values(value):
    assert encode_report(value) == dumps(value)


def test_encoder_matches_json_dumps_on_the_edge_values_of_the_corpus_check():
    assert first_encoder_mismatch() is None


def test_corpus_check_names_the_first_edge_value_the_encoder_gets_wrong(monkeypatch, capsys):
    monkeypatch.setattr(cli_corpus, "encode_report", lambda v: dumps(v).replace("-0.0", "0.0"))
    assert cli_corpus._check() == 1
    assert capsys.readouterr().out == "encode_report differs from json.dumps on -0.0\n"


class _Label(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


@pytest.mark.parametrize("value", [
    {1: "a", 2: "b"}, {None: 1}, {True: 0}, {2.5: 0}, [{"a": {3: [4]}}],
    _Label.ONE, {"k": _Text("v")}, {_Text("k"): 1}, [1.5, math.inf],
], ids=repr)
def test_encoder_gives_json_dumps_text_where_only_json_dumps_covers_the_value(value):
    assert encode_report(value) == dumps(value)


@pytest.mark.parametrize("value", [
    {1: 0, "a": 1}, {"a": object()}, [1, {2, 3}], {"verdicts": [b"bytes"]},
], ids=repr)
def test_encoder_raises_where_json_dumps_raises(value):
    with pytest.raises(TypeError) as want:
        dumps(value)
    with pytest.raises(TypeError) as got:
        encode_report(value)
    assert str(got.value) == str(want.value)
