"""Replay of the golden CLI corpus (see ``cli_corpus.py``): every command
must give the exit code and the stdout and stderr digests of its entry."""

import json

from cli_corpus import TABLE, commands, run_all


def test_cli_corpus_matches_the_table(tmp_path):
    want = json.loads(TABLE.read_text())
    assert [entry["argv"] for entry in want] == commands()
    got = run_all(tmp_path)
    assert [g["argv"] for g, w in zip(got, want) if g != w] == []
