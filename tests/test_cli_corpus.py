"""The command line reproduces its golden corpus byte for byte."""

import json

from cli_corpus import GOLDEN, changed, record, render


def test_cli_matches_the_golden_corpus(tmp_path):
    text = GOLDEN.read_text(encoding="utf-8")
    doc = record(tmp_path)
    assert changed(json.loads(text), doc) == []
    assert render(doc) == text
