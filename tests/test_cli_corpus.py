"""The command line reproduces its golden corpus byte for byte."""

import json
import random

from cli_corpus import GOLDEN, changed, record, render
from generators import random_probability_row


def test_cli_matches_the_golden_corpus(tmp_path):
    text = GOLDEN.read_text(encoding="utf-8")
    doc = record(tmp_path)
    assert changed(json.loads(text), doc) == []
    assert render(doc) == text


def test_probability_rows_are_the_same_on_every_interpreter():
    # The corpus's networks are built from these rows.  A compensated total,
    # such as the built-in sum's from Python 3.12 on, rounds every entry of
    # this row differently.
    assert random_probability_row(random.Random(0), 6) == (
        0.26385844962464783,
        0.2368717247305445,
        0.1315736321733139,
        0.0811207217320738,
        0.15988232799801808,
        0.12669314374140184,
    )
