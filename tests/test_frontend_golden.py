"""Frontend goldens (tests/data/ir/frontend_*.json).

* Every corpus program and litmus test lowers to the recorded IR, byte
  for byte (sha256 of ``format_program``), with manual fences off and
  on.
* Each source with one token deleted (every ``STRIDE``-th token, one
  mutant each) gives the recorded outcome: the same IR digest, or the
  same error class and message.

Regenerate with ``PYTHONPATH=src python tools/gen_frontend_goldens.py``.
"""

import json
from pathlib import Path

import pytest

from _frontend_golden import (
    STRIDE,
    ir_digest,
    mutant_outcome,
    render_without,
    sources,
)
from repro.frontend import tokenize

DATA = Path(__file__).parent / "data" / "ir"
DIGESTS = json.loads((DATA / "frontend_digests.json").read_text())["programs"]
MUTANTS = json.loads((DATA / "frontend_mutants.json").read_text())
SOURCES = sources()


def test_goldens_cover_every_source():
    assert set(DIGESTS) == set(SOURCES)
    assert set(MUTANTS["programs"]) == set(SOURCES)
    assert MUTANTS["stride"] == STRIDE


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_ir_matches_the_recorded_digest(key):
    name, source = SOURCES[key]
    assert {
        "plain": ir_digest(source, name, False),
        "manual_fences": ir_digest(source, name, True),
    } == DIGESTS[key]


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_token_deletion_mutants_match_the_recorded_outcomes(key):
    name, source = SOURCES[key]
    tokens = tokenize(source)
    expected = MUTANTS["programs"][key]
    assert sorted(expected, key=int) == [
        str(i) for i in range(STRIDE - 1, len(tokens) - 1, STRIDE)
    ]
    for i, outcome in expected.items():
        assert mutant_outcome(render_without(tokens, int(i)), name) == outcome, i
