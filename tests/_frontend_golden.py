"""What the frontend golden files under ``tests/data/ir/`` record.

Shared by ``tests/test_frontend_golden.py`` and the generator
(``python tools/gen_frontend_goldens.py``):

* ``frontend_digests.json`` — the sha256 of ``format_program`` for every
  corpus program and litmus test, compiled with manual fences off and
  on;
* ``frontend_mutants.json`` — for each of those sources, one mutant per
  ``STRIDE``-th token with that token deleted, and what compiling it
  (manual fences on) gives: the IR digest, or the error class and its
  exact message.

Mutants are rebuilt from the token list (``tokenize`` output), one
space between tokens and the original line breaks, so their error
messages carry the original line numbers.
"""

from __future__ import annotations

import hashlib

from repro.frontend import compile_source, tokenize
from repro.frontend.lexer import Token
from repro.ir.printer import format_program
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import all_programs

#: Every ``STRIDE``-th token of a source is deleted, one mutant each.
STRIDE = 41


def sources() -> dict[str, tuple[str, str]]:
    """``key -> (program name, source)`` for the corpus and litmus suite."""
    out = {f"corpus/{name}": (name, p.source) for name, p in sorted(all_programs().items())}
    out.update(
        (f"litmus/{name}", (name, t.source)) for name, t in sorted(LITMUS_TESTS.items())
    )
    return out


def ir_digest(source: str, name: str, manual_fences: bool) -> str:
    program = compile_source(source, name, include_manual_fences=manual_fences)
    return hashlib.sha256(format_program(program).encode("utf-8")).hexdigest()


def ir_digests() -> dict[str, dict[str, str]]:
    return {
        key: {
            "plain": ir_digest(source, name, False),
            "manual_fences": ir_digest(source, name, True),
        }
        for key, (name, source) in sources().items()
    }


def render_without(tokens: list[Token], skip: int) -> str:
    """The source of ``tokens`` rebuilt, token ``skip`` left out."""
    parts: list[str] = []
    line = 1
    for i, tok in enumerate(tokens):
        if tok.kind == "eof":
            break
        if tok.line > line:
            parts.append("\n" * (tok.line - line))
            line = tok.line
        if i != skip:
            parts.append(f'"{tok.text}" ' if tok.kind == "str" else tok.text + " ")
    return "".join(parts)


def mutant_outcome(source: str, name: str) -> dict[str, str]:
    try:
        return {"ir": ir_digest(source, name, True)}
    except Exception as exc:  # the class and message are the record
        return {"error": type(exc).__name__, "message": str(exc)}


def mutant_outcomes() -> dict[str, dict[str, dict[str, str]]]:
    out = {}
    for key, (name, source) in sources().items():
        tokens = tokenize(source)
        out[key] = {
            str(i): mutant_outcome(render_without(tokens, i), name)
            for i in range(STRIDE - 1, len(tokens) - 1, STRIDE)  # eof stays
        }
    return out
