"""Wire edits splice incrementally, with the outcome of a full recompile.

A session keeps a wire-loaded program warm and splices each edited
source into it, re-lowering only the functions whose tokens changed.
``tests/_splice_oracle.py`` splices the old way: compile the whole
source, keep every function whose printed IR is unchanged. These tests
drive the same edit sequences through both and compare, after every
step, the program's IR, which function objects kept their identity,
the query nodes left in the engine, the report bytes and the error
text.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

import _frontend_golden
from _splice_oracle import OracleSession
from repro.api import AnalyzeRequest, ProgramSpec, Session
from repro.frontend import compile_source, tokenize
from repro.frontend.parser import Parser
from repro.ir.instructions import Fence, FenceKind, FenceOrigin
from repro.ir.printer import format_function, format_program
from repro.obs import metrics as obs_metrics
from repro.programs import get_program
from repro.query.engine import describe_key
from tests.conftest import MP_SOURCE

MUTANTS = Path(__file__).parent / "data" / "ir" / "frontend_mutants.json"

EXTRA = "\nfn zz_extra(tid) {\n  local t = 0;\n  t = t + tid;\n}\n"
CALLER = "fn zz_user(tid) { zz_extra(tid); }\n"


def fn_span(source: str, name: str) -> tuple[int, int]:
    """Character span of ``fn name(...) { ... }`` in ``source``."""
    start = source.index(f"fn {name}(")
    depth = 0
    for i in range(source.index("{", start), len(source)):
        if source[i] == "{":
            depth += 1
        elif source[i] == "}":
            depth -= 1
            if depth == 0:
                return start, i + 1
    raise AssertionError(f"unbalanced fn {name}")


def entry_of(source: str) -> str:
    return re.search(r"thread (\w+)\(", source).group(1)


def modify(source: str) -> str:
    """A new local at the top of the first thread entry's body."""
    start, _ = fn_span(source, entry_of(source))
    brace = source.index("{", start) + 1
    return source[:brace] + " local zz_edit = 7;" + source[brace:]


def rename_local(source: str) -> str:
    """The first thread entry's first local, renamed throughout it."""
    start, end = fn_span(source, entry_of(source))
    body = source[start:end]
    local = re.search(r"local (\w+)", body).group(1)
    body = re.sub(rf"\b{local}\b", f"{local}_r", body)
    return source[:start] + body + source[end:]


def grow_global(source: str) -> str:
    """The first global array one element longer (the first scalar
    made an array where there is none)."""
    m = re.search(r"global int (\w+)\[(\d+)\];", source)
    if m is None:
        return re.sub(r"global int (\w+);", r"global int \1[2];", source, count=1)
    return source.replace(m.group(0), f"global int {m.group(1)}[{int(m.group(2)) + 1}];", 1)


def init_global(source: str) -> str:
    """The first scalar global given an initializer."""
    return re.sub(r"global int (\w+);", r"global int \1 = 3;", source, count=1)


def edit_steps(source: str) -> list[tuple[str, object]]:
    """(label, action): an action is a source to load, or ``("ir",
    refresh)`` for a fence inserted in place into the first thread
    entry, followed by ``Session.refresh`` when ``refresh`` is set."""
    appended = source + EXTRA
    modified = modify(appended)
    renamed = rename_local(modified)
    initialized = init_global(renamed)
    grown = grow_global(initialized)
    threaded = grown + "thread zz_extra(9);\n"
    called = threaded + CALLER
    unthreaded = grown + CALLER  # only zz_user names zz_extra
    return [
        ("load", source),
        ("append a function", appended),
        ("switch back (remove it)", source),
        ("append it again", appended),
        ("modify a function", modified),
        ("rename a local", renamed),
        ("change an initializer", initialized),
        ("change a size", grown),
        ("add a thread", threaded),
        ("add a caller", called),
        ("drop the thread", unthreaded),
        ("call a removed function", unthreaded.replace(EXTRA, "\n")),
        ("change a callee's arity", unthreaded.replace("fn zz_extra(tid)", "fn zz_extra(tid, u)")),
        ("syntax error", called + "fn zz_broken(tid) { local = ; }\n"),
        ("lex error", called + "fn zz_lex(tid) { local t = 1 @ 2; }\n"),
        ("duplicate function", called + CALLER),
        ("no functions", "global int zz_only;\n"),
        ("switch back to the source", source),
        ("IR edit, refreshed", ("ir", True)),
        ("edit after it", appended),
        ("IR edit, not refreshed", ("ir", False)),
        ("edit after it", source),
        ("edit again", appended),
        ("an earlier source", renamed),
    ]


def _engine_nodes(session: Session, program) -> list[str]:
    engine = session.context(program)
    return sorted(describe_key(node) for node in engine._values)


def _fingerprints(session: Session, program) -> dict[str, str]:
    engine = session.context(program)
    return {func.name: fp for func, fp in engine._fingerprints.items()}


def _snapshot(session: Session, program) -> dict:
    return {
        "functions": list(program.functions.items()),
        "ir": [(name, format_function(f)) for name, f in program.functions.items()],
        "globals": [(g.name, g.size, g.init) for g in program.globals.values()],
        "threads": [(t.func_name, t.args) for t in program.threads],
        "nodes": _engine_nodes(session, program),
        "fingerprints": _fingerprints(session, program),
    }


def _insert_fence(program) -> None:
    func = program.functions[program.threads[0].func_name]
    func.blocks[0].insert(0, Fence(FenceKind.FULL, FenceOrigin.MANUAL))
    func.finalize()


def _payload(report, keep_stats: bool = True) -> bytes:
    payload = report.to_payload()
    if not keep_stats:
        payload.pop("cache_stats", None)
    return json.dumps(payload, sort_keys=True).encode()


def _call(func, *args):
    """``(result, None)``, or ``(None, (error class, message))``."""
    try:
        return func(*args), None
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return None, (type(exc).__name__, str(exc))


def _assert_cut_is_full(session: Session, program, where: str) -> None:
    """The cut a splice kept, built from the one before it, equals a
    full cut of its tokens, field for field."""
    entry = session._contexts[program]
    if entry.items is None:
        return  # not spliced yet: a cold compile keeps no cut
    tokens = entry.tokens
    full = Parser(tokens.kinds, tokens.texts, tokens.lines).cut()
    fields = ("globals", "functions", "threads", "starts", "items")
    for field in fields:
        assert getattr(entry.items, field) == getattr(full, field), f"{where}: {field}"


CASES = {
    "mp": MP_SOURCE,
    "lu-con": get_program("lu-con").source,
    "spanningtree": get_program("spanningtree").source,
    "cholesky": get_program("cholesky").source,
}


def _compare_with_oracle(name: str, source: str, steps) -> None:
    """Drive ``steps`` (see :func:`edit_steps`) through a session and
    the oracle, comparing them and a cold compile after each."""
    session, oracle = Session(), OracleSession()
    programs = {}
    fenced = None  # the session's function with a fence inserted in place
    for label, action in steps:
        where = f"{name}: {label}"
        if isinstance(action, tuple):
            _, refresh = action
            for s in (session, oracle):
                _insert_fence(programs[s])
                if refresh:
                    s.refresh(programs[s])
            fenced = programs[session].functions[entry_of(source)]
            ir = [_snapshot(s, programs[s])["ir"] for s in (session, oracle)]
            assert ir[0] == ir[1], where
            continue
        spec = ProgramSpec.inline(action, name=name)
        befores = {s: _snapshot(s, programs[s]) for s in programs}
        _, expected_error = _call(compile_source, action, name)
        errors = {}
        for s in (session, oracle):
            program, errors[s] = _call(s.load, spec)
            if program is not None:
                programs[s] = program
        assert errors[session] == errors[oracle] == expected_error, where
        if expected_error is not None:
            # A failed edit leaves the program and its engine as they were.
            for s in programs:
                assert _snapshot(s, programs[s]) == befores[s], where
            continue
        _assert_cut_is_full(session, programs[session], where)
        new, old = _snapshot(session, programs[session]), _snapshot(oracle, programs[oracle])
        for key in ("ir", "globals", "threads", "nodes", "fingerprints"):
            assert new[key] == old[key], f"{where}: {key}"
        if befores:
            kept = {
                s: sorted(
                    n for n, f in programs[s].functions.items()
                    if dict(befores[s]["functions"]).get(n) is f
                )
                for s in programs
            }
            assert kept[session] == kept[oracle], where
        request = AnalyzeRequest(program=spec, stats=True)
        report = session.analyze(request)
        assert _payload(report) == _payload(oracle.analyze(request)), where
        nodes = [_engine_nodes(s, programs[s]) for s in (session, oracle)]
        assert nodes[0] == nodes[1], where
        if any(f is fenced for f in programs[session].functions.values()):
            continue  # the fence inserted in place is still there
        fresh = Session().analyze(request)
        assert _payload(report, False) == _payload(fresh, False), where


@pytest.mark.parametrize("name", sorted(CASES))
def test_incremental_splice_matches_full_recompile(name):
    source = CASES[name]
    _compare_with_oracle(name, source, edit_steps(source))


def relex_steps(source: str) -> list[tuple[str, str]]:
    """Edits whose lexing reuses the tokens kept by the first splice:
    a line above the first ``fn``, the middle of a function, and a block
    comment opened over the rest of the file, then closed."""
    first = source.index("fn ")
    seeded = source[:first] + EXTRA.lstrip("\n") + source[first:]
    above = seeded[:first] + "// one line down\n" + seeded[first:]
    start, end = fn_span(above, entry_of(above))
    middle = above.index(";", (start + end) // 2) + 1
    edited = above[:middle] + " local zz_mid = 2;" + above[middle:]
    extra = edited.index("fn zz_extra(")
    opened = edited[:extra] + "/* " + edited[extra:]
    _, extra_end = fn_span(edited, "zz_extra")
    closed = opened[: extra_end + 3] + " */" + opened[extra_end + 3 :]
    return [
        ("load", source),
        ("seed the tokens", seeded),
        ("a line above the first fn", above),
        ("edit the middle of a function", edited),
        ("open a block comment", opened),
        ("close it", closed),
        ("uncomment", edited),
        ("switch back to the source", source),
    ]


@pytest.mark.parametrize("name", ["mp", "lu-con"])
def test_relexed_splices_match_full_recompile(name):
    source = CASES[name]
    steps = relex_steps(source)
    opened = dict(steps)["open a block comment"]
    with pytest.raises(Exception, match="unterminated block comment"):
        compile_source(opened, name)
    _compare_with_oracle(name, source, steps)


def _counter(name: str) -> float:
    return obs_metrics.REGISTRY.to_payload()["counters"].get(name, 0)


@pytest.mark.parametrize("name", ["lu-con", "spanningtree"])
def test_appending_one_function_relowers_exactly_one(name):
    source = get_program(name).source
    functions = len(compile_source(source, name).functions)
    session = Session()
    for text in (source, source + EXTRA, source):  # the first switch lowers all
        session.load(ProgramSpec.inline(text, name=name))
    reused = _counter("repro_session_functions_reused_total")
    relowered = _counter("repro_session_functions_relowered_total")
    session.load(ProgramSpec.inline(source + EXTRA, name=name))
    assert _counter("repro_session_functions_relowered_total") - relowered == 1
    assert _counter("repro_session_functions_reused_total") - reused == functions


@pytest.mark.parametrize("refresh", [False, True])
def test_a_finalized_in_place_edit_is_relowered_by_the_next_splice(refresh):
    """A fence inserted in place and finalized, refreshed or not, does
    not survive a splice that leaves the function's tokens unchanged:
    the function is re-lowered from the source."""
    session = Session()
    for text in (MP_SOURCE, MP_SOURCE + EXTRA):  # the splice records both
        program = session.load(ProgramSpec.inline(text, name="mp"))
        session.analyze(AnalyzeRequest(program=ProgramSpec.inline(text, name="mp")))
    _insert_fence(program)
    fenced = program.functions["producer"]
    if refresh:
        session.refresh(program)
    assert session.load(ProgramSpec.inline(MP_SOURCE, name="mp")) is program
    assert program.functions["producer"] is not fenced
    assert format_program(program) == format_program(compile_source(MP_SOURCE, "mp"))


def test_an_edit_prints_only_what_it_relowers():
    """After the first switch, adding or removing a function prints no
    more functions for fingerprints than the splice re-lowers: an added
    function is printed once, by its first query, and unchanged
    functions are not printed."""
    source = get_program("lu-con").source
    session = Session()
    for text in (source, source + EXTRA):  # the first switch lowers all
        session.analyze(AnalyzeRequest(program=ProgramSpec.inline(text, name="lu-con")))
    for step in range(6):
        added = step % 2 == 1
        spec = ProgramSpec.inline(source + EXTRA if added else source, name="lu-con")
        printed = _counter("repro_query_fingerprints_total")
        relowered = _counter("repro_session_functions_relowered_total")
        session.analyze(AnalyzeRequest(program=spec))
        relowered = _counter("repro_session_functions_relowered_total") - relowered
        assert relowered == int(added)
        assert _counter("repro_query_fingerprints_total") - printed <= relowered


_SPLICE_COUNTERS = (
    "repro_session_functions_reused_total",
    "repro_session_functions_relowered_total",
    "repro_session_tokens_relexed_total",
    "repro_session_tokens_reused_total",
    "repro_session_items_recut_total",
    "repro_session_items_reused_total",
)


def test_a_failed_edit_counts_nothing():
    session = Session()
    session.load(ProgramSpec.inline(MP_SOURCE, name="mp"))
    before = [_counter(name) for name in _SPLICE_COUNTERS]
    with pytest.raises(Exception, match="line"):
        session.load(ProgramSpec.inline(MP_SOURCE + "fn (", name="mp"))
    assert before == [_counter(name) for name in _SPLICE_COUNTERS]


def test_only_the_first_splice_lexes_the_whole_source():
    source = get_program("lu-con").source
    tokens = len(tokenize(source))
    session = Session()
    session.load(ProgramSpec.inline(source, name="lu-con"))
    relexed, reused = (_counter(name) for name in _SPLICE_COUNTERS[2:4])
    session.load(ProgramSpec.inline(source + EXTRA, name="lu-con"))
    extra = len(tokenize(source + EXTRA)) - tokens
    assert _counter("repro_session_tokens_relexed_total") - relexed == tokens + extra
    assert _counter("repro_session_tokens_reused_total") == reused
    relexed, reused = (_counter(name) for name in _SPLICE_COUNTERS[2:4])
    session.load(ProgramSpec.inline(source, name="lu-con"))
    # The token before the appended function is lexed again, and eof.
    assert _counter("repro_session_tokens_relexed_total") - relexed == 2
    assert _counter("repro_session_tokens_reused_total") - reused == tokens - 2


def test_appending_a_function_recuts_the_items_meeting_the_window():
    """The first splice cuts every item; appending a function then
    cuts again only the last item (its final token is lexed again)
    and the new function, and removing it only the last item."""
    source = get_program("lu-con").source
    program = compile_source(source, "lu-con")
    items = len(program.globals) + len(program.functions) + len(program.threads)
    session = Session()
    session.load(ProgramSpec.inline(source, name="lu-con"))
    for text, recut, reused in (
        (source + "\n", items, 0),
        (source + EXTRA, 2, items - 1),
        (source, 1, items - 1),
        (source + EXTRA, 2, items - 1),
    ):
        before = [_counter(name) for name in _SPLICE_COUNTERS[4:]]
        session.load(ProgramSpec.inline(text, name="lu-con"))
        after = [_counter(name) for name in _SPLICE_COUNTERS[4:]]
        assert [a - b for a, b in zip(after, before)] == [recut, reused], text[-40:]


def _mutant_sources(group: str):
    for key, (name, source) in _frontend_golden.sources().items():
        if key == group or key.startswith(group + "/"):
            yield key, name, source


@pytest.mark.parametrize("group", ["litmus", "corpus/lu-con", "corpus/spanningtree"])
def test_spliced_token_deletion_mutants_match_their_goldens(group):
    """Every pinned one-token-deletion mutant, spliced into a warm
    program, ends as a cold compile does: the same IR or the same error."""
    golden = json.loads(MUTANTS.read_text())["programs"]
    for key, name, source in _mutant_sources(group):
        session = Session()
        for text in (source, source + "\n"):  # the second load records every fn
            session.load(ProgramSpec.inline(text, name=name, manual_fences=True))
        tokens = tokenize(source)
        for i in range(_frontend_golden.STRIDE - 1, len(tokens) - 1, _frontend_golden.STRIDE):
            spec = ProgramSpec.inline(
                _frontend_golden.render_without(tokens, i), name=name, manual_fences=True
            )
            try:
                program = session.load(spec)
            except Exception as exc:  # noqa: BLE001 - the error itself is compared
                outcome = {"error": type(exc).__name__, "message": str(exc)}
            else:
                digest = hashlib.sha256(format_program(program).encode()).hexdigest()
                outcome = {"ir": digest}
            assert outcome == golden[key][str(i)], f"{key} without token {i}"
