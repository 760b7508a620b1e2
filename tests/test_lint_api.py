"""Lint through the public surfaces: Session API, serve daemon, CLI.

The engine-level pipeline is covered by test_races.py and
test_diagnostics.py; here the same verdicts must survive the
schema-versioned wire pair, warm incremental re-lints, the daemon
dispatch table, and the ``repro lint`` exit-code gate.
"""

import json
import time

import pytest

from repro.api import LintReport, LintRequest, ProgramSpec, Session
from repro.cli import main
from repro.programs import all_programs
from repro.serve import ServeDispatcher
from repro.validate.seeds import clear_seeds, seed_count

MP = """
global int flag;
global int data;

fn producer(tid) { data = 1; flag = 1; }
fn consumer(tid) {
  local r = 0;
  while (flag == 0) { }
  r = data;
  observe("r", r);
}

thread producer(0);
thread consumer(1);
"""

SB = """
global int x;
global int y;

fn p1(tid) { local r1 = 0; x = 1; r1 = y; observe("r1", r1); }
fn p2(tid) { local r2 = 0; y = 1; r2 = x; observe("r2", r2); }

thread p1(0);
thread p2(1);
"""

BROKEN_HANDSHAKE = """
global int flag;
global int data;

fn producer(t) { data = 1; flag = 1; }
fn helper(t) { flag = 1; }
fn consumer(t) {
  local d = 0;
  while (flag == 0) { }
  d = data;
  observe("d", d);
}

thread producer(0);
thread helper(1);
thread consumer(2);
"""


@pytest.fixture
def session():
    return Session(parallel=False)


# --- Session.lint ------------------------------------------------------------


def test_lint_clean_program_empty_report(session):
    report = session.lint(
        LintRequest(program=ProgramSpec.inline(MP, name="mp"))
    )
    assert report.findings == ()
    assert report.errors == report.warnings == report.notes == 0
    assert report.exit_code == 0
    # The spin loop keeps the interleaving space unbounded, so the
    # missed-race sweep legitimately reports an incomplete search.
    assert report.explorer_complete is not None
    assert report.fuzz_seed is None


def test_lint_racy_program_confirmed_with_witnesses(session):
    report = session.lint(
        LintRequest(program=ProgramSpec.inline(SB, name="sb"))
    )
    assert report.errors == 2 and report.confirmed_races == 2
    assert all(f.verdict == "confirmed" and f.witness for f in report.findings)
    assert report.exit_code == 1


def test_lint_fail_on_gate(session):
    spec = ProgramSpec.inline(SB, name="sb")
    never = session.lint(LintRequest(program=spec, fail_on="never"))
    assert never.errors == 2 and never.exit_code == 0
    with pytest.raises(ValueError, match="unknown severity"):
        session.lint(LintRequest(program=spec, fail_on="fatal"))


def test_lint_validates_variant_and_model_eagerly(session):
    spec = ProgramSpec.inline(MP, name="mp")
    with pytest.raises(KeyError):
        session.lint(LintRequest(program=spec, variant="bogus"))
    with pytest.raises(KeyError):
        session.lint(LintRequest(program=spec, model="bogus"))


def test_lint_detector_gap_records_fuzz_seed(session):
    clear_seeds()
    spec = ProgramSpec.inline(BROKEN_HANDSHAKE, name="broken-handshake")
    report = session.lint(LintRequest(program=spec))
    assert any(f.code == "RACE002" for f in report.findings)
    assert report.fuzz_seed == BROKEN_HANDSHAKE
    assert seed_count() == 1
    # Re-linting the same gap dedups on content.
    session.lint(LintRequest(program=spec))
    assert seed_count() == 1
    clear_seeds()


def test_lint_confirms_along_a_trace_longer_than_the_recursion_limit(session):
    started = time.perf_counter()
    report = session.lint(
        LintRequest(program=ProgramSpec.corpus("fft"), max_traces=1, max_actions=3000)
    )
    assert time.perf_counter() - started < 30
    assert report.traces_checked == 1
    assert report.explorer_complete is False


def test_lint_report_wire_round_trip(session):
    report = session.lint(
        LintRequest(
            program=ProgramSpec.litmus("dekker"), fail_on="warning", stats=True
        )
    )
    assert LintReport.from_json(report.to_json()) == report
    assert report.notes == 3 and report.exit_code == 0
    rendered = report.render()
    assert "RACE001" in rendered and "refuted" in rendered


def test_lint_warm_rerun_is_all_hits(session):
    spec = ProgramSpec.inline(MP, name="mp")
    cold = session.lint(LintRequest(program=spec, stats=True))
    assert cold.cache_stats.misses > 0
    warm = session.lint(LintRequest(program=spec, stats=True))
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.hits > 0


def test_lint_warm_rerun_over_the_corpus_recomputes_nothing(session):
    for name in sorted(all_programs()):
        request = LintRequest(program=ProgramSpec.corpus(name), confirm=False, stats=True)
        cold = session.lint(request)
        warm = session.lint(request)
        assert warm.cache_stats.misses == 0, name
        assert warm.cache_stats.hits > 0, name
        assert warm.findings == cold.findings, name


STAGES = """
global int flag;
global int data;
global int flag2;
global int data2;

fn producer(tid) { data = 1; flag = 1; }
fn consumer(tid) {
  local r = 0;
  while (flag == 0) { }
  r = data;
  observe("r", r);
}
fn producer2(tid) { data2 = 1; flag2 = 1; }
fn consumer2(tid) {
  local r = 0;
  while (flag2 == 0) { }
  r = data2;
  observe("r2", r);
}

thread producer(0);
thread consumer(1);
thread producer2(2);
thread consumer2(3);
"""


def test_lint_edit_recomputes_under_half_the_queries(session):
    """The incremental acceptance bar: after editing one function of a
    warm program, the re-lint recomputes fewer than half of a cold
    run's queries."""
    cold = session.lint(
        LintRequest(program=ProgramSpec.inline(STAGES, name="stages"),
                    stats=True)
    )
    edited = ProgramSpec.inline(
        STAGES.replace("data = 1;", "data = 2;"), name="stages"
    )
    warm = session.lint(LintRequest(program=edited, stats=True))
    assert warm.cache_stats.hits > 0  # the three unchanged functions hit
    assert 0 < warm.cache_stats.misses < cold.cache_stats.misses / 2
    assert warm.findings == cold.findings


# --- the serve daemon --------------------------------------------------------


def test_serve_dispatches_lint_requests(session):
    dispatcher = ServeDispatcher(session)
    payload = LintRequest(
        program=ProgramSpec.inline(SB, name="sb"), stats=True
    ).to_payload()
    response, stop = dispatcher.handle_line(
        json.dumps({"id": 7, "request": payload})
    )
    assert not stop and response["ok"] and response["id"] == 7
    report = response["report"]
    assert report["kind"] == "lint-report"
    assert report["errors"] == 2
    # And the daemon stays warm for the next lint of the same program.
    again, _ = dispatcher.handle_line(json.dumps(payload))
    assert again["ok"]
    assert again["report"]["cache_stats"]["misses"] == 0


# --- the CLI -----------------------------------------------------------------


@pytest.fixture
def mp_file(tmp_path):
    path = tmp_path / "mp.c"
    path.write_text(MP)
    return str(path)


@pytest.fixture
def sb_file(tmp_path):
    path = tmp_path / "sb.c"
    path.write_text(SB)
    return str(path)


def test_cli_lint_clean_file(mp_file, capsys):
    assert main(["lint", mp_file]) == 0
    out = capsys.readouterr().out
    assert "0 errors" in out or "clean" in out or out.strip()


def test_cli_lint_racy_file_fails(sb_file, capsys):
    assert main(["lint", sb_file]) == 1
    out = capsys.readouterr().out
    assert "RACE001" in out and "confirmed" in out


def test_cli_lint_fail_on_never(sb_file, capsys):
    assert main(["lint", sb_file, "--fail-on", "never"]) == 0
    assert "RACE001" in capsys.readouterr().out


def test_cli_lint_json_single_and_multiple(mp_file, sb_file, capsys):
    assert main(["lint", sb_file, "--json", "--fail-on", "never"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert single["kind"] == "lint-report" and single["errors"] == 2

    assert main(
        ["lint", mp_file, sb_file, "--json", "--fail-on", "never"]
    ) == 0
    many = json.loads(capsys.readouterr().out)
    assert [r["errors"] for r in many] == [0, 2]


def test_cli_lint_litmus_and_corpus_names(capsys):
    assert main(["lint", "dekker"]) == 0
    assert main(["lint", "canneal", "--no-confirm", "--fail-on", "never"]) == 0
    out = capsys.readouterr().out
    assert "cn_accepted" in out


def test_cli_lint_unknown_program(capsys):
    assert main(["lint", "no-such-program"]) == 2
    assert "neither a file" in capsys.readouterr().err


def test_cli_lint_pass_selection(mp_file, capsys):
    assert main(["lint", mp_file, "--passes", "redundant-fence"]) == 0
