"""Tests for the command-line interface."""

import pytest

from repro.cli import main

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


def test_analyze_default(mp_file, capsys):
    assert main(["analyze", mp_file]) == 0
    out = capsys.readouterr().out
    assert "consumer" in out
    assert "reads marked acquire" in out


def test_analyze_all_variants(mp_file, capsys):
    for variant in ("control", "address+control", "pensieve"):
        assert main(["analyze", mp_file, "--variant", variant]) == 0
    assert "mfences" in capsys.readouterr().out


def test_analyze_annotations(mp_file, capsys):
    assert main(["analyze", mp_file, "--annotations"]) == 0
    out = capsys.readouterr().out
    assert "memory_order" in out
    assert "acquire" in out


def test_analyze_emit_ir(mp_file, capsys):
    assert main(["analyze", mp_file, "--emit-ir"]) == 0
    out = capsys.readouterr().out
    assert "fenced IR" in out
    assert "func @consumer" in out


def test_analyze_model_choice(mp_file, capsys):
    assert main(["analyze", mp_file, "--model", "rmo"]) == 0
    assert main(["analyze", mp_file, "--model", "sc"]) == 0


def test_check_mp_all_restored(mp_file, capsys):
    assert main(["check", mp_file]) == 0
    out = capsys.readouterr().out
    assert "SC restored: True" in out


def test_check_sb_reports_breakage(sb_file, capsys):
    # SB is racy: Control does not (and must not) repair it -> exit 1.
    assert main(["check", sb_file]) == 1
    out = capsys.readouterr().out
    assert "NON-SC BEHAVIOUR" in out
    assert "SC restored: False" in out  # control leaves it unfenced
    assert "SC restored: True" in out  # pensieve repairs it


def test_check_state_bound(mp_file, capsys):
    assert main(["check", mp_file, "--max-states", "3"]) == 2
    assert "incomplete" in capsys.readouterr().out


def test_simulate_variants(mp_file, capsys):
    for variant in ("manual", "control", "pensieve"):
        assert main(["simulate", mp_file, "--variant", variant]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "observations T1: r=1" in out


def test_simulate_globals_filter(mp_file, capsys):
    assert main(["simulate", mp_file, "--globals", "flag", "data"]) == 0
    out = capsys.readouterr().out
    assert "flag = 1" in out
    assert "data = 1" in out


@pytest.mark.parametrize(
    "source, message",
    [
        ("global x;\nfn t() {\n  x = ;\n}\nthread t();\n",
         "line 3: unexpected token ';'"),
        ("global x;\nfn t() { x = 1 $ 2; }\nthread t();\n",
         "line 2: unexpected character '$'"),
        ("global x;\nfn t() { y = 1; }\nthread t();\n",
         "line 2: undefined variable 'y'"),
        # Lowering also checks names, sizes, call arities and
        # global initializers.
        ("global x;\nglobal x;\nfn t() { x = 1; }\nthread t();\n",
         "line 2: duplicate global 'x'"),
        ("global x;\nfn t() { x = 1; }\nfn t() { x = 2; }\nthread t();\n",
         "line 3: duplicate function 't'"),
        ("global x[0];\nfn t() { }\nthread t();\n",
         "line 1: global array 'x' has size 0; sizes must be >= 1"),
        ("global x;\nfn t() {\n  local a[0];\n}\nthread t();\n",
         "line 3: local array 'a' has size 0; sizes must be >= 1"),
        ("global x;\nfn f(a) { x = a; }\nfn t() {\n  f();\n}\nthread t();\n",
         "line 4: call to 'f' passes 0 arguments for 1 parameters"),
        ("global p = &q;\nfn t() { p = 0; }\nthread t();\n",
         "line 1: initializer of 'p' takes the address of undeclared global 'q'"),
    ],
    ids=["parse", "lex", "lowering", "duplicate-global", "duplicate-fn",
         "zero-size-global", "zero-size-local", "call-arity", "undeclared-initializer"],
)
@pytest.mark.parametrize("command", ["analyze", "check", "simulate", "lint"])
def test_source_errors_exit_2_with_one_line(
    tmp_path, capsys, command, source, message
):
    path = tmp_path / "bad.mc"
    path.write_text(source)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"


@pytest.mark.parametrize(
    "source, message",
    [
        ("", "program has no functions"),
        ("global int x;\nfn t(tid) { x = 1; }\nthread u();\n",
         "thread entry 'u' is not a function"),
        ("global int x;\nfn t(tid) { x = 1; }\nthread t();\n",
         "thread t: 0 args for 1 params"),
        ("global int x;\nfn t(tid) { x = 1; nope(); }\nthread t(0);\n",
         "t: call to unknown function 'nope'"),
    ],
    ids=["empty", "unknown-thread", "arity", "unknown-callee"],
)
@pytest.mark.parametrize("command", ["analyze", "check", "lint"])
def test_verification_errors_exit_2_with_one_line(
    tmp_path, capsys, command, source, message
):
    # These sources parse and lower, then fail IR verification.
    path = tmp_path / "bad.mc"
    path.write_text(source)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"


def _unreadable(tmp_path, kind):
    """A path that cannot be read as text, and the reason printed for it."""
    if kind == "missing":
        return tmp_path / "missing.mc", "No such file or directory"
    if kind == "directory":
        return tmp_path, "Is a directory"
    path = tmp_path / "latin1.mc"
    path.write_bytes(b"global x; // caf\xe9\n")
    return path, (
        "'utf-8' codec can't decode byte 0xe9 in position 16: "
        "invalid continuation byte"
    )


@pytest.mark.parametrize(
    "command, kind",
    [
        (command, kind)
        for command in ("analyze", "check", "simulate", "report")
        for kind in ("missing", "directory", "not-utf8")
    ]
    # lint takes a token that is not a file for a program name.
    + [("lint", "not-utf8")],
)
def test_unreadable_input_exits_2_with_one_line(tmp_path, capsys, command, kind):
    path, reason = _unreadable(tmp_path, kind)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {reason}\n"


def test_unreadable_diff_report_names_that_file(mp_file, tmp_path, capsys):
    assert main(["analyze", mp_file, "--json"]) == 0
    saved = tmp_path / "a.json"
    saved.write_text(capsys.readouterr().out)
    bad = tmp_path / "b.json"
    bad.write_bytes(b"\xff")
    assert main(["report", str(saved), "--diff", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"{bad}: 'utf-8' codec")


RUNAWAY = """
global int flag;
fn waiter(tid) { local r = 0; while (flag == 0) { r = r + 1; } observe("r", r); }
thread waiter(0);
"""

DIV_ZERO = """
global int x;
fn t(tid) { local z = 0; z = x; observe("r", 1 / z); }
thread t(0);
"""


@pytest.mark.parametrize(
    "command, source, message",
    [
        ("check", RUNAWAY, "thread 0: exceeded 100000 steps"),
        ("simulate", RUNAWAY, "thread 0: exceeded 5000000 steps"),
        ("check", DIV_ZERO, "division by zero"),
        ("simulate", DIV_ZERO, "division by zero"),
        ("lint", DIV_ZERO, "division by zero"),
    ],
    ids=["check-runaway", "simulate-runaway", "check-div0", "simulate-div0", "lint-div0"],
)
def test_runtime_errors_exit_2_with_one_line(tmp_path, capsys, command, source, message):
    path = tmp_path / "bad.mc"
    path.write_text(source)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"


@pytest.mark.parametrize("bound", ["0", "-1", "many"])
def test_check_max_states_below_one_is_a_usage_error(mp_file, capsys, bound):
    with pytest.raises(SystemExit) as exc:
        main(["check", mp_file, "--max-states", bound])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--max-states: must be an integer >= 1, got '{bound}'" in captured.err


@pytest.mark.parametrize(
    "command,option",
    [
        (["lint", "mp"], "--max-traces"),
        (["lint", "mp"], "--max-actions"),
        (["fuzz", "--seeds", "1", "--serial"], "--max-states"),
        (["serve", "--stdio"], "--max-states"),
    ],
)
@pytest.mark.parametrize("bound", ["0", "-3"])
def test_explorer_bounds_below_one_are_usage_errors(capsys, command, option, bound):
    # A zero bound would silently turn the audit into a no-op; the
    # documented way to skip it is --no-confirm.
    with pytest.raises(SystemExit) as exc:
        main([*command, option, bound])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option}: must be an integer >= 1, got '{bound}'" in captured.err


@pytest.mark.parametrize(
    "command,option",
    [
        (["fuzz", "--serial"], "--seeds"),
        (["serve", "--stdio"], "--queue-limit"),
        (["experiments", "--quick"], "--jobs"),
        (["batch", "--programs", "fft"], "--jobs"),
        (["fuzz", "--seeds", "1"], "--jobs"),
        (["serve", "--stdio"], "--jobs"),
    ],
)
@pytest.mark.parametrize("count", ["0", "-2"])
def test_counts_below_one_are_usage_errors(capsys, command, option, count):
    # Zero seeds would pass the soundness gate having checked nothing,
    # and a zero queue limit or job count would crash or silently run
    # serially.
    with pytest.raises(SystemExit) as exc:
        main([*command, option, count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option}: must be an integer >= 1, got '{count}'" in captured.err


def test_experiments_quick(capsys):
    assert main(["experiments", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "Fig. 7" in out
    assert "Fig. 10" in out
    assert "matches paper: True" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_fuzz_clean_run_exits_zero(capsys):
    assert main([
        "fuzz", "--seeds", "1", "--shapes", "publish", "--serial",
    ]) == 0
    out = capsys.readouterr().out
    assert "fuzz: 1 cases" in out
    assert "address+control" in out


def test_fuzz_expect_violations_mode(capsys):
    assert main([
        "fuzz", "--seeds", "1", "--shapes", "dekker",
        "--variants", "vanilla", "--serial", "--expect-violations",
    ]) == 0
    out = capsys.readouterr().out
    assert "SOUNDNESS VIOLATION" in out
    assert "LitmusTest(" in out


def test_fuzz_violations_fail_the_run_by_default(capsys):
    assert main([
        "fuzz", "--seeds", "1", "--shapes", "dekker",
        "--variants", "vanilla", "--serial", "--no-shrink",
    ]) == 1


def test_fuzz_expect_violations_fails_without_any(capsys):
    assert main([
        "fuzz", "--seeds", "1", "--shapes", "publish", "--serial",
        "--expect-violations",
    ]) == 1
    assert "expected at least one violation" in capsys.readouterr().err


def test_fuzz_json_report(capsys):
    import json

    assert main([
        "fuzz", "--seeds", "1", "--shapes", "publish", "--serial",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["cases_run"] == 1
    assert payload["summary"]["violations"] == 0
    assert payload["config"]["seeds"] == 1
    assert payload["cases"][0]["report"]["well_synchronized"] is True


def test_fuzz_unknown_shape_exits_two(capsys):
    assert main(["fuzz", "--seeds", "1", "--shapes", "bogus"]) == 2
    assert "unknown shape" in capsys.readouterr().out


def test_fuzz_incomplete_cases_fail_the_gate(capsys):
    # A state bound too small for any exploration must not read as
    # "zero violations": the soundness gate would pass vacuously.
    assert main([
        "fuzz", "--seeds", "1", "--shapes", "publish", "--serial",
        "--max-states", "10",
    ]) == 1
    assert "soundness not established" in capsys.readouterr().err


# --- the repro.api facade surface ------------------------------------------


def test_analyze_json_is_a_loadable_report(mp_file, capsys):
    import json

    from repro.api import load_report

    assert main(["analyze", mp_file, "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["kind"] == "analyze-report"
    assert payload["schema_version"] == 4
    report = load_report(out)
    assert report.full_fences == payload["full_fences"]


def test_check_model_flag_pso(mp_file, capsys):
    # MP is TSO-safe but breaks unfenced on PSO; every variant repairs it.
    assert main(["check", mp_file, "--model", "pso"]) == 0
    out = capsys.readouterr().out
    assert "PSO unfenced" in out
    assert "NON-SC BEHAVIOUR" in out
    assert "SC restored: False" not in out


def test_simulate_model_flag_changes_placement(mp_file, capsys):
    # Placement under SC needs no hardware fences at all.
    assert main(["simulate", mp_file, "--model", "sc"]) == 0
    out = capsys.readouterr().out
    assert "mfences run    : 0" in out


def test_report_renders_saved_artifact(mp_file, tmp_path, capsys):
    assert main(["check", mp_file, "--json"]) == 0
    saved = tmp_path / "check.json"
    saved.write_text(capsys.readouterr().out)
    assert main(["report", str(saved)]) == 0
    out = capsys.readouterr().out
    assert "SC outcomes: " in out
    assert "SC restored: True" in out


def test_report_diff_identical_and_drifted(mp_file, sb_file, tmp_path, capsys):
    assert main(["analyze", mp_file, "--json"]) == 0
    a = tmp_path / "a.json"
    a.write_text(capsys.readouterr().out)
    main(["analyze", sb_file, "--json"])
    b = tmp_path / "b.json"
    b.write_text(capsys.readouterr().out)

    assert main(["report", str(a), "--diff", str(a)]) == 0
    assert "identical" in capsys.readouterr().out
    assert main(["report", str(a), "--diff", str(b)]) == 1
    assert "~ program:" in capsys.readouterr().out


def test_report_rejects_unknown_kind_and_version(tmp_path, capsys):
    import json

    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"kind": "mystery", "schema_version": 1}))
    assert main(["report", str(bogus)]) == 2
    assert "unknown report kind" in capsys.readouterr().err

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"kind": "analyze-report", "schema_version": 99}))
    assert main(["report", str(stale)]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_report_diff_kind_mismatch(mp_file, tmp_path, capsys):
    main(["analyze", mp_file, "--json"])
    a = tmp_path / "a.json"
    a.write_text(capsys.readouterr().out)
    main(["check", mp_file, "--json"])
    c = tmp_path / "c.json"
    c.write_text(capsys.readouterr().out)
    assert main(["report", str(a), "--diff", str(c)]) == 2
    assert "cannot diff" in capsys.readouterr().err
