"""Tests for the request dispatcher, its stdio loop and `repro serve`."""

import io
import json
import socket
import threading
import time

import pytest

from repro.api import AnalyzeRequest, FuzzRequest, ProgramSpec, Session
from repro.serve import REQUEST_DISPATCH, ServeDispatcher, serve_stdio

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

SPEC = ProgramSpec.inline(MP, name="mp")


# --- dispatcher (transport-independent) --------------------------------------


@pytest.fixture
def dispatcher():
    return ServeDispatcher(Session(parallel=False))


def test_dispatch_table_covers_every_request_kind():
    from repro.api import REPORT_KINDS

    request_kinds = {k for k in REPORT_KINDS.keys() if k.endswith("-request")}
    assert set(REQUEST_DISPATCH) == request_kinds


def test_dispatcher_answers_bare_request(dispatcher):
    request = AnalyzeRequest(program=SPEC)
    response, stop = dispatcher.handle_line(request.to_json().replace("\n", " "))
    assert not stop
    assert response["ok"] and response["id"] is None
    expected = Session().analyze(request).to_payload()
    assert response["report"] == expected
    # Byte-identical to what the one-shot CLI serializes.
    assert json.dumps(response["report"], indent=2, sort_keys=True) == (
        Session().analyze(request).to_json()
    )


def test_dispatcher_echoes_request_id(dispatcher):
    envelope = {"id": 42, "request": AnalyzeRequest(program=SPEC).to_payload()}
    response, _ = dispatcher.handle_line(json.dumps(envelope))
    assert response["ok"] and response["id"] == 42


def test_dispatcher_ops(dispatcher):
    pong, stop = dispatcher.handle_line('{"op": "ping"}')
    assert pong["ok"] and pong["pong"] and not stop
    stats, _ = dispatcher.handle_line('{"op": "stats", "id": "s1"}')
    assert stats["ok"] and stats["id"] == "s1"
    assert "requests" in stats["session"] and "server" in stats
    bye, stop = dispatcher.handle_line('{"op": "shutdown"}')
    assert bye["ok"] and bye["bye"] and stop


def test_dispatcher_error_paths(dispatcher):
    bad_json, _ = dispatcher.handle_line("{nope")
    assert not bad_json["ok"] and "not valid JSON" in bad_json["error"]
    not_object, _ = dispatcher.handle_line("[1, 2]")
    assert not not_object["ok"] and "JSON object" in not_object["error"]
    unknown_op, _ = dispatcher.handle_line('{"op": "dance"}')
    assert not unknown_op["ok"] and "unknown op" in unknown_op["error"]
    # A *report* kind is not servable.
    report_kind, _ = dispatcher.handle_line(
        json.dumps({"kind": "analyze-report", "schema_version": 2})
    )
    assert not report_kind["ok"]
    assert "not a servable request kind" in report_kind["error"]
    # Schema violations come back as errors, not dropped connections.
    payload = AnalyzeRequest(program=SPEC).to_payload()
    payload["bonus"] = 1
    malformed, _ = dispatcher.handle_line(json.dumps(payload))
    assert not malformed["ok"] and "unknown fields" in malformed["error"]
    # Unknown registry keys inside a valid envelope surface too.
    bogus = AnalyzeRequest(program=SPEC, variant="bogus").to_payload()
    unknown_variant, _ = dispatcher.handle_line(json.dumps(bogus))
    assert not unknown_variant["ok"]
    assert "unknown" in unknown_variant["error"]
    assert dispatcher.errors == 6 and dispatcher.served == 0


def test_dispatcher_survives_type_confused_payloads(dispatcher):
    """Payloads that pass the name-level schema gate but carry wrong
    field *types* must answer {"ok": false}, never raise out of the
    dispatcher (which would kill the daemon/handler thread)."""
    confused = [
        # seeds as a string: TypeError deep in the fuzz runner.
        {"kind": "fuzz-request", "schema_version": 1, "seeds": "ten",
         "shapes": [], "variants": [], "models": ["x86-tso"],
         "budget": None, "shrink": True, "max_states": None},
        # variant as an int.
        dict(AnalyzeRequest(program=SPEC).to_payload(), variant=123),
        # ProgramSpec kind as a list (unhashable).
        dict(AnalyzeRequest(program=SPEC).to_payload(),
             program={"kind": ["corpus"], "name": "fft", "path": None,
                      "source": None, "manual_fences": False}),
    ]
    for payload in confused:
        response, stop = dispatcher.handle_line(json.dumps(payload))
        assert not stop
        assert not response["ok"] and response["error"]
    # The daemon still answers normal requests afterwards.
    ok, _ = dispatcher.handle_line(
        json.dumps(AnalyzeRequest(program=SPEC).to_payload())
    )
    assert ok["ok"]


def test_dispatcher_warm_reanalysis_after_wire_edit(dispatcher):
    """The daemon's headline: an edited program re-sent over the wire
    recomputes only the changed function's query subgraph."""
    cold, _ = dispatcher.handle_line(
        json.dumps(AnalyzeRequest(program=SPEC, stats=True).to_payload())
    )
    assert cold["ok"] and cold["report"]["cache_stats"]["misses"] > 0
    warm, _ = dispatcher.handle_line(
        json.dumps(AnalyzeRequest(program=SPEC, stats=True).to_payload())
    )
    assert warm["ok"] and warm["report"]["cache_stats"]["misses"] == 0
    edited = ProgramSpec.inline(MP.replace("data = 1;", "data = 2;"), name="mp")
    incremental, _ = dispatcher.handle_line(
        json.dumps(AnalyzeRequest(program=edited, stats=True).to_payload())
    )
    assert incremental["ok"]
    stats = incremental["report"]["cache_stats"]
    assert stats["hits"] > 0  # the unchanged consumer stayed cached
    assert 0 < stats["misses"] < cold["report"]["cache_stats"]["misses"]


def test_dispatcher_counts_and_session_stats(dispatcher):
    request = AnalyzeRequest(program=SPEC)
    dispatcher.handle_line(request.to_json().replace("\n", " "))
    dispatcher.handle_line(request.to_json().replace("\n", " "))
    assert dispatcher.served == 2
    stats = dispatcher.session.stats()
    assert stats["requests"] == {"analyze": 2}
    assert stats["contexts"] >= 1
    assert stats["query_stats"]["computes"] > 0


# --- stdio transport ---------------------------------------------------------


def test_serve_stdio_round_trip_and_clean_shutdown():
    request = AnalyzeRequest(program=SPEC)
    stdin = io.StringIO(
        json.dumps({"id": 1, "request": request.to_payload()})
        + "\n\n"  # blank lines are ignored
        + '{"op": "shutdown"}\n'
        + json.dumps(request.to_payload())  # never reached
        + "\n"
    )
    stdout = io.StringIO()
    assert serve_stdio(Session(parallel=False), stdin, stdout) == 0
    lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert len(lines) == 2
    assert lines[0]["ok"] and lines[0]["id"] == 1
    assert lines[0]["report"] == Session().analyze(request).to_payload()
    assert lines[1]["bye"]


def test_server_warm_requests_stay_deterministic():
    line = json.dumps(AnalyzeRequest(program=SPEC).to_payload())
    stdout = io.StringIO()
    stdin = io.StringIO(f"{line}\n{line}\n")
    assert serve_stdio(Session(parallel=False), stdin, stdout) == 0
    first, second = stdout.getvalue().splitlines()
    assert first == second


def test_serve_stdio_stops_on_eof():
    stdout = io.StringIO()
    assert serve_stdio(Session(parallel=False), io.StringIO(""), stdout) == 0
    assert stdout.getvalue() == ""


def test_serve_stdio_over_long_line_is_answered_then_ends(monkeypatch):
    from repro.cluster import ClusterConfig

    monkeypatch.setattr(ClusterConfig, "max_line", 1024)
    ping = b'{"op": "ping"}\n'
    stdin = io.BytesIO(b'{"pad": "' + b"x" * 4096 + b'"}\n' + ping)
    stdout = io.StringIO()
    assert serve_stdio(Session(parallel=False), stdin, stdout) == 1
    lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
    # One error answer, then nothing: the ping after it is never read.
    assert len(lines) == 1
    assert not lines[0]["ok"] and "exceeds 1024 bytes" in lines[0]["error"]


def test_serve_stdio_accepts_a_line_of_exactly_the_limit(monkeypatch):
    from repro.cluster import ClusterConfig

    ping = b'{"op": "ping"}'
    monkeypatch.setattr(ClusterConfig, "max_line", len(ping))
    stdout = io.StringIO()
    stdin = io.BytesIO(ping + b"\n" + ping)  # the last line has no newline
    assert serve_stdio(Session(parallel=False), stdin, stdout) == 0
    pongs = [json.loads(l)["pong"] for l in stdout.getvalue().splitlines()]
    assert pongs == [True, True]


def test_cli_serve_stdio_smoke(monkeypatch, capsys):
    from repro.cli import main

    request = AnalyzeRequest(program=SPEC)
    stdin = io.StringIO(
        json.dumps(request.to_payload()) + "\n" + '{"op": "shutdown"}\n'
    )
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["serve", "--stdio", "--serial"]) == 0
    out_lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert out_lines[0]["ok"]
    assert out_lines[0]["report"]["kind"] == "analyze-report"
    assert out_lines[1]["bye"]


def test_cli_serve_sigterm_drains_and_exits_zero():
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "1", "--serial"],
        stdout=subprocess.PIPE,
        cwd=root,
        env=env,
    )
    try:
        serving = json.loads(proc.stdout.readline())["serving"]
        assert serving["workers"] == 1
        address = (serving["host"], serving["port"])
        with socket.create_connection(address, timeout=30) as idle, \
                socket.create_connection(address, timeout=30) as busy:
            idle_stream = idle.makefile("rw", encoding="utf-8", newline="\n")
            idle_stream.write('{"op": "ping"}\n')
            idle_stream.flush()
            assert json.loads(idle_stream.readline())["pong"]
            # A fuzz sweep keeps the worker busy for about a second.
            line = json.dumps(FuzzRequest(seeds=4, shrink=False).to_payload())
            busy.sendall((line + "\n").encode("utf-8"))
            time.sleep(0.3)  # let the frontend hand the request to the
            # worker, so the drain sees it in flight
            proc.send_signal(signal.SIGTERM)
            # The idle client sees EOF, not a hang...
            assert idle_stream.readline() == ""
            # ...and the in-flight request is still answered before exit.
            stream = busy.makefile("r", encoding="utf-8")
            response = json.loads(stream.readline())
            assert response["ok"] and response["report"]["kind"] == "fuzz-report"
            assert stream.readline() == ""  # then the frontend hangs up
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.stdout.close()
        proc.wait(timeout=10)


# --- CLI front door -----------------------------------


def _cli_serve_in_thread(capsys, argv):
    """Run ``repro serve`` on a thread; return (result dict, serving)."""
    from repro.cli import main

    result: dict = {}

    def run():
        result["code"] = main(argv)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    result["thread"] = thread
    buffered = ""
    deadline = time.time() + 120
    while time.time() < deadline:
        buffered += capsys.readouterr().out
        line = buffered.splitlines()[0] if buffered.splitlines() else ""
        if line.strip():
            return result, json.loads(line)["serving"]
        time.sleep(0.05)
    raise AssertionError("serve never announced its port")


def test_cli_serve_cluster_end_to_end(capsys):
    result, serving = _cli_serve_in_thread(
        capsys,
        ["serve", "--workers", "1", "--serial", "--request-timeout", "0"],
    )
    assert serving["workers"] == 1
    with socket.create_connection(
        (serving["host"], serving["port"]), timeout=60
    ) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        line = json.dumps(AnalyzeRequest(program=SPEC).to_payload())
        stream.write(line + "\n")
        stream.flush()
        response = json.loads(stream.readline())
        assert response["ok"]
        assert response["report"] == (
            Session(parallel=False).analyze(
                AnalyzeRequest(program=SPEC)
            ).to_payload()
        )
        stream.write('{"op": "shutdown"}\n')
        stream.flush()
        assert json.loads(stream.readline())["bye"]
    result["thread"].join(timeout=60)
    assert result.get("code") == 0


def test_cli_serve_single_worker_answers_pipelined_ping_and_shutdown(capsys):
    result, serving = _cli_serve_in_thread(
        capsys, ["serve", "--workers", "1", "--serial"]
    )
    assert serving["workers"] == 1
    with socket.create_connection(
        (serving["host"], serving["port"]), timeout=30
    ) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        stream.write('{"op": "ping"}\n{"op": "shutdown"}\n')
        stream.flush()
        assert json.loads(stream.readline())["pong"]
        assert json.loads(stream.readline())["bye"]
    result["thread"].join(timeout=60)
    assert result.get("code") == 0


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_cli_serve_rejects_non_positive_workers(value, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["serve", "--workers", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--workers" in err and "--stdio" in err
