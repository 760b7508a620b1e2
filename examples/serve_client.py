"""Drive the `repro serve` daemon end to end, over both transports.

The daemon speaks JSON lines: one schema-versioned request envelope in,
one response out, against a long-lived session whose query cache stays
warm across requests. Both transports decode a line with the same
function and answer a request with the same dispatcher, so this client
runs one asserted script twice: over ``repro serve --stdio --serial``
(stdin/stdout), then over the socket of a one-worker cluster
(``repro serve --workers 1``, whose port is read from the JSON line the
server announces on stdout). The script:

1. pings the daemon and round-trips an
   :class:`~repro.api.AnalyzeRequest` and a
   :class:`~repro.api.CheckRequest` (with ``id`` correlation);
2. re-sends the analyze request to show the warm second hit;
3. edits the program over the wire: ``mp`` with one appended function,
   then lines added mid-source (every later line number shifts), then
   a block comment opened and never closed, and a syntax error (both
   answered ``{"ok": false}`` with a cold compile's ``line N:``
   message, the daemon serving on), then ``mp`` again; then edits that
   cross item boundaries: a global added and deleted, a function split
   in two, and a global inserted before the first token; every report
   equals a fresh in-process ``Session``'s;
4. asks for server/session stats, then shuts the daemon down cleanly
   and verifies a zero exit status.

Run:  python examples/serve_client.py
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.api import AnalyzeRequest, CheckRequest, ProgramSpec, Session  # noqa: E402
from repro.frontend import compile_source  # noqa: E402

SOURCE = """
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


def cold_error(source: str) -> str:
    """The message a cold compile of ``source`` fails with."""
    try:
        compile_source(source, "mp")
    except Exception as exc:  # noqa: BLE001 - the message is compared
        return str(exc)
    raise AssertionError("the source compiles")


def spawn(args: list[str]) -> subprocess.Popen:
    """Start ``python -m repro serve ARGS`` on the same repro tree as
    this script, with pipes on stdin and stdout."""
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )


def session_stats(stats: dict) -> list[dict]:
    """The session block of each dispatcher behind a ``stats`` reply:
    the stdio daemon's own, or one per cluster worker."""
    if "session" in stats:
        return [stats["session"]]
    return [row["session"] for row in stats["cluster"]["workers"]]


def exercise(label: str, call) -> None:
    """The asserted script, over one transport's ``call``."""
    spec = ProgramSpec.inline(SOURCE, name="mp")

    pong = call({"op": "ping"})
    assert pong["ok"] and pong["pong"], pong
    print(f"[{label}] daemon up (repro {pong['version']})")

    analyze = call(
        {"id": 1, "request": AnalyzeRequest(program=spec, stats=True).to_payload()}
    )
    assert analyze["ok"] and analyze["id"] == 1, analyze
    report = analyze["report"]
    print(
        f"[{label}] analyze: {report['sync_reads']}/{report['escaping_reads']} "
        f"reads marked acquire, {report['full_fences']} full fences "
        f"(cold: {report['cache_stats']['misses']} fact misses)"
    )

    check = call(
        {"id": 2, "request": CheckRequest(program=spec, model="x86-tso").to_payload()}
    )
    assert check["ok"] and check["id"] == 2, check
    verdicts = {v["variant"]: v["restored_sc"] for v in check["report"]["variants"]}
    print(f"[{label}] check on x86-tso: SC restored per variant -> {verdicts}")

    again = call({"id": 3, "request": AnalyzeRequest(program=spec).to_payload()})
    assert again["ok"], again
    assert {k: v for k, v in again["report"].items() if k != "cache_stats"} == {
        k: v for k, v in report.items() if k != "cache_stats"
    }, "warm re-analysis must match the cold report"
    print(f"[{label}] warm re-analysis: byte-identical report")

    # Wire edits: the daemon re-lexes only the edited span and re-lowers
    # only the functions whose tokens changed; a source that does not
    # compile is answered with the error a cold compile raises, and
    # leaves the warm program as it was.
    appended = SOURCE + "fn helper(tid) { local t = tid; t = t + 1; }\n"
    shifted = appended.replace(
        "  local r = 0;\n", "  local r = 0;\n  // two lines more\n  local w = 1;\n"
    )
    opened = shifted.replace("fn helper(", "/* fn helper(")
    broken = SOURCE + "fn broken(tid) { local = ; }\n"
    spare = SOURCE.replace("global int data;\n", "global int data;\nglobal int spare;\n")
    split = SOURCE.replace(
        "data = 1; flag = 1; }", "data = 1; }\nfn producer_flag(tid) { flag = 1; }"
    )
    steps = (
        ("one appended function", appended),
        ("lines added mid-source", shifted),
        ("an unterminated block comment", opened),
        ("syntax error", broken),
        ("mp again", SOURCE),
        ("a global added", spare),
        ("a global deleted", SOURCE),
        ("a function split in two", split),
        ("a global before the first token", "global int zeroth;" + split),
    )
    for req_id, (edit, source) in enumerate(steps, start=4):
        program = ProgramSpec.inline(source, name="mp")
        reply = call(
            {"id": req_id, "request": AnalyzeRequest(program=program).to_payload()}
        )
        assert reply["id"] == req_id, reply
        if source in (opened, broken):
            cold = cold_error(source)
            assert cold.startswith("line "), cold
            assert not reply["ok"], reply
            assert cold in reply["error"], (cold, reply)
            print(f"[{label}] edit, {edit}: {reply['error']}")
            continue
        assert reply["ok"], reply
        fresh = Session().analyze(AnalyzeRequest(program=program)).to_payload()
        got = {k: v for k, v in reply["report"].items() if k != "cache_stats"}
        assert got == {k: v for k, v in fresh.items() if k != "cache_stats"}, (
            "a spliced edit must match a fresh session's report"
        )
        print(f"[{label}] edit, {edit}: report matches a fresh session")

    stats = call({"op": "stats"})
    assert stats["ok"] and stats["server"]["served"] == 10, stats
    assert stats["server"]["errors"] == 2, stats
    query_stats = [session["query_stats"] for session in session_stats(stats)]
    print(
        f"[{label}] server stats: {stats['server']['served']} served, "
        f"{sum(q['hits'] for q in query_stats)} query hits / "
        f"{sum(q['computes'] for q in query_stats)} computes"
    )

    bye = call({"op": "shutdown"})
    assert bye["ok"] and bye["bye"], bye


def over_stdio() -> None:
    daemon = spawn(["--stdio", "--serial"])

    def call(payload: dict) -> dict:
        daemon.stdin.write(json.dumps(payload) + "\n")
        daemon.stdin.flush()
        return json.loads(daemon.stdout.readline())

    exercise("stdio", call)
    daemon.stdin.close()
    returncode = daemon.wait(timeout=30)
    assert returncode == 0, f"daemon exited with {returncode}"
    print("[stdio] daemon shut down cleanly")


def over_socket() -> None:
    daemon = spawn(["--workers", "1", "--serial"])
    announce = json.loads(daemon.stdout.readline())
    assert announce["ok"] and announce["serving"]["workers"] == 1, announce
    where = (announce["serving"]["host"], announce["serving"]["port"])
    with socket.create_connection(where, timeout=120) as sock:
        stream = sock.makefile("rw", encoding="utf-8")

        def call(payload: dict) -> dict:
            stream.write(json.dumps(payload) + "\n")
            stream.flush()
            return json.loads(stream.readline())

        exercise("socket", call)
        stream.close()
    daemon.stdin.close()
    returncode = daemon.wait(timeout=60)
    daemon.stdout.close()
    assert returncode == 0, f"daemon exited with {returncode}"
    print("[socket] daemon shut down cleanly")


def main() -> int:
    over_stdio()
    over_socket()
    return 0


if __name__ == "__main__":
    sys.exit(main())
