#!/usr/bin/env python
"""Emit one real Prometheus exposition for the format checker.

Drives a warm :class:`~repro.api.Session` through the very same
:class:`~repro.serve.server.ServeDispatcher` the daemon uses — one
analyze (with optimal synthesis, so the synthesis histograms fill),
the same program again with one function appended to its source, sent
inline under the same name (a wire edit, so the splice and fingerprint
counters appear), then its source as it was (a second edit, which
re-cuts only the item before the removed function), one model check,
one deliberate schema error — then checks the splice counters' exact
values and prints the ``metrics`` op's text exposition to stdout. CI
pipes it into ``tools/check_prom_format.py``::

    PYTHONPATH=src python tools/metrics_smoke.py \
        | python tools/check_prom_format.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ProgramSpec  # noqa: E402
from repro.api.reports import AnalyzeRequest, CheckRequest  # noqa: E402
from repro.api.session import Session  # noqa: E402
from repro.frontend import compile_source  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.programs import get_program  # noqa: E402
from repro.serve.server import ServeDispatcher  # noqa: E402


def expected_splice_counters(source: str) -> dict[str, int]:
    """The item and function counters of the two edits: the first
    splice cuts and lowers everything, the second re-cuts only the item
    before the removed function and keeps every function."""
    program = compile_source(source, "matrix")
    items = len(program.globals) + len(program.functions) + len(program.threads)
    return {
        "repro_session_items_recut_total": items + 1 + 1,
        "repro_session_items_reused_total": items - 1,
        "repro_session_functions_relowered_total": len(program.functions) + 1,
        "repro_session_functions_reused_total": len(program.functions),
    }


def main() -> int:
    obs_metrics.REGISTRY.reset()
    dispatcher = ServeDispatcher(Session())
    source = get_program("matrix").source
    requests = [
        AnalyzeRequest(
            program=ProgramSpec.corpus("matrix"),
            arch="x86", synthesis="optimal",
        ).to_payload(),
        AnalyzeRequest(
            program=ProgramSpec.inline(
                source + "\nfn smoke_extra(tid) { }\n", name="matrix"
            ),
        ).to_payload(),
        AnalyzeRequest(program=ProgramSpec.inline(source, name="matrix")).to_payload(),
        CheckRequest(program=ProgramSpec.litmus("mp")).to_payload(),
        {"kind": "analyze-request"},  # schema error: counts ok="false"
    ]
    for request in requests:
        dispatcher.handle_line(json.dumps(request))
    response, _stop = dispatcher.handle_op({"op": "metrics"})
    if not response.get("ok"):
        print(f"metrics op failed: {response.get('error')}", file=sys.stderr)
        return 1
    counters = obs_metrics.REGISTRY.to_payload()["counters"]
    for name, expected in expected_splice_counters(source).items():
        if counters.get(name) != expected:
            print(f"{name}: {counters.get(name)}, expected {expected}", file=sys.stderr)
            return 1
    sys.stdout.write(response["text"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
