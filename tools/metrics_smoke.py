#!/usr/bin/env python
"""Emit one real Prometheus exposition for the format checker.

Drives a warm :class:`~repro.api.Session` through the very same
:class:`~repro.serve.server.ServeDispatcher` the daemon uses — one
analyze (with optimal synthesis, so the synthesis histograms fill),
the same program again with one function appended to its source, sent
inline under the same name (a wire edit, so the splice and fingerprint
counters appear), one model check, one deliberate schema error — then
prints the ``metrics`` op's text exposition to stdout. CI pipes it
into ``tools/check_prom_format.py``::

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
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.programs import get_program  # noqa: E402
from repro.serve.server import ServeDispatcher  # noqa: E402


def main() -> int:
    obs_metrics.REGISTRY.reset()
    dispatcher = ServeDispatcher(Session())
    requests = [
        AnalyzeRequest(
            program=ProgramSpec.corpus("matrix"),
            arch="x86", synthesis="optimal",
        ).to_payload(),
        AnalyzeRequest(
            program=ProgramSpec.inline(
                get_program("matrix").source + "\nfn smoke_extra(tid) { }\n",
                name="matrix",
            ),
        ).to_payload(),
        CheckRequest(program=ProgramSpec.litmus("mp")).to_payload(),
        {"kind": "analyze-request"},  # schema error: counts ok="false"
    ]
    for request in requests:
        dispatcher.handle_line(json.dumps(request))
    response, _stop = dispatcher.handle_op({"op": "metrics"})
    if not response.get("ok"):
        print(f"metrics op failed: {response.get('error')}", file=sys.stderr)
        return 1
    sys.stdout.write(response["text"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
