#!/usr/bin/env python3
"""Regenerate the frontend golden files under tests/data/ir/.

``frontend_digests.json`` pins the IR of every corpus program and
litmus test (manual fences off and on); ``frontend_mutants.json`` pins
what the frontend makes of each source with one token deleted: the IR
digest or the exact error. ``tests/_frontend_golden.py`` defines both.

Run ``PYTHONPATH=src python tools/gen_frontend_goldens.py`` after a
deliberate change to the frontend's output or errors, and review the
diff like any golden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

OUT_DIR = ROOT / "tests" / "data" / "ir"


def main() -> int:
    from _frontend_golden import STRIDE, ir_digests, mutant_outcomes

    goldens = {
        "frontend_digests.json": {"schema": 1, "programs": ir_digests()},
        "frontend_mutants.json": {
            "schema": 1,
            "stride": STRIDE,
            "programs": mutant_outcomes(),
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for filename, payload in goldens.items():
        path = OUT_DIR / filename
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
