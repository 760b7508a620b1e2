"""Differential fence validation: fuzzer, oracle, shrinker, runner.

The paper's end-to-end claim — synchronization-read detection places
enough fences to make legacy DRF programs behave SC on TSO — is only
exercised by the hand-curated litmus corpus elsewhere in this repo.
This package closes the loop into a continuously-runnable soundness
oracle:

* :mod:`repro.validate.generator` — a seeded fuzzer producing tiny
  well-synchronized programs from randomized synchronization scaffolds
  (flag handoff, pointer publish, Dekker-style mutual exclusion,
  sense-reversing barrier, work-stealing deque) mixed with
  stream/gather/guarded compute kernels;
* :mod:`repro.validate.oracle` — the differential check, the one
  implementation of the paper's Section 5 criterion behind both
  ``repro check`` and ``repro fuzz``: SC outcomes of the unfenced
  program vs weak-memory outcomes under no fences, each detection
  variant's fences, and the every-delay full placement;
* :mod:`repro.validate.shrink` — greedy delta-debugging of any
  counterexample down to a paste-ready ``LitmusTest`` snippet;
* :mod:`repro.validate.runner` — fans the {seed x shape x variant x
  model} matrix over the batch engine's process pool with a wall-clock
  budget into the wire :class:`repro.api.FuzzReport`; surfaced as
  ``python -m repro fuzz``.

The submodules load on first use of a name exported here, so
``repro check`` (which needs only the oracle) never imports the
generator, the shrinker or the process pool.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "SHAPES": "generator",
    "GeneratedProgram": "generator",
    "generate_program": "generator",
    "DifferentialCheck": "oracle",
    "OracleReport": "oracle",
    "VariantVerdict": "oracle",
    "place_detected_fences": "oracle",
    "place_every_delay": "oracle",
    "run_oracle": "oracle",
    # Live registry views (see repro.validate.oracle.__getattr__): an
    # eager re-export would freeze the variant list at import time.
    "DETECTION_VARIANTS": "oracle",
    "TRUSTED_VARIANTS": "oracle",
    "FuzzCase": "runner",
    "execute_fuzz_case": "runner",
    "run_fuzz": "runner",
    "shrink_counterexample": "shrink",
    "to_litmus_snippet": "shrink",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = sorted(_EXPORTS)
