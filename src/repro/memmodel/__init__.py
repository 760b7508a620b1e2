"""Formal memory-model substrate: SC and weak-model explorers, HB, DRF.

This package verifies — rather than assumes — the paper's correctness
claims: SC exploration defines intended behaviour, the store-buffer
explorer (x86-TSO, PSO) and the relaxed explorer (ARM, POWER) model the
weak hardware, happens-before (Section 3's definitions) detects data
races, and the DRF checker validates markings.
"""

from repro.memmodel.drf import DRFReport, check_drf, check_drf_with_detected_acquires
from repro.memmodel.hb import (
    HappensBefore,
    Race,
    all_sync,
    find_races,
    sync_from_instructions,
)
from repro.memmodel.interpreter import (
    ExecutionError,
    GlobalLayout,
    PendingAction,
    ThreadExecutor,
    ThreadState,
)
from repro.memmodel.litmus import LITMUS_TESTS, LitmusTest, sync_marking_for
from repro.memmodel.sc import (
    ExplorationResult,
    Outcome,
    SCExplorer,
    Trace,
    TraceAction,
    enumerate_sc_traces,
)
from repro.memmodel.storebuf import (
    PSOExplorer,
    TSOExplorer,
    tso_equals_sc_for_observations,
)

__all__ = [
    "DRFReport",
    "ExecutionError",
    "ExplorationResult",
    "GlobalLayout",
    "HappensBefore",
    "LITMUS_TESTS",
    "LitmusTest",
    "Outcome",
    "PSOExplorer",
    "PendingAction",
    "Race",
    "SCExplorer",
    "TSOExplorer",
    "ThreadExecutor",
    "ThreadState",
    "Trace",
    "TraceAction",
    "all_sync",
    "check_drf",
    "check_drf_with_detected_acquires",
    "enumerate_sc_traces",
    "find_races",
    "sync_from_instructions",
    "sync_marking_for",
    "tso_equals_sc_for_observations",
]
