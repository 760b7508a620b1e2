"""repro — fence placement for legacy data-race-free programs.

A from-scratch reproduction of McPherson, Nagarajan, Sarkar & Cintra,
"Fence Placement for Legacy Data-Race-Free Programs via Synchronization
Read Detection" (PPoPP 2015 / extended TACO version), including every
substrate the paper depends on: a load/store IR and mini-C frontend,
alias/escape analyses, Pensieve-style ordering generation, exact
Shasha-Snir delay sets, Fang-style fence minimization, SC and x86-TSO
model checkers, a timed TSO performance simulator, and the full
Section-5 workload suite.

The stable public surface is :mod:`repro.api`::

    from repro.api import AnalyzeRequest, ProgramSpec, Session

    session = Session()
    report = session.analyze(
        AnalyzeRequest(program=ProgramSpec.inline(source_text, "my-program"))
    )
    print(report.full_fences, "full fences planned")
    artifact = report.to_json()   # schema-versioned, round-trips exactly

See ``examples/quickstart.py`` for the runnable walkthrough and
``repro.experiments`` for the paper's tables and figures.
"""

from repro.api import ProgramSpec, Session
from repro.core.machine_models import MODELS, PSO, RMO, SC, X86_TSO, MemoryModel, OrderKind
from repro.core.pipeline import (
    FencePlacer,
    PipelineVariant,
    ProgramAnalysis,
)
from repro.core.signatures import (
    SignatureBreakdown,
    Variant,
    detect_acquires,
    signature_breakdown,
)
from repro.frontend import compile_source
from repro.ir.function import Program
from repro.core.interprocedural import detect_acquires_interprocedural
from repro.memmodel.pso import PSOExplorer
from repro.memmodel.sc import SCExplorer
from repro.memmodel.tso import TSOExplorer
from repro.simulator.machine import TSOSimulator, simulate

__version__ = "2.0.0"

__all__ = [
    "FencePlacer",
    "MODELS",
    "MemoryModel",
    "OrderKind",
    "PSO",
    "PSOExplorer",
    "PipelineVariant",
    "Program",
    "ProgramAnalysis",
    "ProgramSpec",
    "RMO",
    "SC",
    "SCExplorer",
    "Session",
    "SignatureBreakdown",
    "TSOExplorer",
    "TSOSimulator",
    "Variant",
    "X86_TSO",
    "compile_source",
    "detect_acquires",
    "detect_acquires_interprocedural",
    "signature_breakdown",
    "simulate",
]
