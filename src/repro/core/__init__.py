"""The paper's contribution: acquire detection, pruning, fence placement."""

from repro.core.annotations import Annotation, render_annotations, suggest_annotations
from repro.core.delay_set import CriticalCycle, DelaySetAnalysis, DelaySetResult
from repro.core.fence_min import FencePlan, PlannedFence, apply_plan, plan_fences
from repro.core.interprocedural import (
    InterproceduralResult,
    detect_acquires_interprocedural,
)
from repro.core.machine_models import (
    MODELS,
    PSO,
    RMO,
    SC,
    X86_TSO,
    MemoryModel,
    OrderKind,
)
from repro.core.orderings import (
    Access,
    Ordering,
    OrderingSet,
    generate_orderings,
    logical_accesses,
)
from repro.core.pipeline import (
    FencePlacer,
    FunctionAnalysis,
    PipelineVariant,
    ProgramAnalysis,
    analyze_program,
    place_fences,
)
from repro.core.pruning import (
    PruneStats,
    aggregate_surviving_fraction,
    prune_orderings,
)
from repro.core.signatures import (
    AcquireResult,
    SignatureBreakdown,
    Variant,
    detect_acquires,
    detect_address_acquires,
    detect_control_acquires,
    signature_breakdown,
)

__all__ = [
    "Access",
    "AcquireResult",
    "Annotation",
    "CriticalCycle",
    "DelaySetAnalysis",
    "DelaySetResult",
    "FencePlacer",
    "FencePlan",
    "FunctionAnalysis",
    "InterproceduralResult",
    "MODELS",
    "MemoryModel",
    "OrderKind",
    "Ordering",
    "OrderingSet",
    "PSO",
    "PipelineVariant",
    "PlannedFence",
    "ProgramAnalysis",
    "PruneStats",
    "RMO",
    "SC",
    "SignatureBreakdown",
    "Variant",
    "X86_TSO",
    "aggregate_surviving_fraction",
    "analyze_program",
    "apply_plan",
    "detect_acquires",
    "detect_acquires_interprocedural",
    "detect_address_acquires",
    "detect_control_acquires",
    "generate_orderings",
    "logical_accesses",
    "place_fences",
    "plan_fences",
    "prune_orderings",
    "render_annotations",
    "signature_breakdown",
    "suggest_annotations",
]
