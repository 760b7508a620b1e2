"""The detection-variant catalog.

A :class:`DetectionVariant` bundles everything a surface needs to run
one acquire-detection strategy: which :class:`PipelineVariant` drives
pruning, whether the detector is deliberately null (the validator's
``vanilla`` oracle-liveness probe), and whether the paper's theory
trusts its placements for legacy-DRF programs. Entries own their
analyze/place behaviour, so the oracle's old hardcoded
``PipelineVariant.CONTROL`` special case for vanilla is replaced by the
entry's own ``pipeline_variant`` — the variant under test is threaded
through the registry key.

New detectors plug in with :func:`register_variant`; every CLI choice
list, batch matrix, and fuzz run picks them up from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.machine_models import X86_TSO, MemoryModel
from repro.core.pipeline import (
    FencePlacer,
    PipelineVariant,
    ProgramAnalysis,
    insert_planned_fences,
)
from repro.ir.function import Program
from repro.query.engine import QueryEngine
from repro.registry.core import Registry
from repro.util.orderedset import OrderedSet


@dataclass(frozen=True)
class DetectionVariant:
    """One registered acquire-detection strategy."""

    key: str
    #: The pipeline configuration this variant runs (for a null
    #: detector: the pipeline it overrides with an empty acquire set).
    pipeline_variant: PipelineVariant
    #: Null detectors force zero acquires per function — maximally
    #: pruned placements that exist to prove the soundness oracle fires.
    null_detector: bool = False
    #: Does the paper's theory claim this variant's placements are
    #: sound for legacy-DRF programs?
    trusted: bool = False
    description: str = ""

    def placer(
        self,
        model: MemoryModel = X86_TSO,
        interprocedural: bool = False,
        backend=None,
        synthesis: str = "greedy",
    ) -> FencePlacer:
        return FencePlacer(
            self.pipeline_variant, model, interprocedural, backend, synthesis
        )

    def analyze(
        self,
        program: Program,
        model: MemoryModel = X86_TSO,
        context: QueryEngine | None = None,
        interprocedural: bool = False,
    ) -> ProgramAnalysis:
        """Run this variant's pipeline on ``program`` without mutation."""
        placer = self.placer(model, interprocedural)
        if not self.null_detector:
            return placer.analyze(program, context=context)
        engine = context if context is not None else QueryEngine(program)
        result = ProgramAnalysis(program, self.pipeline_variant, model)
        for name, func in program.functions.items():
            result.functions[name] = placer.analyze_function(
                func, sync_reads_override=OrderedSet(), context=engine
            )
        return result

    def place(
        self,
        program: Program,
        model: MemoryModel = X86_TSO,
        context: QueryEngine | None = None,
        interprocedural: bool = False,
        backend=None,
        synthesis: str = "greedy",
    ) -> ProgramAnalysis:
        """Run the pipeline and insert the fences (mutates ``program``;
        a supplied ``context`` is refreshed, so it stays valid). With
        an arch ``backend``, fences go in flavored (cheapest sufficient
        flavor per delay cut); ``synthesis="optimal"`` swaps in the
        min-cost placements of :mod:`repro.synth`."""
        if not self.null_detector:
            # Delegate so the pipeline's post-insertion engine refresh
            # applies here too (this is the path Session.place uses).
            return self.placer(model, interprocedural, backend, synthesis).place(
                program, context=context
            )
        result = self.analyze(program, model, context, interprocedural)
        insert_planned_fences(result, backend, synthesis=synthesis)
        if context is not None:
            context.refresh()
        return result


#: kind "variant" keeps lookup errors byte-compatible with the old
#: ``unknown variant 'x'; known: ...`` messages every surface printed.
VARIANTS: Registry[DetectionVariant] = Registry("variant")


def register_variant(entry: DetectionVariant) -> DetectionVariant:
    return VARIANTS.register(entry.key, entry)


register_variant(
    DetectionVariant(
        key=PipelineVariant.PENSIEVE.value,
        pipeline_variant=PipelineVariant.PENSIEVE,
        trusted=True,
        description="Pensieve baseline: every escaping read is a "
        "potential acquire; nothing prunes.",
    )
)
register_variant(
    DetectionVariant(
        key=PipelineVariant.CONTROL.value,
        pipeline_variant=PipelineVariant.CONTROL,
        description="Control-signature acquires only (paper Listing 1); "
        "misses pure address acquires.",
    )
)
register_variant(
    DetectionVariant(
        key=PipelineVariant.ADDRESS_CONTROL.value,
        pipeline_variant=PipelineVariant.ADDRESS_CONTROL,
        trusted=True,
        description="Control + address signatures (paper Listing 3): "
        "detects every acquire by Theorem 3.1.",
    )
)
register_variant(
    DetectionVariant(
        key="vanilla",
        pipeline_variant=PipelineVariant.CONTROL,
        null_detector=True,
        description="Deliberately-disabled detector (no acquires at "
        "all); exists to prove the differential oracle can fire.",
    )
)


def get_variant(key: str) -> DetectionVariant:
    return VARIANTS.get(key)


def variant_keys() -> tuple[str, ...]:
    """Every registered variant key, in registration order."""
    return VARIANTS.keys()


def pipeline_variant_keys() -> tuple[str, ...]:
    """Variants that make sense as analysis targets (null detectors
    excluded) — the batch/analyze choice set."""
    return tuple(k for k, v in VARIANTS.items() if not v.null_detector)


def detection_variant_keys() -> tuple[str, ...]:
    """Every variant the differential oracle can exercise, null
    detectors first (the historical ``DETECTION_VARIANTS`` order)."""
    null = tuple(k for k, v in VARIANTS.items() if v.null_detector)
    rest = tuple(k for k, v in VARIANTS.items() if not v.null_detector)
    return null + rest


def trusted_variant_keys() -> tuple[str, ...]:
    """Variants whose placements the paper claims sound, sorted (the
    historical ``TRUSTED_VARIANTS`` order)."""
    return tuple(sorted(k for k, v in VARIANTS.items() if v.trusted))
