"""The differential fence-validation oracle: the one Section 5 check.

The soundness criterion is the paper's own (Section 5): a placement is
good when the weak-model observation set of the fenced program equals
the SC observation set of the original. :class:`DifferentialCheck`
implements it once, for one weak model, and both user surfaces run it:
``repro check`` (:meth:`repro.api.Session.check`) on one program and
every pipeline variant, and ``repro fuzz`` (:func:`run_oracle`, fanned
out by :mod:`repro.validate.runner`) on generated programs. It explores

* the **unfenced** program under SC and under the weak model — does
  the weak model show observations SC cannot produce at all?
* each requested **variant's** placement, on a freshly compiled copy.

:func:`run_oracle` adds two inputs to the verdict: a DRF trace check
of the program under its intended marking (the legacy-DRF
precondition) and the **every-delay** placement (a full fence before
every access, see :func:`repro.core.fence_min.plan_every_delay_fences`)
— the conservative upper bound. If even that cannot restore SC, no
placement can, and the program is outside any placement's contract. A
*violation* is recorded when the program is well-synchronized, the
every-delay placement restores SC, but a variant's placement does not.

``vanilla`` is the deliberately-disabled detector — no acquires at all,
so every ordering that is not into a write is pruned. It exists to
prove the oracle can fire: a fuzzer whose oracle never reports is
indistinguishable from a broken one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.fence_min import apply_plan, plan_every_delay_fences
from repro.core.machine_models import MemoryModel
from repro.frontend import compile_source
from repro.ir.function import Program
from repro.memmodel.drf import check_drf
from repro.memmodel.explore import ExplorationResult
from repro.memmodel.litmus import sync_marking_for_globals
from repro.registry.models import (
    EXPLORERS,
    check_backend_for_model,
    weak_explorer_for,
)
from repro.registry.variants import (
    detection_variant_keys,
    get_variant,
    trusted_variant_keys,
)

def __getattr__(name: str):
    # DETECTION_VARIANTS / TRUSTED_VARIANTS are computed from the live
    # registry on every access, so detectors registered after this
    # module was imported are picked up immediately.
    #
    # DETECTION_VARIANTS: fence-placement strategies the oracle can
    # differentiate (null detectors listed first). TRUSTED_VARIANTS:
    # variants whose placements the paper's theory claims sound for
    # legacy-DRF programs (pensieve enforces everything;
    # address+control detects every acquire by Theorem 3.1).
    if name == "DETECTION_VARIANTS":
        return detection_variant_keys()
    if name == "TRUSTED_VARIANTS":
        return trusted_variant_keys()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def tso_breaks_unfenced(
    source: str, name: str, max_states: int = 1_000_000
) -> bool | None:
    """Does the unfenced program show non-SC observations on x86-TSO?

    Used to stamp honest ``tso_breaks_unfenced`` metadata onto emitted
    litmus snippets — a shrunk counterexample (or one found on another
    model) need not break the same way the original did. Returns None
    when either exploration blows the state bound.
    """
    check = DifferentialCheck("x86-tso", max_states)
    _, sc, tso = check.explore_unfenced(lambda: compile_source(source, name))
    if tso is None or not tso.complete:
        return None
    return tso.observation_sets() != sc.observation_sets()


def place_every_delay(program: Program) -> tuple[int, int]:
    """Insert the every-delay placement; returns (full, compiler) counts."""
    full = 0
    for func in program.functions.values():
        plan = plan_every_delay_fences(func)
        apply_plan(func, plan)
        full += plan.full_count
    return full, 0


def place_detected_fences(
    program: Program,
    variant: str,
    model: MemoryModel,
    backend=None,
    synthesis: str = "greedy",
    interprocedural: bool = False,
) -> tuple[int, int]:
    """Insert ``variant``'s placement; returns (full, compiler) counts.

    ``variant`` is a detection-variant registry key (one of
    :data:`DETECTION_VARIANTS`). The registry entry carries the whole
    strategy — including which pipeline configuration a null detector
    overrides — so the variant under test is threaded through here
    instead of being hardcoded per special case. With an arch
    ``backend`` the fences go in *flavored* (cheapest sufficient flavor
    per cut), so the differential exploration validates the flavor
    selection itself, not just the fence positions.
    ``synthesis="optimal"`` places :mod:`repro.synth`'s min-cost plans
    instead of the greedy ones, putting the optimizer itself under the
    oracle's soundness contract.
    """
    analysis = get_variant(variant).place(
        program, model, interprocedural=interprocedural,
        backend=backend, synthesis=synthesis,
    )
    if synthesis == "optimal" and analysis.lowered_plans is not None:
        # The greedy FencePlans no longer describe what went in; count
        # the optimizer's lowered placements instead.
        plans = analysis.lowered_plans.values()
        return (
            sum(p.full_count for p in plans),
            sum(p.compiler_count for p in plans),
        )
    return analysis.full_fence_count, analysis.compiler_fence_count


class DifferentialCheck:
    """The Section 5 check on one weak model, bounded by ``max_states``.

    Every exploration runs on its own copy from the caller's ``fresh``
    factory: fence insertion mutates IR, and no exploration may see
    another placement's fences.
    """

    def __init__(self, model: str, max_states: int) -> None:
        self.max_states = max_states
        self.explorer_cls, self.machine = weak_explorer_for(model)
        # Placements are lowered through the model's arch backend only
        # when its explorer honors flavor kill-sets (arm/power): there
        # a too-weak flavor choice surfaces as a failure to restore SC.
        # Flavor-blind explorers (TSO/PSO) keep generic-FULL
        # placements — exploring e.g. an sfence as if it were an
        # mfence would validate flavor selections the explorer cannot
        # model.
        self.backend = check_backend_for_model(model)

    def explore(self, program: Program) -> ExplorationResult:
        """``program``'s weak-model exploration."""
        return self.explorer_cls(program, max_states=self.max_states).explore()

    def explore_unfenced(
        self, fresh: Callable[[], Program], weak: bool = True
    ) -> tuple[Program, ExplorationResult, ExplorationResult | None]:
        """(SC copy, SC exploration, weak exploration) of the unfenced
        program; the SC copy stays unfenced for the caller to reuse.
        The weak side is None when ``weak`` is False, or when the SC
        exploration blew the bound and there is nothing to compare."""
        program = fresh()
        sc = EXPLORERS.get("sc")(program, max_states=self.max_states).explore()
        if not (weak and sc.complete):
            return program, sc, None
        return program, sc, self.explore(fresh())

    def explore_variant(
        self,
        fresh: Callable[[], Program],
        variant: str,
        synthesis: str = "greedy",
        interprocedural: bool = False,
    ) -> tuple[int, int, ExplorationResult]:
        """(full, compiler, exploration) of ``variant``'s placement in
        a fresh copy, inserted by :func:`place_detected_fences`."""
        program = fresh()
        full, compiler = place_detected_fences(
            program, variant, self.machine, self.backend,
            synthesis=synthesis, interprocedural=interprocedural,
        )
        return full, compiler, self.explore(program)


@dataclass(frozen=True)
class VariantVerdict:
    """One variant's differential result on one program."""

    variant: str
    full_fences: int
    compiler_fences: int
    weak_outcomes: int
    restores_sc: bool
    # Fewer full fences than the every-delay upper bound (precision).
    fences_saved: int
    # Soundness contract applied (DRF + every-delay restored SC) and
    # this placement failed it.
    violation: bool


@dataclass(frozen=True)
class OracleReport:
    """The full differential verdict for one program."""

    name: str
    model: str
    sc_outcomes: int
    weak_outcomes_unfenced: int
    weak_breaks_unfenced: bool
    well_synchronized: bool
    drf_complete: bool
    drf_races: int
    every_delay_fences: int
    full_restores_sc: bool
    verdicts: tuple[VariantVerdict, ...]
    complete: bool = True
    skipped: str | None = None

    @property
    def violations(self) -> tuple[VariantVerdict, ...]:
        return tuple(v for v in self.verdicts if v.violation)

    @property
    def contract_applies(self) -> bool:
        """Was the soundness contract in force for this program?"""
        return self.complete and self.well_synchronized and self.full_restores_sc


def _skipped(name: str, model: str, reason: str) -> OracleReport:
    return OracleReport(
        name=name,
        model=model,
        sc_outcomes=0,
        weak_outcomes_unfenced=0,
        weak_breaks_unfenced=False,
        well_synchronized=False,
        drf_complete=False,
        drf_races=0,
        every_delay_fences=0,
        full_restores_sc=False,
        verdicts=(),
        complete=False,
        skipped=reason,
    )


def run_oracle(
    source: str,
    name: str,
    variants: tuple[str, ...] | None = None,
    model: str = "x86-tso",
    sync_globals: frozenset[str] = frozenset(),
    max_states: int = 1_000_000,
    drf_max_traces: int = 600,
    explore_unfenced: bool = True,
    synthesis: str = "greedy",
) -> OracleReport:
    """Run the full differential check on one mini-C source text.

    Fence insertion mutates IR, so every placement explores a freshly
    compiled copy of ``source``; the unfenced copy is shared between
    the SC reference exploration and the DRF trace check.

    ``explore_unfenced=False`` skips the unfenced weak-model
    exploration — it informs reporting but plays no part in the
    soundness verdict, and the shrinker's predicate (which re-runs this
    oracle per candidate) drops it for speed. The report then records
    ``weak_breaks_unfenced=False`` / ``weak_outcomes_unfenced=0``.
    """
    if variants is None:  # default: the live trusted set
        variants = trusted_variant_keys()
    check = DifferentialCheck(model, max_states)

    def fresh() -> Program:
        return compile_source(source, name)

    unfenced, sc, weak = check.explore_unfenced(fresh, weak=explore_unfenced)
    if not sc.complete:
        return _skipped(name, model, "SC state space exceeded max_states")
    sc_obs = sc.observation_sets()
    if weak is None:
        weak_obs = sc_obs
    elif not weak.complete:
        return _skipped(name, model, "weak state space exceeded max_states")
    else:
        weak_obs = weak.observation_sets()

    marking = sync_marking_for_globals(
        unfenced, sync_globals & set(unfenced.globals)
    )
    drf = check_drf(unfenced, marking, max_traces=drf_max_traces)

    # The every-delay upper bound stays generic-FULL by design.
    full_fenced = fresh()
    every_delay_fences, _ = place_every_delay(full_fenced)
    full_weak = check.explore(full_fenced)
    if not full_weak.complete:
        return _skipped(name, model, "fenced state space exceeded max_states")
    full_restores = full_weak.observation_sets() == sc_obs

    contract = drf.is_race_free and full_restores
    verdicts = []
    for variant in variants:
        full, compiler, fenced_weak = check.explore_variant(
            fresh, variant, synthesis=synthesis
        )
        if not fenced_weak.complete:
            return _skipped(
                name, model, f"{variant} fenced state space exceeded max_states"
            )
        fenced_obs = fenced_weak.observation_sets()
        restores = fenced_obs == sc_obs
        verdicts.append(
            VariantVerdict(
                variant=variant,
                full_fences=full,
                compiler_fences=compiler,
                weak_outcomes=len(fenced_obs),
                restores_sc=restores,
                fences_saved=every_delay_fences - full,
                violation=contract and not restores,
            )
        )

    return OracleReport(
        name=name,
        model=model,
        sc_outcomes=len(sc_obs),
        weak_outcomes_unfenced=len(weak_obs) if explore_unfenced else 0,
        weak_breaks_unfenced=weak_obs != sc_obs,
        well_synchronized=drf.is_race_free,
        drf_complete=drf.complete,
        drf_races=len(drf.races),
        every_delay_fences=every_delay_fences,
        full_restores_sc=full_restores,
        verdicts=tuple(verdicts),
    )
