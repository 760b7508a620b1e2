"""The memory-model and explorer catalogs.

A :class:`ModelEntry` ties a hardware :class:`MemoryModel` description
(which ordering kinds need fences) to the exhaustive state-space
explorer that implements the same semantics, replacing the
``MODELS``-dict plumbing in the CLI and the oracle's private
``WEAK_EXPLORERS`` table. Explorers are themselves a registry so a new
machine model can ship its explorer without touching any surface:
register the explorer class, register a :class:`ModelEntry` naming it,
and ``repro check``/``repro fuzz`` accept the new ``--model`` key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.machine_models import MODELS as _MACHINE_MODELS, MemoryModel
from repro.memmodel.relaxed import ARMExplorer, POWERExplorer
from repro.memmodel.sc import SCExplorer
from repro.memmodel.storebuf import PSOExplorer, TSOExplorer
from repro.registry.core import Registry

#: Exhaustive state-space explorers by machine key. ``sc`` is the
#: reference semantics every weak model is differenced against.
EXPLORERS: Registry[type] = Registry("explorer")
EXPLORERS.register("sc", SCExplorer)
EXPLORERS.register("x86-tso", TSOExplorer)
EXPLORERS.register("pso", PSOExplorer)
EXPLORERS.register("arm", ARMExplorer)
EXPLORERS.register("power", POWERExplorer)


@dataclass(frozen=True)
class ModelEntry:
    """One registered hardware memory model."""

    key: str
    model: MemoryModel
    #: Short human label used in report rendering ("TSO + control: ...").
    display: str
    #: :data:`EXPLORERS` key of the exhaustive explorer implementing
    #: this model's semantics; None = fence placement only, no
    #: model-checking support (e.g. RMO).
    explorer: str | None = None
    #: The reference semantics (SC) that weak models are differenced
    #: against. A reference model is never "checkable" — there is
    #: nothing to difference it from — regardless of its key, so a
    #: backend-registered reference cannot masquerade as weak.
    is_reference: bool = False
    #: :mod:`repro.arch` backend key whose fence flavors/costs price
    #: this model's placements; None = no flavored lowering.
    arch: str | None = None
    description: str = ""

    @property
    def checkable(self) -> bool:
        """Can this model be differenced against SC (weak explorer)?"""
        return self.explorer is not None and not self.is_reference

    def explorer_cls(self) -> type:
        if self.explorer is None:
            raise KeyError(
                f"no weak-memory explorer for model {self.key!r}; "
                f"known: {', '.join(weak_model_keys())}"
            )
        return EXPLORERS.get(self.explorer)


MODELS: Registry[ModelEntry] = Registry("model")


def register_model(entry: ModelEntry) -> ModelEntry:
    return MODELS.register(entry.key, entry)


register_model(
    ModelEntry(
        key="sc",
        model=_MACHINE_MODELS["sc"],
        display="SC",
        explorer="sc",
        is_reference=True,
        description="Sequential consistency: every ordering enforced; "
        "the reference semantics.",
    )
)
register_model(
    ModelEntry(
        key="x86-tso",
        model=_MACHINE_MODELS["x86-tso"],
        display="TSO",
        explorer="x86-tso",
        arch="x86",
        description="x86-TSO: FIFO store buffers relax w->r only.",
    )
)
register_model(
    ModelEntry(
        key="pso",
        model=_MACHINE_MODELS["pso"],
        display="PSO",
        explorer="pso",
        arch="x86",
        description="SPARC PSO: per-address store buffers additionally "
        "relax w->w (priced with the x86 flavor catalog as a stand-in).",
    )
)
register_model(
    ModelEntry(
        key="rmo",
        model=_MACHINE_MODELS["rmo"],
        display="RMO",
        explorer=None,
        description="RMO/weak: nothing enforced; fence placement only "
        "(no exhaustive explorer).",
    )
)
register_model(
    ModelEntry(
        key="arm",
        model=_MACHINE_MODELS["arm"],
        display="ARM",
        explorer="arm",
        arch="arm",
        description="ARMv7-style relaxed: all four kinds reorderable; "
        "bounded stale-read + grouped-store-buffer explorer.",
    )
)
register_model(
    ModelEntry(
        key="power",
        model=_MACHINE_MODELS["power"],
        display="POWER",
        explorer="power",
        arch="power",
        description="POWER: fully relaxed program order; flavored "
        "fence ISA (sync / lwsync / eieio).",
    )
)


def get_model(key: str) -> ModelEntry:
    return MODELS.get(key)


def model_keys() -> tuple[str, ...]:
    return MODELS.keys()


def weak_model_keys() -> tuple[str, ...]:
    """Models that can be differenced against SC — the ``repro check``
    and ``repro fuzz`` ``--model`` choice set."""
    return tuple(k for k, e in MODELS.items() if e.checkable)


def backend_for_model(key: str):
    """The :class:`~repro.arch.backend.ArchBackend` pricing ``key``'s
    placements, or None for models without a registered arch."""
    entry = get_model(key)
    if entry.arch is None:
        return None
    from repro.arch.backend import get_backend

    return get_backend(entry.arch)


def check_backend_for_model(key: str):
    """The backend differential checking should lower placements with.

    None unless the model's explorer *honors* fence flavors (gives a
    flavored fence its declared kill-set semantics, like the relaxed
    arm/power explorers). The TSO/PSO explorers treat every full fence
    as mfence-strength, so exploring flavored placements through them
    would validate flavor selections they cannot model — those models
    keep generic-FULL placements for checking and use their backend
    for cost reporting only.
    """
    entry = get_model(key)
    if entry.explorer is None:
        return None
    explorer_cls = EXPLORERS.get(entry.explorer)
    if not getattr(explorer_cls, "HONORS_FLAVORS", False):
        return None
    return backend_for_model(key)


def weak_explorer_for(key: str) -> tuple[type, MemoryModel]:
    """(explorer class, machine model) for a checkable model key.

    Raises ``KeyError('unknown model ...')`` for unregistered keys and
    ``KeyError('no weak-memory explorer ...')`` for registered models
    without exhaustive explorer coverage.
    """
    entry = get_model(key)
    if not entry.checkable:
        raise KeyError(
            f"no weak-memory explorer for model {key!r}; "
            f"known: {', '.join(weak_model_keys())}"
        )
    return entry.explorer_cls(), entry.model
