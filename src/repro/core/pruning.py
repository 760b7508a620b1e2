"""Ordering pruning for legacy-DRF programs (paper Section 2.3).

Given detected acquires, keep only orderings conforming to Table I:

=====================  =======================================================
``r/w -> w_rel``       every escaping write is conservatively a release, so
                       any ordering *into a write* is kept;
``r_acq -> r/w``       any ordering *out of a detected acquire* is kept;
``w_rel -> r_acq``     sync-to-sync orderings are kept.
=====================  =======================================================

Equivalently (and this is how the paper states it): prune ``r1 -> r2``
unless ``r1`` is a detected acquire, and prune ``w -> r`` unless ``r``
is a detected acquire. Acquire status is per *instruction*: the read
half of an RMW is an acquire iff the RMW instruction was detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.machine_models import OrderKind
from repro.core.orderings import OrderingSet
from repro.ir.instructions import Instruction
from repro.util.orderedset import OrderedSet


@dataclass
class PruneStats:
    """Counts before/after pruning, by ordering kind."""

    before: dict[OrderKind, int]
    after: dict[OrderKind, int]

    @property
    def total_before(self) -> int:
        return sum(self.before.values())

    @property
    def total_after(self) -> int:
        return sum(self.after.values())

    @property
    def is_vacuous(self) -> bool:
        """True when the function had no orderings to prune at all."""
        return self.total_before == 0

    @property
    def surviving_fraction(self) -> float:
        """Per-function fraction of orderings surviving Table-I pruning.

        A function with zero orderings survives "vacuously" and reports
        1.0 here; when averaging across functions or programs, use
        :func:`aggregate_surviving_fraction` instead, which weights by
        ordering count so vacuous functions carry no weight and cannot
        inflate the aggregate.
        """
        if self.total_before == 0:
            return 1.0
        return self.total_after / self.total_before


def aggregate_surviving_fraction(stats: Iterable[PruneStats]) -> float:
    """Ordering-count-weighted surviving fraction across functions.

    Computed as ``sum(after) / sum(before)`` — equivalent to weighting
    each function's :attr:`PruneStats.surviving_fraction` by its
    pre-prune ordering count. Chosen over skipping empty functions plus
    an unweighted mean because it also keeps tiny functions (one or two
    orderings) from dominating the average of a program whose orderings
    live in a few large functions. Returns 1.0 when nothing anywhere
    needed pruning (vacuously all survived).
    """
    before = 0
    after = 0
    for s in stats:
        before += s.total_before
        after += s.total_after
    if before == 0:
        return 1.0
    return after / before


def prune_orderings(
    orderings: OrderingSet, sync_reads: OrderedSet[Instruction]
) -> tuple[OrderingSet, PruneStats]:
    """Apply Table I; returns the surviving orderings and statistics.

    Mask operations per source (see :mod:`repro.core.orderings`):
    everything into a write survives; out of a detected acquire,
    everything survives; out of any other write, orderings into an
    acquire survive too.
    """
    layout = orderings.layout
    writes = layout.writes
    acquires = layout.mask(lambda a: not a.is_write and a.inst in sync_reads)
    keep = [
        -1 if acquires >> i & 1 else writes | acquires if writes >> i & 1 else writes
        for i in range(len(layout.accesses))
    ]
    pruned_set = orderings.restricted(keep)
    stats = PruneStats(
        before=orderings.count_by_kind(), after=pruned_set.count_by_kind()
    )
    return pruned_set, stats
