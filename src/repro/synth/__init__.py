"""Optimal min-cost fence synthesis (an exact DP over the delay graph).

The greedy pipeline minimizes fence *count*; this package minimizes
fence *cost* on flavored ISAs, over the exact same per-block delay
intervals. Every plan carries the greedy cost it improves on, so the
saving is explicit. See :mod:`repro.synth.optimal` for the solver.
"""

from repro.synth.optimal import (
    SynthesisPlan,
    synthesize_analysis,
    synthesize_plan,
)

__all__ = [
    "SynthesisPlan",
    "synthesize_analysis",
    "synthesize_plan",
]
