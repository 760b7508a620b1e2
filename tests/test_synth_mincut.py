"""The min-cut certificate: sweep pricing, merged bypasses, long chains.

``block_cut`` prices every gap with one sweep per ordering kind and
merges bypass edges that share an endpoint. Both must leave the
certificate exactly as the brute-force network builds it: gap prices
marked interval by interval, one infinite bypass per interval. Merged
parallel edges carry their summed capacity, so the network has the
same cuts; every maximum flow leaves the same residual source side, so
the witness gaps agree too. The blocking-flow search is iterative, so
an interval thousands of gaps long is an ordinary input.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _delay_core_oracle as oracle
from repro.api import AnalyzeRequest, ProgramSpec, Session
from repro.arch import backend_keys, get_backend
from repro.core.fence_min import DelayInterval
from repro.core.machine_models import OrderKind
from repro.synth import block_cut

KINDS = st.sampled_from(list(OrderKind))
ARCHES = st.sampled_from(sorted(backend_keys()))


@st.composite
def laminar_families(draw):
    """Matched pairs of a random bracket sequence: nested or disjoint."""
    brackets = draw(st.lists(st.booleans(), min_size=2, max_size=40))
    offset = draw(st.integers(0, 5))
    stack, spans = [], []
    for position, opens in enumerate(brackets):
        if opens:
            stack.append(position)
        elif stack:
            spans.append((stack.pop() + offset, position + offset))
    spans = spans or [(offset, offset + 1)]
    return [DelayInterval(0, lo, hi, True, draw(KINDS)) for lo, hi in spans]


crossing_families = st.lists(
    st.builds(
        lambda lo, length, kind: DelayInterval(0, lo, lo + length, True, kind),
        st.integers(0, 30),
        st.integers(0, 10),
        KINDS,
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(laminar_families(), crossing_families), ARCHES)
def test_block_cut_matches_the_brute_force_network(intervals, arch):
    backend = get_backend(arch)
    assert block_cut(intervals, backend) == oracle.block_cut(intervals, backend)


def test_a_5000_gap_interval_is_one_cheapest_cut():
    arm = get_backend("arm")
    value, gaps = block_cut([DelayInterval(0, 1, 5000, True, OrderKind.WR)], arm)
    assert value == arm.cheapest_flavor(frozenset({OrderKind.WR})).cost
    # Every chain edge saturates; the source side stops before the first.
    assert gaps == [1]


def _long_block(statements: int) -> str:
    body = "\n".join("  r = r + 1;" for _ in range(statements))
    return (
        "global int flag; global int a; global int b;\n"
        "fn f(tid) {\n  local r = 0;\n  while (flag == 0) { }\n  a = 1;\n"
        f"{body}\n  b = r;\n}}\nthread f(0);\nthread f(1);\n"
    )


def _arm_optimal(source: str):
    return Session().analyze(
        AnalyzeRequest(
            program=ProgramSpec.inline(source),
            variant="address+control",
            model="arm",
            arch="arm",
            synthesis="optimal",
        )
    )


def test_a_2000_statement_block_synthesizes():
    # The a -> b delay spans every gap of the block: thousands of hops
    # along the flow network's chain.
    report = _arm_optimal(_long_block(2000))
    assert report.fence_cost == report.greedy_cost == _arm_optimal(_long_block(1)).fence_cost > 0
