"""A warm analyze reuses each unchanged function's pipeline result.

``FencePlacer.analyze_function`` keeps the orderings, pruned set, prune
statistics and plan it derived for a function on that function's
``EscapeInfo``, one slot per function, valid while the engine hands
back the same facts under the same variant and model. These tests pin
the contract: warm repeats reuse every plan object and give the same
report bytes; switching variant, model or detector gives each
configuration its own report; an acquire override never touches the
slot; an edit re-plans only the edited function; and a function that
left the program leaves no slot behind.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.api import AnalyzeRequest, ProgramSpec, Session
from repro.ir.instructions import Fence, FenceKind, FenceOrigin
from repro.obs import metrics as obs_metrics
from repro.programs import get_program
from tests.conftest import MP_SOURCE

REUSED = "repro_pipeline_functions_reused_total"
ANALYZED = "repro_pipeline_functions_analyzed_total"


def _counters() -> tuple[float, float]:
    counters = obs_metrics.REGISTRY.to_payload()["counters"]
    return counters.get(REUSED, 0), counters.get(ANALYZED, 0)


def _counted(call, *args):
    """``call(*args)``, and the (reused, analyzed) functions it counted."""
    reused, analyzed = _counters()
    result = call(*args)
    now = _counters()
    return result, (now[0] - reused, now[1] - analyzed)


def _request(
    spec: ProgramSpec, variant: str = "control", model: str = "x86-tso", **options
) -> AnalyzeRequest:
    return AnalyzeRequest(program=spec, variant=variant, model=model, **options)


def _bytes(report, keep_stats: bool = True) -> bytes:
    payload = report.to_payload()
    if not keep_stats:
        payload.pop("cache_stats", None)
    return json.dumps(payload, sort_keys=True).encode()


def _derived(analysis) -> dict[str, tuple]:
    return {
        name: (fa.orderings, fa.pruned, fa.prune_stats, fa.plan)
        for name, fa in analysis.functions.items()
    }


def _same_objects(a: dict[str, tuple], b: dict[str, tuple]) -> bool:
    return a.keys() == b.keys() and all(x is y for name in a for x, y in zip(a[name], b[name]))


def test_a_warm_repeat_reuses_every_plan_and_the_report_bytes():
    session = Session()
    spec = ProgramSpec.corpus("fft")
    program = session.load(spec)
    cold = session.analyze(_request(spec, stats=True))
    first = _derived(session.analysis(program))
    warm = session.analyze(_request(spec, stats=True))
    again = session.analyze(_request(spec, stats=True))
    assert _same_objects(first, _derived(session.analysis(program)))
    assert _bytes(warm, False) == _bytes(cold, False)
    assert _bytes(again) == _bytes(warm)
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.hits > 0


def test_a_warm_analyze_counts_only_reused_functions():
    session = Session()
    spec = ProgramSpec.corpus("fft")
    functions = len(session.load(spec).functions)
    assert _counted(session.analyze, _request(spec))[1] == (0, functions)
    assert _counted(session.analyze, _request(spec))[1] == (functions, 0)


@pytest.mark.parametrize("first, second", [("control", "vanilla"), ("vanilla", "control")])
def test_the_null_detector_and_control_each_get_their_own_report(first, second):
    spec = ProgramSpec.inline(MP_SOURCE, name="mp")
    session = Session()
    for variant in (first, second, first):
        report = session.analyze(_request(spec, variant))
        assert _bytes(report) == _bytes(Session().analyze(_request(spec, variant))), variant


def test_an_acquire_override_leaves_the_slot_in_place():
    session = Session()
    spec = ProgramSpec.corpus("radiosity")
    program = session.load(spec)
    before = _derived(session.analysis(program, "control"))
    functions = len(program.functions)
    for variant, interprocedural in (("vanilla", False), ("control", True)):
        request = _request(spec, variant, interprocedural=interprocedural)
        report, counted = _counted(session.analyze, request)
        assert _bytes(report) == _bytes(Session().analyze(request))
        if variant == "vanilla":
            assert counted == (0, functions)
    # Neither override replaced the control slots.
    assert _same_objects(before, _derived(session.analysis(program, "control")))


def test_alternating_configurations_match_a_fresh_session():
    spec = ProgramSpec.corpus("barnes")
    session = Session()
    mix = (
        ("control", "x86-tso", {}),
        ("control", "arm", {}),
        ("pensieve", "x86-tso", {}),
        ("address+control", "arm", {"arch": "arm", "synthesis": "optimal"}),
    )
    fresh = {
        (variant, model): _bytes(Session().analyze(_request(spec, variant, model, **options)))
        for variant, model, options in mix
    }
    for _ in range(2):
        for variant, model, options in mix:
            report = session.analyze(_request(spec, variant, model, **options))
            assert _bytes(report) == fresh[variant, model], (variant, model)


def test_an_in_place_fence_and_refresh_replan_only_that_function():
    session = Session()
    program = session.load(ProgramSpec.corpus("lu-con"))
    before = _derived(session.analysis(program))
    edited = program.threads[0].func_name
    func = program.functions[edited]
    func.blocks[0].insert(0, Fence(FenceKind.FULL, FenceOrigin.MANUAL))
    func.finalize()
    assert session.refresh(program) == (edited,)
    analysis, counted = _counted(session.analysis, program)
    assert counted == (len(program.functions) - 1, 1)
    after = _derived(analysis)
    for name in program.functions:
        kept = all(x is y for x, y in zip(before[name], after[name]))
        assert kept == (name != edited), name


def _memo_functions(session: Session, program) -> list:
    """The functions whose engine-held ``EscapeInfo`` carries a slot."""
    engine = session.context(program)
    return [
        value.function
        for (name, _key), value in engine._values.items()
        if name == "escape_info" and value.pipeline_memo is not None
    ]


def test_a_function_that_left_the_program_leaves_no_slot():
    source = get_program("lu-con").source
    extra = "\nfn zz_memo(tid) {\n  local t = 0;\n  t = t + tid;\n}\n"
    session = Session()
    spec = ProgramSpec.inline(source, name="lu-con")
    session.analyze(_request(spec))
    left = []
    for step in range(50):
        text = source + extra if step % 2 == 0 else source
        spec = ProgramSpec.inline(text, name="lu-con")
        session.analyze(_request(spec))
        program = session.load(spec)
        if "zz_memo" in program.functions:
            left.append(weakref.ref(session.analysis(program).functions["zz_memo"].plan))
        current = set(map(id, program.functions.values()))
        assert all(id(f) in current for f in _memo_functions(session, program)), step
    assert "zz_memo" not in program.functions
    gc.collect()
    assert len(left) == 25 and all(ref() is None for ref in left)
