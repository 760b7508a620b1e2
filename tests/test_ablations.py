"""Design-choice ablations on corpus and litmus programs.

Each test switches one design choice off (or swaps it for its
alternative) and checks the direction of the effect:

* a weaker machine model never needs fewer full fences;
* treating locked RMWs as fences only saves fences;
* chasing load addresses in the slicer (beyond Listing 2) only marks
  more reads;
* keeping coherence-enforced cycles only adds delays;
* on a free-fence machine the Pensieve slowdown over the manual
  placement shrinks, so Fig. 10's slowdowns are fence cost;
* source- and target-side cross-block projection place different
  static counts;
* the Pensieve approximation is a superset of the exact delay set.
"""

from repro.analysis.aliasing import PointsTo
from repro.analysis.escape import EscapeInfo
from repro.analysis.reachability import ReachabilityTable
from repro.analysis.slicing import Slicer
from repro.core.delay_set import DelaySetAnalysis
from repro.core.fence_min import plan_fences
from repro.core.machine_models import MODELS, X86_TSO, MemoryModel
from repro.core.orderings import generate_orderings
from repro.core.pipeline import FencePlacer, PipelineVariant, place_fences
from repro.core.pruning import prune_orderings
from repro.core.signatures import Variant, detect_acquires
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import get_program
from repro.simulator.costmodel import DEFAULT_COSTS, FREE_FENCES
from repro.simulator.machine import TSOSimulator
from repro.util.orderedset import OrderedSet


def _full_fences(name: str, model: MemoryModel) -> int:
    program = get_program(name).compile()
    return FencePlacer(PipelineVariant.CONTROL, model).analyze(program).full_fence_count


def test_weaker_models_need_at_least_as_many_full_fences():
    counts = [_full_fences("ocean-con", MODELS[name]) for name in ("x86-tso", "pso", "rmo")]
    assert counts == sorted(counts)


def test_rmw_as_fence_never_adds_fences():
    no_rmw = MemoryModel(
        name="tso-no-rmw-fence", enforced=X86_TSO.enforced, rmw_is_full_fence=False
    )
    assert _full_fences("spanningtree", no_rmw) >= _full_fences("spanningtree", X86_TSO)


def test_address_chasing_marks_at_least_as_many_reads():
    program = get_program("water-spatial").compile()

    def marked(chase: bool) -> int:
        total = 0
        for func in program.functions.values():
            pt = PointsTo(func)
            slicer = Slicer(func, pt, EscapeInfo(func, pt), chase_load_addresses=chase)
            seen: set = set()
            sync: OrderedSet = OrderedSet()
            for inst in func.instructions():
                if inst.is_cond_branch():
                    slicer.slice_from_values(inst.operands, seen, sync)
            total += len(sync)
        return total

    assert marked(True) >= marked(False)


def test_keeping_coherence_cycles_only_adds_delays():
    program = LITMUS_TESTS["dekker"].compile()
    raw = DelaySetAnalysis(program, exclude_coherence_cycles=False).compute()
    refined = DelaySetAnalysis(program, exclude_coherence_cycles=True).compute()
    assert raw.total_delays >= refined.total_delays


def test_free_fences_shrink_the_pensieve_slowdown():
    program = get_program("lu-con")

    def slowdown(costs) -> float:
        manual = TSOSimulator(program.compile(manual_fences=True), costs).run().cycles
        fenced = program.compile()
        place_fences(fenced, PipelineVariant.PENSIEVE)
        return TSOSimulator(fenced, costs).run().cycles / manual

    assert slowdown(FREE_FENCES) < slowdown(DEFAULT_COSTS)


def test_projections_place_different_counts_on_barnes():
    def full_count(projection: str) -> int:
        total = 0
        for func in get_program("barnes").compile().functions.values():
            orderings = generate_orderings(func, EscapeInfo(func), ReachabilityTable(func))
            sync = detect_acquires(func, Variant.CONTROL).sync_reads
            pruned, _stats = prune_orderings(orderings, sync)
            plan = plan_fences(
                func, pruned, X86_TSO, entry_fence=bool(sync), projection=projection
            )
            total += plan.full_count
        return total

    assert (full_count("source"), full_count("target")) == (9, 12)


def test_pensieve_orderings_cover_the_exact_delay_set():
    program = LITMUS_TESTS["dekker"].compile()
    exact = DelaySetAnalysis(program).compute()
    for name, func in program.functions.items():
        approx = generate_orderings(func, EscapeInfo(func))
        assert len(approx) >= len(exact.delays.get(name, []))
