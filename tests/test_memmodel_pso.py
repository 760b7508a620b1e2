"""Tests for the PSO explorer and PSO-targeted fence placement.

PSO relaxes w->w: message passing genuinely breaks without fences, so
the pipeline configured with the PSO machine model must fence the
*release side* — exercising the Table-I orderings beyond TSO's w->r.
"""

import pytest

from repro.core.machine_models import PSO
from repro.core.pipeline import FencePlacer, PipelineVariant
from repro.frontend import compile_source
from repro.memmodel.litmus import LITMUS_TESTS
from repro.memmodel.sc import SCExplorer
from repro.memmodel.storebuf import PSOExplorer, TSOExplorer


def test_mp_breaks_under_pso():
    # The flag store may drain before the data store: stale read appears.
    test = LITMUS_TESTS["mp"]
    sc = SCExplorer(test.compile()).explore()
    pso = PSOExplorer(test.compile()).explore()
    assert sc.observation_sets() == {((1, "r", 1),)}
    assert ((1, "r", 0),) in pso.observation_sets()  # the PSO-only stale read


def test_mp_safe_under_tso_but_not_pso():
    test = LITMUS_TESTS["mp"]
    tso = TSOExplorer(test.compile()).explore()
    pso = PSOExplorer(test.compile()).explore()
    assert tso.observation_sets() < pso.observation_sets()


def test_pso_superset_of_tso_on_litmus():
    for name, test in LITMUS_TESTS.items():
        if name == "iriw":
            continue  # 4-thread: covered separately with a bound
        tso = TSOExplorer(test.compile()).explore()
        pso = PSOExplorer(test.compile()).explore()
        assert tso.observation_sets() <= pso.observation_sets(), name


def test_iriw_still_sc_under_pso():
    # PSO buffers are per-thread: still multi-copy atomic.
    test = LITMUS_TESTS["iriw"]
    sc = SCExplorer(test.compile()).explore()
    pso = PSOExplorer(test.compile(), max_states=2_000_000).explore()
    assert pso.complete
    assert pso.observation_sets() == sc.observation_sets()


def test_same_address_stores_stay_ordered():
    # Coherence: a thread's stores to one location drain in order.
    src = """
    global x;
    fn w(tid) { x = 1; x = 2; }
    fn r(tid) {
      local a = 0;
      local b = 0;
      a = x;
      b = x;
      observe("a", a);
      observe("b", b);
    }
    thread w(0);
    thread r(1);
    """
    pso = PSOExplorer(compile_source(src, "coherence")).explore()
    for outcome in pso.outcomes:
        values = dict(((k, v) for _, k, v in outcome.observations))
        if values["a"] == 2:
            assert values["b"] == 2  # never 2 then an older value


@pytest.mark.parametrize(
    "variant", [PipelineVariant.CONTROL, PipelineVariant.PENSIEVE]
)
def test_pipeline_with_pso_model_repairs_mp(variant):
    test = LITMUS_TESTS["mp"]
    fenced = test.compile()
    analysis = FencePlacer(variant, PSO).place(fenced)
    assert analysis.full_fence_count >= 1  # the producer-side w->w fence
    sc = SCExplorer(test.compile()).explore()
    pso = PSOExplorer(fenced).explore()
    assert pso.observation_sets() == sc.observation_sets()


def test_tso_placement_insufficient_for_pso():
    # Fences chosen for TSO (w->r only) do not repair PSO's w->w relax:
    # the model parameter genuinely matters.
    from repro.core.machine_models import X86_TSO

    test = LITMUS_TESTS["mp"]
    fenced = test.compile()
    FencePlacer(PipelineVariant.CONTROL, X86_TSO).place(fenced)
    sc = SCExplorer(test.compile()).explore()
    pso = PSOExplorer(fenced).explore()
    assert pso.observation_sets() != sc.observation_sets()


def test_handoff_multiword_under_pso():
    src = """
    global mailbox[2];
    global ready;

    fn sender(tid) {
      mailbox[0] = 7;
      mailbox[1] = 8;
      ready = 1;
    }

    fn receiver(tid) {
      local s = 0;
      while (ready == 0) { }
      s = mailbox[0] + mailbox[1];
      observe("s", s);
    }

    thread sender(0);
    thread receiver(1);
    """
    fenced = compile_source(src, "h")
    FencePlacer(PipelineVariant.CONTROL, PSO).place(fenced)
    sc = SCExplorer(compile_source(src, "h")).explore()
    pso = PSOExplorer(fenced).explore()
    assert pso.observation_sets() == sc.observation_sets() == {((1, "s", 15),)}
