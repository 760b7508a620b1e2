"""The store-buffer explorer against the explorers it replaced.

``_storebuf_oracle`` keeps the separate TSO (FIFO of ``(addr, value)``)
and PSO (address -> FIFO map) explorers. The merged
:class:`~repro.memmodel.storebuf.StoreBufferExplorer` must visit the
same number of states, reach the same verdict and produce the same
observations on every litmus entry, reduced and exhaustive, unfenced
and with the pipeline's fences, plus a deepening run and a sweep of
generated programs. The relaxed ARM/POWER explorer now drains through
the same buffer code; its state counts are pinned to the values the
old hand-written buffers gave.
"""

from __future__ import annotations

import functools

import pytest

import _storebuf_oracle as oracle
from repro.core.machine_models import PSO, X86_TSO
from repro.core.pipeline import PipelineVariant, place_fences
from repro.frontend import compile_source
from repro.memmodel.litmus import LITMUS_TESTS
from repro.memmodel.relaxed import ARMExplorer, POWERExplorer
from repro.memmodel.storebuf import PSOExplorer, StoreBufferExplorer, TSOExplorer
from repro.validate.generator import SHAPES, generate_program

#: model key -> (explorer, reference explorer, machine model for fences)
CELLS = {
    "x86-tso": (TSOExplorer, oracle.TSOExplorer, X86_TSO),
    "pso": (PSOExplorer, oracle.PSOExplorer, PSO),
}

EXHAUSTIVE = {"reduction": False, "canonicalize": False}

#: Two stores to one address then a load of it (forwarding must pick
#: the newest), and a data store before a release store (PSO must
#: drain it first; TSO's FIFO already orders it).
RELEASE_PUBLISH = """
global int x;
global int y;
global int flag;

fn producer() {
  x = 1;
  x = 2;
  observe("fwd", x);
  y = 3;
  atomic_store(&flag, 1, release);
}

fn consumer() {
  while (atomic_load(&flag, acquire) == 0) { }
  observe("x", x);
  observe("y", y);
}

thread producer();
thread consumer();
"""

#: Store buffering through every fence flavor the explorers tell apart
#: (full, store-ordering, lightweight) plus an RMW.
FENCED_SB = """
global int x;
global int y;
global int z;

fn left() {
  x = 1;
  fence dmbst;
  y = 1;
  fence lwsync;
  observe("lz", z);
  local old = fadd(&z, 1);
  observe("lo", old);
}

fn right() {
  z = 1;
  y = 2;
  fence;
  observe("rx", x);
  observe("ry", y);
}

thread left();
thread right();
"""

EXTRA = {"release-publish": RELEASE_PUBLISH, "fenced-sb": FENCED_SB}

#: (reduced, exhaustive) state counts per litmus entry and extra
#: program, as the relaxed explorer's own buffer code explored them.
RELAXED_COUNTS = {
    "benign-races": {"arm": (36, 77), "power": (36, 77)},
    "dekker": {"arm": (73, 381), "power": (73, 381)},
    "dekker-scoreboard": {"arm": (101, 3985), "power": (101, 3985)},
    "iriw": {"arm": (145, 1132), "power": (145, 1132)},
    "lb": {"arm": (27, 56), "power": (27, 56)},
    "mp": {"arm": (42, 81), "power": (42, 81)},
    "mp-chain": {"arm": (1124, 14301), "power": (1124, 14301)},
    "mp-pointers": {"arm": (27, 60), "power": (27, 60)},
    "mp-stale": {"arm": (12, 43), "power": (12, 43)},
    "sb": {"arm": (36, 77), "power": (36, 77)},
    "release-publish": {"arm": (110, 302), "power": (110, 302)},
    "fenced-sb": {"arm": (104, 398), "power": (216, 656)},
}

def _same(model, factory, **opts):
    new_cls, ref_cls, _machine = CELLS[model]
    got = new_cls(factory(), **opts).explore()
    want = ref_cls(factory(), **opts).explore()
    assert got.states_explored == want.states_explored
    assert got.verdict == want.verdict
    assert got.complete == want.complete
    assert got.observation_sets() == want.observation_sets()
    assert got.outcomes == want.outcomes


def _fenced(model, factory):
    def build():
        program = factory()
        place_fences(program, PipelineVariant.CONTROL, CELLS[model][2])
        return program

    return build


def _extra(name):
    return lambda: compile_source(EXTRA[name], name, include_manual_fences=True)


def test_tso_and_pso_differ_only_in_class_constants():
    for cls in (TSOExplorer, PSOExplorer):
        assert cls.__bases__ == (StoreBufferExplorer,)
        assert set(vars(cls)) - {"__module__", "__doc__", "__qualname__"} == {
            "MODEL_KEY", "SEAL_EACH_STORE", "RELEASE_DRAINS",
        }


@pytest.mark.parametrize("mode", ["reduced", "exhaustive"])
@pytest.mark.parametrize("model", sorted(CELLS))
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_matches_reference(name, model, mode):
    opts = EXHAUSTIVE if mode == "exhaustive" else {}
    _same(model, LITMUS_TESTS[name].compile, **opts)
    _same(model, _fenced(model, LITMUS_TESTS[name].compile), **opts)


@pytest.mark.parametrize("mode", ["reduced", "exhaustive"])
@pytest.mark.parametrize("model", sorted(CELLS))
@pytest.mark.parametrize("name", sorted(EXTRA))
def test_buffer_paths_match_reference(name, model, mode):
    _same(model, _extra(name), **(EXHAUSTIVE if mode == "exhaustive" else {}))


@pytest.mark.parametrize("model", sorted(CELLS))
def test_deepening_matches_reference(model):
    _same(
        model, LITMUS_TESTS["dekker-scoreboard"].compile,
        deepening=True, initial_depth=4,
    )


@pytest.mark.parametrize("model", sorted(CELLS))
@pytest.mark.parametrize("shape", SHAPES)
def test_generated_programs_match_reference(shape, model):
    for seed in range(4):
        generated = generate_program(seed, shape)
        factory = functools.partial(
            compile_source, generated.source, generated.name
        )
        _same(model, factory)
        _same(model, _fenced(model, factory))


@pytest.mark.parametrize("cls", [ARMExplorer, POWERExplorer])
def test_relaxed_state_counts_are_unchanged(cls):
    factories = {name: test.compile for name, test in LITMUS_TESTS.items()}
    factories.update({name: _extra(name) for name in EXTRA})
    counts = {
        name: (
            cls(factory()).explore().states_explored,
            cls(factory(), **EXHAUSTIVE).explore().states_explored,
        )
        for name, factory in factories.items()
    }
    assert counts == {
        name: pins[cls.MODEL_KEY] for name, pins in RELAXED_COUNTS.items()
    }
