"""Tests for the parallel batch engine (repro.engine.batch) and CLI."""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.machine_models import MODELS
from repro.core.pipeline import PipelineVariant, analyze_program
from repro.engine.batch import (
    BatchJob,
    BatchResult,
    RESULT_KIND,
    BatchRunner,
    execute_job,
    parallel_map,
)
from repro.programs import all_programs, get_program
from repro.util.store import BlobStore

ALL_VARIANTS = [v.value for v in PipelineVariant]


# --- jobs and content keys --------------------------------------------------


def test_content_key_sensitivity():
    base = BatchJob("fft", "control", "x86-tso")
    assert base.content_key() == BatchJob("fft", "control", "x86-tso").content_key()
    assert base.content_key() != BatchJob("fft", "pensieve", "x86-tso").content_key()
    assert base.content_key() != BatchJob("fft", "control", "rmo").content_key()
    explicit = BatchJob("fft", "control", "x86-tso", source="global g; fn f() { g = 1; }")
    assert explicit.content_key() != base.content_key()


def test_execute_job_matches_serial_pipeline_all_programs():
    """Acceptance: batch per-program fence counts == serial pipeline, all 17."""
    for name, bench in all_programs().items():
        serial = analyze_program(bench.compile(), PipelineVariant.CONTROL)
        batch = execute_job(BatchJob(name, "control", "x86-tso"))
        assert batch.full_fences == serial.full_fence_count, name
        assert batch.compiler_fences == serial.compiler_fence_count, name
        assert batch.sync_reads == serial.total_sync_reads, name
        assert batch.escaping_reads == serial.total_escaping_reads, name
        assert batch.pruned_orderings == serial.total_orderings, name
        assert batch.surviving_fraction == pytest.approx(
            serial.surviving_fraction
        ), name


def test_execute_job_explicit_source():
    result = execute_job(
        BatchJob("inline", "control", "x86-tso",
                 source="global g; fn f(tid) { g = 1; } thread f(0);")
    )
    assert [f.name for f in result.functions] == ["f"]


def test_batch_result_json_roundtrip():
    result = execute_job(BatchJob("matrix", "control", "x86-tso"))
    clone = BatchResult.from_json(result.to_json())
    assert clone == result


# --- runner: ordering, pool, fallback ---------------------------------------


def test_run_matrix_stable_order():
    runner = BatchRunner(parallel=False)
    results = runner.run_matrix(["fft", "barnes"], ["control", "pensieve"])
    assert [(r.program, r.variant) for r in results] == [
        ("fft", "control"),
        ("fft", "pensieve"),
        ("barnes", "control"),
        ("barnes", "pensieve"),
    ]


def test_pool_and_serial_agree():
    programs = ["fft", "matrix", "spanningtree"]
    serial = BatchRunner(parallel=False).run_matrix(programs, ["control"])
    pooled_runner = BatchRunner(parallel=True, max_workers=2)
    pooled = pooled_runner.run_matrix(programs, ["control"])
    # Everything but the wall time must cross the process boundary
    # intact: counts, costs, flavors, ordering kinds, cache counters.
    strip = lambda r: replace(r, elapsed=0.0)  # noqa: E731
    assert [strip(r) for r in serial] == [strip(r) for r in pooled]


def test_pool_path_actually_used():
    runner = BatchRunner(parallel=True, max_workers=2)
    runner.run_matrix(["fft", "matrix"], ["control"])
    if not runner.used_pool:  # pragma: no cover - constrained sandboxes
        pytest.skip("process pool unavailable in this environment")
    assert runner.used_pool


def test_parallel_map_preserves_order():
    assert parallel_map(abs, [-3, -1, -2], max_workers=2) == [3, 1, 2]
    assert parallel_map(abs, [], max_workers=2) == []
    assert parallel_map(abs, [-7], max_workers=2) == [7]


def test_unknown_variant_and_model_rejected():
    runner = BatchRunner(parallel=False)
    with pytest.raises(KeyError):
        runner.run_matrix(["fft"], ["bogus"])
    with pytest.raises(KeyError):
        runner.run_matrix(["fft"], ["control"], ["bogus-model"])


def test_default_matrix_covers_all_programs():
    runner = BatchRunner(parallel=False)
    results = runner.run_matrix(variants=["control"])
    assert [r.program for r in results] == list(all_programs())
    # The default variants make the whole 17 x 3 sweep.
    full = runner.run_matrix()
    assert len(full) == 51
    assert [(r.program, r.variant) for r in full] == [
        (program, variant) for program in all_programs() for variant in ALL_VARIANTS
    ]


# --- caching ----------------------------------------------------------------


def test_memory_cache_hits_on_second_run():
    runner = BatchRunner(parallel=False)
    first = runner.run_matrix(["fft"], ["control"])
    second = runner.run_matrix(["fft"], ["control"])
    assert not first[0].cached
    assert second[0].cached
    assert second[0].full_fences == first[0].full_fences


def test_disk_cache_survives_new_runner(tmp_path):
    first = BatchRunner(parallel=False, store=BlobStore(tmp_path)).run_matrix(
        ["matrix"], ["control"]
    )
    second = BatchRunner(parallel=False, store=BlobStore(tmp_path)).run_matrix(
        ["matrix"], ["control"]
    )
    assert second[0].cached
    assert second[0].functions == first[0].functions
    assert replace(second[0], cached=False) == first[0]


def test_corrupt_disk_cache_entry_recomputes(tmp_path):
    store = BlobStore(tmp_path)
    key = BatchJob("fft", "control", "x86-tso").content_key()
    store.path(RESULT_KIND, key).write_text("{not json", encoding="utf-8")
    results = BatchRunner(parallel=False, store=store).run_matrix(
        ["fft"], ["control"]
    )
    assert not results[0].cached
    assert results[0].full_fences > 0
    assert store.rejected == 1


def test_model_is_part_of_cache_key():
    runner = BatchRunner(parallel=False)
    tso = runner.run_matrix(["fft"], ["control"], ["x86-tso"])
    rmo = runner.run_matrix(["fft"], ["control"], ["rmo"])
    assert not rmo[0].cached
    assert rmo[0].full_fences >= tso[0].full_fences


# --- CLI --------------------------------------------------------------------


def test_cli_batch_table(capsys):
    assert main(["batch", "--programs", "fft", "--variants", "control",
                 "--serial"]) == 0
    out = capsys.readouterr().out
    assert "fft" in out
    assert "fences" in out
    assert "greedy" in out
    assert "optimal" in out
    assert "full fences" in out
    assert "cycles lowered" in out


def test_cli_batch_json(capsys):
    assert main(["batch", "--programs", "fft", "matrix",
                 "--variants", "control", "--serial", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "batch-report"
    assert payload["schema_version"] == 4
    cells = payload["cells"]
    assert [cell["program"] for cell in cells] == ["fft", "matrix"]
    serial = analyze_program(get_program("fft").compile(), PipelineVariant.CONTROL)
    assert cells[0]["full_fences"] == serial.full_fence_count


def test_cli_batch_pool_matches_serial_pipeline(capsys):
    """The CLI pool path reports the same counts as the serial pipeline."""
    assert main(["batch", "--programs", "fft", "canneal",
                 "--variants", "control", "--jobs", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for cell in payload["cells"]:
        serial = analyze_program(
            get_program(cell["program"]).compile(), PipelineVariant.CONTROL
        )
        assert cell["full_fences"] == serial.full_fence_count


def test_cli_batch_cache_dir(tmp_path, capsys):
    argv = ["batch", "--programs", "fft", "--variants", "control",
            "--serial", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert "1 cache hits" in capsys.readouterr().out


def test_cli_batch_unknown_program(capsys):
    assert main(["batch", "--programs", "nope", "--serial"]) == 2
    assert "unknown program" in capsys.readouterr().out


def test_cli_batch_all_models_accepted():
    assert main(["batch", "--programs", "fft", "--variants", "control",
                 "--models", "all", "--serial", "--json"]) == 0


def test_cli_batch_model_names_match_registry():
    assert set(MODELS) == {"sc", "x86-tso", "pso", "rmo", "arm", "power"}


def test_run_all_honours_custom_program_under_colliding_name():
    """A caller-supplied program must not be swapped for the registry one."""
    from dataclasses import replace as dc_replace

    from repro.experiments.runner import run_all
    from repro.programs import get_program

    custom = dc_replace(
        get_program("fft"),
        source="global g; fn onlyfn(tid) { g = 1; } thread onlyfn(0);",
    )
    report = run_all({"fft": custom}, parallel=True)
    assert [r.program for r in report.fig9_result.rows] == ["fft"]
    # The custom single-store source places no fences; the registry fft
    # places several — proves the registry program wasn't substituted.
    assert report.fig9_result.rows[0].pensieve_fences <= 1


def test_grouped_execution_compiles_once_per_program(monkeypatch):
    """A program's variant cells share one compile inside the worker."""
    import repro.engine.batch as batch_mod
    from repro.engine.batch import execute_job_group

    compiles = []
    original = batch_mod.compile_source

    def counting(*args, **kwargs):
        compiles.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(batch_mod, "compile_source", counting)
    jobs = tuple(BatchJob("fft", v, "x86-tso") for v in ALL_VARIANTS)
    grouped = execute_job_group(jobs)
    assert compiles == ["fft"]
    assert [r.variant for r in grouped] == ALL_VARIANTS
    # Same counts as independent single-cell execution.
    for job, result in zip(jobs, grouped):
        solo = execute_job(job)
        assert result.functions == solo.functions, job.variant


def _square(n):
    return n * n


def test_budgeted_parallel_map_no_budget_runs_everything():
    from repro.engine.batch import budgeted_parallel_map

    results, exhausted, _ = budgeted_parallel_map(
        _square, list(range(10)), parallel=False
    )
    assert results == [n * n for n in range(10)]
    assert not exhausted


def test_budgeted_parallel_map_zero_budget_stops_after_first_chunk():
    from repro.engine.batch import budgeted_parallel_map

    items = list(range(20))
    results, exhausted, _ = budgeted_parallel_map(
        _square, items, budget=0.0, max_workers=1, parallel=False,
        chunk_size=4,
    )
    assert exhausted
    # The first chunk completes; nothing past it is dispatched.
    assert results == [n * n for n in range(4)]


def test_budgeted_parallel_map_budget_never_truncates_final_chunk():
    from repro.engine.batch import budgeted_parallel_map

    results, exhausted, _ = budgeted_parallel_map(
        _square, [1, 2, 3], budget=0.0, parallel=False, chunk_size=8
    )
    assert results == [1, 4, 9]
    assert not exhausted
