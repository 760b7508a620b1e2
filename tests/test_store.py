"""The content-addressed store: a bad entry is a counted miss.

Every entry names its store version, kind, key and body digest in a
header, so an entry that was copied from another key, edited, cut
short, emptied or written by another store version is rejected and
recomputed — the result is the one a cold run gives — and counted in
``rejected``. An absent entry is a plain miss and counts nothing.
"""

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import AnalyzeRequest, ProgramSpec, Session
from repro.engine.batch import RESULT_KIND, BatchJob, BatchRunner
from repro.programs import all_programs
from repro.util.store import STORE_VERSION, SUFFIX, BlobStore


def _split(path: Path) -> tuple[bytes, bytes]:
    head, _, body = path.read_bytes().partition(b"\n")
    return head, body


class _Acquires:
    """The ``acquires`` fact behind fft's analyze report."""

    @staticmethod
    def run(directory: Path) -> tuple[object, int]:
        session = Session(parallel=False, query_cache_dir=str(directory))
        report = session.analyze(AnalyzeRequest(program=ProgramSpec.corpus("fft")))
        return report.to_json(), session.stats()["query_cache"]["rejected"]

    @staticmethod
    def entries(directory: Path) -> tuple[Path, Path]:
        """An entry holding sync reads, and one of another key that
        holds different ones."""
        paths = sorted(directory.glob(f"acquires.*{SUFFIX}"))
        reads = {path: json.loads(_split(path)[1])["sync_reads"] for path in paths}
        target = next(path for path in paths if reads[path])
        donor = next(path for path in paths if reads[path] != reads[target])
        return target, donor

    @staticmethod
    def edit(payload: dict) -> None:
        payload["sync_reads"] = payload["sync_reads"][1:]


class _Batch:
    """matrix's Control cell, with fft's cell as the other key: copying
    fft's entry over matrix's once returned fft's cell as a cache hit."""

    @staticmethod
    def run(directory: Path) -> tuple[object, int]:
        store = BlobStore(directory)
        runner = BatchRunner(parallel=False, store=store)
        runner.run_matrix(["fft"], ["control"])
        (cell,) = runner.run_matrix(["matrix"], ["control"])
        return replace(cell, elapsed=0.0), store.rejected

    @staticmethod
    def entries(directory: Path) -> tuple[Path, Path]:
        store = BlobStore(directory)
        target, donor = (
            store.path(RESULT_KIND, BatchJob(name, "control", "x86-tso").content_key())
            for name in ("matrix", "fft")
        )
        return target, donor

    @staticmethod
    def edit(payload: dict) -> None:
        payload["functions"][0]["full_fences"] += 1


KINDS = {"acquires": _Acquires, "batch": _Batch}


def _edited(target: Path, donor: Path, edit) -> None:
    head, body = _split(target)
    payload = json.loads(body)
    edit(payload)
    target.write_bytes(head + b"\n" + json.dumps(payload, sort_keys=True).encode())


def _other_version(target: Path, donor: Path, edit) -> None:
    head, body = _split(target)
    header = json.loads(head)
    header["store"] = STORE_VERSION + 1
    target.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)


def _truncated(target: Path, donor: Path, edit) -> None:
    data = target.read_bytes()
    target.write_bytes(data[: len(data) // 2])


#: Each bad entry, with the rejections it must add.
BAD_ENTRIES = {
    "copied-from-another-key": (lambda t, d, e: shutil.copyfile(d, t), 1),
    "edited-body": (_edited, 1),
    "truncated": (_truncated, 1),
    "empty": (lambda t, d, e: t.write_bytes(b""), 1),
    "other-version": (_other_version, 1),
    "absent": (lambda t, d, e: t.unlink(), 0),
}


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bad_entry_is_a_counted_miss(tmp_path, kind, bad):
    case = KINDS[kind]
    damage, rejections = BAD_ENTRIES[bad]
    cold, cold_rejected = case.run(tmp_path / "cold")
    assert cold_rejected == 0
    store = tmp_path / "store"
    assert case.run(store) == (cold, 0)
    target, donor = case.entries(store)
    damage(target, donor, case.edit)
    assert case.run(store) == (cold, rejections)


def _analyze_corpus(directory: Path | None) -> tuple[list[str], dict]:
    session = Session(
        parallel=False,
        query_cache_dir=str(directory) if directory is not None else None,
    )
    reports = [
        session.analyze(AnalyzeRequest(program=ProgramSpec.corpus(name))).to_json()
        for name in all_programs()
    ]
    return reports, session.stats()["query_cache"]


def test_cold_and_warm_store_give_identical_reports(tmp_path):
    # Corpus programs share some function bodies, so even the cold pass
    # restores a few facts; the warm pass restores every one.
    cold, cold_stats = _analyze_corpus(tmp_path)
    warm, warm_stats = _analyze_corpus(tmp_path)
    assert warm == cold
    assert warm_stats["restored"] > cold_stats["restored"]
    assert warm_stats["computes"] < cold_stats["computes"]
    assert warm_stats["rejected"] == 0


def test_store_overwritten_with_one_entry_leaves_every_report_unchanged(tmp_path):
    cold, _ = _analyze_corpus(None)
    _analyze_corpus(tmp_path)
    entries = sorted(tmp_path.glob(f"acquires.*{SUFFIX}"))
    donor = next(
        path for path in entries if json.loads(_split(path)[1])["sync_reads"]
    )
    for path in entries:
        if path != donor:
            shutil.copyfile(donor, path)
    reports, stats = _analyze_corpus(tmp_path)
    assert reports == cold
    assert stats["rejected"] == len(entries) - 1
