"""Both kinds of store entry are published atomically: a write that
fails midway leaves the previous entry loadable and no temp file
behind."""

import json
from pathlib import Path

import pytest

from repro.engine.batch import RESULT_KIND, BatchResult, FunctionResult
from repro.util.store import BlobStore


def _result(elapsed: float) -> BatchResult:
    return BatchResult(
        program="mp",
        variant="control",
        model="x86-tso",
        key="k" * 64,
        functions=(FunctionResult("t", 1, 1, 2, 1, 0, 3),),
        ordering_kinds={"w->r": 1},
        elapsed=elapsed,
    )


def _result_cache(directory: Path, version: int) -> None:
    BlobStore(directory).put(RESULT_KIND, "k" * 64, _result(float(version)).to_json())


def _load_result(directory: Path):
    return BlobStore(directory).load(RESULT_KIND, "k" * 64, BatchResult.from_json)


def _query_cache(directory: Path, version: int) -> None:
    BlobStore(directory).put("acquires", "f" * 64, json.dumps({"v": version}))


def _load_query(directory: Path):
    return BlobStore(directory).load("acquires", "f" * 64, json.loads)


CACHES = {
    "result-cache": (_result_cache, _load_result),
    "query-cache": (_query_cache, _load_query),
}


@pytest.mark.parametrize("kind", sorted(CACHES))
def test_failed_write_keeps_previous_entry(tmp_path, monkeypatch, kind):
    write, load = CACHES[kind]
    write(tmp_path, 1)
    before = load(tmp_path)
    assert before is not None
    entries = sorted(path.name for path in tmp_path.iterdir())

    real_write_bytes = Path.write_bytes

    def torn_write(self, data, *args, **kwargs):
        real_write_bytes(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    write(tmp_path, 2)  # the store swallows the error
    monkeypatch.undo()

    assert load(tmp_path) == before
    assert sorted(path.name for path in tmp_path.iterdir()) == entries
