"""One content-addressed store for everything kept on disk.

The query engine's persisted facts (``acquires`` keyed by input
fingerprint) and the batch engine's results (keyed by job content key)
share this one store, and so does every cluster worker: the frontend
points all of their sessions at one directory.

An entry is one file per ``(kind, key)``. Its first line is a header
naming the store format version, the kind, the key and the sha256 of
the body that follows. A reader trusts an entry only if that header is
exactly the one it would have written for the body it read, so an entry
copied from another key, edited, truncated, emptied or written by
another format version is *rejected*: a miss, counted in
:attr:`BlobStore.rejected`, never a wrong answer. An absent entry is a
plain miss and counts nothing.

Writes go to a temp file and are published with ``os.replace``, so a
reader — another process sharing the directory, or the next run — sees
either the previous complete entry or the new complete one. The disk
layer is an optimization: a failed write is dropped and the previous
entry stays intact.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, TypeVar

_T = TypeVar("_T")

#: Bump when the entry layout changes so older entries are rejected.
STORE_VERSION = 1

#: Entry file suffix; files of other layouts are never read.
SUFFIX = ".blob"

#: What reading a bad entry raises: an unreadable file, a body that is
#: not UTF-8 (``UnicodeDecodeError`` is a ``ValueError``), or a payload
#: the caller's decoder cannot rebuild.
_BAD_ENTRY = (OSError, ValueError, KeyError, TypeError, IndexError)

#: Distinguishes temp files from concurrent writes within one process.
_write_counter = itertools.count()


def _header(kind: str, key: str, body: bytes) -> bytes:
    fields = {
        "store": STORE_VERSION,
        "kind": kind,
        "key": key,
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    return json.dumps(fields, sort_keys=True).encode("utf-8") + b"\n"


class BlobStore:
    """Checked, atomically written entries under one directory."""

    def __init__(self, directory: str | Path, owned: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Whether this store made the directory (and :meth:`close`
        #: removes it).
        self.owned = owned
        #: Entries that were present but failed the header check or
        #: did not decode.
        self.rejected = 0

    @classmethod
    def create(cls, directory: str | Path | None) -> "BlobStore":
        """A store on ``directory``, or on an owned temporary one."""
        if directory is not None:
            return cls(directory)
        return cls(tempfile.mkdtemp(prefix="repro-store-"), owned=True)

    def path(self, kind: str, key: str) -> Path:
        """The file holding the ``(kind, key)`` entry."""
        return self.directory / f"{kind.replace('/', '_')}.{key}{SUFFIX}"

    def load(self, kind: str, key: str, decode: Callable[[str], _T]) -> _T | None:
        """The decoded ``(kind, key)`` entry, or ``None`` on a miss."""
        try:
            data = self.path(kind, key).read_bytes()
            head_end = data.find(b"\n") + 1
            body = data[head_end:]
            if head_end == 0 or data[:head_end] != _header(kind, key, body):
                raise ValueError("entry header does not match")
            return decode(body.decode("utf-8"))
        except FileNotFoundError:
            return None
        except _BAD_ENTRY:
            self.rejected += 1
            return None

    def put(self, kind: str, key: str, text: str) -> None:
        """Publish ``text`` as the ``(kind, key)`` entry; a failed write
        leaves the previous entry and no temp file behind."""
        body = text.encode("utf-8")
        path = self.path(kind, key)
        # The temp file must live in the target directory: os.replace is
        # only atomic within one filesystem.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_write_counter)}.tmp")
        try:
            tmp.write_bytes(_header(kind, key, body) + body)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()

    def stats(self) -> dict:
        """Entry count and byte footprint (best-effort under churn)."""
        entries = 0
        size = 0
        with contextlib.suppress(OSError):  # the directory vanished
            for path in self.directory.glob(f"*{SUFFIX}"):
                try:
                    size += path.stat().st_size
                except OSError:  # pragma: no cover - raced unlink
                    continue
                entries += 1
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": size,
            "owned": self.owned,
            "rejected": self.rejected,
        }

    def close(self) -> None:
        """Remove an owned temporary directory; keep a configured one."""
        if self.owned:
            shutil.rmtree(self.directory, ignore_errors=True)
