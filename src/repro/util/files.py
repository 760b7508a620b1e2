"""Atomic file publication for the on-disk caches.

Both disk caches (the query engine's fact cache and the batch result
cache) publish entries through :func:`write_text_atomic`, so a reader —
another process sharing the directory, or the next run — sees either
the previous complete entry or the new complete one, never a torn
write.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from pathlib import Path

#: Distinguishes temp files from concurrent writes within one process.
_write_counter = itertools.count()


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and ``os.replace``.

    On failure the temp file is removed, ``path`` keeps its previous
    content, and the ``OSError`` propagates.
    """
    # The temp file must live in the target directory: os.replace is
    # only atomic within one filesystem.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_write_counter)}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
