"""Atomic file output shared by every artifact writer."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path):
    """A text file to write into that replaces ``path`` once the block ends.

    The text streams to a temporary file in the same directory, which then
    replaces ``path``, so a failed write leaves the old file or none, never
    a partial one, and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
