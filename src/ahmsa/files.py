"""Artifact writes that never leave a partial file under its final name."""

from __future__ import annotations

import errno
import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path) -> Iterator[Path]:
    """A temporary name in ``path``'s directory, renamed to ``path`` when the
    block ends and removed when it raises (an interrupt too), so ``path``
    never holds a partial file and a failed write leaves it as it was.

    Nested blocks rename in the reverse order of entry, once every body has
    succeeded.  A ``path`` that is a directory, which no rename can replace,
    raises ``IsADirectoryError`` on entry, before anything is written.
    """
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield partial
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
