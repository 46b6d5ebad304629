"""Atomic file replacement through a uniquely named temp file.

Several writers publish a whole file at once: session-store entries,
multi-host sweep manifests, the live progress file. Each writes the new
bytes to a temp file next to the target and renames it over the target
with ``os.replace``, so a reader sees the old file or the new one, never
a torn mix.

The temp file is created with ``O_CREAT | O_EXCL`` under a random name,
so two writers never share one, even on different hosts that write to
one shared directory (a pid is unique only on one host). A name clash
fails the create and the writer draws another name. A writer killed
between its write and the rename leaves ``<target>.tmp.<hex>`` behind;
:data:`TEMP_GLOB` matches such files, and the session store counts,
reports and prunes them.
"""

from __future__ import annotations

import os
import random

__all__ = ["TEMP_GLOB", "write_atomic"]

#: Glob for the temp files :func:`write_atomic` leaves behind when it is
#: interrupted (it also matches the older ``<stem>.tmp.<pid>`` names).
TEMP_GLOB = "*.tmp.*"

_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def write_atomic(path: str, data: bytes) -> None:
    """Replace the file at ``path`` with ``data`` in one rename.

    The directory of ``path`` must exist (``FileNotFoundError``
    otherwise). On any failure the temp file is removed and the error
    propagates; the target is then unchanged.
    """
    while True:
        # The global generator is reseeded in every forked child, so
        # pooled writers draw distinct names; O_EXCL settles any clash.
        tmp = f"{path}.tmp.{random.getrandbits(64):016x}"
        try:
            fd = os.open(tmp, _CREATE_FLAGS, 0o666)
        except FileExistsError:
            continue
        break
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
