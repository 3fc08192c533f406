"""Named shared-memory regions backing the client/server protocol.

Regions live in /dev/shm under the name pattern `<session>.<index>.fb`,
where `index` is the client's place in the scenario (prefixed to avoid
collisions with unrelated objects). The launcher creates and publishes
every region before any partition starts. Every mapping is left out of
a forked child, so a partition forked by the server maps no region but
the one it opens itself. The server keeps
two mappings of the same file: a read-write one for the control area
(header, status records, private area) and a read-only one used for all
pixel reads, so a stray server-side pixel write faults instead of
corrupting a client's frame.
"""

from __future__ import annotations

import mmap
import os
from typing import Optional

_SHM_DIR = "/dev/shm"
_PREFIX = "fbcomp-"


def region_name(session: str, index) -> str:
    return f"{session}.{index}.fb"


def _path(name: str) -> str:
    return os.path.join(_SHM_DIR, _PREFIX + name)


class SharedRegion:
    """One mapped shared-memory object."""

    def __init__(self, name: str, size: Optional[int] = None, create: bool = False):
        self.name = name
        path = _path(name)
        if create:
            if size is None:
                raise ValueError("size required when creating a region")
            # Size under a scratch name, then rename: anyone who can see
            # the final path sees a fully sized file.
            tmp = f"{path}.tmp{os.getpid()}"
            fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                os.ftruncate(fd, size)
                os.rename(tmp, path)
            except BaseException:
                os.close(fd)
                os.unlink(tmp)
                raise
        else:
            fd = os.open(path, os.O_RDWR)
            size = os.fstat(fd).st_size
        try:
            self.size = size
            self._mmap = mmap.mmap(fd, size)
            self._ro_mmap = mmap.mmap(fd, size, prot=mmap.PROT_READ)
            for m in (self._mmap, self._ro_mmap):
                m.madvise(mmap.MADV_DONTFORK)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)
        self.readonly_buf = memoryview(self._ro_mmap)

    def close(self) -> None:
        # numpy views handed out over the buffers may still be alive;
        # in that case the mapping is reclaimed at process exit instead.
        for mv, m in ((self.buf, self._mmap), (self.readonly_buf, self._ro_mmap)):
            try:
                mv.release()
                m.close()
            except BufferError:
                pass

    def unlink(self) -> None:
        unlink_region(self.name)


def create_region(name: str, size: int) -> SharedRegion:
    return SharedRegion(name, size, create=True)


def open_region(name: str) -> SharedRegion:
    return SharedRegion(name)


def unlink_region(name: str) -> None:
    try:
        os.unlink(_path(name))
    except FileNotFoundError:
        pass
