"""Named shared-memory regions backing the client/server protocol.

Regions live in /dev/shm under the name pattern `<session>.<index>.fb`,
where `index` is the client's place in the scenario (prefixed to avoid
collisions with unrelated objects); a name that is taken cannot be
created again. The launcher creates and publishes every region before
any partition starts. Every mapping is left out of a forked child, so a
partition forked by the server maps no region but the one it opens
itself. The server keeps two mappings of the same file: a read-write
one for the control area (header, status records, private area) and a
read-only one used for all pixel reads, so a stray server-side pixel
write faults instead of corrupting a client's frame.
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
    """One mapped shared-memory object: created at `size` bytes when a
    size is given, FileExistsError if the name is taken, otherwise opened
    at the size it has."""

    def __init__(self, name: str, size: Optional[int] = None):
        self.name = name
        path = _path(name)
        if size is not None:
            # O_EXCL: no region is replaced under a party that maps it. No
            # one opens a region before create_region returns it sized.
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                os.ftruncate(fd, size)
            except BaseException:
                os.close(fd)
                os.unlink(path)
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


def create_region(name: str, size: int) -> SharedRegion:
    return SharedRegion(name, size)


def open_region(name: str) -> SharedRegion:
    return SharedRegion(name)


def unlink_region(name: str) -> None:
    try:
        os.unlink(_path(name))
    except FileNotFoundError:
        pass
