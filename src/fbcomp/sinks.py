"""Output sinks: where presented frames end up.

Frame checksums are CRC-32 over the tight pixel rows normalized to
R8G8B8A8 byte order, so they are independent of pitch padding, surface
format, and platform.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .pixel import BYTES_PER_PIXEL, PixelFormat, Surface


def frame_checksum(surface: Surface) -> int:
    g = surface.geometry
    if surface.format == PixelFormat.R8G8B8A8 and g.pitch == g.width * BYTES_PER_PIXEL:
        data = surface.buffer()   # already tight and normalized: no copy
    else:
        data = surface.tight_bytes(PixelFormat.R8G8B8A8)
    return zlib.crc32(data) & 0xFFFFFFFF


class NullSink:
    """Counts presents, keeps nothing."""

    def __init__(self):
        self.count = 0

    def present(self, surface: Surface, now_us: int) -> None:
        self.count += 1


class ChecksumSink:
    """Records (timestamp, checksum) per presented frame."""

    def __init__(self):
        self.frames: List[Tuple[int, int]] = []

    def present(self, surface: Surface, now_us: int) -> None:
        self.frames.append((now_us, frame_checksum(surface)))

    @property
    def count(self) -> int:
        return len(self.frames)

    def checksums(self) -> List[int]:
        return [c for _, c in self.frames]


def write_ppm(path, surface: Surface) -> None:
    """Binary PPM (P6): RGB triples, alpha dropped. Bit-exact everywhere."""
    rgb = np.ascontiguousarray(surface.as_format(PixelFormat.R8G8B8A8)[..., :3])
    g = surface.geometry
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (g.width, g.height))
        f.write(rgb.tobytes())


class ImageSequenceSink:
    """Writes every frame as frame_%06d.ppm plus an index of checksums.

    The index line format is "<filename> <crc32-of-file-hex>"; replay
    re-hashes the files against it.
    """

    INDEX_NAME = "index.txt"

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if not os.access(self.directory, os.W_OK):
            raise IOError(f"sink directory not writable: {self.directory}")
        self.count = 0
        self._index: List[Tuple[str, int]] = []

    def present(self, surface: Surface, now_us: int) -> None:
        self.count += 1
        name = f"frame_{self.count:06d}.ppm"
        path = self.directory / name
        write_ppm(path, surface)
        self._index.append((name, zlib.crc32(path.read_bytes()) & 0xFFFFFFFF))

    def close(self) -> Path:
        index = self.directory / self.INDEX_NAME
        with open(index, "w") as f:
            for name, crc in self._index:
                f.write(f"{name} {crc:08x}\n")
        return index


def replay_index(index_path) -> List[str]:
    """Verify emitted frames against their index; return mismatches."""
    index_path = Path(index_path)
    directory = index_path.parent
    problems = []
    for lineno, line in enumerate(index_path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            name, crc_hex = line.split()
            expected = int(crc_hex, 16)
        except ValueError:
            problems.append(f"line {lineno}: malformed entry {line!r}")
            continue
        path = directory / name
        if not path.exists():
            problems.append(f"{name}: missing file")
            continue
        actual = zlib.crc32(path.read_bytes()) & 0xFFFFFFFF
        if actual != expected:
            problems.append(f"{name}: checksum {actual:08x} != {expected:08x}")
    return problems


def make_sink(kind: str, directory: Optional[str] = None):
    if kind == "null":
        return NullSink()
    if kind == "checksum":
        return ChecksumSink()
    if kind == "images":
        if directory is None:
            raise ValueError("image sink requires a directory")
        return ImageSequenceSink(directory)
    raise ValueError(f"unknown sink kind {kind!r}")
