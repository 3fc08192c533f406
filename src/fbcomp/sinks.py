"""Output sinks: where presented frames end up.

Frame checksums are CRC-32 over the tight pixel rows normalized to
R8G8B8A8 byte order, so they are independent of pitch padding, surface
format, and platform.

Every CRC here goes through `crc32`, which has `zlib.crc32`'s contract.
It is bound once, at import: to libdeflate's `libdeflate_crc32` (a
carry-less-multiply kernel, several times faster) when
`libdeflate.so.0` loads, else to `zlib.crc32` itself. Both compute the
same CRC-32, so no checksum depends on which one runs;
`CRC32_BACKEND` names it.

`ChecksumSink` reads `Surface.damage`: handed the same tight R8G8B8A8
surface with the same damage span twice, it CRCs only the span's rows
and splices in cached CRCs of the rest. That is exact only while the
damage names every changed row, which holds for the compositor's target
because the compositor is its only writer.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .pixel import BYTES_PER_PIXEL, PixelFormat, Surface


def _bind_crc32():
    # No ctypes.util.find_library: it starts a subprocess.
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
    except OSError:
        return zlib.crc32, "zlib"
    fn = lib.libdeflate_crc32
    fn.restype = ctypes.c_uint32
    fn.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)

    def crc32(data, value=0):
        """CRC-32 of `data` continued from `value`, as zlib.crc32."""
        buf = np.frombuffer(data, np.uint8)   # a view: no copy
        return fn(value, buf.ctypes.data, buf.nbytes)

    return crc32, "libdeflate"


crc32, CRC32_BACKEND = _bind_crc32()


def _is_tight_rgba(surface: Surface) -> bool:
    g = surface.geometry
    return (surface.format == PixelFormat.R8G8B8A8
            and g.pitch == g.width * BYTES_PER_PIXEL)


def frame_checksum(surface: Surface) -> int:
    if _is_tight_rgba(surface):
        data = surface.buffer()   # already tight and normalized: no copy
    else:
        data = surface.tight_bytes(PixelFormat.R8G8B8A8)
    return crc32(data)


# CRC-32 combination, as zlib's crc32_combine: polynomials over GF(2) in
# zlib's bit-reflected form, so x^0 is 1 << 31 and x^1 is 1 << 30.
_CRC_POLY = 0xEDB88320


def _multmodp(a: int, b: int) -> int:
    """a * b modulo the CRC-32 polynomial."""
    m = 1 << 31
    p = 0
    while m:
        if a & m:
            p ^= b
            if a & (m - 1) == 0:
                break
        m >>= 1
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return p


def _x2n_table() -> List[int]:
    table, p = [], 1 << 30
    for _ in range(32):
        table.append(p)
        p = _multmodp(p, p)
    return table


_X2N = _x2n_table()   # x^(2^k) modulo the polynomial, k = 0..31


def _shift_op(nbytes: int) -> int:
    """x^(8 * nbytes) modulo the polynomial: appending `nbytes` bytes
    multiplies the CRC of what came before by this."""
    p, k = 1 << 31, 3
    while nbytes:
        if nbytes & 1:
            p = _multmodp(_X2N[k & 31], p)
        nbytes >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of A + B from crc32(A), crc32(B) and len(B)."""
    return _multmodp(_shift_op(len2), crc1) ^ crc2


class NullSink:
    """Counts presents, keeps nothing."""

    def __init__(self):
        self.count = 0

    def present(self, surface: Surface, now_us: int) -> None:
        self.count += 1


class ChecksumSink:
    """Records the checksum of each presented frame.

    The checksum is always `frame_checksum`'s. For the last surface seen,
    when it is tight R8G8B8A8 and carries a `damage` span, the sink
    caches the CRCs around the last span it was given: of the rows above
    it (running) and of the rows below it (standalone). A present with no
    damage repeats the last checksum; the same span again, as a compose
    loop presents it, CRCs only its rows; a new surface or any other span
    costs one full pass, which re-caches at that span.
    """

    def __init__(self):
        self._checksums: List[int] = []
        self._last: Optional[Surface] = None
        self._span = (0, 0)       # rows [y0, y1) of _last
        self._crc = 0
        self._prefix = 0          # CRC of the rows above the span
        self._suffix = 0          # CRC of the rows below it, on its own
        self._shift = 0           # _shift_op of the suffix's length

    def present(self, surface: Surface, now_us: int) -> None:
        self._checksums.append(self._checksum(surface))

    def _checksum(self, surface: Surface) -> int:
        damage = surface.damage
        if damage is None or not _is_tight_rgba(surface):
            self._last = None
            return frame_checksum(surface)
        height = surface.geometry.height
        y0, y1 = damage
        if not 0 <= y0 <= y1 <= height:
            raise ValueError(f"damage {damage} outside rows 0..{height}")
        if surface is self._last and y0 == y1:
            return self._crc
        buf = surface.buffer()
        pitch = surface.geometry.pitch
        if surface is not self._last or (y0, y1) != self._span:
            self._last, self._span = surface, (y0, y1)
            self._prefix = crc32(buf[:y0 * pitch])
            self._suffix = crc32(buf[y1 * pitch:])
            self._shift = _shift_op((height - y1) * pitch)
        crc = crc32(buf[y0 * pitch:y1 * pitch], self._prefix)
        # With no rows below, the splice is the identity: skip it.
        self._crc = (_multmodp(self._shift, crc) ^ self._suffix
                     if y1 < height else crc)
        return self._crc

    @property
    def count(self) -> int:
        return len(self._checksums)

    def checksums(self) -> List[int]:
        return list(self._checksums)


def write_ppm(path, surface: Surface) -> int:
    """Binary PPM (P6): RGB triples, alpha dropped. Bit-exact everywhere.

    Returns the CRC-32 of the bytes written.
    """
    rgb = np.ascontiguousarray(surface.as_format(PixelFormat.R8G8B8A8)[..., :3])
    g = surface.geometry
    header = b"P6\n%d %d\n255\n" % (g.width, g.height)
    with open(path, "wb") as f:
        f.write(header)
        f.write(rgb)
    return crc32(rgb, crc32(header))


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
        self._index.append((name, write_ppm(self.directory / name, surface)))

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
        actual = crc32(path.read_bytes())
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
