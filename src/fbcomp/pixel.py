"""Pixel formats, surface geometry and blit primitives.

Everything here is pure or operates on caller-provided buffers; there is
no internal shared state, so any thread may call any function.

Pixel data convention: a pixel is 4 bytes, and the format name reads off
the bytes in memory order, so R8G8B8A8 means byte 0 is red, byte 3 is
alpha. The name is the only statement of that order: every offset,
permutation and packing here reads it off the name. A pixel handled as
a 32-bit integer is little-endian (byte 0 is the least significant
byte). Alpha is carried but never blended; composition is opaque copy.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import FramebufferError

BYTES_PER_PIXEL = 4
DEFAULT_ROW_ALIGNMENT = 64


class PixelFormat(enum.IntEnum):
    R8G8B8A8 = 0
    B8G8R8A8 = 1
    A8R8G8B8 = 2
    A8B8G8R8 = 3


def _byte_order(fmt: PixelFormat) -> str:
    """The channels in memory order: the name less its bit counts."""
    return PixelFormat(fmt).name[::2]


def channel_offsets(fmt: PixelFormat) -> dict:
    """Map channel name ('r','g','b','a') to its byte offset for `fmt`."""
    return {ch.lower(): i for i, ch in enumerate(_byte_order(fmt))}


@functools.cache
def channel_permutation(src: PixelFormat, dst: PixelFormat) -> tuple:
    """perm such that dst_bytes[i] = src_bytes[perm[i]] preserves channels.

    Memoized: there are 16 format pairs, and every blit asks for one."""
    order = _byte_order(src)
    return tuple(order.index(ch) for ch in _byte_order(dst))


def convert_pixel(value: int, src: PixelFormat, dst: PixelFormat) -> int:
    """Reorder the channels of a single 32-bit pixel from `src` to `dst`."""
    b = (value & 0xFFFFFFFF).to_bytes(4, "little")
    return int.from_bytes(bytes(b[p] for p in channel_permutation(src, dst)),
                          "little")


def pack_channels(fmt: PixelFormat, r: int, g: int, b: int, a: int) -> int:
    rgba = dict(zip("RGBA", (r, g, b, a)))
    return int.from_bytes(bytes(rgba[ch] & 0xFF for ch in _byte_order(fmt)),
                          "little")


def unpack_channels(fmt: PixelFormat, value: int) -> tuple:
    """Return (r, g, b, a) of a 32-bit pixel under `fmt`."""
    raw = (value & 0xFFFFFFFF).to_bytes(4, "little")
    order = _byte_order(fmt)
    return tuple(raw[order.index(ch)] for ch in "RGBA")


def compute_pitch(width: int, fmt: PixelFormat, alignment: int = DEFAULT_ROW_ALIGNMENT) -> int:
    """Bytes per row: width * 4 rounded up to the next multiple of alignment."""
    PixelFormat(fmt)  # all supported formats are 4 bytes per pixel
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    row = width * BYTES_PER_PIXEL
    return (row + alignment - 1) & ~(alignment - 1)


@dataclass(frozen=True)
class SurfaceGeometry:
    width: int
    height: int
    pitch: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"surface dimensions must be positive: {self.width}x{self.height}")
        if self.pitch < self.width * BYTES_PER_PIXEL:
            raise ValueError(
                f"pitch {self.pitch} smaller than row size {self.width * BYTES_PER_PIXEL}"
            )

    @property
    def frame_bytes(self) -> int:
        return self.pitch * self.height

    @classmethod
    def for_width(cls, width: int, height: int, fmt: PixelFormat = PixelFormat.R8G8B8A8,
                  alignment: int = DEFAULT_ROW_ALIGNMENT) -> "SurfaceGeometry":
        return cls(width, height, compute_pitch(width, fmt, alignment))


@dataclass(frozen=True)
class Rect:
    x: int
    y: int
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"rectangle dimensions must be positive: {self.width}x{self.height}")

    def fits_inside(self, geometry: SurfaceGeometry) -> bool:
        return (self.x >= 0 and self.y >= 0
                and self.x + self.width <= geometry.width
                and self.y + self.height <= geometry.height)

    def overlaps(self, other: "Rect") -> bool:
        return not (self.x + self.width <= other.x or other.x + other.width <= self.x
                    or self.y + self.height <= other.y or other.y + other.height <= self.y)


class Surface:
    """A pixel region: raw bytes plus geometry and format.

    Wraps any buffer (bytearray, memoryview, mmap) without copying. The
    view is read-only iff the underlying buffer is.

    `damage` is the row span `(y0, y1)` that changed since the surface
    was last presented, set by its only writer just before it presents
    (the compositor, for its target); `y0 == y1` means nothing changed.
    The default None means unknown: all rows.
    """

    def __init__(self, buf, geometry: SurfaceGeometry, fmt: PixelFormat, offset: int = 0):
        self.geometry = geometry
        self.format = PixelFormat(fmt)
        raw = np.frombuffer(buf, dtype=np.uint8,
                            count=geometry.frame_bytes, offset=offset)
        self._raw = raw
        self._px = np.lib.stride_tricks.as_strided(
            raw, shape=(geometry.height, geometry.width, 4),
            strides=(geometry.pitch, 4, 1),
        )
        self.damage: Optional[Tuple[int, int]] = None

    @classmethod
    def allocate(cls, geometry: SurfaceGeometry, fmt: PixelFormat) -> "Surface":
        return cls(bytearray(geometry.frame_bytes), geometry, fmt)

    @property
    def writable(self) -> bool:
        return self._px.flags.writeable

    def pixels(self) -> np.ndarray:
        """(height, width, 4) uint8 view in the surface's own byte order."""
        return self._px

    def buffer(self) -> np.ndarray:
        """Flat uint8 view of the surface's bytes, row padding included."""
        return self._raw

    def fill(self, pixel: int) -> None:
        pixel &= 0xFFFFFFFF
        try:
            # Fast path: scalar store over a u32 view (covers row padding
            # too, which carries no pixels). Needs 4-byte alignment.
            self._raw.view(np.uint32)[:] = pixel
        except ValueError:
            self._px[:] = np.frombuffer(pixel.to_bytes(4, "little"), np.uint8)

    def as_format(self, fmt: PixelFormat) -> np.ndarray:
        """(height, width, 4) array with channels reordered into `fmt` (may copy)."""
        perm = channel_permutation(self.format, fmt)
        if perm == (0, 1, 2, 3):
            return self._px
        return self._px[..., list(perm)]

    def tight_bytes(self, fmt: Optional[PixelFormat] = None) -> bytes:
        """Pixel rows without pitch padding, optionally normalized to `fmt`."""
        arr = self._px if fmt is None else self.as_format(fmt)
        return np.ascontiguousarray(arr).tobytes()


def blit(src: Surface, dst: Surface, at: Rect) -> None:
    """Copy src into dst at `at`, converting pixel format.

    Never performs partial writes: all validation happens before any
    pixel is touched.
    """
    if at.width != src.geometry.width or at.height != src.geometry.height:
        raise ValueError(
            f"rectangle {at.width}x{at.height} does not match source "
            f"{src.geometry.width}x{src.geometry.height}"
        )
    if not at.fits_inside(dst.geometry):
        raise ValueError(f"rectangle {at} outside destination "
                         f"{dst.geometry.width}x{dst.geometry.height}")
    if not dst.writable:
        raise FramebufferError("destination surface is read-only")
    perm = channel_permutation(src.format, dst.format)
    src_px = src.pixels()
    out = dst.pixels()[at.y:at.y + at.height, at.x:at.x + at.width, :]
    # A row copy, then one strided copy per channel that moved: cheaper
    # than four strided copies when channels stay put, and no
    # fancy-index gather materialises the converted block.
    out[:] = src_px
    for i, p in enumerate(perm):
        if p != i:
            out[..., i] = src_px[..., p]
