"""Byte-exact layout of the client/server shared-memory region.

All multi-byte fields are little-endian regardless of host, so client
and server may run on different architectures. Only offsets appear in
the region, never addresses; the mapping base may differ per process.

The 60-byte header is one `struct.Struct("<6IQ7I")`, and `HeaderFields`
is its only parsed form, its fields in byte order plus the format table.
`layout_for` returns the header a region carries (with ready = 0),
`encode_header` writes it and `read_header` reads it back;
`admit_region`, how either end admits a region, also checks it.
`RegionConfig` is the one description of a client region, and its
header is checked by the same rules (`_violations`), so a config that
builds is a region both ends admit.

Region layout (offsets from region start):

  0   ready           u32  (0 = not ready, 1 = ready; written last by the
                            launcher, before the client starts)
  4   magic           u32  (0x4A464243, "JFBC")
  8   parameters      width u32, height u32, pitch u32, framerate u32,
                      timeout u64 (microseconds)  -> 24 bytes
  32  formatCount     u32
  36  formatOffset    u32  -> array of formatCount u32 format tags
  40  frameCount      u32  (= queue depth)
  44  frameOffset     u32  -> frameCount records of {status u32, seq u64},
                             16 bytes each, 16-byte aligned
  48  framePadding    u32  (alignment of each frame's pixel block)
  52  frameDataOffset u32  -> first frame's pixels; frame i starts at
                             frameDataOffset + i * frameStride where
                             frameStride = round_up(pitch * height, framePadding)
  56  privateOffset   u32  -> 256-byte opaque implementation area

Both ends use the format table's first tag (formats[0]) for every frame;
`queue_view` is where it is read.

Private area contents (implementation-defined, zero-initialized):
  +0  unused u32, left zero
  +8  heartbeat counter u64, incremented by the client on every
      submitted frame (single writer: client)
  +16 detach flag u32, set by the server when it disconnects the
      client (single writer: server)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import List

from .errors import (CorruptRegion, IncompatibleProtocol, RegionTooSmall,
                     ServerUnavailable)
from .frame_queue import STATUS_RECORD_SIZE, FrameQueue
from .pixel import BYTES_PER_PIXEL, PixelFormat, SurfaceGeometry

MAGIC = 0x4A464243  # "JFBC"
FORMAT_TABLE_OFFSET = 64
PRIVATE_AREA_SIZE = 256
DEFAULT_FRAME_PADDING = 4096
# The frameCount a region may carry: the consumer always holds one slot.
QUEUE_DEPTHS = range(2, 9)

_HEADER = struct.Struct("<6IQ7I")  # the fields of HeaderFields, in order
HEADER_SIZE = _HEADER.size
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

OFF_READY = 0
OFF_MAGIC = 4

PRIV_HEARTBEAT = 8
PRIV_DETACH = 16


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


@dataclass(frozen=True)
class RegionConfig:
    """Server-side surface and queue configuration for one client region.

    Its header must pass the rules a region read from memory passes,
    and every field must fit its word: a u32, or the u64 of the timeout.
    """

    geometry: SurfaceGeometry
    formats: tuple
    framerate: int
    timeout_us: int
    queue_depth: int
    frame_padding: int = DEFAULT_FRAME_PADDING

    def __post_init__(self):
        h = layout_for(self)
        problems = _violations(h, h.required_size)
        for f, value in zip(fields(HeaderFields), _header_values(h)):
            bits = 64 if f.name == "timeout_us" else 32
            if not 0 <= value < 1 << bits:
                problems.append(f"{f.name} {value} does not fit its "
                                f"u{bits} header word")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class HeaderFields:
    """The header's fields in byte order, then the format table's tags."""

    ready: int
    magic: int
    width: int
    height: int
    pitch: int
    framerate: int
    timeout_us: int
    format_count: int
    format_offset: int
    frame_count: int
    frame_offset: int
    frame_padding: int
    frame_data_offset: int
    private_offset: int
    formats: List[int] = field(default_factory=list)

    @property
    def frame_stride(self) -> int:
        """round_up(pitch * height, framePadding); 0 when framePadding is
        not a power of two."""
        pad = self.frame_padding
        if pad <= 0 or pad & (pad - 1):
            return 0
        return _round_up(self.pitch * self.height, pad)

    @property
    def required_size(self) -> int:
        return self.frame_data_offset + self.frame_count * self.frame_stride


# The values _HEADER packs: every field of HeaderFields but `formats`.
_header_values = attrgetter(*(f.name for f in fields(HeaderFields)[:-1]))


def layout_for(config: RegionConfig) -> HeaderFields:
    """The header a region for `config` carries, with ready = 0."""
    g = config.geometry
    frame_offset = _round_up(FORMAT_TABLE_OFFSET + 4 * len(config.formats),
                             STATUS_RECORD_SIZE)
    private_offset = frame_offset + STATUS_RECORD_SIZE * config.queue_depth
    return HeaderFields(
        ready=0, magic=MAGIC, width=g.width, height=g.height, pitch=g.pitch,
        framerate=config.framerate, timeout_us=config.timeout_us,
        format_count=len(config.formats), format_offset=FORMAT_TABLE_OFFSET,
        frame_count=config.queue_depth, frame_offset=frame_offset,
        frame_padding=config.frame_padding,
        frame_data_offset=_round_up(private_offset + PRIVATE_AREA_SIZE,
                                    config.frame_padding),
        private_offset=private_offset,
        formats=[int(PixelFormat(f)) for f in config.formats])


def required_region_size(config: RegionConfig) -> int:
    return layout_for(config).required_size


def encode_header(config: RegionConfig, region) -> HeaderFields:
    """Lay out the whole region with ready = 0; return its header.

    Publication is a separate step (`publish`) so every other field is
    in place before any client can observe ready = 1.
    """
    buf = memoryview(region)
    h = layout_for(config)
    if len(buf) < h.required_size:
        raise RegionTooSmall(h.required_size, len(buf))
    _HEADER.pack_into(buf, 0, *_header_values(h))
    struct.pack_into(f"<{h.format_count}I", buf, h.format_offset, *h.formats)
    buf[h.frame_offset:h.frame_offset + STATUS_RECORD_SIZE * h.frame_count] = \
        bytes(STATUS_RECORD_SIZE * h.frame_count)
    buf[h.private_offset:h.private_offset + PRIVATE_AREA_SIZE] = bytes(PRIVATE_AREA_SIZE)
    return h


def publish(region) -> None:
    """Flip ready to 1. Must be the last write before clients attach."""
    _U32.pack_into(memoryview(region), OFF_READY, 1)


def is_published(region) -> bool:
    buf = memoryview(region)
    return len(buf) >= 4 and _U32.unpack_from(buf, OFF_READY)[0] == 1


def read_header(region) -> HeaderFields:
    """Parse raw header fields with bounds checking only; no validation."""
    buf = memoryview(region)
    if len(buf) < HEADER_SIZE:
        raise CorruptRegion(f"region of {len(buf)} bytes cannot hold a {HEADER_SIZE}-byte header")
    h = HeaderFields(*_HEADER.unpack_from(buf))
    end = h.format_offset + 4 * h.format_count
    if h.format_offset >= HEADER_SIZE and end <= len(buf) and h.format_count <= 64:
        h.formats = list(struct.unpack_from(f"<{h.format_count}I", buf, h.format_offset))
    return h


def read_magic(region) -> int:
    """The magic word alone: what the server rereads on every tick."""
    return _U32.unpack_from(region, OFF_MAGIC)[0]


def validate_region(region) -> List[str]:
    """Return every structural violation; an empty list means well-formed.

    Never reads pixel data and never reads outside the region, whatever
    the header claims.
    """
    buf = memoryview(region)
    if len(buf) < HEADER_SIZE:
        return [f"region size {len(buf)} below header size {HEADER_SIZE}"]
    return _violations(read_header(buf), len(buf))


def admit_region(region) -> HeaderFields:
    """The header of a well-formed region; IncompatibleProtocol for a
    wrong magic, CorruptRegion for any other violation."""
    h = read_header(region)
    if h.magic != MAGIC:
        raise IncompatibleProtocol(f"magic 0x{h.magic:08x} != 0x{MAGIC:08x}")
    violations = _violations(h, len(memoryview(region)))
    if violations:
        raise CorruptRegion("; ".join(violations))
    return h


def _violations(h: HeaderFields, size: int) -> List[str]:
    """Every structural violation of header `h` in `size` bytes."""
    violations: List[str] = []
    if h.magic != MAGIC:
        violations.append(f"magic 0x{h.magic:08x} != 0x{MAGIC:08x}")
    if h.ready not in (0, 1):
        violations.append(f"ready flag {h.ready} is neither 0 nor 1")
    if h.width <= 0 or h.height <= 0:
        violations.append(f"dimensions {h.width}x{h.height} not positive")
    if h.pitch < h.width * BYTES_PER_PIXEL:
        violations.append(f"pitch {h.pitch} below row size {h.width * BYTES_PER_PIXEL}")
    if h.framerate <= 0:
        violations.append(f"framerate {h.framerate} not positive")
    if h.timeout_us <= 0:
        violations.append(f"timeout {h.timeout_us}us not positive")
    elif h.framerate > 0 and h.timeout_us < 2 * (1_000_000 // h.framerate):
        violations.append(
            f"timeout {h.timeout_us}us below two frame periods at "
            f"{h.framerate} fps")
    if h.format_count < 1:
        violations.append("formatCount below 1")
    if h.frame_padding <= 0 or h.frame_padding & (h.frame_padding - 1):
        violations.append(f"framePadding {h.frame_padding} not a power of two")

    spans = []  # (start, end, name) of non-pixel tables

    fmt_end = h.format_offset + 4 * h.format_count
    if h.format_offset < HEADER_SIZE or fmt_end > size or fmt_end < h.format_offset:
        violations.append(f"format table [{h.format_offset}, {fmt_end}) outside region")
    else:
        spans.append((h.format_offset, fmt_end, "format table"))
        for i, tag in enumerate(h.formats):
            if tag not in tuple(PixelFormat):
                violations.append(f"format table entry {i} has unknown tag {tag}")

    frame_end = h.frame_offset + STATUS_RECORD_SIZE * h.frame_count
    if h.frame_count not in QUEUE_DEPTHS:
        violations.append(f"queue depth: frameCount {h.frame_count} outside "
                          f"{QUEUE_DEPTHS[0]}..{QUEUE_DEPTHS[-1]} "
                          "(the consumer always holds one slot)")
    elif h.frame_offset < HEADER_SIZE or frame_end > size or frame_end < h.frame_offset:
        violations.append(f"frame status array [{h.frame_offset}, {frame_end}) outside region")
    else:
        if h.frame_offset % STATUS_RECORD_SIZE:
            violations.append(f"frame status array at {h.frame_offset} not 16-byte aligned")
        spans.append((h.frame_offset, frame_end, "frame status array"))

    priv_end = h.private_offset + PRIVATE_AREA_SIZE
    if h.private_offset < HEADER_SIZE or priv_end > size or priv_end < h.private_offset:
        violations.append(f"private area [{h.private_offset}, {priv_end}) outside region")
    else:
        spans.append((h.private_offset, priv_end, "private area"))

    stride = h.frame_stride
    if stride and h.frame_count in QUEUE_DEPTHS:
        data_end = h.frame_data_offset + h.frame_count * stride
        if (h.frame_data_offset < HEADER_SIZE or data_end > size
                or data_end < h.frame_data_offset):
            violations.append(
                f"frame data [{h.frame_data_offset}, {data_end}) outside region")
        else:
            if h.frame_data_offset % h.frame_padding:
                violations.append(
                    f"frameDataOffset {h.frame_data_offset} not aligned to "
                    f"framePadding {h.frame_padding}")
            spans.append((h.frame_data_offset, data_end, "frame data"))

    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            violations.append(f"{n0} [{s0}, {e0}) overlaps {n1} [{s1}, {e1})")
    return violations


def queue_view(region, h: HeaderFields, pixel_buf=None) -> FrameQueue:
    """Frame queue over a region's status records and frame data, in the
    format table's first format.

    Either end of the protocol builds its queue this way; `pixel_buf`
    optionally supplies a separate (e.g. read-only) mapping for pixels.
    """
    geometry = SurfaceGeometry(h.width, h.height, h.pitch)
    return FrameQueue(region, status_offset=h.frame_offset,
                      data_offset=h.frame_data_offset,
                      frame_stride=h.frame_stride,
                      depth=h.frame_count, geometry=geometry,
                      fmt=PixelFormat(h.formats[0]),
                      pixel_buf=pixel_buf)


def client_attach(region):
    """Client-side attach: admit a published region.

    Returns (producer FrameQueue, HeaderFields). The launcher publishes
    every region before its client starts, so an unpublished region
    raises ServerUnavailable at once.
    """
    buf = memoryview(region)
    if not is_published(buf):
        raise ServerUnavailable("region not published")
    h = admit_region(buf)
    return queue_view(buf, h), h


# -- private-area accessors -----------------------------------------------

def read_heartbeat(region, h: HeaderFields) -> int:
    return _U64.unpack_from(region, h.private_offset + PRIV_HEARTBEAT)[0]

def write_heartbeat(region, h: HeaderFields, value: int) -> None:
    _U64.pack_into(region, h.private_offset + PRIV_HEARTBEAT, value)

def read_detach_flag(region, h: HeaderFields) -> int:
    return _U32.unpack_from(region, h.private_offset + PRIV_DETACH)[0]

def write_detach_flag(region, h: HeaderFields, value: int) -> None:
    _U32.pack_into(region, h.private_offset + PRIV_DETACH, value)


def allocate_region(config: RegionConfig) -> tuple:
    """Convenience: allocate an in-memory region, encode, return (buf, header)."""
    buf = bytearray(required_region_size(config))
    return buf, encode_header(config, buf)
