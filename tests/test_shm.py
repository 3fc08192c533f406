import dataclasses
import random
import struct

import pytest

from fbcomp import shm
from fbcomp.errors import (CorruptRegion, IncompatibleProtocol, RegionTooSmall,
                           ServerUnavailable)
from fbcomp.pixel import PixelFormat, SurfaceGeometry


def small_config(**kw):
    defaults = dict(
        geometry=SurfaceGeometry.for_width(64, 48),
        formats=(PixelFormat.R8G8B8A8, PixelFormat.B8G8R8A8),
        framerate=30, timeout_us=200_000, queue_depth=2,
        frame_padding=64,
    )
    defaults.update(kw)
    return shm.RegionConfig(**defaults)


def random_config(rng):
    width = rng.randint(1, 300)
    fmt_count = rng.randint(1, 4)
    formats = tuple(rng.sample(list(PixelFormat), fmt_count))
    framerate = rng.randint(1, 120)
    return shm.RegionConfig(
        geometry=SurfaceGeometry.for_width(
            width, rng.randint(1, 300),
            alignment=rng.choice([4, 16, 64, 256])),
        formats=formats,
        framerate=framerate,
        timeout_us=rng.randint(2 * (1_000_000 // framerate), 10_000_000),
        queue_depth=rng.randint(2, 8),
        frame_padding=rng.choice([64, 256, 1024, 4096]),
    )


class TestLayout:
    def test_stride_paper_geometry(self):
        config = small_config(
            geometry=SurfaceGeometry(768, 768, 3072),
            formats=(PixelFormat.R8G8B8A8,), frame_padding=4096)
        lay = shm.layout_for(config)
        assert lay.frame_stride == 2_359_296

    def test_stride_tiny_surface(self):
        config = small_config(geometry=SurfaceGeometry(1, 1, 4),
                              queue_depth=2, frame_padding=64)
        assert shm.layout_for(config).frame_stride == 64

    def test_required_size_matches_independent_summation(self):
        # Oracle: walk the layout from scratch, summing the pieces.
        rng = random.Random(1234)
        for _ in range(50):
            config = random_config(rng)
            lay = shm.layout_for(config)

            def up(v, a):
                return (v + a - 1) // a * a

            expect_fmt = 64
            expect_frames = up(expect_fmt + 4 * len(config.formats), 16)
            expect_priv = expect_frames + 16 * config.queue_depth
            expect_data = up(expect_priv + 256, config.frame_padding)
            stride = up(config.geometry.pitch * config.geometry.height,
                        config.frame_padding)
            assert lay.format_offset == expect_fmt
            assert lay.frame_offset == expect_frames
            assert lay.private_offset == expect_priv
            assert lay.frame_data_offset == expect_data
            assert lay.frame_stride == stride
            assert lay.required_size == expect_data + config.queue_depth * stride

    def test_region_too_small(self):
        config = small_config()
        need = shm.required_region_size(config)
        with pytest.raises(RegionTooSmall) as exc:
            shm.encode_header(config, bytearray(need - 1))
        assert exc.value.required == need


# One fixed region, recorded as bytes: a field that moves, resizes or
# changes endianness fails here, which no encode/read round trip can show.
GOLDEN_CONFIG = dict(
    geometry=SurfaceGeometry.for_width(768, 768),
    formats=(PixelFormat.R8G8B8A8, PixelFormat.B8G8R8A8),
    framerate=60, timeout_us=1_000_000, queue_depth=3, frame_padding=4096)
GOLDEN_HEADER = bytes.fromhex(
    "00000000" "4342464a"          # ready 0, magic "JFBC"
    "00030000" "00030000"          # width 768, height 768
    "000c0000" "3c000000"          # pitch 3072, framerate 60
    "40420f0000000000"             # timeout 1_000_000 us (u64)
    "02000000" "40000000"          # formatCount 2, formatOffset 64
    "03000000" "50000000"          # frameCount 3, frameOffset 80
    "00100000" "00100000"          # framePadding 4096, frameDataOffset 4096
    "80000000")                    # privateOffset 128
GOLDEN_FORMAT_TABLE = bytes.fromhex("00000000" "01000000")
GOLDEN_SIZE = 4096 + 3 * 2_359_296


class TestGoldenBytes:
    def test_header_and_format_table(self):
        buf, _ = shm.allocate_region(shm.RegionConfig(**GOLDEN_CONFIG))
        assert shm.HEADER_SIZE == len(GOLDEN_HEADER) == 60
        assert bytes(buf[:shm.HEADER_SIZE]) == GOLDEN_HEADER
        assert bytes(buf[64:72]) == GOLDEN_FORMAT_TABLE
        assert len(buf) == GOLDEN_SIZE

    def test_read_header_equals_layout(self):
        rng = random.Random(4321)
        for _ in range(200):
            config = random_config(rng)
            buf, header = shm.allocate_region(config)
            assert shm.read_header(buf) == shm.layout_for(config) == header
            assert header.ready == 0 and len(buf) == header.required_size

    def test_stride_zero_for_bad_padding(self):
        header = shm.layout_for(small_config())
        assert dataclasses.replace(header, frame_padding=96).frame_stride == 0
        assert dataclasses.replace(header, frame_padding=0).frame_stride == 0


def _region_config(framerate, timeout_us, depth, **kw):
    return small_config(framerate=framerate, timeout_us=timeout_us,
                        queue_depth=depth, **kw)


def _admitted_header(framerate, timeout_us, depth):
    """Admit a published, well-formed region after writing these values
    into its header's framerate, timeout and frameCount words."""
    buf, _ = shm.allocate_region(
        small_config(queue_depth=depth if 2 <= depth <= 8 else 2))
    shm.publish(buf)
    struct.pack_into("<IQ", buf, 20, framerate, timeout_us)
    struct.pack_into("<I", buf, 40, depth)
    h = shm.admit_region(buf)
    assert (h.framerate, h.timeout_us, h.frame_count) == \
        (framerate, timeout_us, depth)


# A config is held to the rule a header read from memory is held to.
_BOTH_ENDS = pytest.mark.parametrize(
    "make, error", [(_region_config, ValueError),
                    (_admitted_header, CorruptRegion)],
    ids=["RegionConfig", "header"])


class TestTimingRule:
    # (framerate, timeout_us, depth, the rule it breaks)
    BAD = {
        "depth-0": (30, 100_000, 0, "queue depth: frameCount 0 outside"),
        "depth-1": (30, 100_000, 1, r"frameCount 1 outside 2\.\.8 \(the "
                    r"consumer always holds one slot\)"),
        "depth-9": (30, 100_000, 9, "queue depth: frameCount 9 outside"),
        "framerate-0": (0, 100_000, 2, "framerate 0 not positive"),
        "timeout-0-at-2MHz": (2_000_000, 0, 2, "timeout 0us not positive"),
        "timeout-1us-short": (60, 33_331, 2,
                              "timeout 33331us below two frame periods"),
    }

    @_BOTH_ENDS
    @pytest.mark.parametrize("values", list(BAD.values()), ids=list(BAD))
    def test_rejected(self, make, error, values):
        *timing, rule = values
        with pytest.raises(error, match=rule):
            make(*timing)

    @_BOTH_ENDS
    def test_boundaries_accepted(self, make, error):
        make(60, 33_332, 2)
        make(60, 33_332, 8)
        make(2_000_000, 1, 2)
        make(1, 2**64 - 1, 2)   # the largest timeout its u64 word holds

    @pytest.mark.parametrize("framerate, timeout_us, rule", [
        (-1, 100_000, "framerate -1 not positive"),
        (30, -5, "timeout -5us not positive")], ids=["framerate", "timeout"])
    def test_negative_value_named(self, framerate, timeout_us, rule):
        with pytest.raises(ValueError, match=rule):
            _region_config(framerate, timeout_us, 2)

    @pytest.mark.parametrize("kw", [
        dict(frame_padding=3000), dict(formats=()),
        dict(geometry=SurfaceGeometry(64, 2**32, 256)),
        dict(geometry=SurfaceGeometry(64, 48, 2**32))],
        ids=["padding-3000", "no-formats", "height-over-u32", "pitch-over-u32"])
    def test_region_config_only(self, kw):
        with pytest.raises(ValueError):
            _region_config(30, 100_000, 2, **kw)


class TestAttach:
    def test_unpublished_region_rejected(self):
        buf, _ = shm.allocate_region(small_config())
        with pytest.raises(ServerUnavailable, match="not published"):
            shm.client_attach(buf)

    def test_bad_magic_rejected(self):
        buf, _ = shm.allocate_region(small_config())
        shm.publish(buf)
        struct.pack_into("<I", buf, shm.OFF_MAGIC, shm.MAGIC ^ 1)
        with pytest.raises(IncompatibleProtocol):
            shm.client_attach(buf)

    def test_admit_region_tells_magic_from_other_violations(self):
        buf, lay = shm.allocate_region(small_config())
        assert shm.admit_region(buf) == lay
        struct.pack_into("<I", buf, 40, 0)  # frameCount
        with pytest.raises(CorruptRegion, match="frameCount 0"):
            shm.admit_region(buf)
        struct.pack_into("<I", buf, shm.OFF_MAGIC, shm.MAGIC ^ 1)
        with pytest.raises(IncompatibleProtocol, match="magic"):
            shm.admit_region(buf)
        with pytest.raises(CorruptRegion, match="cannot hold"):
            shm.admit_region(bytes(shm.HEADER_SIZE - 1))

    def test_round_trip_random_configs(self):
        rng = random.Random(99)
        for _ in range(100):
            config = random_config(rng)
            buf, lay = shm.allocate_region(config)
            shm.publish(buf)
            queue, header = shm.client_attach(buf)
            assert queue.geometry == config.geometry
            assert header.framerate == config.framerate
            assert header.timeout_us == config.timeout_us
            assert header.frame_count == config.queue_depth == queue.depth
            assert [PixelFormat(f) for f in header.formats] == list(config.formats)
            assert header.frame_offset == lay.frame_offset
            assert header.frame_data_offset == lay.frame_data_offset
            assert header.frame_padding == config.frame_padding

    def test_publication_order_ready_written_last(self):
        # A client observing ready=1 must observe every other header
        # field: encode_header leaves ready at 0 until publish.
        config = small_config()
        buf, _ = shm.allocate_region(config)
        assert not shm.is_published(buf)
        header = shm.read_header(buf)
        assert header.magic == shm.MAGIC and header.width == 64
        shm.publish(buf)
        assert shm.is_published(buf)

    def test_queue_round_trip_through_region(self):
        buf, _ = shm.allocate_region(small_config())
        shm.publish(buf)
        queue, _ = shm.client_attach(buf)
        h = queue.acquire_frame()
        h.surface.fill(0xAABBCCDD)
        queue.submit_frame(h)
        header = shm.read_header(buf)
        consumer = shm.queue_view(buf, header)
        t = consumer.take_for_display()
        assert t.sequence == 1
        assert int.from_bytes(bytes(t.surface.pixels()[0, 0]), "little") == 0xAABBCCDD


class TestValidate:
    def test_well_formed_region_clean(self):
        buf, _ = shm.allocate_region(small_config())
        shm.publish(buf)
        assert shm.validate_region(buf) == []

    def test_overlap_violation_names_both_tables(self):
        buf, lay = shm.allocate_region(small_config())
        shm.publish(buf)
        # point the frame status array into the format table
        struct.pack_into("<I", buf, 44, lay.format_offset)  # frameOffset
        found = [v for v in shm.validate_region(buf)
                 if "format table" in v and "frame status" in v]
        assert found

    def test_tiny_region(self):
        assert shm.validate_region(b"\x00" * 10)

    def test_unknown_format_tag(self):
        buf, lay = shm.allocate_region(small_config())
        struct.pack_into("<I", buf, lay.format_offset, 77)
        assert any("unknown tag 77" in v for v in shm.validate_region(buf))

    def test_misaligned_frame_data(self):
        buf, lay = shm.allocate_region(small_config())
        struct.pack_into("<I", buf, 52, lay.frame_data_offset + 4)  # frameDataOffset
        assert any("aligned" in v or "outside" in v
                   for v in shm.validate_region(buf))

    def test_fuzzed_headers_never_escape_region(self):
        # Random byte flips in the header; validate_region and
        # client_attach must either report violations or attach cleanly,
        # and must never touch memory outside the buffer (a stray read
        # would raise struct.error / IndexError here).
        rng = random.Random(7)
        base, _ = shm.allocate_region(small_config())
        shm.publish(base)
        for _ in range(2000):
            buf = bytearray(base)
            for _ in range(rng.randint(1, 8)):
                buf[rng.randrange(shm.HEADER_SIZE)] = rng.randrange(256)
            violations = shm.validate_region(buf)
            if violations:
                continue
            try:
                queue, header = shm.client_attach(buf)
            except ServerUnavailable:
                continue  # the flip reset the ready flag; not published
            assert header.frame_count == queue.depth
