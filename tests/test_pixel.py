import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fbcomp.pixel import (PixelFormat, Rect, Surface, SurfaceGeometry, blit,
                          channel_offsets, compute_pitch, convert_pixel,
                          pack_channels, unpack_channels)

FORMATS = list(PixelFormat)


class TestComputePitch:
    @pytest.mark.parametrize("width,fmt,align,expected", [
        (768, PixelFormat.R8G8B8A8, 64, 3072),
        (1600, PixelFormat.B8G8R8A8, 64, 6400),
        (1, PixelFormat.A8R8G8B8, 64, 64),
    ])
    def test_known_values(self, width, fmt, align, expected):
        assert compute_pitch(width, fmt, align) == expected

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            compute_pitch(0, PixelFormat.R8G8B8A8, 64)

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(ValueError):
            compute_pitch(16, PixelFormat.R8G8B8A8, 48)

    @given(st.integers(1, 10000), st.sampled_from([1, 4, 16, 64, 256, 4096]))
    def test_aligned_and_sufficient(self, width, align):
        pitch = compute_pitch(width, PixelFormat.R8G8B8A8, align)
        assert pitch % align == 0
        assert pitch >= 4 * width


class TestConvertPixel:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(FORMATS))
    def test_identity(self, v, fmt):
        assert convert_pixel(v, fmt, fmt) == v

    @given(st.integers(0, 2**32 - 1), st.sampled_from(FORMATS),
           st.sampled_from(FORMATS))
    def test_round_trip(self, v, f, g):
        assert convert_pixel(convert_pixel(v, f, g), g, f) == v

    def test_byte_order_is_the_name(self):
        # R8G8B8A8 names byte 0 red and byte 3 alpha, and so on.
        assert [channel_offsets(f) for f in FORMATS] == [
            {"r": 0, "g": 1, "b": 2, "a": 3}, {"b": 0, "g": 1, "r": 2, "a": 3},
            {"a": 0, "r": 1, "g": 2, "b": 3}, {"a": 0, "b": 1, "g": 2, "r": 3}]
        assert [pack_channels(f, 1, 2, 3, 4) for f in FORMATS] == [
            0x04030201, 0x04010203, 0x03020104, 0x01020304]

    def test_channel_oracle_all_pairs(self):
        # Independent oracle: place each of 256 probe values into one
        # named channel via the channel-offset table and demand the
        # converted pixel carries the probe in the same-named channel.
        for src, dst in itertools.permutations(FORMATS, 2):
            so, do = channel_offsets(src), channel_offsets(dst)
            for ch in "rgba":
                for probe in range(256):
                    raw = bytearray(4)
                    raw[so[ch]] = probe
                    out = convert_pixel(int.from_bytes(raw, "little"), src, dst)
                    assert out.to_bytes(4, "little")[do[ch]] == probe, \
                        (src.name, dst.name, ch, probe)

    def test_round_trip_random_bulk(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**32, size=10_000, dtype=np.uint64)
        for f, g in [(PixelFormat.R8G8B8A8, PixelFormat.A8B8G8R8),
                     (PixelFormat.B8G8R8A8, PixelFormat.A8R8G8B8)]:
            for v in values[:200]:
                v = int(v)
                assert convert_pixel(convert_pixel(v, f, g), g, f) == v
        # and the full 10k through one pair
        for v in values:
            v = int(v)
            assert convert_pixel(
                convert_pixel(v, PixelFormat.R8G8B8A8, PixelFormat.B8G8R8A8),
                PixelFormat.B8G8R8A8, PixelFormat.R8G8B8A8) == v

    @given(st.tuples(*[st.integers(0, 255)] * 4), st.sampled_from(FORMATS))
    def test_pack_unpack(self, rgba, fmt):
        assert unpack_channels(fmt, pack_channels(fmt, *rgba)) == rgba


def _random_surface(rng, w, h, fmt, extra_pitch=0):
    pitch = w * 4 + extra_pitch
    geometry = SurfaceGeometry(w, h, pitch)
    buf = bytearray(rng.integers(0, 256, size=pitch * h, dtype=np.uint8).tobytes())
    return Surface(buf, geometry, fmt)


def _naive_blit(src, dst, at):
    """Per-pixel oracle using only scalar pixel conversion."""
    sp, dp = src.pixels(), dst.pixels()
    for y in range(at.height):
        for x in range(at.width):
            v = int.from_bytes(bytes(sp[y, x]), "little")
            v = convert_pixel(v, src.format, dst.format)
            dp[at.y + y, at.x + x] = np.frombuffer(v.to_bytes(4, "little"), np.uint8)


class TestBlit:
    def test_single_pixel(self):
        src = Surface.allocate(SurfaceGeometry(1, 1, 4), PixelFormat.R8G8B8A8)
        src.fill(0x11223344)
        dst = Surface.allocate(SurfaceGeometry(2, 2, 8), PixelFormat.R8G8B8A8)
        blit(src, dst, Rect(0, 0, 1, 1))
        p = dst.pixels()
        assert int.from_bytes(bytes(p[0, 0]), "little") == 0x11223344
        assert not p[0, 1].any() and not p[1, 0].any() and not p[1, 1].any()

    def test_translation_corners(self):
        src = Surface.allocate(
            SurfaceGeometry.for_width(768, 768), PixelFormat.R8G8B8A8)
        sp = src.pixels()
        sp[0, 0] = (1, 2, 3, 4)
        sp[767, 767] = (5, 6, 7, 8)
        dst = Surface.allocate(
            SurfaceGeometry.for_width(1600, 900), PixelFormat.R8G8B8A8)
        blit(src, dst, Rect(16, 66, 768, 768))
        dp = dst.pixels()
        assert tuple(dp[66, 16]) == (1, 2, 3, 4)
        assert tuple(dp[833, 783]) == (5, 6, 7, 8)

    def test_out_of_bounds_never_partial(self):
        src = Surface.allocate(SurfaceGeometry(4, 4, 16), PixelFormat.R8G8B8A8)
        src.fill(0xFFFFFFFF)
        dst = Surface.allocate(SurfaceGeometry(8, 8, 32), PixelFormat.R8G8B8A8)
        with pytest.raises(ValueError):
            blit(src, dst, Rect(6, 6, 4, 4))
        assert not dst.pixels().any()

    def test_size_mismatch_rejected(self):
        src = Surface.allocate(SurfaceGeometry(4, 4, 16), PixelFormat.R8G8B8A8)
        dst = Surface.allocate(SurfaceGeometry(8, 8, 32), PixelFormat.R8G8B8A8)
        with pytest.raises(ValueError):
            blit(src, dst, Rect(0, 0, 3, 4))

    def test_matches_naive_oracle_mismatched_pitches(self):
        rng = np.random.default_rng(42)
        src = _random_surface(rng, 33, 17, PixelFormat.B8G8R8A8, extra_pitch=12)
        dst_a = _random_surface(rng, 40, 25, PixelFormat.A8R8G8B8, extra_pitch=28)
        dst_b = Surface(bytearray(dst_a._raw.tobytes()), dst_a.geometry, dst_a.format)
        at = Rect(5, 3, 33, 17)
        blit(src, dst_a, at)
        _naive_blit(src, dst_b, at)
        assert dst_a._raw.tobytes() == dst_b._raw.tobytes()

    @pytest.mark.parametrize("src_fmt,dst_fmt",
                             list(itertools.product(FORMATS, FORMATS)))
    def test_matches_naive_oracle_every_format_pair(self, src_fmt, dst_fmt):
        # All 12 converting pairs and the 4 identities, at a non-zero
        # offset into a padded destination; pixels outside the rectangle
        # and the row padding must not change.
        rng = np.random.default_rng(int(src_fmt) * 4 + int(dst_fmt))
        src = _random_surface(rng, 11, 6, src_fmt, extra_pitch=4)
        dst_a = _random_surface(rng, 19, 13, dst_fmt, extra_pitch=20)
        dst_b = Surface(bytearray(dst_a._raw.tobytes()), dst_a.geometry, dst_a.format)
        at = Rect(7, 5, 11, 6)
        blit(src, dst_a, at)
        _naive_blit(src, dst_b, at)
        assert dst_a._raw.tobytes() == dst_b._raw.tobytes()

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        src = _random_surface(rng, 10, 10, PixelFormat.R8G8B8A8)
        dst = _random_surface(rng, 20, 20, PixelFormat.A8B8G8R8)
        blit(src, dst, Rect(2, 2, 10, 10))
        first = dst._raw.tobytes()
        blit(src, dst, Rect(2, 2, 10, 10))
        assert dst._raw.tobytes() == first

    def test_full_cover_same_format_is_rowwise_copy(self):
        rng = np.random.default_rng(9)
        src = _random_surface(rng, 13, 7, PixelFormat.R8G8B8A8, extra_pitch=8)
        dst = _random_surface(rng, 13, 7, PixelFormat.R8G8B8A8, extra_pitch=20)
        blit(src, dst, Rect(0, 0, 13, 7))
        for y in range(7):
            row_src = src._raw[y * src.geometry.pitch:y * src.geometry.pitch + 13 * 4]
            row_dst = dst._raw[y * dst.geometry.pitch:y * dst.geometry.pitch + 13 * 4]
            assert row_src.tobytes() == row_dst.tobytes()

    def test_readonly_destination_rejected(self):
        src = Surface.allocate(SurfaceGeometry(2, 2, 8), PixelFormat.R8G8B8A8)
        dst = Surface(bytes(32), SurfaceGeometry(2, 2, 8), PixelFormat.R8G8B8A8)
        from fbcomp.errors import FramebufferError
        with pytest.raises(FramebufferError):
            blit(src, dst, Rect(0, 0, 2, 2))


class TestContext:
    def test_rect_validation(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 5)
        geometry = SurfaceGeometry.for_width(100, 100)
        assert Rect(0, 0, 100, 100).fits_inside(geometry)
        assert not Rect(1, 0, 100, 100).fits_inside(geometry)
        assert Rect(0, 0, 10, 10).overlaps(Rect(9, 9, 10, 10))
        assert not Rect(0, 0, 10, 10).overlaps(Rect(10, 0, 10, 10))
