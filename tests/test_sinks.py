import random
import zlib

import numpy as np
import pytest

from fbcomp import sinks
from fbcomp.pixel import PixelFormat, Surface, SurfaceGeometry, pack_channels
from fbcomp.sinks import (ChecksumSink, ImageSequenceSink, NullSink,
                          crc32_combine, frame_checksum, make_sink,
                          replay_index, write_ppm)
from fbcomp.widgets import render_pattern


def surface_with(index, side=16, fmt=PixelFormat.R8G8B8A8):
    s = Surface.allocate(SurfaceGeometry(side, side, side * 4 + 16), fmt)
    render_pattern(s, index)
    return s


class TestChecksums:
    def test_checksum_ignores_pitch_padding(self):
        a = Surface.allocate(SurfaceGeometry(16, 16, 64), PixelFormat.R8G8B8A8)
        b = Surface.allocate(SurfaceGeometry(16, 16, 128), PixelFormat.R8G8B8A8)
        render_pattern(a, 5)
        render_pattern(b, 5)
        b._raw[64:128] = 0xAA  # scribble into padding only
        assert frame_checksum(a) == frame_checksum(b)

    def test_checksum_normalizes_format(self):
        # Same named-channel content in two byte orders hashes the same.
        a = Surface.allocate(SurfaceGeometry.for_width(16, 16), PixelFormat.R8G8B8A8)
        b = Surface.allocate(SurfaceGeometry.for_width(16, 16), PixelFormat.B8G8R8A8)
        a.fill(pack_channels(PixelFormat.R8G8B8A8, 10, 20, 30, 255))
        b.fill(pack_channels(PixelFormat.B8G8R8A8, 10, 20, 30, 255))
        assert frame_checksum(a) == frame_checksum(b)


def damage_run(ticks, seed):
    """Checksums of `ticks` presents of random row writes with exact damage."""
    rng = random.Random(seed)
    surface = Surface.allocate(SurfaceGeometry.for_width(32, 48),
                               PixelFormat.R8G8B8A8)
    sink = ChecksumSink()
    for _ in range(ticks):
        y0 = rng.randrange(49)
        y1 = y0 if rng.random() < 0.2 else rng.randrange(y0, 49)
        surface.pixels()[y0:y1] = np.frombuffer(
            rng.randbytes((y1 - y0) * 32 * 4), np.uint8).reshape(-1, 32, 4)
        surface.damage = (y0, y1)
        sink.present(surface, 0)
    return sink.checksums()


class TestCrc32:
    @pytest.mark.parametrize("length", [0, 1, 4095, 5121, 1 << 20])
    def test_matches_zlib_on_every_buffer_kind(self, length):
        data = random.Random(length).randbytes(length + 1)
        arr = np.frombuffer(data, np.uint8)
        views = [data[1:], bytearray(data[1:]), arr[1:],
                 memoryview(data)[1:].toreadonly()]
        chained = zlib.crc32(b"chained")
        for view in views:
            assert sinks.crc32(view) == zlib.crc32(view)
            assert sinks.crc32(view, 0x1234ABCD) == zlib.crc32(view, 0x1234ABCD)
            assert sinks.crc32(view, sinks.crc32(b"chained")) == \
                zlib.crc32(view, chained)

    def test_backend_is_named(self):
        assert sinks.CRC32_BACKEND in ("libdeflate", "zlib")

    def test_zlib_fallback_records_the_same_checksums(self, monkeypatch):
        active = damage_run(200, 5)
        monkeypatch.setattr(sinks, "crc32", zlib.crc32)
        assert damage_run(200, 5) == active


class TestCrc32Combine:
    def test_matches_crc_of_concatenation(self):
        rng = random.Random(3)
        for _ in range(200):
            data = rng.randbytes(rng.randrange(0, 3000))
            for k in (0, len(data), rng.randrange(len(data) + 1)):
                a, b = data[:k], data[k:]
                assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) \
                    == zlib.crc32(data)


class TestChecksumSinkDamage:
    def test_unknown_damage_is_frame_checksum(self):
        sink = ChecksumSink()
        surfaces = [surface_with(1),
                    surface_with(2, fmt=PixelFormat.B8G8R8A8),
                    Surface.allocate(SurfaceGeometry.for_width(16, 16),
                                     PixelFormat.R8G8B8A8)]
        expected = []
        for i in range(6):
            s = surfaces[i % 3]
            render_pattern(s, i * 11)     # changes rows no damage names
            assert s.damage is None
            sink.present(s, i)
            expected.append(frame_checksum(s))
        assert sink.checksums() == expected

    def test_damage_spans_match_full_checksum(self):
        rng = random.Random(9)
        a = Surface.allocate(SurfaceGeometry.for_width(16, 40), PixelFormat.R8G8B8A8)
        b = Surface.allocate(SurfaceGeometry.for_width(16, 40), PixelFormat.R8G8B8A8)
        sink = ChecksumSink()
        for _ in range(400):
            s = a if rng.random() < 0.9 else b
            y0 = rng.randrange(41)
            y1 = y0 if rng.random() < 0.2 else rng.randrange(y0, 41)
            s.pixels()[y0:y1] = np.frombuffer(
                rng.randbytes((y1 - y0) * 16 * 4), np.uint8).reshape(-1, 16, 4)
            s.damage = (y0, y1)
            sink.present(s, 0)
            assert sink.checksums()[-1] == frame_checksum(s)
        a.damage = (30, 41)
        with pytest.raises(ValueError):
            sink.present(a, 0)

    @pytest.mark.parametrize("band,combines", [
        ((25, 40), 0), ((0, 40), 0), ((0, 12), 1), ((10, 25), 1)],
        ids=["bottom", "whole", "top", "middle"])
    def test_damage_equal_to_band_costs_one_crc(self, monkeypatch, band, combines):
        # The steady state of a compose loop: the same rows change every
        # tick. Only those rows are CRCed, and only a band with rows below
        # it pays a combine (the shift operator of those rows is cached).
        s = Surface.allocate(SurfaceGeometry.for_width(16, 40), PixelFormat.R8G8B8A8)
        rng = random.Random(4)
        sink = ChecksumSink()
        calls = {"crc32": 0, "multmodp": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        y0, y1 = band
        for tick in range(4):
            s.pixels()[y0:y1] = np.frombuffer(
                rng.randbytes((y1 - y0) * 16 * 4), np.uint8).reshape(-1, 16, 4)
            s.damage = band
            if tick == 2:
                monkeypatch.setattr(sinks, "crc32", counted("crc32", sinks.crc32))
                monkeypatch.setattr(sinks, "_multmodp",
                                    counted("multmodp", sinks._multmodp))
            sink.present(s, tick)
            if tick == 2:
                monkeypatch.undo()
                assert calls == {"crc32": 1, "multmodp": combines}
            assert sink.checksums()[-1] == frame_checksum(s)


class TestImageSequence:
    def test_three_presents_three_files_plus_index(self, tmp_path):
        sink = ImageSequenceSink(tmp_path)
        for i in range(3):
            sink.present(surface_with(i), now_us=i * 1000)
        index = sink.close()
        names = sorted(p.name for p in tmp_path.glob("frame_*.ppm"))
        assert names == ["frame_000001.ppm", "frame_000002.ppm", "frame_000003.ppm"]
        lines = index.read_text().splitlines()
        assert len(lines) == 3
        assert replay_index(index) == []

    def test_identical_run_identical_checksums(self, tmp_path):
        def run(d):
            sink = ImageSequenceSink(d)
            for i in range(4):
                sink.present(surface_with(i * 3), now_us=i)
            return sink.close().read_text()

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_replay_detects_tampering(self, tmp_path):
        sink = ImageSequenceSink(tmp_path)
        sink.present(surface_with(1), 0)
        index = sink.close()
        target = tmp_path / "frame_000001.ppm"
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF
        target.write_bytes(data)
        problems = replay_index(index)
        assert len(problems) == 1 and "checksum" in problems[0]

    def test_replay_detects_missing_file(self, tmp_path):
        sink = ImageSequenceSink(tmp_path)
        sink.present(surface_with(1), 0)
        index = sink.close()
        (tmp_path / "frame_000001.ppm").unlink()
        assert any("missing" in p for p in replay_index(index))

    def test_ppm_header_and_size(self, tmp_path):
        s = surface_with(2, side=16)
        write_ppm(tmp_path / "x.ppm", s)
        data = (tmp_path / "x.ppm").read_bytes()
        assert data.startswith(b"P6\n16 16\n255\n")
        assert len(data) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3

    def test_ppm_returns_crc_of_file(self, tmp_path):
        s = surface_with(4, fmt=PixelFormat.A8B8G8R8)
        assert write_ppm(tmp_path / "x.ppm", s) == \
            zlib.crc32((tmp_path / "x.ppm").read_bytes())


class TestFactory:
    def test_kinds(self, tmp_path):
        assert isinstance(make_sink("null"), NullSink)
        assert isinstance(make_sink("checksum"), ChecksumSink)
        assert isinstance(make_sink("images", str(tmp_path)), ImageSequenceSink)
        with pytest.raises(ValueError):
            make_sink("bogus")
        with pytest.raises(ValueError):
            make_sink("images")
