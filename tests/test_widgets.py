import math
import time

import numpy as np
import pytest

from counters_oracle import render_counters_reference
from fbcomp.pixel import PixelFormat, Surface, SurfaceGeometry, compute_pitch
from fbcomp.widgets import (_TILE_PX, ANIMATION_PERIOD, MIN_SIDE, _grids,
                            _to_uint8, render_counters, render_pattern)


def make_surface(side=128, fmt=PixelFormat.R8G8B8A8):
    geometry = SurfaceGeometry(side, side, compute_pitch(side, fmt))
    return Surface.allocate(geometry, fmt)


class TestCounters:
    def test_deterministic(self):
        a, b = make_surface(), make_surface()
        render_counters(a, 1.234, 2)
        render_counters(b, 1.234, 2)
        assert a._raw.tobytes() == b._raw.tobytes()

    def test_periodic(self):
        a, b = make_surface(), make_surface()
        render_counters(a, 0.7, 1)
        render_counters(b, 0.7 + ANIMATION_PERIOD, 1)
        assert a._raw.tobytes() == b._raw.tobytes()

    def test_different_times_differ(self):
        a, b = make_surface(), make_surface()
        render_counters(a, 0.0, 1)
        render_counters(b, 1.0, 1)
        assert a._raw.tobytes() != b._raw.tobytes()

    def test_too_small_surface_rejected(self):
        small = Surface.allocate(SurfaceGeometry(32, 32, 128), PixelFormat.R8G8B8A8)
        with pytest.raises(ValueError):
            render_counters(small, 0.0, 1)

    def test_bad_complexity_rejected(self):
        with pytest.raises(ValueError):
            render_counters(make_surface(), 0.0, 0)

    @pytest.mark.parametrize("fmt", list(PixelFormat), ids=lambda f: f.name)
    def test_format_independent_content(self, fmt):
        # Same scene, different byte orders: channels must agree by name.
        a = make_surface(fmt=PixelFormat.R8G8B8A8)
        b = make_surface(fmt=fmt)
        render_counters(a, 2.0, 1)
        render_counters(b, 2.0, 1)
        assert a.tight_bytes(PixelFormat.R8G8B8A8) == b.tight_bytes(PixelFormat.R8G8B8A8)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_leaves_surface_untouched(self, t):
        surface = make_surface(100, PixelFormat.B8G8R8A8)
        surface.buffer()[:] = np.random.default_rng(7).integers(
            0, 256, surface.buffer().size, dtype=np.uint8)
        before = surface.buffer().tobytes()
        with pytest.raises(ValueError):
            render_counters(surface, t, 2)
        assert surface.buffer().tobytes() == before

    @pytest.mark.parametrize("fmt", list(PixelFormat), ids=lambda f: f.name)
    def test_slot_content_does_not_leak_into_frame(self, fmt):
        # Queue slots are reused: every pixel must be written whatever the
        # slot held, and the row padding past width * 4 left as it was.
        w, h, pad = 100, 77, 64
        geometry = SurfaceGeometry(w, h, w * 4 + pad)
        clean = Surface.allocate(geometry, fmt)
        dirty = Surface.allocate(geometry, fmt)
        junk = np.random.default_rng(int(fmt)).integers(
            0, 256, geometry.frame_bytes, dtype=np.uint8)
        dirty.buffer()[:] = junk
        render_counters(clean, 5.3, 2)
        render_counters(dirty, 5.3, 2)
        assert dirty.tight_bytes() == clean.tight_bytes()
        rows = dirty.buffer().reshape(h, w * 4 + pad)
        assert np.array_equal(rows[:, w * 4:], junk.reshape(h, -1)[:, w * 4:])

    def test_complexity_scales_render_time_roughly_linearly(self):
        # Trend check, not a constant: doubling complexity should about
        # double per-frame work (within 25%) on a warm run.
        # CPU time of this thread, so other load on the host does not
        # count; the two complexities alternate, so a slow spell hits both.
        surface = make_surface(512)
        render_counters(surface, 0.1, 4)  # warm caches

        def measure(complexity, reps=6):
            t0 = time.thread_time()
            for i in range(reps):
                render_counters(surface, 0.1 * i, complexity)
            return time.thread_time() - t0

        best = {4: float("inf"), 8: float("inf")}
        for _ in range(5):
            for complexity in best:
                best[complexity] = min(best[complexity], measure(complexity))
        ratio = best[8] / best[4]
        assert 1.5 <= ratio <= 2.5, f"complexity scaling ratio {ratio:.2f}"


# Needle at -pi (t = 0) and at +pi (t just below the period); tick shift
# 60 * phase % 5 just below 5 and just above 0; and one time in between.
EDGE_TIMES = [0.0, math.nextafter(ANIMATION_PERIOD, 0.0), 2 / 3 - 1e-6,
              2 / 3 + 1e-6, 3.3]


# The field is rendered in bands of _TILE_PX // width rows. At this width a
# band is more than MIN_SIDE rows, so heights of one band and one band +-1
# are valid sizes; 1600 wide gives far fewer rows per band than 768.
_BAND_W = 256
_BAND_ROWS = _TILE_PX // _BAND_W
assert _BAND_ROWS - 1 >= MIN_SIDE


def _assert_matches_reference(width, height, pitch, fmt, complexity, t):
    geometry = SurfaceGeometry(width, height, pitch)
    got = Surface.allocate(geometry, fmt)
    want = Surface.allocate(geometry, fmt)
    render_counters(got, t, complexity)
    render_counters_reference(want, t, complexity)
    assert got.buffer().tobytes() == want.buffer().tobytes(), (
        f"{width}x{height} {fmt.name} pitch {pitch} complexity {complexity} "
        f"t {t!r}")


_SIZES = [
    (MIN_SIDE, MIN_SIDE), (100, 77), (333, 201), (768, 768),
    (_BAND_W, _BAND_ROWS - 1), (_BAND_W, _BAND_ROWS), (_BAND_W, _BAND_ROWS + 1),
    (1600, 70),
    # The middle of the frame on a band edge: the top half, which the
    # bottom half mirrors, ends one row before, at or one row after the
    # end of the first band.
    (_BAND_W, 2 * _BAND_ROWS - 1), (_BAND_W, 2 * _BAND_ROWS),
    (_BAND_W, 2 * _BAND_ROWS + 1)]


@pytest.mark.parametrize("width,height,complexities", [
    *(pytest.param(w, h, (1, 2, 3), id=f"{w}-{h}") for w, h in _SIZES),
    # More passes than any size above renders, so the per-pass radius
    # factor scratch of a size grows.
    pytest.param(333, 201, (5,), id="333-201-c5"),
    pytest.param(_BAND_W, 2 * _BAND_ROWS + 1, (5,),
                 id=f"{_BAND_W}-{2 * _BAND_ROWS + 1}-c5")])
def test_matches_reference_renderer(width, height, complexities):
    # The banded field with its mirrored radius factors, the windowed
    # overlays and the direct slot write must reproduce the full-frame
    # renderer byte for byte, row padding included.
    shifts = [(60.0 * (t % ANIMATION_PERIOD) / ANIMATION_PERIOD) % 5.0
              for t in EDGE_TIMES]
    assert 4.99 < shifts[2] < 5.0 and 0.0 < shifts[3] < 0.01
    # The mirrored radius and the broadcast angle are the full-grid ones
    # on this host: hypot(x, -y) == hypot(x, y), as C Annex F requires.
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float32)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    grids = _grids(width, height)
    assert np.array_equal(grids["rad"], np.hypot(xx - cx, yy - cy)
                          / (min(width, height) / 2.0))
    assert np.array_equal(grids["ang"], np.arctan2(yy - cy, xx - cx))
    for fmt in PixelFormat:
        for pitch in (width * 4, width * 4 + 64):
            for complexity in complexities:
                for t in EDGE_TIMES:
                    _assert_matches_reference(width, height, pitch, fmt,
                                              complexity, t)


def test_interleaved_sizes_match_reference_renderer():
    # Each size keeps its own band scratch: alternating two sizes with
    # different band heights must not carry rows from one into the other.
    sizes = [(1600, 70), (_BAND_W, _BAND_ROWS + 1)]
    for t in EDGE_TIMES:
        for width, height in sizes:
            _assert_matches_reference(width, height, width * 4,
                                      PixelFormat.B8G8R8A8, 2, t)


class TestPattern:
    def test_encodes_frame_index(self):
        surface = make_surface(64)
        render_pattern(surface, 0x1234)
        px = surface.pixels()
        assert px[0, 0, 0] == 0x34 and px[0, 0, 1] == 0x12

    def test_deterministic(self):
        a, b = make_surface(64), make_surface(64)
        render_pattern(a, 77)
        render_pattern(b, 77)
        assert a._raw.tobytes() == b._raw.tobytes()


def test_field_cast_truncates_then_wraps():
    # The field lies in [-20, 270]. Every value must become its truncation
    # toward zero modulo 256 on any machine: 10 M uniform values plus the
    # edges, in chunks to keep the scratch small.
    edges = np.array([-20.0, -17.0, -1.0, -0.99, 0.0, 0.99, 255.0, 255.99,
                      256.0, 264.3, 270.0], np.float32)
    rng = np.random.default_rng(22)
    chunks = [edges] + [rng.uniform(-20.0, 270.0, 1_000_000).astype(np.float32)
                        for _ in range(10)]
    for acc in chunks:
        wide = np.empty(acc.shape, np.int16)
        base = np.empty(acc.shape, np.uint8)
        _to_uint8(acc, wide, base)
        want = (np.trunc(acc).astype(np.int64) % 256).astype(np.uint8)
        assert np.array_equal(base, want)
    base = np.empty(3, np.uint8)
    _to_uint8(np.array([-17.0, 256.0, 264.3], np.float32),
              np.empty(3, np.int16), base)
    assert base.tolist() == [239, 0, 8]
