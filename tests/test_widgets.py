import time

import pytest

from fbcomp.pixel import PixelFormat, Surface, SurfaceGeometry, compute_pitch
from fbcomp.widgets import ANIMATION_PERIOD, render_counters, render_pattern


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

    def test_format_independent_content(self):
        # Same scene, different byte orders: channels must agree by name.
        a = make_surface(fmt=PixelFormat.R8G8B8A8)
        b = make_surface(fmt=PixelFormat.A8B8G8R8)
        render_counters(a, 2.0, 1)
        render_counters(b, 2.0, 1)
        assert a.tight_bytes(PixelFormat.R8G8B8A8) == b.tight_bytes(PixelFormat.R8G8B8A8)

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
