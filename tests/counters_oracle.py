"""Frozen copy of the counters renderer as it stood before it wrote straight
into the slot and windowed its overlays.

Test-only reference: `render_counters_reference` draws into an RGBA scratch
frame, runs the tick and needle tests over every ring and disc point, and
copies the permuted frame into the surface at the end. tests/test_widgets.py
requires fbcomp.widgets.render_counters to match it byte for byte. Do not
change it to follow the renderer.
"""

from __future__ import annotations

import numpy as np

from fbcomp.pixel import PixelFormat, Surface, channel_permutation
from fbcomp.widgets import _DIGITS, ANIMATION_PERIOD, MIN_SIDE

_grid_cache = {}


def _grids(w: int, h: int):
    key = (w, h)
    cached = _grid_cache.get(key)
    if cached is None:
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        ang = np.arctan2(yy - cy, xx - cx)
        rad = np.hypot(xx - cx, yy - cy) / (min(w, h) / 2.0)
        ring = (rad > 0.62) & (rad < 0.86)
        inner = rad < 0.6
        ang60 = ang * (60.0 / (2.0 * np.pi))
        cached = {
            "ang": ang,
            "rad": rad,
            "mix": ang * 3.0 + rad * 7.0,
            # Overlays only touch the dial ring and the needle disc, so
            # keep flat index lists and per-point angles for just those.
            "ring_idx": np.nonzero(ring),
            "ring_frac": ang60[ring] % 5.0,
            "inner_idx": np.nonzero(inner),
            "inner_ang": ang[inner],
            # Scratch reused across frames: keeps the per-frame working
            # set small, which matters when several renderers share a core.
            "acc": np.empty_like(rad),
            "wave": np.empty_like(rad),
            "tmp": np.empty_like(rad),
            "rgba": np.empty((h, w, 4), np.uint8),
        }
        if len(_grid_cache) > 8:
            _grid_cache.clear()
        _grid_cache[key] = cached
    return cached


def render_counters_reference(surface: Surface, t: float, complexity: int = 1) -> None:
    """Animated dial with rotating ticks and a two-digit counter."""
    g = surface.geometry
    if g.width < MIN_SIDE or g.height < MIN_SIDE:
        raise ValueError(f"surface {g.width}x{g.height} below {MIN_SIDE}x{MIN_SIDE}")
    if complexity < 1:
        raise ValueError("complexity must be a positive integer")
    tt = float(t) % ANIMATION_PERIOD
    phase01 = tt / ANIMATION_PERIOD
    grids = _grids(g.width, g.height)
    ang, rad = grids["ang"], grids["rad"]

    # Interference field; each complexity step is one more full-surface
    # pass, written with in-place ops over shared scratch buffers.
    acc, wave, tmp = grids["acc"], grids["wave"], grids["tmp"]
    acc[:] = 0.0
    for i in range(complexity):
        p = 2.0 * np.pi * phase01 * (i + 1)
        np.multiply(ang, 6 + 2 * i, out=wave)
        wave += p
        np.sin(wave, out=wave)
        np.multiply(rad, (5.0 + i) * np.pi, out=tmp)
        tmp -= p
        np.cos(tmp, out=tmp)
        wave *= tmp
        np.multiply(grids["mix"], 1.0 + 0.5 * i, out=tmp)
        tmp -= p
        np.sin(tmp, out=tmp)
        tmp *= 0.25
        wave += tmp
        np.multiply(grids["mix"], 2.0 + 0.25 * i, out=tmp)
        tmp += p
        np.cos(tmp, out=tmp)
        tmp *= 0.20
        wave += tmp
        np.multiply(rad, 9.0 + i, out=tmp)
        tmp -= 2.0 * p
        np.sin(tmp, out=tmp)
        tmp *= 0.25
        tmp += 0.75
        wave *= tmp
        acc += wave
    acc /= complexity

    rgba = grids["rgba"]
    acc += 1.25
    acc *= 100.0
    base = acc.astype(np.uint8)
    rgba[..., 0] = base
    rgba[..., 1] = 40 + (base >> 1)
    rgba[..., 2] = 255 - base
    rgba[..., 3] = 255

    # Dial: 60 ticks rotating one revolution per period.
    shift = (60.0 * phase01) % 5.0
    frac = grids["ring_frac"] + shift
    frac = np.where(frac >= 5.0, frac - 5.0, frac)
    tick = frac < 0.45
    rows, cols = grids["ring_idx"]
    rgba[rows[tick], cols[tick]] = (255, 255, 255, 255)

    # Needle sweep.
    needle_ang = 2.0 * np.pi * phase01 - np.pi
    delta = (grids["inner_ang"] - needle_ang + np.pi) % (2.0 * np.pi) - np.pi
    sweep = np.abs(delta) < 0.04
    rows, cols = grids["inner_idx"]
    rgba[rows[sweep], cols[sweep]] = (255, 220, 0, 255)

    _draw_counter(rgba, int(tt * 12.5) % 100)

    perm = channel_permutation(PixelFormat.R8G8B8A8, surface.format)
    out = rgba if perm == (0, 1, 2, 3) else rgba[..., list(perm)]
    surface.pixels()[:] = out


def _draw_counter(rgba: np.ndarray, value: int) -> None:
    h, w = rgba.shape[:2]
    cell = max(2, min(w, h) // 48)
    x = cell * 2
    y = cell * 2
    for ch in f"{value:02d}":
        glyph = _DIGITS[ch]
        for row, bits in enumerate(glyph):
            for col, bit in enumerate(bits):
                if bit == "#":
                    rgba[y + row * cell:y + (row + 1) * cell,
                         x + col * cell:x + (col + 1) * cell] = (255, 255, 255, 255)
        x += cell * 4
