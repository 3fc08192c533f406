"""Software-rendered demo widgets used by the harness and benchmarks.

render_counters is a pure function of (t, complexity, geometry): same
inputs, same bytes, on any machine. The interference field lies in
[-20, 270], and `_to_uint8` casts it through int16 (defined: truncation
toward zero) and then wraps it modulo 256 (defined for an unsigned
type), so no step depends on how a platform converts an out-of-range
float. The animation repeats every ANIMATION_PERIOD seconds. Per-frame pixel work scales linearly
with `complexity`, which is what the overhead benchmarks lean on.

It draws straight into the surface, channel by channel at the format's
byte offsets, with no scratch frame. The field is computed one band of
rows at a time (about _TILE_PX pixels), and each band is cast and stored
while its scratch is still in cache.

Two of the five transcendental factors of each field pass read only the
radius, and the radius grid is symmetric about the dial's horizontal
axis: row h-1-y holds exactly the values of row y. That is exact, not
approximate. With cy = (h-1)/2, the offset y - cy is a multiple of 1/2
well inside float32's 24-bit significand, so (h-1-y) - cy is exactly
-(y - cy); and C99/C11 Annex F requires hypot(x, -y) to equal
hypot(x, y). So those two factors are computed once per band of the top
half and applied to that band and, through a row-reversed view, to its
mirror band in the bottom half; every byte is the one a full-frame pass
gives.

What it keeps between frames lives in `_grid_cache`, one entry per
(width, height): the float32 fields the interference pass reads (the
radius computed for the top half and mirrored into the bottom half), one
band's scratch, the radius factors of one band for each pass a frame has
asked for so far, and the dial ring's and needle disc's flat pixel
indices sorted by their overlay key, so that each frame tests only the
points near the ticks and the needle. The overlays are painted as whole
little-endian u32 pixels.
"""

from __future__ import annotations

import math

import numpy as np

from .pixel import PixelFormat, Surface, channel_offsets, pack_channels

ANIMATION_PERIOD = 8.0
MIN_SIDE = 64

# 3x5 glyphs for the digit readout.
_DIGITS = {
    "0": ("###", "# #", "# #", "# #", "###"),
    "1": (" # ", "## ", " # ", " # ", "###"),
    "2": ("###", "  #", "###", "#  ", "###"),
    "3": ("###", "  #", "###", "  #", "###"),
    "4": ("# #", "# #", "###", "  #", "  #"),
    "5": ("###", "#  ", "###", "  #", "###"),
    "6": ("###", "#  ", "###", "# #", "###"),
    "7": ("###", "  #", "  #", "  #", "  #"),
    "8": ("###", "# #", "###", "# #", "###"),
    "9": ("###", "# #", "###", "  #", "###"),
}

# Per-size render state, keyed by (width, height); see _grids. The only
# cache the renderer keeps, so clearing it makes the next frame of every
# size pay a cold build.
_grid_cache = {}

# Half-widths of the overlay tests below, and the slack added around them
# when picking the sorted points that can pass. Float32 rounding moves a
# test value by about 1e-6, far less than the slack.
_TICK_WIDTH = 0.45
_SWEEP_HALF = 0.04
_SLACK = 0.01

# Pixels per band of the interference field, so that its float32 scratch
# and the rows of ang, rad and mix it reads (about 1.2 MB) stay in a 2 MiB
# per-core L2 cache. 64 rows of a 768-wide dial was fastest at complexity 2
# on a 2-core x86_64 host, over bands of 16 to 768 rows; 128 came close.
_TILE_PX = 64 * 768


def _grids(w: int, h: int):
    """Build, or fetch, the state for a w x h dial.

    Holds the full-frame float32 angle, radius and mix fields of the
    interference pass, the angle built from a column of y offsets and a
    row of x offsets and the radius from the top half, mirrored; the
    scratch of one band of min(h, _TILE_PX // w) rows (float32 "acc",
    "wave" and "tmp", int16 "wide" and uint8 "base" for the cast, uint8
    "chan" for the green and blue channels), so no full-frame scratch is
    kept; "radial", one (cos, sin) pair of band-sized float32 radius
    factors per pass, grown by `_radial_scratch`; and for each overlay
    its points in key order: the ring's flat pixel indices sorted by tick
    phase ("ring_frac", in [0, 5]) and the needle disc's sorted by angle
    ("inner_ang", in [-pi, pi]).
    """
    key = (w, h)
    cached = _grid_cache.get(key)
    if cached is None:
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        dy = np.arange(h, dtype=np.float32)[:, None] - cy
        dx = np.arange(w, dtype=np.float32)[None, :] - cx
        ang = np.arctan2(dy, dx)
        # Row h-1-y has the radii of row y (module docstring).
        half = (h + 1) // 2
        rad = np.empty((h, w), np.float32)
        np.hypot(dx, dy[:half], out=rad[:half])
        rad[:half] /= min(w, h) / 2.0
        rad[half:] = rad[:h - half][::-1]
        ring = np.flatnonzero((rad > 0.62) & (rad < 0.86))
        inner = np.flatnonzero(rad < 0.6)
        ring_frac = (ang.ravel()[ring] * (60.0 / (2.0 * np.pi))) % 5.0
        inner_ang = ang.ravel()[inner]
        # A window picks points by key value, so the order among equal
        # keys does not matter: the default sort, not the far slower
        # stable one.
        ring_order = np.argsort(ring_frac)
        inner_order = np.argsort(inner_ang)
        band = (min(h, max(1, _TILE_PX // w)), w)
        cached = {
            "ang": ang,
            "rad": rad,
            "mix": ang * 3.0 + rad * 7.0,
            "ring_idx": ring[ring_order],
            "ring_frac": ring_frac[ring_order],
            "inner_idx": inner[inner_order],
            "inner_ang": inner_ang[inner_order],
            # Scratch for one band of rows, reused across bands and frames.
            "acc": np.empty(band, np.float32),
            "wave": np.empty(band, np.float32),
            "tmp": np.empty(band, np.float32),
            "wide": np.empty(band, np.int16),
            "base": np.empty(band, np.uint8),
            "chan": np.empty(band, np.uint8),
            "radial": [],
        }
        if len(_grid_cache) > 8:
            _grid_cache.clear()
        _grid_cache[key] = cached
    return cached


def _radial_scratch(grids, complexity: int):
    """The first `complexity` (cos, sin) factor pairs of `grids["radial"]`,
    band-sized; pairs are added when a frame asks for more passes."""
    radial = grids["radial"]
    band = grids["acc"].shape
    while len(radial) < complexity:
        radial.append((np.empty(band, np.float32), np.empty(band, np.float32)))
    return radial[:complexity]


def _radial(factors, rad, phase01: float) -> None:
    """The two factors of each pass that read only the radius, into
    `factors`: cos((5+i)*pi*rad - p) and 0.75 + 0.25*sin((9+i)*rad - 2p),
    with the ops and constants of a full-frame pass."""
    for i, (fcos, fsin) in enumerate(factors):
        p = 2.0 * np.pi * phase01 * (i + 1)
        np.multiply(rad, (5.0 + i) * np.pi, out=fcos)
        fcos -= p
        np.cos(fcos, out=fcos)
        np.multiply(rad, 9.0 + i, out=fsin)
        fsin -= 2.0 * p
        np.sin(fsin, out=fsin)
        fsin *= 0.25
        fsin += 0.75


def _field(acc, wave, tmp, ang, mix, factors, phase01: float):
    """Interference field of one band of rows, into `acc`.

    Each pair of `factors` (from `_radial`) is one more pass of in-place
    ops over the band's scratch; pass 0 writes into acc itself. Every op
    is pointwise, so a band gets the same values as the same rows of a
    full-frame pass.
    """
    complexity = len(factors)
    for i, (fcos, fsin) in enumerate(factors):
        term = acc if i == 0 else wave
        p = 2.0 * np.pi * phase01 * (i + 1)
        np.multiply(ang, 6 + 2 * i, out=term)
        term += p
        np.sin(term, out=term)
        term *= fcos
        np.multiply(mix, 1.0 + 0.5 * i, out=tmp)
        tmp -= p
        np.sin(tmp, out=tmp)
        tmp *= 0.25
        term += tmp
        np.multiply(mix, 2.0 + 0.25 * i, out=tmp)
        tmp += p
        np.cos(tmp, out=tmp)
        tmp *= 0.20
        term += tmp
        term *= fsin
        if i:
            acc += term
    acc /= complexity
    acc += 1.25
    acc *= 100.0


def _field_band(grids, px, off, y0: int, y1: int, factors, phase01: float):
    """Render field rows [y0, y1) of `px` with the radius `factors` of
    those rows: the field, its cast, and the four channel stores."""
    acc, wave, tmp, wide, base, chan = (
        grids[k][:y1 - y0] for k in ("acc", "wave", "tmp", "wide", "base", "chan"))
    _field(acc, wave, tmp, grids["ang"][y0:y1], grids["mix"][y0:y1],
           factors, phase01)
    _to_uint8(acc, wide, base)
    band = px[y0:y1]
    band[..., off["r"]] = base
    np.right_shift(base, 1, out=chan)
    chan += 40
    band[..., off["g"]] = chan
    np.subtract(255, base, out=chan)
    band[..., off["b"]] = chan
    band[..., off["a"]] = 255


def _to_uint8(acc, wide, base) -> None:
    """`acc` truncated toward zero and wrapped modulo 256, into `base`.

    The float32 -> int16 step is defined for every value in the field's
    [-20, 270], and narrowing an integer to uint8 wraps; a direct
    float32 -> uint8 cast is undefined outside [0, 255].
    """
    np.copyto(wide, acc, casting="unsafe")
    np.copyto(base, wide, casting="unsafe")


def _window(keys: np.ndarray, spans) -> np.ndarray:
    """Positions in sorted `keys` of the values inside any of `spans`."""
    # Bounds in the keys' dtype: float64 bounds would make searchsorted
    # copy the whole key array up to float64 on every call.
    ends = np.searchsorted(keys, np.array(spans, keys.dtype))
    return np.concatenate([np.arange(a, b) for a, b in ends])


def _paint(px: np.ndarray, flat: np.ndarray, fmt: PixelFormat, rgba) -> None:
    """Set the pixels at flat indices `flat` (y * width + x) to `rgba`.

    One store per pixel, through a little-endian u32 view of the pixel
    rows: the same bytes as four channel stores, at any pitch (an
    unaligned view is allowed).
    """
    rows, cols = np.divmod(flat, px.shape[1])
    px.view("<u4")[rows, cols, 0] = pack_channels(fmt, *rgba)


def render_counters(surface: Surface, t: float, complexity: int = 1) -> None:
    """Animated dial with rotating ticks and a two-digit counter.

    Draws straight into `surface.pixels()`: each channel goes to its byte
    offset for the surface's format, so no scratch frame is kept or
    copied, every pixel is written whatever the slot held before, and the
    row padding is left alone. All checks run before the first write, so
    a rejected call leaves the surface as it was.

    The interference field runs band by band: the same in-place ufuncs
    with the same constants, on row slices of the angle, radius and mix
    fields, into scratch sized for one band. Every op is pointwise, so
    any band height gives the bytes a full-frame pass gives; the band
    size only sets how much stays in cache between ops. A bottom-half
    band reads the radius factors of its mirror band in the top half.

    The tick and needle tests are the full-frame ones, run only on the
    points whose sorted key lies within the test's width plus _SLACK of
    where it can pass, wraps at 5.0 and at +-pi included. Every point
    outside that window fails the test by more than float32 rounding can
    move it, so the output is the same as testing every point.
    """
    g = surface.geometry
    if g.width < MIN_SIDE or g.height < MIN_SIDE:
        raise ValueError(f"surface {g.width}x{g.height} below {MIN_SIDE}x{MIN_SIDE}")
    if complexity < 1:
        raise ValueError("complexity must be a positive integer")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    tt = t % ANIMATION_PERIOD
    phase01 = tt / ANIMATION_PERIOD
    grids = _grids(g.width, g.height)

    # Interference field, one band of rows at a time: the band is cast and
    # stored while its scratch is still in cache. Each band of the top
    # half [0, half) computes its radius factors once and shares them
    # with its mirror band of the bottom half; an odd height's middle row
    # belongs to the top half only.
    fmt = surface.format
    off = channel_offsets(fmt)
    px = surface.pixels()
    h = g.height
    half = (h + 1) // 2
    step = grids["acc"].shape[0]
    radial = _radial_scratch(grids, complexity)
    for y0 in range(0, half, step):
        y1 = min(y0 + step, half)
        factors = [(c[:y1 - y0], s[:y1 - y0]) for c, s in radial]
        _radial(factors, grids["rad"][y0:y1], phase01)
        _field_band(grids, px, off, y0, y1, factors, phase01)
        # Rows [m0, h - y0) mirror top rows [y0, y0 + n), last first.
        m0 = max(h - y1, half)
        n = h - y0 - m0
        if n > 0:
            _field_band(grids, px, off, m0, h - y0,
                        [(c[:n][::-1], s[:n][::-1]) for c, s in factors],
                        phase01)

    # Dial: 60 ticks rotating one revolution per period. A point ticks
    # when ring_frac + shift, taken mod 5, is below _TICK_WIDTH.
    shift = (60.0 * phase01) % 5.0
    keys = grids["ring_frac"]
    win = _window(keys, [(k - shift - _SLACK, k - shift + _TICK_WIDTH + _SLACK)
                         for k in (0.0, 5.0)])
    frac = keys[win] + shift
    frac = np.where(frac >= 5.0, frac - 5.0, frac)
    tick = frac < _TICK_WIDTH
    _paint(px, grids["ring_idx"][win[tick]], fmt, (255, 255, 255, 255))

    # Needle sweep: disc points within _SWEEP_HALF of the needle's angle.
    needle_ang = 2.0 * np.pi * phase01 - np.pi
    keys = grids["inner_ang"]
    reach = _SWEEP_HALF + _SLACK
    win = _window(keys, [(needle_ang + k - reach, needle_ang + k + reach)
                         for k in (-2.0 * np.pi, 0.0, 2.0 * np.pi)])
    delta = (keys[win] - needle_ang + np.pi) % (2.0 * np.pi) - np.pi
    sweep = np.abs(delta) < _SWEEP_HALF
    _paint(px, grids["inner_idx"][win[sweep]], fmt, (255, 220, 0, 255))

    _draw_counter(px, int(tt * 12.5) % 100)


def _draw_counter(px: np.ndarray, value: int) -> None:
    h, w = px.shape[:2]
    cell = max(2, min(w, h) // 48)
    x = cell * 2
    y = cell * 2
    for ch in f"{value:02d}":
        glyph = _DIGITS[ch]
        for row, bits in enumerate(glyph):
            for col, bit in enumerate(bits):
                if bit == "#":
                    # White has the same bytes in every format.
                    px[y + row * cell:y + (row + 1) * cell,
                       x + col * cell:x + (col + 1) * cell] = (255, 255, 255, 255)
        x += cell * 4


def render_pattern(surface: Surface, frame_index: int) -> None:
    """Cheap deterministic frame fill keyed by frame index.

    Used by correctness scenarios where render cost is irrelevant but
    frames must be distinguishable and reproducible.
    """
    px = surface.pixels()
    px[..., 0] = frame_index & 0xFF
    px[..., 1] = (frame_index >> 8) & 0xFF
    px[..., 2] = (frame_index * 37) & 0xFF
    px[..., 3] = 255
