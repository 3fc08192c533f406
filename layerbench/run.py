#!/usr/bin/env python3
"""Layered compositor benchmark: one workload, one seed, one run.

    python3 layerbench/run.py --workload reference-2x768 --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the stack is imported from ./src. The
run sets the stack up SETUP_REPEATS times (set-up time is their median),
then replays the workload's schedule until the summed time of the timed
calls reaches --seconds.

--trace 0 reports the end-to-end metrics. --trace 1 replays the same
schedule on two stacks, untraced and traced, in alternating slices of
SLICE_TICKS ticks until the untraced side has spent half the budget, and
reports the per-layer metrics from the traced replay, plus the tracing
overhead. Spans are written to layerbench/out/spans-<workload>.csv.

The replay's times are wall-clock times scaled to a nominal host speed by
the replay's host-speed factor (see replay.HostSpeed); frames_per_s is
scaled the other way. setup_s is wall-clock time. Every metric is printed
as a table with its unit, sample count and unscaled wall-clock value; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 31
# Compose ticks and client frames an untraced replay gathers at least.
MIN_SAMPLES = 1000
# A p99 is the median of the p99s of consecutive blocks of this many samples
# (see _p99), so that every p99 rests on at least three blocks.
P99_BLOCK = MIN_SAMPLES // 3
# The traced run alternates untraced and traced slices of this many ticks.
SLICE_TICKS = 20


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _p99(values) -> float:
    """Median, over consecutive blocks of P99_BLOCK samples, of each block's
    99th percentile; a partial last block is left out. A few slow seconds of
    a shared host then move the p99 of one block, not that of the run, while
    a change that slows 1% of the calls throughout the run still moves it."""
    blocks = len(values) // P99_BLOCK
    if blocks < 2:
        return _pct(values, 99)
    per_block = np.reshape(values[:blocks * P99_BLOCK], (blocks, P99_BLOCK))
    return float(np.median(np.percentile(per_block, 99, axis=1)))


def _scaled(rows, factor: float) -> list:
    """(name, value, unit, samples, wall-clock value) from unscaled rows."""
    out = []
    for name, raw, unit, n in rows:
        if unit in ("s", "ms", "us"):
            value = raw * factor
        elif unit == "frames/s":
            value = raw / factor
        else:
            value = raw
        out.append((name, value, unit, n, raw))
    return out


def end_to_end(run, setup_ns) -> list:
    """Every end-to-end metric. The replay's metrics are scaled with its host
    speed; setup_s, measured before the replay, is wall-clock time."""
    busy_s = run.busy_ns / 1e9
    setup_s = sorted(setup_ns)[len(setup_ns) // 2] / 1e9
    return [("setup_s", setup_s, "s", len(setup_ns), setup_s)] + _scaled([
        ("frames_per_s", run.ticks / busy_s if busy_s else 0.0, "frames/s",
         run.ticks),
        ("compose_ms.p50", _pct(run.compose_ns, 50) / 1e6, "ms", run.ticks),
        ("compose_ms.p99", _p99(run.compose_ns) / 1e6, "ms", run.ticks),
        ("client_frame_ms.p50", _pct(run.client_ns, 50) / 1e6, "ms",
         len(run.client_ns)),
        ("client_frame_ms.p99", _p99(run.client_ns) / 1e6, "ms",
         len(run.client_ns)),
    ], run.speed.scale())


def per_layer(run, tracer, create_ns, present_bytes, overhead_frac) -> list:
    """Every per-layer metric, scaled with the traced replay's host speed."""
    spans = tracer.durations()

    def p50(span, scale, unit, name):
        values = spans.get(span, [])
        return (name, _pct(values, 50) / scale, unit, len(values))

    ticks = max(run.ticks, 1)
    per_tick = [(f"compositor.outcome.{k}", v / ticks, "clients/tick", run.ticks)
                for k, v in run.outcomes.items()]
    self_ns = tracer.self_times("compositor.compose")
    return _scaled([
        p50("widgets.render", 1e6, "ms", "widgets.render_ms.p50"),
        p50("client.begin", 1e3, "us", "client.begin_us.p50"),
        p50("client.end", 1e3, "us", "client.end_us.p50"),
        ("client.begin_none_frac",
         run.begin_none / max(run.produce_attempts, 1), "ratio",
         run.produce_attempts),
        p50("frame_queue.take", 1e3, "us", "frame_queue.take_us.p50"),
        p50("frame_queue.release", 1e3, "us", "frame_queue.release_us.p50"),
        ("frame_queue.flushed_frac", run.flushed / max(run.submitted, 1),
         "ratio", run.submitted),
        p50("shm.read_header", 1e3, "us", "shm.read_header_us.p50"),
        p50("shm.read_heartbeat", 1e3, "us", "shm.read_heartbeat_us.p50"),
        p50("pixel.blit_convert", 1e6, "ms", "pixel.blit_convert_ms.p50"),
        p50("pixel.blit_native", 1e6, "ms", "pixel.blit_native_ms.p50"),
        p50("pixel.clear", 1e6, "ms", "pixel.clear_ms.p50"),
        ("pixel.bytes_per_tick", run.blit_bytes / ticks, "bytes", run.ticks),
        ("compositor.compose_self_ms.p50", _pct(self_ns, 50) / 1e6, "ms",
         len(self_ns)),
        p50("compositor.watchdog", 1e3, "us", "compositor.watchdog_us.p50"),
        p50("compositor.framerate", 1e3, "us", "compositor.framerate_us.p50"),
        *per_tick,
        ("compositor.all_held_frac", run.all_held_ticks / ticks, "ratio",
         run.ticks),
        p50("sinks.present", 1e6, "ms", "sinks.present_ms.p50"),
        ("sinks.bytes_per_present", present_bytes, "bytes", run.ticks),
        ("regions.create_ms.p50", _pct(create_ns, 50) / 1e6, "ms",
         len(create_ns)),
        ("trace.overhead_frac", overhead_frac, "ratio", run.ticks),
    ], run.speed.scale())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_ticks=None) -> dict:
    """Set up, replay and check one workload; return metrics and counts."""
    import replay

    wl = replay.make_workload(workload, seed)
    setup_ns, create_ns = [], []
    stack = None
    try:
        for rep in range(SETUP_REPEATS):
            if stack is not None:
                stack.close()
                stack = None
                gc.collect()
            t0 = perf_counter_ns()
            stack = replay.setup_stack(wl, f"s{rep}", create_ns)
            setup_ns.append(perf_counter_ns() - t0)
        gc.collect()
        if not trace:
            plain = replay.run_replay(stack, budget_ns=int(seconds * 1e9),
                                      min_samples=MIN_SAMPLES,
                                      max_ticks=max_ticks)
            return {"runs": [plain], "e2e": end_to_end(plain, setup_ns),
                    "layer": None, "tracer": None}
        plain, traced, tracer, present_bytes = _traced_replay(
            wl, stack, int(seconds * 1e9 / 2), max_ticks)
    finally:
        if stack is not None:
            stack.close()
    # Same ticks on both sides, so the busy-time ratio is the fps ratio.
    overhead = traced.busy_ns / plain.busy_ns - 1.0
    layer = per_layer(traced, tracer, create_ns, present_bytes, overhead)
    tracer.write_csv(HERE / "out" / f"spans-{workload}.csv")
    return {"runs": [plain, traced], "e2e": end_to_end(plain, setup_ns),
            "layer": layer, "tracer": tracer}


def _traced_replay(wl, plain_stack, budget_ns: int, max_ticks):
    """Replay the schedule untraced on `plain_stack` and traced on a second
    stack, in alternating slices of SLICE_TICKS ticks, so that drift in host
    speed hits both alike. Stops when the untraced side has spent
    `budget_ns` or run `max_ticks` ticks."""
    import replay
    import spans

    stack = replay.setup_stack(wl, "t")
    tracer = spans.Tracer()
    try:
        plain_ticks = replay.replay_ticks(plain_stack)
        traced_ticks = replay.replay_ticks(stack, tracer)
        gc.collect()
        while True:
            for _ in range(SLICE_TICKS):
                plain = next(plain_ticks)
            with spans.instrument(tracer, stack):
                for _ in range(SLICE_TICKS):
                    traced = next(traced_ticks)
            if plain.busy_ns >= budget_ns or (
                    max_ticks is not None and plain.ticks >= max_ticks):
                break
        replay.check_disconnects(plain_stack, plain)
        replay.check_disconnects(stack, traced)
        present_bytes = stack.sink.bytes / max(stack.sink.count, 1)
    finally:
        stack.close()
    return plain, traced, tracer, present_bytes


def host_line() -> str:
    return (f"host: python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {len(os.sched_getaffinity(0))}, {platform.platform()}")


def print_table(title: str, metrics: list) -> None:
    print(f"{title}")
    print(f"  {'metric':<34}{'value':>14}  {'unit':<14}{'n':>7}{'wall clock':>14}")
    for name, value, unit, n, raw in metrics:
        print(f"  {name:<34}{value:>14.6g}  {unit:<14}{n:>7}{raw:>14.6g}")


def main(argv=None) -> int:
    if not (SRC / "fbcomp").is_dir():
        print(f"error: no fbcomp package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import replay

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=replay.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="summed time of the timed calls to replay")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Unwind on SIGTERM too, so the /dev/shm regions are unlinked.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    runs = res["runs"]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    plain = runs[0]
    print(host_line())
    print(f"workload {args.workload}, seed {args.seed}: {plain.ticks} ticks, "
          f"{plain.sim_end_us / 1e6:.2f} s simulated, "
          f"{plain.busy_ns / 1e9:.2f} s in timed calls, "
          f"{sum(r.checks for r in runs)} output checks")
    for label, r in zip(("untraced", "traced"), runs):
        cal_ms = replay.NOMINAL_CAL_NS / r.speed.scale() / 1e6
        print(f"host speed ({label}): fixed workload {cal_ms:.4f} ms, nominal "
              f"{replay.NOMINAL_CAL_NS / 1e6:.4f} ms, factor {r.speed.scale():.4f}")
    print_table("end to end (untraced)",
                res["e2e"] + [("error_frac", failed / max(attempted, 1),
                               "ratio", attempted, failed / max(attempted, 1))])
    if res["layer"] is not None:
        print_table("per layer (traced)", res["layer"])
    for r in runs:
        for p in r.problems:
            print(f"problem: {p}")
    chosen = res["layer"] if args.trace else res["e2e"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _, _ in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
