#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<tag>.json.

    python3 tools/bench_trajectory.py --tag 9

Run from anywhere; it benchmarks the checkout it lives in. For each
workload of layerbench/run.py it makes one untraced run per seed in SEEDS
(`--trace 0`) and one traced run (TRACED_SEED, `--trace 1`), all at
run.py's default `--seconds`, each in a process of its own and one after
the other. It writes at the root of the checkout the median of every
end-to-end metric with its per-run values, the per-layer metrics of the
traced run, the wall-clock seconds of each run beside its compose ticks
and its seconds in timed calls (from run.py's summary line: a run stops
on timed-call time, so a faster stack replays more ticks, and each tick
brings untimed output checks), the number of non-blank lines in
`src/**/*.py` (`src_lines`, the size of the program measured), and the
host: Python, numpy, nproc, platform and the CRC-32 backend
(`fbcomp.sinks.CRC32_BACKEND`). Seeds and run length are fixed so that
every point means the same thing. Times are layerbench's host-scaled
values; compare points made on the same host in the same sitting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "layerbench" / "run.py"
WORKLOADS = ("reference-2x768", "mosaic-8x384", "faults-4x384")
SEEDS = (1, 2, 3)
TRACED_SEED = 1
# run.py's summary line: "workload W, seed N: T ticks, ... s simulated,
# S s in timed calls, ..."
SUMMARY = re.compile(r": (\d+) ticks, .*, ([\d.]+) s in timed calls")


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One layerbench run: its closing JSON line plus its wall time, its
    compose ticks and its seconds in timed calls."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["wall_s"] = round(wall, 2)
    summary = SUMMARY.search(done.stdout)
    if summary is None:
        raise SystemExit(f"{' '.join(cmd)}: no summary line in its output")
    out["ticks"], out["timed_s"] = int(summary[1]), float(summary[2])
    return out


def host() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from fbcomp import sinks
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "crc32": sinks.CRC32_BACKEND}


def src_lines() -> int:
    """Non-blank lines of every Python file under src/."""
    return sum(1 for path in sorted((ROOT / "src").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def workload_point(workload: str) -> dict:
    plain = [run_once(workload, seed, 0) for seed in SEEDS]
    traced = run_once(workload, TRACED_SEED, 1)
    names = plain[0]["metrics"]
    return {
        "end_to_end": {
            name: {"median": statistics.median(r["metrics"][name]["value"]
                                               for r in plain),
                   "unit": names[name]["unit"],
                   "runs": [r["metrics"][name]["value"] for r in plain]}
            for name in names},
        "per_layer": traced["metrics"],
        **{key: {"untraced": [r[key] for r in plain], "traced": traced[key]}
           for key in ("wall_s", "ticks", "timed_s")},
        "correct": all(r["correct"] for r in plain + [traced]),
        "failed": sum(r["failed"] for r in plain + [traced]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True,
                    help="names the output file BENCH_<tag>.json")
    args = ap.parse_args(argv)
    point = {"tag": args.tag, "host": host(), "seeds": list(SEEDS),
             "traced_seed": TRACED_SEED, "src_lines": src_lines(),
             "workloads": {}}
    for workload in WORKLOADS:
        print(f"{workload} ...", file=sys.stderr, flush=True)
        point["workloads"][workload] = workload_point(workload)
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(point, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
