"""Command-line entry point.

Subcommands:
  run <scenario.cfg>     execute a scenario (sim or multi-process)
  bench [suite.cfg]      run the overhead benchmark suite
  validate <region-dump> structurally validate a region dump file
  replay <index-file>    re-verify an emitted frame sequence

Exit codes: 0 when no invariant violations, mismatches or malformed
regions were found, 1 when some were, 2 for a bad command line, a
scenario or suite file that cannot be read or does not load, a sink_dir
that cannot be made, or a region dump or frame index that cannot be
read (one `fbcomp: error:` line on stderr, as argparse does).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, scenario, shm, sinks


def _seconds(text: str) -> float:
    value = float(text)
    if not scenario._positive(value):
        raise argparse.ArgumentTypeError(f"not a positive duration: {text}")
    return value


def _config_error(path, exc: Exception) -> int:
    where = f"{path}: " if path else ""
    print(f"fbcomp: error: {where}{exc}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    given = {"sink": args.sink, "sink_dir": args.sink_dir,
             "duration_s": args.duration, "clock": args.clock}
    try:
        config = scenario.load_scenario(args.scenario)
        # One replace, so the run spec is checked with every option applied.
        config = replace(config, run=replace(
            config.run, **{k: v for k, v in given.items() if v is not None}))
        # An images sink makes its directory; one it cannot make is bad input.
        if config.run.sink == "images":
            sinks.make_sink("images", config.run.sink_dir)
    except (OSError, ValueError) as exc:
        return _config_error(args.scenario, exc)

    report = scenario.run_scenario(config)
    if args.report:
        Path(args.report).write_text(report.to_json())
    print(f"clock={report.clock} duration={report.duration_us / 1e6:.3f}s "
          f"server_frames={report.server_frames}")
    for name, c in sorted(report.clients.items()):
        line = (f"  client {name}: submitted={c.submitted} "
                f"presented={c.presented} skipped={c.skipped}")
        if c.disconnect:
            line += f" disconnected@{c.disconnect[0] / 1e6:.3f}s ({c.disconnect[1]})"
        if c.exit_status != "ok":
            line += f" [{c.exit_status}]"
        print(line)
    for v in report.violations:
        print(f"  VIOLATION: {v}")
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    given = {"duration_s": args.duration, "sink": args.sink}
    try:
        config = (bench.load_bench_config(args.suite) if args.suite
                  else bench.BenchConfig())
        config = replace(config, **{k: v for k, v in given.items() if v})
    except (OSError, ValueError) as exc:
        return _config_error(args.suite, exc)
    report = bench.run_benchmark(config)
    print(report.to_text())
    if args.report:
        Path(args.report).write_text(report.to_json())
    return 0


def _cmd_validate(args) -> int:
    try:
        data = Path(args.region_dump).read_bytes()
    except OSError as exc:
        return _config_error(args.region_dump, exc)
    violations = shm.validate_region(data)
    if not violations:
        print("region well-formed")
        return 0
    for v in violations:
        print(f"VIOLATION: {v}")
    return 1


def _cmd_replay(args) -> int:
    try:
        problems = sinks.replay_index(args.index_file)
    except (OSError, UnicodeDecodeError) as exc:
        return _config_error(args.index_file, exc)
    if not problems:
        print("all frames match the index")
        return 0
    for p in problems:
        print(f"MISMATCH: {p}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbcomp", description="framebuffer compositing harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario", help="scenario config file")
    p_run.add_argument("--sink", choices=scenario.SINKS)
    p_run.add_argument("--sink-dir", dest="sink_dir")
    p_run.add_argument("--duration", type=_seconds, help="seconds")
    p_run.add_argument("--clock", choices=scenario.CLOCKS)
    p_run.add_argument("--report", help="write a JSON report here")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run the benchmark suite")
    p_bench.add_argument("suite", nargs="?", help="suite config file")
    p_bench.add_argument("--duration", type=_seconds, help="seconds per phase")
    p_bench.add_argument("--sink", choices=bench.SINKS)
    p_bench.add_argument("--report", help="write a JSON report here")
    p_bench.set_defaults(func=_cmd_bench)

    p_val = sub.add_parser("validate", help="validate a region dump")
    p_val.add_argument("region_dump")
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("replay", help="verify an emitted frame index")
    p_rep.add_argument("index_file")
    p_rep.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
