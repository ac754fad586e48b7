"""futsim benchmark: host cost of `futsim run|compare|explore` on a seeded corpus.

    python3 bench/run.py --workload deep-seq --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads are deep-seq, wide-futures and explore-small (see README.md), or
``all`` for the three in turn. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the traced pass and prints the per-layer metrics; the
metric names and units are the ones BENCHMARK.json lists. Human-readable
lines come first, and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The corpus is generated from the seed and run against the futsim sources in
``src/`` of this checkout. Each workload runs in a fresh interpreter (so its
peak memory is its own); twenty more fresh interpreters time the import of
futsim.cli for setup_s. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from corpus import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170  # per workload, its fresh interpreters included
SETUP_RUNS = 10  # fresh interpreters before the workload, and again after

IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import futsim.cli\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(Exception):
    pass


def import_times(runs: int, deadline: float) -> list[float]:
    """Seconds a fresh interpreter takes to import futsim.cli, once per run,
    scaled to a calm host by speed probes on either side."""
    times = []
    before = speed.probe()
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_TIMER, str(SRC)], capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise BenchError(f"importing futsim.cli failed:\n{done.stderr.strip()}")
        after = speed.probe()
        times.append(speed.scaled(float(done.stdout), before, after))
        before = after
    return times


def run_worker(workload: str, args, deadline: float) -> dict:
    workdir = OUT / f"work-{os.getpid()}-{workload}"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{workload}: worker did not finish within the time limit") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload}: worker exited {done.returncode}:\n{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, args, spec: dict, deadline: float) -> tuple[dict, dict]:
    """Run one workload; returns (metrics named as in BENCHMARK.json, raw worker result)."""
    if args.trace:
        raw = run_worker(workload, args, deadline)
        values = raw["metrics"]
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload}-seed{args.seed}.json").write_text(json.dumps(raw.pop("spans"), indent=1))
    else:
        # Half the imports before the workload and half after, so the median
        # spans two moments of a machine whose speed drifts; the very first
        # import may write bytecode caches and is not counted.
        setup = import_times(SETUP_RUNS + 1, deadline)[1:]
        raw = run_worker(workload, args, deadline)
        setup += import_times(SETUP_RUNS, deadline)
        values = dict(raw, setup_s=statistics.median(setup))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}, raw


def report(workload: str, metrics: dict, raw: dict, args) -> None:
    print(f"== {workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}) ==")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    ratio = raw["failed"] / raw["attempted"]
    print(f"  {'fail_ratio':<30} {ratio:>16.6g} ratio ({raw['failed']} of {raw['attempted']} commands)")
    if args.trace:
        print(f"  {raw['passes']} traced passes; focus.margin is the focus layers' time over "
              f"that of the next largest layer, {raw['runner_up']}")
        if raw["unrepeated"]:
            print(f"  counts that differed between traced passes: {', '.join(raw['unrepeated'])}")
        if raw["unwrapped"]:
            print(f"  not found, so not traced: {', '.join(raw['unwrapped'])}")
    else:
        rate = "states" if workload == "explore-small" else "reduction steps"
        print(f"  work_per_s counts {rate}; cmd_tail_ms is p{raw['tail_percentile']:g} of {raw['commands']} "
              f"samples from {raw['passes']} passes")
        print(f"  times are scaled to a host where the speed probe takes {speed.REF_S * 1e3:g} ms; here it took "
              f"{raw['probe_s'] * 1e3:.3g} ms (median), and a pass took {raw['raw_wall_s']:.4g} s unscaled")
        print(f"  max_depth_ok stopped at {raw['max_depth_stop']}")
    for line in raw["errors"]:
        print(f"  FAILED {line}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "futsim" / "cli.py").is_file():
        print(f"error: no futsim sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, {platform.machine()} "
          f"{platform.system()}; closed loop, one client")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results, correct, attempted, failed = {}, True, 0, 0
    try:
        for workload in workloads:
            metrics, raw = measure(workload, args, spec, time.monotonic() + TIME_LIMIT_S)
            report(workload, metrics, raw, args)
            prefix = f"{workload}." if args.workload == "all" else ""
            results.update({prefix + k: v for k, v in metrics.items()})
            attempted += raw["attempted"]
            failed += raw["failed"]
            correct = correct and raw["failed"] == 0 and not raw.get("unrepeated")
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
