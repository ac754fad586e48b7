"""Runs one workload in a fresh interpreter and prints its raw results as JSON.

Started by run.py; not meant to be run by hand. It drives the public entry
point ``futsim.cli.main(argv, out, err)`` in process: a closed loop with one
client, each command issued after the previous one returned. Every command's
output is checked against facts the corpus generator computed itself.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import corpus
import speed
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Layers whose time each workload was chosen to stress, and the commands
# that time is taken over.
FOCUS = {
    "deep-seq": ({"calculus.decompose", "parser.unparse"}, {"run-sim", "run-sem"}),
    "wide-futures": ({"engine.enabled_threads"}, {"run-sem"}),
    "explore-small": ({"engine.canonical_key"}, {"explore"}),
}

DEPTH_LADDER = tuple(2**k for k in range(13))  # 1 .. 4096
DOUBLING_N = 200  # chain pair 200 / 400, inside the ~900-term recursion limit
DOUBLING_REPS = 5
TAIL_PERCENTILE = 90.0
TAIL_SAMPLES = 100  # at least ten beyond the 90th percentile


def import_futsim():
    sys.path.insert(0, str(SRC))
    import futsim.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"futsim imported from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Issues commands, times them, and checks every output."""

    def __init__(self, main, workdir: Path):
        self.main = main
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[tuple, object] = {}  # command -> outputs that must repeat across passes

    def path(self, prog: corpus.Program) -> str:
        return str(self.workdir / f"{prog.name}.gf")

    def write(self, prog: corpus.Program) -> None:
        Path(self.path(prog)).write_text(prog.text + "\n", encoding="utf-8")

    def trace_path(self, index: int) -> Path:
        return self.workdir / f"trace{index}.jsonl"

    def argv(self, index: int, cmd: corpus.Command) -> list[str]:
        sub = cmd.kind.split("-")[0]
        args = [str(self.trace_path(index)) if a == "TRACE" else a for a in cmd.args]
        return [sub, self.path(cmd.program)] + args

    def issue(self, index: int, cmd: corpus.Command, main=None) -> tuple[float, dict]:
        """Run one command; returns its host latency and the facts it reported."""
        out, err = io.StringIO(), io.StringIO()
        argv = self.argv(index, cmd)
        start = time.perf_counter()
        try:
            code = (main or self.main)(argv, out, err)
        except Exception as exc:  # a traceback is a failed command, not a crashed benchmark
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        self.attempted += 1
        facts: dict = {}
        try:
            facts = self.check(index, cmd, code, out.getvalue(), err.getvalue())
        except CheckFailed as exc:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{cmd.kind} {cmd.program.name} ({' '.join(argv[2:])}): {exc}")
        return latency, facts

    def check(self, index: int, cmd: corpus.Command, code, stdout: str, stderr: str) -> dict:
        prog = cmd.program
        require(code == 0, f"exit {code}: {stderr.strip()[:200]}")
        report = json.loads(stdout)
        facts: dict = {}
        if cmd.kind == "compare":
            values = {row["final_value"] for row in report["rows"]}
            require(values == {prog.value}, f"rows give {sorted(values)}, expected {prog.value}")
            repeat = [(row["strategy"], row["makespan"], row["energy"]) for row in report["rows"]]
            facts["edp"] = {row["strategy"]: row["edp"] for row in report["rows"]}
        elif cmd.kind == "explore":
            values = [o["value"] for o in report["outcomes"]]
            require(values == [prog.value], f"outcomes {values}, expected [{prog.value}]")
            if prog.states is not None:
                require(report["states"] == prog.states, f"{report['states']} states, expected {prog.states}")
            repeat = report["states"]
            facts["states"] = report["states"]
        else:
            require(report["final_value"] == prog.value, f"value {report['final_value']}, expected {prog.value}")
            if cmd.kind == "run-sem":
                require(report["steps"] == prog.steps, f"{report['steps']} steps, expected {prog.steps}")
                repeat = report["steps"]
            else:
                repeat = (report["makespan"], report["total_energy"])
                if "TRACE" in cmd.args:
                    records, size = read_trace(self.trace_path(index))
                    require(records == prog.steps, f"{records} compute records, expected {prog.steps}")
                    facts["trace"] = (records, size)
        previous = self.first.setdefault((cmd.kind, prog.name, cmd.args), repeat)
        require(previous == repeat, f"{repeat} differs from an earlier pass's {previous}")
        return facts

    def run_pass(self, cmds: list[corpus.Command], main=None, recorder: SpanRecorder | None = None) -> dict:
        """One pass over the commands; each sits between two speed probes."""
        latencies, scaled, states, trace = [], [], 0, [0, 0]
        probes = [speed.probe()]
        for index, cmd in enumerate(cmds):
            if recorder is not None:
                recorder.cmd = index
            latency, facts = self.issue(index, cmd, main)
            probes.append(speed.probe())
            latencies.append(latency)
            scaled.append(speed.scaled(latency, probes[-2], probes[-1]))
            states += facts.get("states", 0)
            if "trace" in facts:
                trace[0] += facts["trace"][0]
                trace[1] += facts["trace"][1]
        return {"latencies": latencies, "wall": sum(latencies), "scaled": scaled, "scaled_wall": sum(scaled),
                "probe_s": statistics.median(probes), "states": states, "trace": trace}


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_trace(path: Path) -> tuple[int, int]:
    """(compute records, bytes) of a JSON Lines trace."""
    data = path.read_bytes()
    records = sum(1 for line in data.splitlines() if json.loads(line)["kind"] == "compute")
    return records, len(data)


def timed_passes(runner: Runner, cmds, seconds: float, min_passes: int, **kw) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(cmds, **kw))
    return passes


# ---------------------------------------------------------------------------
# Probes: fixed programs outside the workload's command list
# ---------------------------------------------------------------------------

def max_depth_ok(runner: Runner) -> tuple[int, str]:
    """Largest d on the doubling ladder for which `run` on future^d 1 completes."""
    best, stopped = 0, "ladder end"
    for depth in DEPTH_LADDER:
        prog = corpus.future_tower(depth)
        runner.write(prog)
        out, err = io.StringIO(), io.StringIO()
        try:
            code = runner.main(["run", runner.path(prog), "--format", "json"], out, err)
            ok = code == 0 and json.loads(out.getvalue())["final_value"] == prog.value
            reason = f"exit {code}"
        except Exception as exc:  # the recursion defect shows as RecursionError
            ok, reason = False, type(exc).__name__
        if not ok:
            stopped = f"d={depth}: {reason}"
            break
        best = depth
    return best, stopped


def edp_ratio(runner: Runner, seed: int) -> float:
    """Geometric mean over the seed's wide-futures corpus of EDP(none)/EDP(both)."""
    logs = []
    for prog in corpus.wide_futures_corpus(seed):
        cmd = corpus.Command("compare", prog, ("--strategies", "none,both", "--format", "json"), 2)
        runner.write(prog)
        _, facts = runner.issue(-1, cmd)
        if "edp" in facts:
            logs.append(math.log(facts["edp"]["none"] / facts["edp"]["both"]))
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def doubling_ratios(runner: Runner) -> dict[str, float]:
    """Time on chain 2n over chain n, for semantics runs and for simulate."""
    out = {}
    for label, kind, args in (("engine", "run-sem", ("--mode", "semantics")), ("energy", "run-sim", ())):
        times = {}
        for n in (DOUBLING_N, 2 * DOUBLING_N):
            prog = corpus.ones_chain(n)
            runner.write(prog)
            cmd = corpus.Command(kind, prog, args + ("--format", "json"))
            scaled = []
            for _ in range(DOUBLING_REPS):
                before = speed.probe()
                latency = runner.issue(-1, cmd)[0]
                scaled.append(speed.scaled(latency, before, speed.probe()))
            times[n] = statistics.median(scaled)
        out[f"{label}.doubling_ratio"] = times[2 * DOUBLING_N] / times[DOUBLING_N]
    return out


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def end_to_end(runner: Runner, cmds, args) -> dict:
    # Enough passes that TAIL_PERCENTILE has ten samples beyond it in every run,
    # so the tail metric means the same thing however fast the program is.
    passes = timed_passes(runner, cmds, args.seconds, max(2, math.ceil(TAIL_SAMPLES / len(cmds))))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [t for p in passes for t in p["scaled"]]
    wall = statistics.median(p["scaled_wall"] for p in passes)
    work = passes[0]["states"] if args.workload == "explore-small" else sum(c.steps for c in cmds)
    depth, stopped = max_depth_ok(runner)
    return {
        "passes": len(passes),
        "commands": len(latencies),
        "raw_wall_s": statistics.median(p["wall"] for p in passes),
        "probe_s": statistics.median(p["probe_s"] for p in passes),
        "wall_s": wall,
        "work_per_s": work / wall,
        "cmd_p50_ms": statistics.median(latencies) * 1e3,
        "cmd_tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1e3,
        "tail_percentile": TAIL_PERCENTILE,
        "peak_rss_mb": peak_kb / 1024,
        "edp_ratio_none_over_both": edp_ratio(runner, args.seed),
        "max_depth_ok": depth,
        "max_depth_stop": stopped,
    }


def per_layer(runner: Runner, cmds, args) -> dict:
    budget = args.seconds
    doubling = doubling_ratios(runner)  # before the workload has grown the heap
    plain = timed_passes(runner, cmds, budget / 3, 1)
    recorder = SpanRecorder()
    traced_main = recorder.wrap("cli.main", runner.main)
    layers, dumps, walls, runner_up = [], [], [], ""
    start = time.perf_counter()
    with recorder.installed() as missing:
        while len(layers) < 2 or time.perf_counter() - start < budget * 2 / 3:
            recorder.reset()
            result = runner.run_pass(cmds, main=traced_main, recorder=recorder)
            walls.append(result["scaled_wall"])
            metrics, runner_up = layer_metrics(recorder, cmds, result, args.workload)
            layers.append(metrics)
            if not dumps:
                dumps = recorder.dump()
    counts = {k for k, v in layers[0].items() if isinstance(v, int)}
    unrepeated = sorted(k for k in counts if any(m[k] != layers[0][k] for m in layers[1:]))
    metrics = {k: (layers[0][k] if k in counts else statistics.median(m[k] for m in layers)) for k in layers[0]}
    metrics.update(doubling)
    metrics["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(p["scaled_wall"] for p in plain)
    return {"metrics": metrics, "unrepeated": unrepeated, "unwrapped": missing, "spans": dumps,
            "passes": len(layers), "runner_up": runner_up}


def layer_metrics(rec: SpanRecorder, cmds, result: dict, workload: str) -> tuple[dict, str]:
    """One traced pass's per-layer metrics, and the largest layer outside the focus."""
    t = rec.totals()

    def calls(name):
        return t.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return t.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return t.get(name, [0, 0.0, 0.0])[2]

    explore_cmds = {i for i, c in enumerate(cmds) if c.kind == "explore"}
    steps = sum(c.steps for c in cmds) + rec.totals(explore_cmds).get("engine.step", [0])[0]
    nodes = sum(c.program.nodes for c in cmds)
    segments = rec.counts["energy.segments"]
    focus, kinds = FOCUS[workload]
    focus_s, others = rec.buckets(focus, {i for i, c in enumerate(cmds) if c.kind in kinds})
    return {
        "parser.parse_calls": calls("parser.parse"),
        "parser.parse_s": total("parser.parse"),
        "parser.nodes_per_s": nodes / total("parser.parse") if total("parser.parse") else 0.0,
        "parser.unparse_calls": calls("parser.unparse"),
        "parser.unparse_s": total("parser.unparse"),
        "calculus.decompose_calls": calls("calculus.decompose"),
        "calculus.decompose_s": total("calculus.decompose"),
        "calculus.decompose_per_step": calls("calculus.decompose") / steps if steps else 0.0,
        "calculus.plug_calls": calls("calculus.plug"),
        "calculus.plug_s": total("calculus.plug"),
        "scaling.scale_calls": calls("scaling.scale"),
        "scaling.scale_s": total("scaling.scale"),
        "engine.enabled_threads_calls": calls("engine.enabled_threads"),
        "engine.enabled_threads_s": total("engine.enabled_threads"),
        "engine.step_calls": calls("engine.step"),
        "engine.step_self_s": self_s("engine.step"),
        "engine.run_self_s": self_s("engine.run"),
        "engine.canonical_key_calls": calls("engine.canonical_key"),
        "engine.canonical_key_s": total("engine.canonical_key"),
        "engine.explore_self_s": self_s("engine.explore"),
        "engine.states": rec.counts["engine.states"],
        "energy.simulate_calls": calls("energy.simulate"),
        "energy.simulate_self_s": self_s("energy.simulate"),
        "energy.segments": segments,
        "energy.us_per_event": self_s("energy.simulate") / segments * 1e6 if segments else 0.0,
        "cli.main_self_s": self_s("cli.main"),
        "cli.trace_records": result["trace"][0],
        "cli.trace_bytes": result["trace"][1],
        "focus.share": focus_s / (focus_s + sum(others.values())),
        "focus.margin": focus_s / max(others.values()),
    }, max(others, key=others.get)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    cli = import_futsim()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cmds = corpus.commands(args.workload, args.seed)
        runner = Runner(cli.main, workdir)
        for cmd in cmds:
            runner.write(cmd.program)
        # Warm-up: one command of each kind, so lazy set-up is not timed.
        seen = set()
        for index, cmd in enumerate(cmds):
            if cmd.kind not in seen:
                seen.add(cmd.kind)
                runner.issue(index, cmd)
        result = per_layer(runner, cmds, args) if args.trace else end_to_end(runner, cmds, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
