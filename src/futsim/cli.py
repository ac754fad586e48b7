"""Command-line entry point: run programs, compare strategies, explore interleavings.

Exit codes: 0 ok, 2 program parse error (including an unreadable program
file), 3 configuration/usage error (a negative limit among them) or output
that cannot be written (an unwritable trace path, a result that overflowed
to a non-finite number in JSON output, or a standard output its reader
closed early), 4 determinacy violation across compared strategies,
5 multiple exploration outcomes, 6 exploration state limit exceeded,
7 engine error (a semantics run exceeded its step limit, or an engine
invariant broke).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .calculus import Expression
from .energy import (
    SPIN_AT_CURRENT,
    SPIN_FIXED_IDLE,
    WAIT_BLOCK,
    WAIT_SPIN,
    CostModel,
    SimulationReport,
    simulate,
)
from .engine import (
    EngineError,
    ExplorationLimitError,
    NewestFirst,
    RoundRobin,
    RunResult,
    SchedulerPolicy,
    SeededRandom,
    explore_with_stats,
    run,
)
from .parser import ParseError, parse, unparse
from .scaling import (
    DEFAULT_INIT_INDEX,
    DEFAULT_LADDER,
    STRATEGY_FACTORIES,
    FrequencyLadder,
    make_strategy,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_DETERMINACY = 4
EXIT_MULTIPLE_OUTCOMES = 5
EXIT_EXPLORE_LIMIT = 6
EXIT_ENGINE = 7

TRACE_VERSION = 1
EXPR_SNIPPET_CHARS = 80


class ConfigError(Exception):
    pass


class OutputError(Exception):
    """A report or trace could not be written."""


@dataclass
class RunConfig:
    program: str = ""
    ladder: FrequencyLadder = DEFAULT_LADDER
    init_index: int = DEFAULT_INIT_INDEX
    strategy: str = "both"
    strategies: list[str] = field(default_factory=list)
    policy: str = "newest-first"
    seed: int = 0
    mode: str = "simulate"  # simulate | semantics
    model: CostModel = field(default_factory=CostModel)
    output_format: str = "table"
    trace_path: str | None = None
    state_limit: int = 100_000
    step_limit: int | None = None


# ---------------------------------------------------------------------------
# Option parsing and merging (CLI flags > config file > defaults)
# ---------------------------------------------------------------------------

def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip().replace("_", "-")] = value.strip()
    return values


def _parse_ladder(text: str) -> FrequencyLadder:
    try:
        parts = [float(p) for p in text.split(",") if p.strip()]
        return FrequencyLadder(tuple(parts))
    except ValueError as exc:
        raise ConfigError(f"bad ladder {text!r}: {exc}") from exc


def _parse_cycles(pieces: list[str], model: CostModel) -> None:
    for piece in pieces:
        for item in piece.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"bad cycles entry {item!r}; use rule=cycles")
            rule, _, value = item.partition("=")
            attr = {"create": "create_cycles", "add": "add_cycles", "claim": "claim_cycles"}.get(rule.strip())
            if attr is None:
                raise ConfigError(f"unknown rule {rule.strip()!r} in --cycles")
            try:
                setattr(model, attr, float(value))
            except ValueError as exc:
                raise ConfigError(f"bad cycle count {value!r}") from exc


def _parse_spin_power(text: str, model: CostModel) -> None:
    if text == "current":
        model.spin_power_mode = SPIN_AT_CURRENT
    elif text.startswith("idle:"):
        model.spin_power_mode = SPIN_FIXED_IDLE
        try:
            model.idle_power = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad idle power in {text!r}") from exc
    else:
        raise ConfigError(f"bad --spin-power {text!r}; use current or idle:P")


def _parse_block_penalty(text: str, model: CostModel) -> None:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"bad --block-penalty {text!r}; use time,energy")
    try:
        model.block_time, model.block_energy = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad --block-penalty {text!r}") from exc


def _parse_limit(name: str, text: str) -> int:
    try:
        limit = int(text)
    except ValueError as exc:
        raise ConfigError(f"bad --{name} {text!r}") from exc
    if limit < 0:
        raise ConfigError(f"--{name} must be non-negative, got {limit}")
    return limit


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("program", help="program file (one expression, '#' comments)")
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--ladder", help="comma-separated increasing frequencies")
    sub.add_argument("--init", type=int, help="initial ladder index (1-based)")
    sub.add_argument("--alpha", type=float, help="power-law exponent (default 3)")
    sub.add_argument("--kappa", type=float, help="power coefficient (default 1)")
    sub.add_argument("--cycles", nargs="+", metavar="RULE=N", help="e.g. create=1 add=1 claim=1")
    sub.add_argument("--tau", type=float, help="seconds per frequency switch (default 0)")
    sub.add_argument("--wait", choices=[WAIT_SPIN, WAIT_BLOCK], help="wait policy at claims")
    sub.add_argument("--spin-power", dest="spin_power", help="current | idle:P")
    sub.add_argument("--block-penalty", dest="block_penalty", help="time,energy per block")
    sub.add_argument("--seed", type=int, help="seed for the random scheduler")
    sub.add_argument("--trace", help="write a JSONL trace to this path")
    sub.add_argument("--format", dest="output_format", choices=["table", "json"], help="output format")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="futsim", description=__doc__.splitlines()[0])
    commands = top.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("run", help="run one program and report metrics")
    _add_shared_flags(cmd)
    cmd.add_argument("--strategy", help=f"one of: {', '.join(sorted(STRATEGY_FACTORIES))}")
    cmd.add_argument("--mode", choices=["simulate", "semantics"], help="virtual-time or step-indexed run")
    cmd.add_argument("--policy", choices=["newest-first", "round-robin", "random"], help="scheduler (semantics mode)")
    cmd.add_argument("--step-limit", dest="step_limit", type=int, help="divergence guard")

    cmd = commands.add_parser("compare", help="run one program under several strategies")
    _add_shared_flags(cmd)
    cmd.add_argument("--strategies", help="comma-separated strategy names (at least two)")

    cmd = commands.add_parser("explore", help="enumerate all interleavings of a small program")
    _add_shared_flags(cmd)
    cmd.add_argument("--strategy", help=f"one of: {', '.join(sorted(STRATEGY_FACTORIES))}")
    cmd.add_argument("--state-limit", dest="state_limit", type=int, help="exploration budget")

    return top


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge built-in defaults, config-file keys, then explicit flags."""
    file_values = _parse_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag: str, key: str) -> str | None:
        value = getattr(args, flag, None)
        if value is not None:
            return str(value)
        return file_values.get(key)

    cfg = RunConfig(program=args.program)
    if (ladder := pick("ladder", "ladder")) is not None:
        cfg.ladder = _parse_ladder(ladder)
    if (init := pick("init", "init")) is not None:
        try:
            cfg.init_index = int(init)
        except ValueError as exc:
            raise ConfigError(f"bad --init {init!r}") from exc
    if not 1 <= cfg.init_index <= len(cfg.ladder):
        raise ConfigError(f"init level {cfg.init_index} outside ladder of size {len(cfg.ladder)}")

    model = CostModel()
    try:
        if (alpha := pick("alpha", "alpha")) is not None:
            model.alpha = float(alpha)
        if (kappa := pick("kappa", "kappa")) is not None:
            model.kappa = float(kappa)
        if (tau := pick("tau", "tau")) is not None:
            model.tau = float(tau)
    except ValueError as exc:
        raise ConfigError(f"bad numeric model parameter: {exc}") from exc
    if (wait := pick("wait", "wait")) is not None:
        model.wait_policy = wait
    cycles = getattr(args, "cycles", None)
    if cycles is None and "cycles" in file_values:
        cycles = [file_values["cycles"]]
    if cycles:
        _parse_cycles(list(cycles), model)
    if (spin := pick("spin_power", "spin-power")) is not None:
        _parse_spin_power(spin, model)
    if (block := pick("block_penalty", "block-penalty")) is not None:
        _parse_block_penalty(block, model)
    try:
        model.__post_init__()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.model = model

    if (strategy := pick("strategy", "strategy")) is not None:
        cfg.strategy = strategy
    if (strategies := pick("strategies", "strategies")) is not None:
        cfg.strategies = [s.strip() for s in strategies.split(",") if s.strip()]
    if (policy := pick("policy", "policy")) is not None:
        cfg.policy = policy
    if (seed := pick("seed", "seed")) is not None:
        try:
            cfg.seed = int(seed)
        except ValueError as exc:
            raise ConfigError(f"bad --seed {seed!r}") from exc
    if (mode := pick("mode", "mode")) is not None:
        cfg.mode = mode
    if (fmt := pick("output_format", "format")) is not None:
        if fmt not in ("table", "json"):
            raise ConfigError(f"bad format {fmt!r}")
        cfg.output_format = fmt
    if (trace := pick("trace", "trace")) is not None:
        cfg.trace_path = trace
    if (state_limit := pick("state_limit", "state-limit")) is not None:
        cfg.state_limit = _parse_limit("state-limit", state_limit)
    if (step_limit := pick("step_limit", "step-limit")) is not None:
        cfg.step_limit = _parse_limit("step-limit", step_limit)

    for name in cfg.strategies or [cfg.strategy]:
        if name not in STRATEGY_FACTORIES:
            raise ConfigError(f"unknown strategy {name!r} (registered: {', '.join(sorted(STRATEGY_FACTORIES))})")
    if cfg.policy not in ("newest-first", "round-robin", "random"):
        raise ConfigError(f"unknown policy {cfg.policy!r}")
    return cfg


def _make_policy(cfg: RunConfig) -> SchedulerPolicy:
    if cfg.policy == "newest-first":
        return NewestFirst()
    if cfg.policy == "round-robin":
        return RoundRobin()
    return SeededRandom(cfg.seed)


def _load_program(path: str) -> Expression:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileNotFoundError(f"cannot read program file {path}: {exc}") from exc
    return parse(text)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _snippet(text: str) -> str:
    if len(text) <= EXPR_SNIPPET_CHARS:
        return text
    return text[: EXPR_SNIPPET_CHARS - 3] + "..."


def _trace_record(**kw) -> str:
    record = {
        "v": TRACE_VERSION,
        "seq": kw["seq"],
        "t": kw["t"],
        "thread": kw["thread"],
        "kind": kw["kind"],
        "rule": kw.get("rule"),
        "freq_idx": kw["freq_idx"],
        "freq": kw["freq"],
        "dur": kw["dur"],
        "energy": kw["energy"],
        "expr": kw["expr"],
    }
    return _json_dump(record, indent=None)


def _json_dump(obj, indent: int | None = 2) -> str:
    # Infinity and NaN are not JSON; a model whose numbers overflow is reported
    # as an error instead.
    try:
        return json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise OutputError(f"a result is not a finite number (the cost model overflows): {exc}") from exc


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write trace {path}: {exc}") from exc


def _write_simulate_trace(path: str, report: SimulationReport) -> None:
    rows = []
    for fid, timeline in report.timelines.items():
        for offset, seg in enumerate(timeline.segments):
            rows.append((seg.start, fid, offset, seg))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = []
    for seq, (_, fid, _, seg) in enumerate(rows):
        if seg.kind == "compute":
            expr = _snippet(unparse(seg.expr)) if seg.expr is not None else ""
        elif seg.kind == "wait":
            expr = f"fv{seg.target}"
        else:
            expr = ""
        lines.append(
            _trace_record(
                seq=seq, t=seg.start, thread=fid, kind=seg.kind, rule=seg.rule,
                freq_idx=seg.level.index, freq=seg.level.value, dur=seg.duration,
                energy=seg.energy, expr=expr,
            )
        )
    _write_lines(path, lines)


def _describe_event(event) -> str:
    if event.rule == "Create":
        return f"spawn fv{event.child}"
    if event.rule == "Claim":
        return f"claim fv{event.claimed} = {_snippet(unparse(event.value))}"
    return f"{event.left} + {event.right} = {event.total}"


def _write_semantics_trace(path: str, result: RunResult) -> None:
    lines = []
    for seq, event in enumerate(result.events):
        lines.append(
            _trace_record(
                seq=seq, t=seq, thread=event.thread, kind="compute", rule=event.rule,
                freq_idx=event.level.index, freq=event.level.value, dur=0.0,
                energy=0.0, expr=_snippet(_describe_event(event)),
            )
        )
    _write_lines(path, lines)


def _report_json(cfg: RunConfig, report: SimulationReport) -> dict:
    return {
        "command": "run",
        "mode": "simulate",
        "strategy": cfg.strategy,
        "ladder": list(cfg.ladder.levels),
        "init": cfg.init_index,
        "final_value": report.final_value,
        "makespan": report.makespan,
        "total_energy": report.total_energy,
        "edp": report.edp,
        "ed2p": report.ed2p,
        "clamp_events": report.clamp_count,
        "transitions": report.transition_count,
        "per_thread_energy": {str(fid): e for fid, e in sorted(report.per_thread_energy.items())},
        "claims": [
            {
                "claimant": r.claimant,
                "target": r.target,
                "t_arrive": r.t_arrive,
                "t_realize": r.t_realize,
                "wait": r.wait,
                "case": r.case_tag,
            }
            for r in report.claim_records
        ],
    }


def _print_simulate_table(report: SimulationReport, out) -> None:
    print(f"final value    {report.final_value}", file=out)
    print(f"makespan       {_fmt(report.makespan)}", file=out)
    print(f"energy         {_fmt(report.total_energy)}", file=out)
    print(f"EDP            {_fmt(report.edp)}", file=out)
    print(f"ED2P           {_fmt(report.ed2p)}", file=out)
    print(f"clamp events   {report.clamp_count}", file=out)
    print(f"transitions    {report.transition_count}", file=out)
    if report.claim_records:
        print("claims:", file=out)
        print("  claimant  target  t_arrive        t_realize       wait            case", file=out)
        for r in report.claim_records:
            print(
                f"  fv{r.claimant:<7} fv{r.target:<5} {_fmt(r.t_arrive):<15} "
                f"{_fmt(r.t_realize):<15} {_fmt(r.wait):<15} {r.case_tag}",
                file=out,
            )


def cmd_run(cfg: RunConfig, out, err) -> int:
    expr = _load_program(cfg.program)
    strategy = make_strategy(cfg.strategy, cfg.ladder)
    if cfg.mode == "semantics":
        result = run(expr, cfg.ladder, cfg.init_index, strategy, _make_policy(cfg), cfg.step_limit)
        if cfg.trace_path:
            _write_semantics_trace(cfg.trace_path, result)
        if cfg.output_format == "json":
            payload = {
                "command": "run",
                "mode": "semantics",
                "strategy": cfg.strategy,
                "policy": cfg.policy,
                "ladder": list(cfg.ladder.levels),
                "init": cfg.init_index,
                "final_value": result.final_value,
                "steps": result.step_count,
                "final_freq_idx": result.final_level.index,
                "final_freq": result.final_level.value,
                "clamp_events": result.clamp_count,
                "rules": [e.rule for e in result.events],
            }
            print(_json_dump(payload), file=out)
        else:
            print(f"final value    {result.final_value}", file=out)
            print(f"steps          {result.step_count}", file=out)
            print(f"final level    fq_{result.final_level.index} ({_fmt(result.final_level.value)})", file=out)
            print(f"clamp events   {result.clamp_count}", file=out)
            print(f"rules          {' '.join(e.rule for e in result.events)}", file=out)
        return EXIT_OK

    report = simulate(expr, cfg.ladder, cfg.init_index, strategy, cfg.model)
    if cfg.trace_path:
        _write_simulate_trace(cfg.trace_path, report)
    if cfg.output_format == "json":
        print(_json_dump(_report_json(cfg, report)), file=out)
    else:
        _print_simulate_table(report, out)
    return EXIT_OK


def cmd_compare(cfg: RunConfig, out, err) -> int:
    if len(cfg.strategies) < 2:
        print("error: compare needs at least two strategies (--strategies a,b)", file=err)
        return EXIT_CONFIG
    expr = _load_program(cfg.program)
    rows = []
    for name in cfg.strategies:
        report = simulate(expr, cfg.ladder, cfg.init_index, make_strategy(name, cfg.ladder), cfg.model)
        waits = [r.wait for r in report.claim_records]
        rows.append(
            {
                "strategy": name,
                "final_value": report.final_value,
                "total_wait": sum(waits),
                "case_i": sum(1 for r in report.claim_records if r.case_tag == "CaseI"),
                "case_ii": sum(1 for r in report.claim_records if r.case_tag == "CaseII"),
                "energy": report.total_energy,
                "makespan": report.makespan,
                "edp": report.edp,
                "ed2p": report.ed2p,
            }
        )
    values = {row["final_value"] for row in rows}
    if len(values) != 1:
        print(f"error: strategies disagree on the final value: {sorted(values)}", file=err)
        return EXIT_DETERMINACY
    if cfg.output_format == "json":
        print(_json_dump({"command": "compare", "final_value": rows[0]["final_value"], "rows": rows}), file=out)
    else:
        print(f"final value {rows[0]['final_value']}", file=out)
        header = f"{'strategy':<14} {'wait':<15} {'caseI':<6} {'caseII':<7} {'E':<15} {'T':<15} {'EDP':<15} {'ED2P':<15}"
        print(header, file=out)
        for row in rows:
            print(
                f"{row['strategy']:<14} {_fmt(row['total_wait']):<15} {row['case_i']:<6} {row['case_ii']:<7} "
                f"{_fmt(row['energy']):<15} {_fmt(row['makespan']):<15} {_fmt(row['edp']):<15} {_fmt(row['ed2p']):<15}",
                file=out,
            )
    return EXIT_OK


def cmd_explore(cfg: RunConfig, out, err) -> int:
    expr = _load_program(cfg.program)
    strategy = make_strategy(cfg.strategy, cfg.ladder)
    try:
        outcomes, states = explore_with_stats(expr, cfg.ladder, cfg.init_index, strategy, cfg.state_limit)
    except ExplorationLimitError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_EXPLORE_LIMIT
    ordered = sorted(outcomes, key=lambda o: (o[0], o[1].index))
    if cfg.output_format == "json":
        payload = {
            "command": "explore",
            "strategy": cfg.strategy,
            "states": states,
            "outcomes": [{"value": v, "freq_idx": lvl.index, "freq": lvl.value} for v, lvl in ordered],
        }
        print(_json_dump(payload), file=out)
    else:
        print(f"states explored {states}", file=out)
        print(f"outcomes        {len(ordered)}", file=out)
        for value, level in ordered:
            print(f"  value {value} at fq_{level.index} ({_fmt(level.value)})", file=out)
    return EXIT_OK if len(ordered) == 1 else EXIT_MULTIPLE_OUTCOMES


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        code = _dispatch(argv, out, err)
        if out is sys.stdout:
            out.flush()  # a reader that closed early shows up here, not at exit
        return code
    except BrokenPipeError as exc:
        if out is sys.stdout:
            # The buffered rest would fail again in the interpreter's final flush.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write the output: {exc}", file=err)
        return EXIT_CONFIG


def _dispatch(argv: list[str] | None, out, err) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            return cmd_run(cfg, out, err)
        if args.command == "compare":
            return cmd_compare(cfg, out, err)
        return cmd_explore(cfg, out, err)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"error: {cfg.program}:{exc}", file=err)
        return EXIT_PARSE
    except OutputError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CONFIG
    except EngineError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
