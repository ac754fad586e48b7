"""Command-line entry point: run programs, compare strategies, explore interleavings.

Exit codes: 0 ok, 2 program parse error (including a program file that
cannot be read or is not UTF-8), 3 configuration/usage error (a negative
limit, an unknown config key or an unreadable config file among them) or
output that cannot be written (an unwritable trace path, a result that
overflowed to a non-finite number in JSON output, or a standard output its
reader closed early), 5 multiple exploration outcomes, 6 exploration state
limit exceeded, 7 engine error (a semantics run exceeded its step limit,
or an engine invariant broke).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import os
import re
import struct
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from pathlib import Path
from typing import Callable, NoReturn

from .calculus import EMPTY_CONTEXT, Add, Context, Expression, FutureCreate, IntLit, _HoleLeftCell, _HoleRightCell
from .energy import (
    CASE_I,
    CASE_II,
    SEG_COMPUTE,
    SEG_WAIT,
    WAIT_BLOCK,
    WAIT_SPIN,
    CostModel,
    CostReport,
    SimulationReport,
    _compile,
    _price,
    _schedule,
    reprice,
    simulate,
)
from .engine import (
    RULE_CLAIM,
    RULE_CREATE,
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
    FrequencyLevel,
    make_strategy,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
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
# Options, one row each (a flag overrides a config-file key, which overrides the default)
# ---------------------------------------------------------------------------

POLICIES: dict[str, Callable[[int], SchedulerPolicy]] = {
    "newest-first": lambda seed: NewestFirst(),
    "round-robin": lambda seed: RoundRobin(),
    "random": SeededRandom,
}
_MODEL_FIELDS = {f.name for f in dataclasses.fields(CostModel)}


def _ladder(text: str) -> dict:
    return {"ladder": FrequencyLadder(tuple(float(p) for p in text.split(",") if p.strip()))}


def _strategy(name: str) -> str:
    if name not in STRATEGY_FACTORIES:
        raise ValueError(f"unknown strategy {name!r} (registered: {', '.join(sorted(STRATEGY_FACTORIES))})")
    return name


def _strategies(text: str) -> dict:
    return {"strategies": [_strategy(s.strip()) for s in text.split(",") if s.strip()]}


def _cycles(text: str) -> dict:
    """``create=N add=N claim=N``: words split by spaces or commas, as the flag and the key both take them."""
    fields = {}
    for item in re.sub(r"\s*=\s*", "=", text).replace(",", " ").split():
        rule, eq, value = item.partition("=")
        if not eq or rule not in ("create", "add", "claim"):
            raise ValueError(f"bad entry {item!r}; use create=N, add=N or claim=N")
        fields[f"{rule}_cycles"] = float(value)
    return fields


def _spin_power(text: str) -> dict:
    if text == "current":
        return {"idle_power": None}
    if not text.startswith("idle:"):
        raise ValueError("use current or idle:P")
    return {"idle_power": float(text.split(":", 1)[1])}


def _block_penalty(text: str) -> dict:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("use time,energy")
    return {"block_time": parts[0], "block_energy": parts[1]}


def _limit(name: str) -> Callable[[str], dict]:
    def convert(text: str) -> dict:
        limit = int(text)
        if limit < 0:
            raise ConfigError(f"--{name} must be non-negative, got {limit}")
        return {name.replace("-", "_"): limit}

    return convert


ALL = ("run", "compare", "explore")
SIMULATE = ("run", "compare")  # the commands that price a run with the cost model


@dataclass(frozen=True)
class Option:
    """One option: the flag ``--name`` and the config-file key ``name`` (``_`` for ``-`` too)."""

    name: str
    commands: tuple[str, ...]  # the commands that read it, and so take the flag; any command checks the key
    help: str
    convert: Callable[[str], dict]  # text -> RunConfig or CostModel fields
    choices: tuple[str, ...] = ()
    nargs: str | None = None


OPTIONS = (
    Option("ladder", ALL, "comma-separated increasing frequencies", _ladder),
    Option("init", ALL, "initial ladder index (1-based)", lambda t: {"init_index": int(t)}),
    Option("strategy", ("run", "explore"), "scaling strategy name (default both)", lambda t: {"strategy": _strategy(t)}),
    Option("strategies", ("compare",), "comma-separated strategy names (at least two)", _strategies),
    Option("alpha", SIMULATE, "power-law exponent (default 3)", lambda t: {"alpha": float(t)}),
    Option("kappa", SIMULATE, "power coefficient (default 1)", lambda t: {"kappa": float(t)}),
    Option("cycles", SIMULATE, "e.g. create=1 add=1 claim=1", _cycles, nargs="+"),
    Option("tau", SIMULATE, "seconds per frequency switch (default 0)", lambda t: {"tau": float(t)}),
    Option("wait", SIMULATE, "wait policy at claims", lambda t: {"wait_policy": t}, (WAIT_SPIN, WAIT_BLOCK)),
    Option("spin-power", SIMULATE, "current | idle:P", _spin_power),
    Option("block-penalty", SIMULATE, "time,energy per block", _block_penalty),
    Option("seed", ("run",), "seed for the random scheduler", lambda t: {"seed": int(t)}),
    Option("trace", ("run",), "write a JSONL trace to this path", lambda t: {"trace_path": t}),
    Option("format", ALL, "output format", lambda t: {"output_format": t}, ("table", "json")),
    Option("mode", ("run",), "virtual-time or step-indexed run", lambda t: {"mode": t}, ("simulate", "semantics")),
    Option("policy", ("run",), "scheduler (semantics mode)", lambda t: {"policy": t}, tuple(POLICIES)),
    Option("step-limit", ("run",), "divergence guard", _limit("step-limit")),
    Option("state-limit", ("explore",), "exploration budget", _limit("state-limit")),
)


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.replace("_", "-") not in {opt.name for opt in OPTIONS}:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key.replace("_", "-")] = value
    return values


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Raise a usage error for ``main`` to report, instead of printing usage and exiting."""
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call (not at import) and shared
    by every later call in the process: callers must not add to it."""
    top = _ArgumentParser(prog="futsim", description=__doc__.splitlines()[0], allow_abbrev=False)
    commands = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.__doc__, allow_abbrev=False)
        sub.add_argument("program", help="program file (one expression, '#' comments)")
        sub.add_argument("--config", help="flat key = value config file; flags override its keys")
        for opt in OPTIONS:
            if name in opt.commands:
                sub.add_argument(f"--{opt.name}", help=opt.help, choices=opt.choices or None, nargs=opt.nargs)
    return top


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge built-in defaults, config-file keys, then explicit flags."""
    file_values = _parse_config_file(args.config) if args.config else {}
    fields: dict = {"program": args.program}
    model_fields: dict = {}
    model_options = []
    for opt in OPTIONS:
        text = getattr(args, opt.name.replace("-", "_"), None)
        if isinstance(text, list):  # --cycles takes several words
            text = ",".join(text)
        if text is None:
            text = file_values.get(opt.name)
        if text is None:
            continue
        if opt.choices and text not in opt.choices:
            raise ConfigError(f"--{opt.name} {text!r}: choose from {', '.join(opt.choices)}")
        try:
            converted = opt.convert(text)
        except ValueError as exc:
            raise ConfigError(f"--{opt.name} {text!r}: {exc}") from exc
        if converted.keys() <= _MODEL_FIELDS:
            model_fields.update(converted)
            model_options.append(f"--{opt.name}")
        else:
            fields.update(converted)
    try:
        model = CostModel(**model_fields)
    except ValueError as exc:
        raise ConfigError(f"{exc} (from {', '.join(model_options)})") from exc
    cfg = RunConfig(model=model, **fields)
    if not 1 <= cfg.init_index <= len(cfg.ladder):
        raise ConfigError(f"--init {cfg.init_index} outside a ladder of size {len(cfg.ladder)}")
    return cfg


def _load_program(path: str) -> Expression:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


_NOT_FINITE = "a result is not a finite number (the cost model overflows)"
_BITS = struct.Struct("dd").pack  # two floats' bytes: unlike the floats, those of 0.0 and -0.0 differ


def _record_text(kind: str, rule: str | None, level: FrequencyLevel, dur: float, energy: float) -> tuple[str, str]:
    """A trace v1 line's fixed text: its keys before ``expr``'s value, and those after it up to ``seq``'s value.

    A line holds the record's keys in sorted order, as ``json.dumps(record,
    sort_keys=True)`` writes them, with every number a ``repr`` and every
    string JSON-quoted.
    """
    freq = level.value
    if not (isfinite(dur) and isfinite(energy) and isfinite(freq)):
        raise OutputError(_NOT_FINITE)
    return (f'{{"dur": {dur!r}, "energy": {energy!r}, "expr": ',
            f', "freq": {freq!r}, "freq_idx": {level.index!r}, "kind": {_quote(kind)}, '
            f'"rule": {"null" if rule is None else _quote(rule)}, "seq": ')


def _trace_lines() -> Callable[[int, float, int, str, str | None, FrequencyLevel, float, float, str], str]:
    """A function giving the trace v1 lines of one write, which formats each distinct fixed text once.

    It takes ``_trace_record``'s arguments. A line is its fixed text
    (``_record_text``) around ``expr``, then ``seq``, ``t`` and ``thread``.
    The fixed text is kept per (kind, rule, level, dur, energy): the level
    by identity, since a frozen dataclass hashes in Python and the levels a
    writer reads live through its write, and the two floats by their bytes,
    since ``0.0 == -0.0`` and a wait under ``--block-penalty 0.1,-0.0``
    spends -0.0.
    """
    texts: dict[tuple, tuple[str, str]] = {}

    def line(seq: int, t: float, thread: int, kind: str, rule: str | None, level: FrequencyLevel, dur: float,
             energy: float, expr: str) -> str:
        key = (kind, rule, id(level), _BITS(dur, energy))
        text = texts.get(key)
        if text is None:
            text = texts[key] = _record_text(kind, rule, level, dur, energy)
        if not isfinite(t):
            raise OutputError(_NOT_FINITE)
        return f'{text[0]}{_quote(expr)}{text[1]}{seq}, "t": {t!r}, "thread": {thread}, "v": {TRACE_VERSION}}}'

    return line


def _trace_record(seq: int, t: float, thread: int, kind: str, rule: str | None, level: FrequencyLevel,
                  dur: float, energy: float, expr: str) -> str:
    """One trace v1 line; its fields are exactly these, with the level as freq_idx and freq."""
    return _trace_lines()(seq, t, thread, kind, rule, level, dur, energy, expr)


def _json_dump(obj) -> str:
    # Infinity and NaN are not JSON; a model whose numbers overflow is reported
    # as an error instead.
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OutputError(f"{_NOT_FINITE}: {exc}") from exc


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        Path(path).write_text("\n".join(lines + [""]), encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write trace {path}: {exc}") from exc


def _hole_snippets() -> Callable[[Context, Expression], str]:
    """A function giving ``_snippet(unparse(filler, EXPR_SNIPPET_CHARS, context))``
    for the holes of one report, in time linear in the report.

    The text of a hole with frames F_0..F_{m-1}, outermost first, is
    before_0 ... before_{m-1} + filler + after_{m-1} ... after_0. A
    ``HoleRight(L)`` writes ``L + (`` before and ``)`` after, or ``L + ``
    and nothing when it is innermost, since the filler is an atom. A
    ``HoleLeft(R)`` writes `` + R`` after, with ``R`` fenced in parentheses
    when it is a sum, or when it is a future and F_{j-1} is a ``HoleLeft``
    (then more tokens follow it). Every operand is rendered with the
    snippet's limit, and the running before and after strings are cut one
    character past it, which keeps enough to cut the snippet. They are
    memoised per outer cell: a cell keeps the outer cells it was built on
    (see ``calculus.Context``), and the holes of a report share them, so no
    outer frame is rendered twice per write. The innermost frame is
    rendered per hole, from operand texts memoised per object: each operand
    is rendered once per write, by one ``unparse`` of it (or of its body,
    for a future that more tokens follow). Each frame is read from its
    cell's class and operand, so none is built. A ``HoleRight``'s operand is
    rendered sum by sum down its left spine, and each sum's text is
    memoised too, since a climb that builds ``L + x`` keeps ``L`` as the
    next frame's left operand.
    """
    # Cutting at the limit itself gives the same snippets, so no test tells
    # the two apart: a running text cut at the limit still gets the filler
    # atom, at least one character, so the whole is longer than the limit
    # and is cut with "..." from its first characters, as the uncut text is.
    limit, cut = EXPR_SNIPPET_CHARS, EXPR_SNIPPET_CHARS + 1
    # id(outer cell) -> running (before, after) through its frame; every empty context is ``EMPTY_CONTEXT``
    outer: dict[int, tuple[str, str]] = {id(EMPTY_CONTEXT): ("", "")}
    sums: dict[int, str] = {}  # id(sum on a left spine) -> its text, cut
    texts: dict[int, str] = {}  # id(operand) -> its text
    fenced: dict[int, str] = {}  # id(future operand) -> its text where more tokens follow it

    def operand(expr: Expression, followed: bool) -> str:
        memo = fenced if followed and expr.__class__ is FutureCreate else texts
        text = memo.get(id(expr))
        if text is None:
            if expr.__class__ is IntLit:
                text = str(expr.value)
            elif expr.__class__ is Add:
                text = "(" + unparse(expr, limit) + ")"
            elif memo is fenced:
                text = "(future " + unparse(expr.body, limit) + ")"
            else:
                text = unparse(expr, limit)
            memo[id(expr)] = text
        return text

    def left_text(expr: Expression) -> str:
        spine = []
        while expr.__class__ is Add and id(expr) not in sums:
            spine.append(expr)
            expr = expr.left
        text = sums[id(expr)] if expr.__class__ is Add else operand(expr, True)
        for node in reversed(spine):
            if len(text) < cut:
                text = (text + " + " + operand(node.right, True))[:cut]
            sums[id(node)] = text
        return text

    def through(cell: Context) -> tuple[str, str]:
        """The running texts through an outer cell's frame, memoised on it and on the cells outside it."""
        spine = []
        while id(cell) not in outer:
            spine.append(cell)
            cell = cell.outer
        before, after = outer[id(cell)]
        for cell in reversed(spine):
            if len(before) < cut:  # else the snippet is already decided
                if cell.__class__ is _HoleRightCell:
                    before, after = (before + left_text(cell.operand) + " + (")[:cut], (")" + after)[:cut]
                else:  # the empty context is neither kind of cell
                    after = (" + " + operand(cell.operand, cell.outer.__class__ is _HoleLeftCell) + after)[:cut]
            outer[id(cell)] = before, after
        return before, after

    def snippet(context: Context, filler: Expression) -> str:
        text = str(filler.value) if filler.__class__ is IntLit else f"fv{filler.fid}"
        if context.depth:
            cell = context.outer
            before, after = outer.get(id(cell)) or through(cell)
            if len(before) < cut:  # the innermost frame, around the atom
                if context.__class__ is _HoleRightCell:
                    before += left_text(context.operand) + " + "
                else:
                    after = " + " + operand(context.operand, cell.__class__ is _HoleLeftCell) + after
            text = before + text + after
        return text if len(text) <= limit else text[: limit - 3] + "..."

    return snippet


def _write_simulate_trace(path: str, report: SimulationReport) -> None:
    rows = []
    for fid, timeline in report.timelines.items():
        for offset, seg in enumerate(timeline.segments):
            rows.append((seg.start, fid, offset, seg))
    rows.sort()  # (fid, offset) is unique, so segments are never compared
    snippet = _hole_snippets()
    line = _trace_lines()
    lines = []
    for seq, (start, fid, _, seg) in enumerate(rows):
        kind = seg.kind
        if kind == SEG_COMPUTE and seg.hole is not None:
            expr = snippet(*seg.hole)
        elif kind == SEG_WAIT:
            expr = f"fv{seg.target}"
        else:
            expr = ""
        lines.append(line(seq, start, fid, kind, seg.rule, seg.level, seg.end - start, seg.energy, expr))
    _write_lines(path, lines)


def _describe_event(event) -> str:
    if event.rule == RULE_CREATE:
        return f"spawn fv{event.child}"
    if event.rule == RULE_CLAIM:
        return f"claim fv{event.claimed} = {_snippet(unparse(event.value))}"
    return f"{event.left} + {event.right} = {event.total}"


def _write_semantics_trace(path: str, result: RunResult) -> None:
    line = _trace_lines()
    lines = [
        line(seq, seq, event.thread, SEG_COMPUTE, event.rule, event.level, 0.0, 0.0, _snippet(_describe_event(event)))
        for seq, event in enumerate(result.events)
    ]
    _write_lines(path, lines)


def _report_json(cfg: RunConfig, report: CostReport) -> dict:
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


def _print_simulate_table(report: CostReport, out) -> None:
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
    """run one program and report metrics"""
    expr = _load_program(cfg.program)
    strategy = make_strategy(cfg.strategy, cfg.ladder)
    if cfg.mode == "semantics":
        # Only the trace reads the kernel's events: an untraced run replays the compiled tapes under the same
        # scheduler, to the same value, rules, final level and clamps.
        policy = POLICIES[cfg.policy](cfg.seed)
        if cfg.trace_path:
            result = run(expr, cfg.ladder, cfg.init_index, strategy, policy, cfg.step_limit)
            _write_semantics_trace(cfg.trace_path, result)
            value, rules, level, clamps = (result.final_value, [e.rule for e in result.events], result.final_level,
                                           result.clamp_count)
        else:
            value, rules, level, clamps = _schedule(*_compile(expr), cfg.ladder, cfg.init_index, strategy, policy,
                                                    cfg.step_limit)
        if cfg.output_format == "json":
            payload = {
                "command": "run",
                "mode": "semantics",
                "strategy": cfg.strategy,
                "policy": cfg.policy,
                "ladder": list(cfg.ladder.levels),
                "init": cfg.init_index,
                "final_value": value,
                "steps": len(rules),
                "final_freq_idx": level.index,
                "final_freq": level.value,
                "clamp_events": clamps,
                "rules": rules,
            }
            print(_json_dump(payload), file=out)
        else:
            print(f"final value    {value}", file=out)
            print(f"steps          {len(rules)}", file=out)
            print(f"final level    fq_{level.index} ({_fmt(level.value)})", file=out)
            print(f"clamp events   {clamps}", file=out)
            print(f"rules          {' '.join(rules)}", file=out)
        return EXIT_OK

    # Only the trace reads the timelines: an untraced run prices the compiled tapes alone, to the same report.
    report = (simulate if cfg.trace_path else reprice)(expr, cfg.ladder, cfg.init_index, strategy, cfg.model)
    if cfg.trace_path:
        _write_simulate_trace(cfg.trace_path, report)
    if cfg.output_format == "json":
        print(_json_dump(_report_json(cfg, report)), file=out)
    else:
        _print_simulate_table(report, out)
    return EXIT_OK


def cmd_compare(cfg: RunConfig, out, err) -> int:
    """run one program under several strategies"""
    if len(cfg.strategies) < 2:
        raise ConfigError("compare needs at least two strategies (--strategies a,b)")
    expr = _load_program(cfg.program)
    # A strategy changes how fast threads run, not which rules they fire: the tapes, compiled once, fit every strategy.
    strategies = [make_strategy(name, cfg.ladder) for name in cfg.strategies]
    final_value, tapes = _compile(expr)
    reports = [_price(final_value, tapes, cfg.ladder, cfg.init_index, s, cfg.model) for s in strategies]
    rows = []
    for name, report in zip(cfg.strategies, reports):
        # One pass over the claims. The waits are added left to right from the int 0, so the total is the same on
        # every Python (see ``energy._left_sum``) and a program with no claims prints ``"total_wait": 0``.
        total_wait, cases = 0, {CASE_I: 0, CASE_II: 0}
        for record in report.claim_records:
            total_wait += record.wait
            cases[record.case_tag] += 1
        rows.append(
            {
                "strategy": name,
                "final_value": report.final_value,
                "total_wait": total_wait,
                "case_i": cases[CASE_I],
                "case_ii": cases[CASE_II],
                "energy": report.total_energy,
                "makespan": report.makespan,
                "edp": report.edp,
                "ed2p": report.ed2p,
            }
        )
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
    """enumerate all interleavings of a small program"""
    expr = _load_program(cfg.program)
    strategy = make_strategy(cfg.strategy, cfg.ladder)
    outcomes, states = explore_with_stats(expr, cfg.ladder, cfg.init_index, strategy, cfg.state_limit)
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


COMMANDS = {"run": cmd_run, "compare": cmd_compare, "explore": cmd_explore}


def _to_devnull(stream) -> None:
    """Point a process stream whose reader is gone at os.devnull, so the interpreter's final flush stays quiet."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _error(err, message, code: int) -> int:
    """Print one ``error:`` line and return ``code``, which stands even when nobody reads ``err``."""
    try:
        print(f"error: {message}", file=err)
    except BrokenPipeError:
        if err is sys.stderr:
            _to_devnull(err)
    return code


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    # A command's containers are freed by reference counts, so collector
    # passes inside it find nothing; pause it, and leave the caller's state.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = _dispatch(argv, out, err)
        if out is sys.stdout:
            out.flush()  # a reader that closed early shows up here, not at exit
        return code
    except BrokenPipeError as exc:
        if out is sys.stdout:
            _to_devnull(out)  # the buffered rest would fail again in the final flush
        return _error(err, f"cannot write the output: {exc}", EXIT_CONFIG)
    finally:
        if enabled:
            gc.enable()


def _unrecognized(command: str, words: list[str]) -> str:
    """A usage error naming the command and, for each known flag in ``words``, the commands that take it."""
    takers = {f"--{opt.name}": opt.commands for opt in OPTIONS}
    flags = dict.fromkeys(word.split("=", 1)[0] for word in words)
    notes = "".join(f" ({flag} is a flag of: {', '.join(takers[flag])})" for flag in flags if flag in takers)
    return f"futsim {command}: unrecognized arguments: {' '.join(words)}{notes}"


def _dispatch(argv: list[str] | None, out, err) -> int:
    try:
        with contextlib.redirect_stdout(out):  # where argparse prints --help
            args, unknown = build_arg_parser().parse_known_args(argv)
        if unknown:
            raise ConfigError(_unrecognized(args.command, unknown))
        return COMMANDS[args.command](resolve_config(args), out, err)
    except SystemExit as exc:  # after --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    except (ConfigError, OutputError) as exc:
        return _error(err, exc, EXIT_CONFIG)
    except FileNotFoundError as exc:
        return _error(err, exc, EXIT_PARSE)
    except ParseError as exc:
        return _error(err, f"{args.program}:{exc}", EXIT_PARSE)
    except ExplorationLimitError as exc:
        return _error(err, exc, EXIT_EXPLORE_LIMIT)
    except EngineError as exc:
        return _error(err, exc, EXIT_ENGINE)


if __name__ == "__main__":
    sys.exit(main())
