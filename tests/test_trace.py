"""The JSONL trace writers: each compute record's ``expr`` against the
per-record render it replaced, the renders it makes, each line against
``json.dumps`` of its record, and the time-scale relation on whole traces."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import futsim.cli as cli  # noqa: E402
from futsim.calculus import Add, FutureCreate, IntLit  # noqa: E402
from futsim.calculus import Context, FutureRef, HoleLeft, HoleRight  # noqa: E402
from futsim.cli import POLICIES, OutputError, _trace_record, _write_simulate_trace, main  # noqa: E402
from futsim.cli import _snippet, _write_semantics_trace  # noqa: E402
from futsim.energy import SEG_COMPUTE, SEG_TRANSITION, SEG_WAIT, WAIT_BLOCK, WAIT_SPIN, CostModel  # noqa: E402
from futsim.energy import Segment, SimulationReport, ThreadTimeline, simulate  # noqa: E402
from futsim.engine import RULE_ADD, RULE_CLAIM, RULE_CREATE, run  # noqa: E402
from futsim.parser import parse, unparse  # noqa: E402
from futsim.scaling import FrequencyLadder, FrequencyLevel, make_strategy  # noqa: E402
from oracles import gen_random_program, trace_snippet, unparse_in_context  # noqa: E402

LADDER = FrequencyLadder((1.0, 2.0, 3.0, 4.0))
STRATEGIES = ("none", "parent-only", "child-only", "both")
TAUS = (0.0, 0.05)

int64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1).map(IntLit)
trees = st.recursive(int64, lambda sub: st.one_of(st.builds(Add, sub, sub), st.builds(FutureCreate, sub)),
                     max_leaves=40)
programs = st.one_of(st.integers(min_value=0, max_value=10**6).map(lambda s: gen_random_program(s, 7, 3)), trees)


def _lines(write, source) -> list[str]:
    """The lines ``write`` puts in a trace file for ``source``, a report or a run result; each ends in a newline."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write(str(path), source)
        text = path.read_text()
    assert text.endswith("\n") or text == ""
    return text.splitlines()


def _written(report) -> list[dict]:
    return [json.loads(line) for line in _lines(_write_simulate_trace, report)]


def _check_against_oracle(report) -> int:
    """Compare every compute record's ``expr`` with the oracle's; return the number compared."""
    records = _written(report)
    rows = sorted((((seg.start, fid, offset), seg) for fid, timeline in report.timelines.items()
                   for offset, seg in enumerate(timeline.segments)), key=lambda row: row[0])
    assert len(records) == len(rows)
    compared = 0
    for record, (_, seg) in zip(records, rows):
        assert record["kind"] == seg.kind
        if seg.kind == SEG_COMPUTE and seg.hole is not None:
            assert record["expr"] == trace_snippet(*seg.hole)
            compared += 1
    return compared


@settings(max_examples=60, deadline=None, database=None)
@given(programs)
@example(parse("(1 + 2 + future 3) + 4"))  # a future followed by more tokens is fenced
@example(parse("1 + (future (2 + 3 + 4)) + " + " + ".join(f"({k} + future {k})" for k in range(10, 40))))
@example(parse("(future 1) + 2 + 3 + (4 + 5) + (6 + 7) + (8 + future (9 + 10))"))
def test_expr_column_matches_the_per_record_render(expr):
    for name in STRATEGIES:
        for tau in TAUS:
            report = simulate(expr, LADDER, 2, make_strategy(name, LADDER), CostModel(tau=tau))
            _check_against_oracle(report)


def _balanced_sum(leaves: int):
    level = [IntLit(k) for k in range(leaves)]
    while len(level) > 1:
        level = [Add(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


LARGE = {
    "chain-6400": lambda: parse(" + ".join(["1"] * 6400)),
    "future-nest-2000": lambda: parse("future (1 + " * 2000 + "1" + ")" * 2000),
    "future-tower-4096": lambda: parse("future " * 4096 + "1"),
    "balanced-512": lambda: _balanced_sum(512),
    # Each climb past a (k + k) builds a longer left operand on the last one.
    "growing-left-500": lambda: parse("(future 1) + " + " + ".join(["1"] * 500) + " + "
                                      + " + ".join(f"({k} + {k})" for k in range(500))),
}


@pytest.mark.parametrize("name", LARGE)
def test_expr_column_of_large_programs_renders_no_whole_context(name, monkeypatch):
    report = simulate(LARGE[name](), LADDER, 2, make_strategy("both", LADDER))
    calls = []

    def recording(expr, limit=None):
        calls.append(limit)
        return unparse(expr, limit)

    monkeypatch.setattr(cli, "unparse", recording)
    records = _written(report)
    monkeypatch.undo()
    assert None not in calls, "the writer rendered an operand without the snippet's bound"
    assert _check_against_oracle(report) == sum(r["kind"] == SEG_COMPUTE for r in records) > 0
    if name == "chain-6400":
        assert records[-1]["expr"] == "6400"


def _sum_of_width(width):
    """A sum of literals whose text is exactly ``width`` characters: ``99 + 1 + 1``."""
    ones, lead = divmod(width - 1, 4)
    return parse(" + ".join([str(10 ** (lead + 1) - 1)] + ["1"] * ones))


# Each shape puts a sum of a given width beside the hole, through a HoleLeft
# or a HoleRight cell, innermost or outer, so the text around the atom grows
# on the side before it or after it.
BOUNDARY_SHAPES = {
    "right-innermost": lambda x: (HoleRight(x),),
    "left-innermost": lambda x: (HoleLeft(x),),
    "right-inside-left": lambda x: (HoleLeft(IntLit(5)), HoleRight(x)),
    "right-outside-left": lambda x: (HoleRight(x), HoleLeft(IntLit(5))),
    "left-inside-right": lambda x: (HoleRight(IntLit(5)), HoleLeft(x)),
    "left-outside-right": lambda x: (HoleLeft(x), HoleRight(IntLit(5))),
    "future-inside-left": lambda x: (HoleLeft(IntLit(5)), HoleLeft(FutureCreate(x))),
}


@pytest.mark.parametrize("shape", BOUNDARY_SHAPES)
@pytest.mark.parametrize("length", [79, 80, 81, 82])
@pytest.mark.parametrize("filler", [IntLit(7), FutureRef(12)], ids=["int", "ref"])
def test_snippets_at_the_snippet_limit(shape, length, filler):
    # A hole whose whole text is 79 to 82 characters: the writer's running
    # texts are cut one character past the 80-character limit.
    for width in range(1, length):
        context = Context.of(BOUNDARY_SHAPES[shape](_sum_of_width(width)))
        if len(unparse_in_context(filler, None, context)) == length:
            break
    else:
        pytest.fail(f"no {shape} hole is {length} characters long")
    expected = _snippet(unparse_in_context(filler, cli.EXPR_SNIPPET_CHARS, context))
    assert cli._hole_snippets()(context, filler) == expected
    assert len(expected) == min(length, 80) and expected.endswith("...") == (length > 80)


# ---------------------------------------------------------------------------
# Record format
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
# Every character a record's expr can hold: digits, signs, spaces, parentheses,
# "future", "fv" and the "..." of a cut snippet.
EXPR_ALPHABET = "0123456789-+ ()futrev."


@settings(max_examples=300, deadline=None, database=None)
@given(
    seq=st.integers(min_value=0, max_value=1 << 40),
    t=st.one_of(finite, st.integers(min_value=0, max_value=1 << 40)),
    thread=st.integers(min_value=0, max_value=1 << 20),
    kind=st.sampled_from((SEG_COMPUTE, SEG_WAIT, SEG_TRANSITION)),
    rule=st.sampled_from((None, RULE_CREATE, RULE_ADD, RULE_CLAIM)),
    freq_idx=st.integers(min_value=1, max_value=64),
    freq=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    dur=finite,
    energy=finite,
    expr=st.text(alphabet=EXPR_ALPHABET, max_size=90),
)
@example(seq=0, t=-0.0, thread=0, kind=SEG_COMPUTE, rule=None, freq_idx=1, freq=5e-324, dur=1e308, energy=-0.0, expr="")
@example(seq=7, t=7, thread=3, kind=SEG_COMPUTE, rule=RULE_CLAIM, freq_idx=2, freq=1e308, dur=0.0, energy=2.2250738585072014e-308,
         expr="fv1 + (future (2 + -3)) + ...")
def test_record_line_is_json_dumps_of_the_record(seq, t, thread, kind, rule, freq_idx, freq, dur, energy, expr):
    line = _trace_record(seq, t, thread, kind, rule, FrequencyLevel(freq_idx, freq), dur, energy, expr)
    record = dict(v=1, seq=seq, t=t, thread=thread, kind=kind, rule=rule, freq_idx=freq_idx, freq=freq, dur=dur,
                  energy=energy, expr=expr)
    assert line == json.dumps(record, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("field", ["t", "dur", "energy", "freq"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_record_with_a_non_finite_number_is_an_output_error(field, value):
    numbers = {"t": 1.0, "dur": 1.0, "energy": 1.0, "freq": 1.0, field: value}
    with pytest.raises(OutputError, match="a result is not a finite number"):
        _trace_record(0, numbers["t"], 0, SEG_COMPUTE, RULE_ADD, FrequencyLevel(1, numbers["freq"]), numbers["dur"],
                      numbers["energy"], "1 + 2")


def test_overflowing_trace_exits_3_naming_finite(tmp_path):
    program = tmp_path / "sum.gf"
    program.write_text("1 + future (2 + 3)\n")
    trace = tmp_path / "t.jsonl"
    out, err = io.StringIO(), io.StringIO()
    assert main(["run", str(program), "--kappa", "1e308", "--trace", str(trace)], out=out, err=err) == 3
    assert err.getvalue().startswith("error: ") and "finite" in err.getvalue()
    assert out.getvalue() == "" and not trace.exists()


# ---------------------------------------------------------------------------
# The writers' lines, byte for byte
# ---------------------------------------------------------------------------

def _record(seq, t, thread, kind, rule, level, dur, energy, expr) -> str:
    record = dict(v=1, seq=seq, t=t, thread=thread, kind=kind, rule=rule, freq_idx=level.index, freq=level.value,
                  dur=dur, energy=energy, expr=expr)
    return json.dumps(record, sort_keys=True, allow_nan=False)


def _simulate_lines(report) -> list[str]:
    """A simulate trace, record by record from the report's segments, in (start, thread, offset) order."""
    rows = sorted((((seg.start, fid, offset), seg) for fid, timeline in report.timelines.items()
                   for offset, seg in enumerate(timeline.segments)), key=lambda row: row[0])
    lines = []
    for seq, ((start, fid, _), seg) in enumerate(rows):
        if seg.kind == SEG_COMPUTE:
            expr = trace_snippet(*seg.hole)
        else:
            expr = f"fv{seg.target}" if seg.kind == SEG_WAIT else ""
        lines.append(_record(seq, start, fid, seg.kind, seg.rule, seg.level, seg.end - start, seg.energy, expr))
    return lines


def _semantics_lines(result) -> list[str]:
    """A semantics trace, record by record from the run's events: step ``seq`` at time ``seq``, taking no time."""
    lines = []
    for seq, event in enumerate(result.events):
        if event.rule == RULE_CREATE:
            text = f"spawn fv{event.child}"
        elif event.rule == RULE_CLAIM:
            text = f"claim fv{event.claimed} = {_snippet(unparse(event.value))}"
        else:
            text = f"{event.left} + {event.right} = {event.total}"
        lines.append(_record(seq, seq, event.thread, SEG_COMPUTE, event.rule, event.level, 0.0, 0.0, _snippet(text)))
    return lines


WRITER_MODELS = [CostModel(wait_policy=wait, tau=tau, transition_energy=charged)
                 for wait in (WAIT_SPIN, WAIT_BLOCK) for tau in TAUS for charged in (False, True)]


@settings(max_examples=20, deadline=None, database=None)
@given(programs)
@example(parse("(1 + 2 + future 3) + 4"))
@example(parse("(future (1 + future 2)) + (3 + future (4 + 5))"))  # waits, under both policies
def test_simulate_trace_lines_are_json_dumps_of_their_segments(expr):
    for name in STRATEGIES:
        for model in WRITER_MODELS:
            report = simulate(expr, LADDER, 2, make_strategy(name, LADDER), model)
            assert _lines(_write_simulate_trace, report) == _simulate_lines(report), (name, model)


@settings(max_examples=20, deadline=None, database=None)
@given(programs, st.integers(min_value=0, max_value=2**32))
@example(parse("(future (1 + future 2)) + (3 + future (4 + 5))"), 0)
def test_semantics_trace_lines_are_json_dumps_of_their_events(expr, seed):
    for policy in POLICIES:
        result = run(expr, LADDER, 2, make_strategy("both", LADDER), POLICIES[policy](seed))
        assert _lines(_write_semantics_trace, result) == _semantics_lines(result), policy


def _hand_built(*segments) -> SimulationReport:
    """A report whose one thread has ``segments``; the writer reads nothing else of it."""
    return SimulationReport(0, 0.0, 0.0, {0: 0.0}, 0.0, 0.0, (), 0, 0, {0: ThreadTimeline(segments)})


def test_records_that_differ_only_in_the_sign_of_a_zero_keep_their_signs():
    # ``--block-penalty 0.1,-0.0`` and ``--spin-power idle:-0.0`` give waits
    # that spend -0.0, beside records that spend 0.0; 0.0 == -0.0 as floats.
    level = LADDER.level(2)
    report = _hand_built(
        Segment(0.0, 0.0, SEG_TRANSITION, level, 0.0),
        Segment(0.0, -0.0, SEG_TRANSITION, level, 0.0),  # the same but a duration of -0.0
        Segment(0.0, 1.0, SEG_WAIT, level, 0.0, target=1),
        Segment(1.0, 2.0, SEG_WAIT, level, -0.0, target=1),  # the same wait but the energy's sign
    )
    lines = _lines(_write_simulate_trace, report)
    assert lines == _simulate_lines(report)
    assert ['"dur": 0.0,' in lines[0], '"dur": -0.0,' in lines[1]] == [True, True]
    assert ['"energy": 0.0,' in lines[2], '"energy": -0.0,' in lines[3]] == [True, True]


@pytest.mark.parametrize("late", [math.inf, math.nan], ids=["inf", "nan"])
def test_a_late_record_at_a_non_finite_time_is_an_output_error_and_writes_no_file(late, tmp_path):
    level = LADDER.level(2)
    report = _hand_built(*(Segment(float(k), k + 1.0, SEG_WAIT, level, 1.0, target=1) for k in range(5)),
                         Segment(late, late, SEG_WAIT, level, 1.0, target=1))
    trace = tmp_path / "t.jsonl"
    with pytest.raises(OutputError, match="a result is not a finite number"):
        _write_simulate_trace(str(trace), report)
    assert not trace.exists()


# ---------------------------------------------------------------------------
# The time-scale relation, on traces
# ---------------------------------------------------------------------------

def _slowed(model: CostModel) -> CostModel:
    """``model`` with every cycle count, tau and the block penalty's time and energy doubled."""
    return dataclasses.replace(model, **{name: 2 * getattr(model, name) for name in (
        "create_cycles", "add_cycles", "claim_cycles", "tau", "block_time", "block_energy")})


# Doubling is exact in binary floating point away from overflow and
# subnormals, so these small cycle counts, powers and penalties, over the
# short runs of small programs on a ladder of 1-4, keep every relation bit
# for bit.
scaled_models = st.builds(
    CostModel,
    create_cycles=st.sampled_from((0.5, 1.0, 3.0)),
    add_cycles=st.sampled_from((0.25, 1.0, 1.5)),
    claim_cycles=st.sampled_from((0.5, 1.0, 2.0)),
    kappa=st.sampled_from((1.0, 1.7)),
    alpha=st.sampled_from((2.0, 3.0)),
    tau=st.sampled_from(TAUS),
    wait_policy=st.sampled_from((WAIT_SPIN, WAIT_BLOCK)),
    idle_power=st.sampled_from((None, 0.5)),
    block_time=st.sampled_from((0.1, 0.3)),
    block_energy=st.sampled_from((1.0, 2.5)),
    transition_energy=st.booleans(),
)


@settings(max_examples=60, deadline=None, database=None)
@given(programs, st.sampled_from(STRATEGIES), scaled_models)
@example(parse("(future (1 + future 2)) + (3 + future (4 + 5))"), "both",
         CostModel(tau=0.05, transition_energy=True, wait_policy=WAIT_BLOCK))
def test_doubling_cycles_tau_and_the_block_penalty_doubles_each_trace_time_and_energy(expr, name, model):
    base = _written(simulate(expr, LADDER, 2, make_strategy(name, LADDER), model))
    slowed = _written(simulate(expr, LADDER, 2, make_strategy(name, LADDER), _slowed(model)))
    assert len(slowed) == len(base)
    for record, twice in zip(base, slowed):
        for key in ("t", "dur", "energy"):
            assert repr(twice.pop(key)) == repr(2 * record.pop(key)), key  # bit for bit, signed zeros too
        assert twice == record  # seq, thread, kind, rule, freq_idx, freq and expr
