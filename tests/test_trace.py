"""The JSONL trace writer: each compute record's ``expr`` against the
per-record render it replaced, the renders it makes, and each line against
``json.dumps`` of its record."""

from __future__ import annotations

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
from futsim.cli import OutputError, _trace_record, _write_simulate_trace, main  # noqa: E402
from futsim.energy import SEG_COMPUTE, SEG_TRANSITION, SEG_WAIT, CostModel, simulate  # noqa: E402
from futsim.engine import RULE_ADD, RULE_CLAIM, RULE_CREATE, gen_random_program  # noqa: E402
from futsim.parser import parse, unparse  # noqa: E402
from futsim.scaling import FrequencyLadder, FrequencyLevel, make_strategy  # noqa: E402
from oracles import trace_snippet  # noqa: E402

LADDER = FrequencyLadder((1.0, 2.0, 3.0, 4.0))
STRATEGIES = ("none", "parent-only", "child-only", "both")
TAUS = (0.0, 0.05)

int64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1).map(IntLit)
trees = st.recursive(int64, lambda sub: st.one_of(st.builds(Add, sub, sub), st.builds(FutureCreate, sub)),
                     max_leaves=40)
programs = st.one_of(st.integers(min_value=0, max_value=10**6).map(lambda s: gen_random_program(s, 7, 3)), trees)


def _written(report) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        _write_simulate_trace(str(path), report)
        return [json.loads(line) for line in path.read_text().splitlines()]


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

    def recording(expr, limit=None, context=()):
        calls.append(bool(context))
        return unparse(expr, limit, context)

    monkeypatch.setattr(cli, "unparse", recording)
    records = _written(report)
    monkeypatch.undo()
    assert not any(calls), "the writer rendered a hole through its context"
    assert _check_against_oracle(report) == sum(r["kind"] == SEG_COMPUTE for r in records) > 0
    if name == "chain-6400":
        assert records[-1]["expr"] == "6400"


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
