"""Property tests: round-tripping the parser, the loops of parse, unparse,
decompose and gen_random_program against the recursive walkers they replaced,
refocused sites against decompose, a simulator and a run that never plug
against the public step, the rule work of run against simulate, the simulator's energy
identities, reprice against a fresh simulate under every strategy and the
compositional oracle on steps that take no time, a pinned hash of the
scaling calls a stateful strategy sees, the tape scheduler against run, trace
snippets against the whole rendered expression, explore's structural state
keys against the renaming key they replaced, and explore's Merkle keys
against the flat-key search they replaced, on samples, on programs whose
children create grandchildren and on every program of at most 8 nodes over
the literals 0 and 1; and every path's value against the
sequential oracle on every program of at most 6 nodes over the 64-bit extremes,
whose sums wrap."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import random
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import futsim.calculus as calculus  # noqa: E402
import futsim.energy as energy  # noqa: E402
import futsim.engine as engine  # noqa: E402
from futsim.calculus import (  # noqa: E402
    Add,
    ArithRedex,
    ClaimSite,
    Configuration,
    CreateRedex,
    FutureCreate,
    FutureRef,
    HoleLeft,
    HoleRight,
    IntLit,
    NoRedex,
    _refocus,
    decompose,
    eval_sequential,
    initial_configuration,
    node_count,
    plug,
    subterms,
    wrap_int,
)
from futsim.cli import _snippet, _write_simulate_trace, main  # noqa: E402
from futsim.energy import (  # noqa: E402
    CASE_I,
    CASE_II,
    SEG_COMPUTE,
    SEG_TRANSITION,
    WAIT_BLOCK,
    WAIT_SPIN,
    CostModel,
    CostReport,
    SimulationReport,
    _compile,
    _price,
    _schedule,
    _tape_nodes,
    reprice,
    simulate,
)
from futsim.engine import (  # noqa: E402
    RULE_CLAIM,
    RULE_CREATE,
    ClaimEvent,
    CreateEvent,
    DivergenceError,
    EngineError,
    ExplorationLimitError,
    NewestFirst,
    RoundRobin,
    SeededRandom,
    _explore,
    enabled_threads,
    explore_with_stats,
    run,
    step,
)
from futsim.parser import ParseError, parse, unparse  # noqa: E402
from futsim.scaling import DEFAULT_LADDER, FrequencyLadder, ScalingStrategy, make_strategy  # noqa: E402
import oracles  # noqa: E402
from oracles import (  # noqa: E402
    Token,
    _shape,
    _tokenize,
    canonical_key,
    closure_for,
    compositional_cost,
    future_ref_ids,
    gen_random_program,
    is_terminal,
    refill,
    unparse_in_context,
)

LADDER = FrequencyLadder((1.0, 2.0, 3.0, 4.0))
STRATEGIES = ("none", "parent-only", "child-only", "both")
SETTINGS = settings(max_examples=150, deadline=None, database=None)

int64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1).map(IntLit)


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda sub: st.one_of(st.builds(Add, sub, sub), st.builds(FutureCreate, sub)),
        max_leaves=30,
    )


programs = _trees(int64)
expressions = _trees(st.one_of(int64, st.integers(min_value=1, max_value=40).map(FutureRef)))

# Shapes whose evaluation reaches the claim phase in different ways.
PENDING_LEFT = parse("((future 1) + (future 2)) + (3 + 4)")  # (fv1 + fv2) + (3 + 4)
WIDE_SUM = parse(" + ".join(f"(future ({i} + {i}))" for i in range(1, 9)))
LEFT_DEEP = parse("1 + (future (2 + 3)) + 4 + 5 + 6")


@SETTINGS
@given(programs)
def test_parse_inverts_unparse(expr):
    assert parse(unparse(expr)) == expr


class _Parser:
    """The recursive-descent parser parse used before its single loop, kept as
    the oracle behind ``_recursive_parse``."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        where = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
        return ParseError(tok.line, tok.col, f"{message}, found {where}", expected)

    # expr ::= operand ('+' operand)*
    def expr(self):
        left = self.operand()
        while self.peek().kind == "plus":
            self.advance()
            left = Add(left, self.operand())
        return left

    # operand ::= 'future' expr | atom
    def operand(self):
        if self.peek().kind == "future":
            self.advance()
            return FutureCreate(self.expr())
        return self.atom()

    # atom ::= '(' expr ')' | ['+'|'-'] INT
    def atom(self):
        tok = self.peek()
        if tok.kind == "lparen":
            self.advance()
            inner = self.expr()
            if self.peek().kind != "rparen":
                raise self.error("unclosed parenthesis", ("')'",))
            self.advance()
            return inner
        sign, start = 1, tok
        if tok.kind in ("minus", "plus"):
            self.advance()
            sign = -1 if tok.kind == "minus" else 1
            tok = self.peek()
            if tok.kind != "int":
                raise self.error("sign must precede an integer literal", ("an integer",))
        if tok.kind == "int":
            self.advance()
            value = sign * int(tok.text) if len(tok.text.lstrip("0")) <= 19 else None
            if value is None or wrap_int(value) != value:
                raise ParseError(start.line, start.col, "integer literal outside 64 bits (-2**63 to 2**63-1)")
            return IntLit(value)
        raise self.error("expected an expression", ("an integer", "'('", "future"))


def _recursive_parse(source):
    parser = _Parser(_tokenize(source))
    expr = parser.expr()
    if parser.peek().kind != "eof":
        raise parser.error("trailing input after expression")
    return expr


def _parse_outcome(parser, source):
    """The tree, or the fields of the ParseError, that ``parser`` gives on ``source``."""
    try:
        return parser(source)
    except ParseError as error:
        return (error.line, error.col, error.message, error.expected)


# Pieces that the tokenizer takes, so that the strings reach the parser and
# fail at every kind of position; "1 +", "future (" and ")" are repeated to
# bias towards well-formed sums and nests. The rest fail in the lexer, so that
# a lexical error must win over a syntax error: a character outside the
# grammar, word characters that are not letters ("²", "٣") and a comment that
# may end the input with no newline, which puts the end of input at its '#'.
TOKEN_TEXTS = ("1", "42", "-7", "+", "-", "(", ")", ")", "future", "1 +", "1 +", "future (", "future (",
               "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809", "007",
               "# note\n", "# c", "%", "²", "٣", "x²")
token_strings = st.lists(
    st.tuples(st.sampled_from(TOKEN_TEXTS), st.sampled_from((" ", " ", " ", "\n", "", "\t", "\r\n"))), max_size=30
).map(lambda pairs: "".join(text + gap for text, gap in pairs))


@settings(max_examples=500, deadline=None, database=None)
@given(st.one_of(token_strings, st.builds(lambda e, tail: f"{unparse(e)} {tail}", programs, token_strings)))
@example("future 1 + (2 + future 3) + 4")
@example("(future 1 2")
@example("- (1)")
@example("1 + )")
@example("1 2 %")
@example("1 + # c")
@example("x²")
@example("1 +\r\n %")
@example("1 +\n)\n%")
@example("1 +\r\n\r\n %")
@example("-0 + 0 + +0 + 007 + 7")
@example("9223372036854775807 + 9223372036854775808")
@example("- future")
def test_parse_agrees_with_the_recursive_parser(source):
    assert _parse_outcome(parse, source) == _parse_outcome(_recursive_parse, source)


def _atomic(expr):
    return isinstance(expr, (IntLit, FutureRef))


def _recursive_unparse(expr, followed=False):
    """The recursive renderer unparse used before its single loop, kept as the
    oracle; ``followed`` means more tokens come after this subterm, so any
    future on its right spine must be fenced off with parentheses."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, FutureRef):
        return f"fv{expr.fid}"
    if isinstance(expr, FutureCreate):
        if followed:
            return f"(future {_recursive_unparse(expr.body, False)})"
        if _atomic(expr.body):
            return f"future {_recursive_unparse(expr.body, False)}"
        return f"future ({_recursive_unparse(expr.body, False)})"
    left = _recursive_unparse(expr.left, True)
    if isinstance(expr.right, Add):
        right = f"({_recursive_unparse(expr.right, False)})"
    else:
        right = _recursive_unparse(expr.right, followed)
    return f"{left} + {right}"


def _splits(expr):
    """Every (context, subterm) pair with ``plug(context, subterm) == expr``."""
    stack = [((), expr)]
    while stack:
        context, sub = stack.pop()
        yield context, sub
        if isinstance(sub, Add):
            stack.append((context + (HoleRight(sub.left),), sub.right))
            stack.append((context + (HoleLeft(sub.right),), sub.left))


@SETTINGS
@given(expressions)
@example(PENDING_LEFT)
@example(WIDE_SUM)
@example(LEFT_DEEP)
@example(Add(Add(IntLit(1), FutureCreate(IntLit(2))), Add(FutureCreate(Add(IntLit(3), IntLit(4))), FutureRef(5))))
def test_unparse_agrees_with_the_recursive_renderer_at_every_split(expr):
    text = _recursive_unparse(expr)
    renders = [functools.partial(unparse, expr)]
    for context, sub in _splits(expr):
        assert plug(context, sub) == expr
        renders.append(functools.partial(unparse_in_context, sub, context=context))
    for render in renders:
        assert render() == text
        for limit in (0, 10, 80):
            bounded = render(limit)
            assert text.startswith(bounded)
            assert bounded == text or len(bounded) > limit


def _compute_snippets(expr):
    """Each thread's compute-record snippets from a written trace, and the same
    cut from each compute segment's whole expression rendered by the oracle."""
    report = simulate(expr, LADDER, 2, make_strategy("both", LADDER))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        _write_simulate_trace(str(path), report)
        records = [json.loads(line) for line in path.read_text().splitlines() if line]
    written = {fid: [r["expr"] for r in records if r["thread"] == fid and r["kind"] == "compute"]
               for fid in report.timelines}
    expected = {fid: [_snippet(_recursive_unparse(seg.expr)) for seg in tl.segments if seg.kind == SEG_COMPUTE]
                for fid, tl in report.timelines.items()}
    return written, expected


@pytest.mark.parametrize("seed", range(30))
def test_trace_snippets_cut_the_whole_expression(seed):
    written, expected = _compute_snippets(gen_random_program(seed, 6, 3))
    assert written == expected


def test_trace_snippets_of_a_program_longer_than_the_snippet():
    text = "1 + (future (2 + 3 + 4)) + " + " + ".join(f"({k} + future {k})" for k in range(10, 40))
    written, expected = _compute_snippets(parse(text))
    assert written == expected
    assert any(len(s) == 80 and s.endswith("...") for snippets in written.values() for s in snippets)


@SETTINGS
@given(expressions)
@example(Add(Add(FutureRef(1), FutureRef(2)), Add(IntLit(3), IntLit(4))))
@example(Add(Add(Add(IntLit(1), FutureRef(1)), IntLit(2)), IntLit(3)))
@example(PENDING_LEFT)
@example(WIDE_SUM)
def test_refill_follows_decompose_through_an_evaluation(expr):
    site = decompose(expr)
    fresh = 100
    while not isinstance(site, NoRedex):
        if isinstance(site, CreateRedex):
            filler, fresh = FutureRef(fresh), fresh + 1
        elif isinstance(site, ArithRedex):
            filler = IntLit(wrap_int(site.left + site.right))
        else:
            filler = IntLit(site.target)
        plugged = plug(site.context, filler)
        expr, site = refill(site, filler)
        assert expr == plugged
        assert site == decompose(expr)
    assert isinstance(expr, IntLit)


def _leftmost_redex(expr, frames):
    if isinstance(expr, FutureCreate):
        return CreateRedex(tuple(frames), expr.body)
    if isinstance(expr, Add):
        frames.append(HoleLeft(expr.right))
        found = _leftmost_redex(expr.left, frames)
        if found is not None:
            return found
        frames.pop()
        if isinstance(expr.left, IntLit) and isinstance(expr.right, IntLit):
            return ArithRedex(tuple(frames), expr.left.value, expr.right.value)
        frames.append(HoleRight(expr.left))
        found = _leftmost_redex(expr.right, frames)
        if found is not None:
            return found
        frames.pop()
    return None


def _leftmost_claim(expr, frames):
    if isinstance(expr, FutureRef):
        return ClaimSite(tuple(frames), expr.fid)
    if isinstance(expr, Add):
        frames.append(HoleLeft(expr.right))
        found = _leftmost_claim(expr.left, frames)
        if found is not None:
            return found
        frames.pop()
        frames.append(HoleRight(expr.left))
        found = _leftmost_claim(expr.right, frames)
        if found is not None:
            return found
        frames.pop()
    return None


def _recursive_decompose(expr):
    """The recursive search decompose used before its single loop, kept as the oracle."""
    found = _leftmost_redex(expr, [])
    if found is not None:
        return found
    claim = _leftmost_claim(expr, [])
    if claim is not None:
        return claim
    return NoRedex(expr)


@SETTINGS
@given(expressions)
@example(PENDING_LEFT)
@example(WIDE_SUM)
@example(LEFT_DEEP)
def test_decompose_agrees_with_the_recursive_search(expr):
    site = decompose(expr)
    assert site == _recursive_decompose(expr)
    assert not (isinstance(site, ArithRedex) and site._claim_phase)


@SETTINGS
@given(expressions)
@example(PENDING_LEFT)
@example(FutureRef(1))
def test_only_an_integer_has_no_action(expr):
    site = decompose(expr)
    assert isinstance(site, NoRedex) == isinstance(expr, IntLit)
    if isinstance(site, NoRedex):
        assert site.value == expr


def _checking_refocus(reached):
    def checked(site, filler):
        next_site = _refocus(site, filler)
        assert next_site == decompose(plug(site.context, filler))
        reached.append(next_site)
        return next_site

    return checked


@SETTINGS
@given(programs)
@example(PENDING_LEFT)
@example(WIDE_SUM)
@example(LEFT_DEEP)
def test_every_site_the_simulator_reaches_is_decompose(expr):
    reached = []
    computes = 0
    with mock.patch.object(engine, "_refocus", _checking_refocus(reached)):
        for name in STRATEGIES:
            for wait in (WAIT_SPIN, WAIT_BLOCK):
                report = simulate(expr, LADDER, 2, make_strategy(name, LADDER), CostModel(wait_policy=wait))
                assert report.final_value == eval_sequential(expr)
                computes += sum(seg.kind == SEG_COMPUTE for tl in report.timelines.values() for seg in tl.segments)
    assert len(reached) == computes


@SETTINGS
@given(programs)
@example(PENDING_LEFT)
@example(WIDE_SUM)
@example(LEFT_DEEP)
def test_every_site_run_reaches_is_decompose(expr):
    reached = []
    with mock.patch.object(engine, "_refocus", _checking_refocus(reached)):
        results = [run(expr, LADDER, 2, make_strategy("both", LADDER), policy)
                   for policy in (NewestFirst(), RoundRobin(), SeededRandom(7))]
        steps = len(reached)
        with contextlib.suppress(ExplorationLimitError):  # wide programs have too many states; check the first ones
            explore_with_stats(expr, LADDER, 2, make_strategy("both", LADDER), state_limit=2_000)
    assert {r.final_value for r in results} == {eval_sequential(expr)}
    assert steps == sum(r.step_count for r in results)
    assert len(reached) > steps or not steps


def _replay_through_step(expr, strategy, report):
    """Replay the report's compute steps through the public ``step``, in the
    simulator's order, checking each segment's expression against the one
    ``step`` reaches.

    Creates fire in (start, thread) order, as the event heap pops them, so
    fresh ids match. A thread's steps start in order, a child's first step
    after its create, and a claim after its producer's last step.
    """
    config = initial_configuration(expr, LADDER.level(2))
    order = sorted(((seg.start, fid, seg) for fid, tl in report.timelines.items()
                    for seg in tl.segments if seg.kind == SEG_COMPUTE), key=lambda t: t[:2])
    for _, fid, seg in order:
        config, _ = step(config, fid, strategy)
        assert seg.expr == closure_for(config, fid).expr
    assert config.closures[0].expr == IntLit(report.final_value)


@SETTINGS
@given(programs)
@example(PENDING_LEFT)
@example(WIDE_SUM)
@example(LEFT_DEEP)
def test_simulate_builds_no_expression(expr):
    for name in STRATEGIES:
        strategy = make_strategy(name, LADDER)
        for wait in (WAIT_SPIN, WAIT_BLOCK):
            for tau in (0.0, 0.05):
                with mock.patch.object(engine, "plug", wraps=plug) as in_engine, \
                        mock.patch.object(calculus, "plug", wraps=plug) as in_calculus, \
                        mock.patch.object(energy, "plug", wraps=plug) as in_energy:
                    report = simulate(expr, LADDER, 2, strategy, CostModel(wait_policy=wait, tau=tau))
                assert in_engine.call_count == in_calculus.call_count == in_energy.call_count == 0
                _replay_through_step(expr, strategy, report)


def _stepped_run(expr, strategy, policy):
    """The events and final root level of a run driven only by the public ``enabled_threads`` and ``step``."""
    config = initial_configuration(expr, LADDER.level(2))
    pick = policy.session()
    events = []
    while enabled := enabled_threads(config):
        config, event = step(config, pick(enabled), strategy)
        events.append(event)
    return events, config.closures[0].freq


@SETTINGS
@given(programs)
@example(PENDING_LEFT)
@example(WIDE_SUM)
@example(LEFT_DEEP)
def test_run_builds_no_expression(expr):
    for name in STRATEGIES:
        strategy = make_strategy(name, LADDER)
        for policy in (NewestFirst(), RoundRobin(), SeededRandom(7)):
            with mock.patch.object(engine, "plug", wraps=plug) as in_engine, \
                    mock.patch.object(calculus, "plug", wraps=plug) as in_calculus, \
                    mock.patch.object(energy, "plug", wraps=plug) as in_energy:
                result = run(expr, LADDER, 2, strategy, policy)
            assert in_engine.call_count == in_calculus.call_count == in_energy.call_count == 0
            events, level = _stepped_run(expr, strategy, policy)
            assert list(result.events) == events
            assert result.final_level == level
            assert result.step_count == len(events)


def _level_changes(events):
    """The level changes a run's events record: child and parent for a Create, the claimant for a Claim."""
    changes = 0
    for event in events:
        if isinstance(event, CreateEvent):
            changes += (event.child_level.index != event.level.index) + (event.parent_level.index != event.level.index)
        elif isinstance(event, ClaimEvent):
            changes += event.claimant_level.index != event.level.index
    return changes


@SETTINGS
@given(programs, st.sampled_from(STRATEGIES), st.integers(min_value=1, max_value=len(LADDER)),
       st.sampled_from((WAIT_SPIN, WAIT_BLOCK)), st.integers(min_value=0, max_value=1000))
@example(PENDING_LEFT, "both", 4, WAIT_SPIN, 0)
@example(WIDE_SUM, "child-only", 1, WAIT_BLOCK, 3)
@example(LEFT_DEEP, "parent-only", 1, WAIT_SPIN, 5)
def test_simulate_and_every_policy_do_the_same_rule_work(expr, name, init, wait, seed):
    strategy = make_strategy(name, LADDER)
    report = simulate(expr, LADDER, init, strategy, CostModel(wait_policy=wait, tau=0.05))
    computes = sum(seg.kind == SEG_COMPUTE for tl in report.timelines.values() for seg in tl.segments)
    assert report.final_value == eval_sequential(expr)
    for policy in (NewestFirst(), RoundRobin(), SeededRandom(seed)):
        result = run(expr, LADDER, init, strategy, policy)
        assert result.final_value == report.final_value
        assert result.clamp_count == report.clamp_count
        assert _level_changes(result.events) == report.transition_count
        assert result.step_count == computes


@SETTINGS
@given(programs, st.sampled_from(STRATEGIES), st.integers(min_value=1, max_value=len(LADDER)),
       st.sampled_from((WAIT_SPIN, WAIT_BLOCK)), st.booleans())
@example(PENDING_LEFT, "both", 2, WAIT_SPIN, True)
@example(WIDE_SUM, "both", 2, WAIT_BLOCK, False)
@example(LEFT_DEEP, "child-only", 3, WAIT_SPIN, True)
def test_energy_identities(expr, name, init, wait, transition_energy):
    model = CostModel(wait_policy=wait, tau=0.05, transition_energy=transition_energy)
    report = simulate(expr, LADDER, init, make_strategy(name, LADDER), model)
    energy, makespan = report.total_energy, report.makespan

    assert energy == functools.reduce(operator.add, report.per_thread_energy.values(), 0)
    assert report.per_thread_energy.keys() == report.timelines.keys()
    for fid, timeline in report.timelines.items():
        added = functools.reduce(operator.add, (seg.energy for seg in timeline.segments), 0)
        assert report.per_thread_energy[fid] == added
        for seg in timeline.segments:
            assert 0 <= seg.start <= seg.end <= makespan
    assert report.edp == energy * makespan
    assert math.isclose(report.ed2p, energy * makespan**2)

    for record in report.claim_records:
        assert record.wait == max(0.0, record.t_realize - record.t_arrive)
        assert record.case_tag == (CASE_I if record.wait > 0 else CASE_II)
    non_root = sorted(fid for fid in report.timelines if fid != 0)
    assert sorted(record.target for record in report.claim_records) == non_root


@SETTINGS
@given(st.integers(min_value=0, max_value=10**6))
@example(3)
def test_claim_records_come_in_firing_order(seed):
    """A claim fires at its arrival or at its producer's realize, whichever is later,
    and is recorded then; ``block_time=0`` ties a blocked claim's start to the realize."""
    expr = gen_random_program(seed, 6, 3)
    for name in STRATEGIES:
        strategy = make_strategy(name, LADDER)
        for wait in (WAIT_SPIN, WAIT_BLOCK):
            for tau in (0.0, 0.05):
                model = CostModel(wait_policy=wait, tau=tau, block_time=0.0)
                report = simulate(expr, LADDER, 2, strategy, model)
                fired = [max(record.t_arrive, record.t_realize) for record in report.claim_records]
                assert fired == sorted(fired)
                for fid, timeline in report.timelines.items():
                    claims = [seg for seg in timeline.segments if seg.rule == RULE_CLAIM]
                    records = [record for record in report.claim_records if record.claimant == fid]
                    assert len(claims) == len(records)
                    for seg, record in zip(claims, records):
                        if record.wait > 0:
                            assert seg.start == record.t_realize + (model.block_time if wait == WAIT_BLOCK else 0.0)
                        else:
                            assert seg.start == record.t_arrive


def _renamed(expr, rename):
    if isinstance(expr, FutureRef):
        return FutureRef(rename[expr.fid])
    if isinstance(expr, Add):
        return Add(_renamed(expr.left, rename), _renamed(expr.right, rename))
    if isinstance(expr, FutureCreate):
        return FutureCreate(_renamed(expr.body, rename))
    return expr


def _renaming_key(config: Configuration) -> tuple:
    """The key explore used before structural keys, kept as the oracle: ids are
    renumbered in discovery order, breadth first from the root, and every
    thread's expression is rebuilt over the new ids."""
    producers = {c.realizes: c for c in config.closures}
    rename = {config.root: 0}
    order = [config.root]
    cursor = 0
    while cursor < len(order):
        closure = producers[order[cursor]]
        cursor += 1
        for fid in future_ref_ids(closure.expr):
            if fid not in rename:
                rename[fid] = len(rename)
                order.append(fid)
    if len(order) != len(config.closures):
        raise EngineError("configuration has closures unreachable from the root")
    return tuple((rename[fid], producers[fid].freq.index, _renamed(producers[fid].expr, rename)) for fid in order)


def _random_schedule(expr, name, seed):
    """Every configuration a seeded random schedule passes through, start to end."""
    strategy = make_strategy(name, LADDER)
    config = initial_configuration(expr, LADDER.level(2))
    rng = random.Random(seed)
    reached = [config]
    while enabled := enabled_threads(config):
        config, _ = step(config, rng.choice(sorted(enabled)), strategy)
        reached.append(config)
    return reached


@SETTINGS
@given(st.integers(min_value=0, max_value=10**6),
       st.lists(st.tuples(st.sampled_from(STRATEGIES), st.integers(min_value=0, max_value=10**6)),
                min_size=2, max_size=4))
def test_structural_keys_are_equal_exactly_when_renaming_keys_are(program, schedules):
    expr = gen_random_program(program, 6, 3)
    shapes = {}  # one memo across every configuration, as explore keeps it
    by_oracle, by_key = {}, {}
    for name, seed in schedules:
        for config in _random_schedule(expr, name, seed):
            oracle, key = _renaming_key(config), canonical_key(config, shapes)
            assert key == canonical_key(config)
            assert by_oracle.setdefault(oracle, key) == key
            assert by_key.setdefault(key, oracle) == oracle


def _assert_thread_keys_exact(configs, sites):
    """Explore's thread key, (level index, site number), is equal for two records exactly when
    their levels and shapes are; at a Create, its cell counts the references left of the hole."""
    by_shape, by_key = {}, {}
    for config in configs:
        for closure in config.closures:
            site = closure.site
            key = (closure.freq.index, sites.site(site))
            shape = (closure.freq.index, _shape(closure.expr)[0])
            assert by_shape.setdefault(shape, key) == key
            assert by_key.setdefault(key, shape) == shape
            if site.__class__ is CreateRedex:
                refs = _shape(plug(site.context, FutureRef(-1)))[1]
                assert sites.refs[sites.cell(site.context)] == refs.index(-1)


@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=10**6))
def test_explore_thread_keys_are_equal_exactly_when_shapes_are(programs, seed):
    sites = engine._SiteIds()  # one table across programs, so sites of different programs meet
    _assert_thread_keys_exact((config for program in programs for name in STRATEGIES
                               for config in _random_schedule(gen_random_program(program, 6, 3), name, seed)), sites)


def test_explore_thread_keys_on_deep_programs_and_a_claim_phase_add():
    texts = (" + ".join(["1"] * 40), "future (1 + " * 15 + "1" + ")" * 15, "future " * 20 + "1",
             "(future 1) + 2", "1 + 2")
    sites = engine._SiteIds()
    configs = [config for text in texts for name in STRATEGIES for config in _random_schedule(parse(text), name, 0)]
    _assert_thread_keys_exact(configs, sites)
    # After its claim, ``(future 1) + 2`` is ``1 + 2`` with its Add found in the claim phase: one site, one number.
    plain = decompose(parse("1 + 2"))
    phased = [closure.site for config in configs for closure in config.closures
              if getattr(closure.site, "_claim_phase", False)]
    assert plain in phased
    assert {sites.site(site) for site in phased if site == plain} == {sites.site(plain)}


def _flat_key_explore(config, strategy, state_limit):
    """The search explore used before Merkle keys, kept as the oracle: every
    successor is built through the public ``step`` and named by the flat ``canonical_key``."""
    if state_limit < 1:
        raise ExplorationLimitError(f"more than {state_limit} states")
    shapes = {}
    seen = {canonical_key(config, shapes)}
    frontier = [config]
    outcomes = set()
    while frontier:
        next_frontier = []
        for cfg in frontier:
            enabled = enabled_threads(cfg)
            if not enabled:
                assert is_terminal(cfg)
                root = cfg.closures[0]
                outcomes.add((root.expr.value, root.freq))
                continue
            for thread in sorted(enabled):
                stepped, _ = step(cfg, thread, strategy)
                key = canonical_key(stepped, shapes)
                if key in seen:
                    continue
                if len(seen) >= state_limit:
                    raise ExplorationLimitError(f"more than {state_limit} states")
                seen.add(key)
                next_frontier.append(stepped)
        frontier = next_frontier
    return outcomes, len(seen)


def _explore_and_oracle(expr, name, ladder, init, state_limit=10**6):
    """``_explore`` from the program's start, and what the flat-key oracle finds."""
    strategy = make_strategy(name, ladder)
    config = initial_configuration(expr, ladder.level(init))
    return _explore(config, strategy, state_limit), _flat_key_explore(config, strategy, 10**6)


@SETTINGS
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(STRATEGIES))
@example(3, "both")
def test_merkle_explore_agrees_with_the_flat_key_explore(seed, name):
    expr = gen_random_program(seed, 6, 3)
    found, (outcomes, count) = _explore_and_oracle(expr, name, LADDER, 2)
    assert found == (outcomes, count)
    assert _explore_and_oracle(expr, name, LADDER, 2, count)[0] == found
    with pytest.raises(ExplorationLimitError):
        _explore_and_oracle(expr, name, LADDER, 2, count - 1)
    with mock.patch.object(engine, "_INTERN_SLACK", 0):  # drop unheld key entries after every level
        assert _explore_and_oracle(expr, name, LADDER, 2)[0] == found


def _future_nesting(expr):
    """How deep futures nest in ``expr``: 2 or more where a child creates a grandchild."""
    deepest, todo = 0, [(expr, 0)]
    while todo:
        e, depth = todo.pop()
        if e.__class__ is FutureCreate:
            depth += 1
            todo.append((e.body, depth))
        elif e.__class__ is Add:
            todo += [(e.left, depth), (e.right, depth)]
        deepest = max(deepest, depth)
    return deepest


_PAR_3 = " + ".join(f"(future ({i}+{i}+{i}))" for i in range(3))


# Programs whose children create grandchildren, where explore's child ids,
# one per Create record in the order the search first fires them, differ
# from the order of creation along a path. Counts and outcomes (value, level
# index) under ``both`` are the ones a search that named each child by its
# path's next fresh id found.
@pytest.mark.parametrize(
    "expr, states, value, level",
    [
        pytest.param(parse("1 + future (" * 10 + _PAR_3 + ")" * 10), 87, 19, 2, id="nest-10-of-par-3"),
        *(pytest.param(parse(" + ".join("(" + "future (1 + " * depth + str(i) + ")" * depth + ")" for i in range(3))),
                       states, value, 4, id=f"par-3-of-nest-{depth}")
          for depth, states, value in ((3, 667, 12), (4, 1609, 15))),
        *(pytest.param(gen_random_program(seed, 6, 3), states, value, level, id=f"draw-{seed}")
          for seed, states, value, level in ((0, 61, -7, 3), (3, 276, -8, 4), (4, 36, -33, 3), (5, 15, 10, 2),
                                             (9, 50, 3, 3), (11, 200, -7, 4), (12, 54, 1, 4), (13, 377, -7, 4))),
    ],
)
def test_explore_of_programs_whose_children_create_grandchildren_is_the_flat_key_explores(expr, states, value, level):
    assert _future_nesting(expr) >= 2
    found, flat = _explore_and_oracle(expr, "both", LADDER, 2)
    assert found == flat == ({(value, LADDER.level(level))}, states)
    with mock.patch.object(engine, "_INTERN_SLACK", 0):  # drop unheld key entries after every level
        assert _explore(initial_configuration(expr, LADDER.level(2)), make_strategy("both", LADDER), states) == found


def _programs_by_size(largest, literals):
    """Every program of each size up to ``largest`` nodes over ``literals``: {size: [programs]}."""
    by_size = {1: [IntLit(v) for v in literals]}
    for size in range(2, largest + 1):
        programs = [FutureCreate(body) for body in by_size[size - 1]]
        for left in range(1, size - 1):
            programs += [Add(a, b) for a in by_size[left] for b in by_size[size - 1 - left]]
        by_size[size] = programs
    return by_size


SMALL_SCOPE = [e for programs in _programs_by_size(8, (0, 1)).values() for e in programs]
# Eight nodes nest at most seven futures, so from level 8 of 16 no operator clamps.
CLAMP_FREE = FrequencyLadder(tuple(float(f) for f in range(1, 17)))


def test_small_scope_holds_every_program_up_to_8_nodes_over_0_and_1():
    assert len(SMALL_SCOPE) == 1776
    assert len(set(map(unparse, SMALL_SCOPE))) == 1776


# Every program of at most 6 nodes over the 64-bit extremes: most of their literal sums leave the int64 range.
WRAP_SCOPE = [e for programs in _programs_by_size(6, (-(1 << 63), (1 << 63) - 1)).values() for e in programs]


def test_wrap_scope_holds_every_program_up_to_6_nodes_over_the_64_bit_extremes_and_100_sums_wrap():
    assert len(WRAP_SCOPE) == 188
    assert len(set(map(unparse, WRAP_SCOPE))) == 188
    sums = [sum(e.value for e in subterms(expr) if isinstance(e, IntLit)) for expr in WRAP_SCOPE]
    assert sum(wrap_int(total) != total for total in sums) == 100


@pytest.mark.parametrize("name", STRATEGIES)
def test_every_path_gives_the_wrapped_sequential_value_on_every_program_over_the_64_bit_extremes(name):
    """``run`` under three policies, ``explore``, ``simulate``, ``reprice`` and ``_compile``, from level 8 of 16."""
    strategy = make_strategy(name, CLAMP_FREE)
    for expr in WRAP_SCOPE:
        expected, text = eval_sequential(expr), unparse(expr)
        for policy in (NewestFirst(), RoundRobin(), SeededRandom(7)):
            assert run(expr, CLAMP_FREE, 8, strategy, policy).final_value == expected, (text, policy.name)
        assert explore_with_stats(expr, CLAMP_FREE, 8, strategy)[0] == {(expected, CLAMP_FREE.level(8))}, text
        assert simulate(expr, CLAMP_FREE, 8, strategy).final_value == expected, text
        assert reprice(expr, CLAMP_FREE, 8, strategy).final_value == expected, text
        assert _compile(expr)[0] == expected, text


def test_parse_inverts_unparse_on_every_small_program():
    for expr in SMALL_SCOPE:
        assert parse(unparse(expr)) == expr, unparse(expr)


@pytest.mark.parametrize("name", STRATEGIES)
def test_step_every_small_program_gives_runs_events_and_every_closure_its_expressions_site(name):
    strategy = make_strategy(name, CLAMP_FREE)
    for expr in SMALL_SCOPE:
        config = initial_configuration(expr, CLAMP_FREE.level(8))
        pick = NewestFirst().session()
        events = []
        while True:
            assert all(decompose(c.expr) == c.site for c in config.closures), unparse(expr)
            enabled = enabled_threads(config)
            if not enabled:
                break
            config, event = step(config, pick(enabled), strategy)
            events.append(event)
        assert is_terminal(config), unparse(expr)
        assert tuple(events) == run(expr, CLAMP_FREE, 8, strategy, NewestFirst()).events, unparse(expr)


@pytest.mark.parametrize("name", STRATEGIES)
def test_explore_every_small_program_has_one_outcome_its_sequential_value_at_the_start_level(name):
    for expr in SMALL_SCOPE:
        found, expected = _explore_and_oracle(expr, name, CLAMP_FREE, 8)
        assert found[0] == {(eval_sequential(expr), CLAMP_FREE.level(8))}, unparse(expr)
        assert found == expected, unparse(expr)


@pytest.mark.parametrize("name", STRATEGIES)
def test_run_every_small_program_under_every_policy_reaches_its_sequential_value_at_the_start_level(name):
    strategy = make_strategy(name, CLAMP_FREE)
    for expr in SMALL_SCOPE:
        expected = (eval_sequential(expr), CLAMP_FREE.level(8))
        for policy in (NewestFirst(), RoundRobin(), SeededRandom(7)):
            result = run(expr, CLAMP_FREE, 8, strategy, policy)
            assert (result.final_value, result.final_level) == expected, (unparse(expr), policy.name)
            _assert_each_thread_returns_to_its_start(result.events, expected[1], unparse(expr), policy.name)


def _assert_each_thread_returns_to_its_start(events, root_level, *context):
    """Return to original, per thread: its first event runs at the level it was created at, and its last leaves it there."""
    start = {0: root_level}  # thread -> the level it was created at
    first, last = {}, {}  # thread -> the level its first event ran at, and the level its last event left it at
    for event in events:
        first.setdefault(event.thread, event.level)
        if isinstance(event, CreateEvent):
            start[event.child] = event.child_level
            last[event.thread] = event.parent_level
        elif isinstance(event, ClaimEvent):
            last[event.thread] = event.claimant_level
        else:
            last[event.thread] = event.level
    for thread, level in first.items():
        assert level == start[thread] == last[thread], (thread, *context)


SMALL_SCOPE_MODELS = [CostModel(wait_policy=wait, tau=tau) for wait in (WAIT_SPIN, WAIT_BLOCK) for tau in (0.0, 0.05)]


@pytest.mark.parametrize("name", STRATEGIES)
def test_simulate_every_small_program_reaches_its_sequential_value_and_adds_its_energy_left_to_right(name):
    strategy = make_strategy(name, CLAMP_FREE)
    for expr in SMALL_SCOPE:
        expected = eval_sequential(expr)
        for model in SMALL_SCOPE_MODELS:
            report = simulate(expr, CLAMP_FREE, 8, strategy, model)
            assert report.final_value == expected, (unparse(expr), model)
            added = functools.reduce(operator.add, report.per_thread_energy.values(), 0)
            assert repr(report.total_energy) == repr(added), (unparse(expr), model)  # bit for bit


def _assert_energy_identities(report):
    """What a report's timelines and claim records say together: each thread's segments run without a gap from
    its birth (the end of its creator's Create and the switches after it), lie within [0, makespan] and add up,
    left to right, to its energy; each claim's producer realized at the end of its last segment; a claim waits
    exactly until then, and is Case I exactly when it waits."""
    last_end = {}  # thread -> the end of its last segment, or its birth if it has none
    born = {0: 0.0}
    for fid, timeline in report.timelines.items():  # ids ascend in creation order, so a creator comes first
        segments, time = timeline.segments, born[fid]
        for k, seg in enumerate(segments):
            assert seg.start == time and 0 <= seg.start <= seg.end <= report.makespan, (fid, k)
            time = seg.end
            if seg.rule == RULE_CREATE:
                after = k + 1
                while after < len(segments) and segments[after].kind == SEG_TRANSITION:
                    after += 1
                born[seg.hole[1].fid] = segments[after - 1].end
        last_end[fid] = time
        added = functools.reduce(operator.add, (seg.energy for seg in segments), 0)
        assert repr(report.per_thread_energy[fid]) == repr(added), fid
    assert last_end[0] == report.makespan
    for record in report.claim_records:
        assert record.t_realize == last_end[record.target], record
        assert record.wait == max(0.0, record.t_realize - record.t_arrive), record
        assert record.case_tag == (CASE_I if record.wait > 0 else CASE_II), record


@pytest.mark.parametrize("name", STRATEGIES)
def test_energy_identities_hold_on_every_small_program(name):
    strategy = make_strategy(name, LADDER)
    for expr in SMALL_SCOPE:
        for model in SMALL_SCOPE_MODELS:
            _assert_energy_identities(simulate(expr, LADDER, 2, strategy, model))


def test_a_cost_report_has_the_fields_of_a_simulation_report_but_the_timelines():
    assert tuple(field.name for field in dataclasses.fields(CostReport)) + ("timelines",) == tuple(
        field.name for field in dataclasses.fields(SimulationReport))


def _assert_repriced(repriced, report, *context):
    """``reprice`` gave ``simulate``'s report in every field the two share, bit for bit."""
    assert type(repriced) is CostReport
    for name in (field.name for field in dataclasses.fields(CostReport)):
        assert repr(getattr(repriced, name)) == repr(getattr(report, name)), (name, *context)


def _wide_draw(seed):
    """A left-deep sum of 100-150 futures whose bodies are small random programs, some with futures of their own."""
    rng = random.Random(seed)
    terms = [FutureCreate(gen_random_program(rng.randrange(10**6), 4, 2)) for _ in range(rng.randint(100, 150))]
    return functools.reduce(Add, terms)


class _EveryThirdHeld(ScalingStrategy):
    """Overrides ``scale``: every third call holds the level, so a run's levels depend on the order of its calls."""

    def __init__(self, ladder):
        super().__init__("every-third-held", ladder, +1, +1, -1)
        self.calls = 0

    def scale(self, op, level):
        self.calls += 1
        return (level, False) if self.calls % 3 == 0 else super().scale(op, level)


ONE_LEVEL = FrequencyLadder((2.0,))
REPRICE_FACTORIES = [functools.partial(make_strategy, name) for name in STRATEGIES] + [_EveryThirdHeld]
REPRICE_MODELS = [
    CostModel(idle_power=0.5, tau=0.05),
    CostModel(wait_policy=WAIT_BLOCK, tau=0.05, transition_energy=True, block_time=0.3, block_energy=2.5),
    CostModel(create_cycles=2.0, add_cycles=0.5, claim_cycles=3.0, kappa=1.7, alpha=2.5, tau=0.01, transition_energy=True),
]


def _assert_composed(expected, report, *context):
    """``simulate``'s report holds ``compositional_cost``'s fields, bit for bit, with its threads in the same order."""
    for name, value in expected.items():
        got = getattr(report, name)
        if name == "claim_records":
            got = tuple(map(tuple, got))
        elif name == "per_thread_energy":
            got, value = list(got.items()), list(value.items())
        assert repr(got) == repr(value), (name, *context)


@SETTINGS
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=3), st.sampled_from(STRATEGIES), st.sampled_from((WAIT_SPIN, WAIT_BLOCK)),
       st.sampled_from((0.0, 0.05, 0.3)), st.booleans(), st.sampled_from((None, 0.0, 0.7)),
       st.integers(min_value=1, max_value=4))
def test_simulate_prices_a_run_as_the_compositional_oracle_does(seed, depth, nesting, name, wait, tau,
                                                                 transition_energy, idle_power, init):
    expr = gen_random_program(seed, depth, nesting)
    model = CostModel(wait_policy=wait, tau=tau, transition_energy=transition_energy, idle_power=idle_power)
    expected = compositional_cost(expr, LADDER, init, make_strategy(name, LADDER), model)
    _assert_composed(expected, simulate(expr, LADDER, init, make_strategy(name, LADDER), model), unparse(expr))


COMPOSED_MODELS = [
    CostModel(idle_power=0.5, tau=0.05),
    CostModel(wait_policy=WAIT_BLOCK, tau=0.3, transition_energy=True, block_time=0.2, block_energy=1.5),
    CostModel(create_cycles=2.0, add_cycles=0.5, claim_cycles=3.0, kappa=1.7, alpha=2.5, tau=0.01, transition_energy=True),
]


def test_simulate_prices_every_small_program_as_the_compositional_oracle_does():
    """Each program under one (strategy, model) pair, the pairs taken in turn, at the 4-level ladder's second level."""
    pairs = itertools.cycle(itertools.product(STRATEGIES, COMPOSED_MODELS))
    for expr, (name, model) in zip(SMALL_SCOPE, pairs):
        expected = compositional_cost(expr, LADDER, 2, make_strategy(name, LADDER), model)
        _assert_composed(expected, simulate(expr, LADDER, 2, make_strategy(name, LADDER), model), unparse(expr), name)


def test_simulated_schedule_of_every_small_program_replays_through_engine_step():
    """``simulate``'s compute segments, in time order, are a legal run of the small-step rules, so its compiled
    tapes fire each thread's rules in the kernel's order."""
    pairs = itertools.cycle(itertools.product(STRATEGIES, COMPOSED_MODELS))
    for expr, (name, model) in zip(SMALL_SCOPE, pairs):
        strategy = make_strategy(name, LADDER)
        report = simulate(expr, LADDER, 2, strategy, model)
        computes = sorted((seg.start, fid, k, seg) for fid, timeline in report.timelines.items()
                          for k, seg in enumerate(timeline.segments) if seg.kind == SEG_COMPUTE)
        config = initial_configuration(expr, LADDER.level(2))
        for _, fid, _, seg in computes:
            config, event = step(config, fid, strategy)
            assert (event.rule, event.level) == (seg.rule, seg.level), (unparse(expr), fid)
        assert is_terminal(config) and config.closures[0].expr == IntLit(report.final_value), unparse(expr)


def _compared(expr, ladder, init, strategies, models):
    """``compare``'s path: compile the tapes from the program text, then price them under each model and strategy."""
    value, tapes = _compile(expr)
    return [[_price(value, tapes, ladder, init, strategy, model) for strategy in strategies] for model in models]


@pytest.mark.parametrize("model", SMALL_SCOPE_MODELS, ids=lambda m: f"{m.wait_policy}-tau{m.tau}")
def test_compiled_tapes_price_to_each_strategys_simulate_on_every_small_program(model):
    """Each program is compiled once for all four strategies, and ``reprice`` prices each strategy too; at the
    4-level ladder's second level, so ``both`` and ``child-only`` clamp on nested futures."""
    strategies = [make_strategy(name, LADDER) for name in STRATEGIES]
    for expr in SMALL_SCOPE:
        source = unparse(expr)
        for priced in _compared(expr, LADDER, 2, strategies, [model]):
            for strategy, report in zip(strategies, priced):
                expected = simulate(expr, LADDER, 2, strategy, model)
                _assert_repriced(report, expected, source, strategy.name, model)
                _assert_repriced(reprice(expr, LADDER, 2, strategy, model), expected, source, strategy.name, model)


@pytest.mark.parametrize("seed", range(3))
def test_compiled_tapes_price_to_each_strategys_simulate_on_wide_draws(seed):
    expr = _wide_draw(seed)
    strategies = [make_strategy(name, LADDER) for name in STRATEGIES]
    models = [CostModel(tau=0.05), CostModel(wait_policy=WAIT_BLOCK, tau=0.05, transition_energy=True)]
    for model, priced in zip(models, _compared(expr, LADDER, 2, strategies, models)):
        for strategy, report in zip(strategies, priced):
            expected = simulate(expr, LADDER, 2, strategy, model)
            assert len(expected.timelines) > 100
            _assert_repriced(report, expected, strategy.name, model)
            _assert_repriced(reprice(expr, LADDER, 2, strategy, model), expected, strategy.name, model)


@pytest.mark.parametrize("ladder, init", [(LADDER, 1), (LADDER, 4), (ONE_LEVEL, 1)], ids=["bottom", "top", "one-level"])
def test_compiled_tapes_price_to_simulate_at_clamping_inits_and_on_a_one_level_ladder(ladder, init):
    """Each run builds its own ``_EveryThirdHeld``, so every run counts that strategy's calls from 0."""
    for expr in [PENDING_LEFT, WIDE_SUM, LEFT_DEEP, *(gen_random_program(seed, 6, 3) for seed in range(12))]:
        value, tapes = _compile(expr)
        for model in REPRICE_MODELS:
            for factory in REPRICE_FACTORIES:
                expected = simulate(expr, ladder, init, factory(ladder), model)
                _assert_repriced(_price(value, tapes, ladder, init, factory(ladder), model), expected, unparse(expr))
                _assert_repriced(reprice(expr, ladder, init, factory(ladder), model), expected, unparse(expr))


class _Recording(_EveryThirdHeld):
    """``_EveryThirdHeld`` that logs (operator name, level index) for every ``scale`` call, in call order."""

    def __init__(self, ladder):
        super().__init__(ladder)
        self.log = []

    def scale(self, op, level):
        self.log.append((op.name, level.index))
        return super().scale(op, level)


def test_the_heap_calls_a_stateful_strategy_in_a_pinned_order():
    """``reprice``, ``simulate`` and compare's ``_price`` share one heap loop, and the oracle needs a stateless
    strategy, so nothing else pins the order of ``scale`` calls: a hash of every call and every claim record,
    over wide draws under spin and block, tau 0 and 0.05."""
    digest = hashlib.sha256()
    for seed in range(2):
        expr = _wide_draw(seed)
        value, tapes = _compile(expr)
        for model in [CostModel(wait_policy=wait, tau=tau) for wait in (WAIT_SPIN, WAIT_BLOCK) for tau in (0.0, 0.05)]:
            for price in (functools.partial(reprice, expr), functools.partial(simulate, expr),
                          functools.partial(_price, value, tapes)):
                strategy = _Recording(LADDER)
                report = price(LADDER, 2, strategy, model)
                digest.update(repr((strategy.log, report.claim_records)).encode())
    assert digest.hexdigest() == "588e27555f02238f27c7183df4e8c1ac00e3b51b8d2ae6f39a629bdac6fd2081"


SCHEDULE_POLICIES = (NewestFirst, RoundRobin, functools.partial(SeededRandom, 7))
SCHEDULE_LADDERS = ((CLAMP_FREE, 8), (DEFAULT_LADDER, 2))


def _scheduled_and_run(expr, ladder, init, strategies, policy):
    """The tape scheduler's result and ``run``'s in its shape, (value, rules, final level, clamps), and ``run``'s step
    count; ``strategies`` gives the scheduler's strategy and then ``run``'s."""
    tapes, kernel = strategies
    result = run(expr, ladder, init, kernel, policy())
    expected = (result.final_value, [e.rule for e in result.events], result.final_level, result.clamp_count)
    return _schedule(*_compile(expr), ladder, init, tapes, policy()), expected, result.step_count


@pytest.mark.parametrize("name", STRATEGIES)
def test_the_tape_scheduler_gives_runs_result_on_every_small_program(name):
    """Every program of at most 8 nodes over 0 and 1 and of at most 6 over the 64-bit extremes, under each policy, at
    level 8 of 16, where no operator clamps, and at the default ladder's second level, where many do."""
    for ladder, init in SCHEDULE_LADDERS:
        strategy = make_strategy(name, ladder)
        for expr in SMALL_SCOPE + WRAP_SCOPE:
            for policy in SCHEDULE_POLICIES:
                got, expected, steps = _scheduled_and_run(expr, ladder, init, (strategy, strategy), policy)
                assert got == expected and len(got[1]) == steps, (unparse(expr), policy().name, init)


def test_the_tape_scheduler_calls_scale_as_run_does():
    """A fresh ``_Recording`` per run, whose every third call holds the level, so a call out of order changes the
    levels too: each path logs the same operators at the same levels, in the same order."""
    for ladder, init in SCHEDULE_LADDERS:
        for expr in SMALL_SCOPE + WRAP_SCOPE:
            for policy in SCHEDULE_POLICIES:
                strategies = (_Recording(ladder), _Recording(ladder))
                got, expected, _ = _scheduled_and_run(expr, ladder, init, strategies, policy)
                assert got == expected and strategies[0].log == strategies[1].log, (unparse(expr), policy().name)


def test_the_tape_schedulers_step_limit_is_runs():
    """A limit one short of a run's steps stops both paths with the same error, and a limit of its steps does not;
    the default limit is 30 steps per program node, as ``run``'s, with the node count read off the tapes."""
    strategy = make_strategy("both", LADDER)
    for expr in SMALL_SCOPE + WRAP_SCOPE + [gen_random_program(seed, 7, 4) for seed in range(50)]:
        compiled = _compile(expr)
        assert _tape_nodes(compiled[1]) == node_count(expr), unparse(expr)
        steps = len(_schedule(*compiled, LADDER, 2, strategy, RoundRobin(), None)[1])
        assert len(_schedule(*compiled, LADDER, 2, strategy, RoundRobin(), steps)[1]) == steps
        if steps == 0:
            continue
        errors = []
        for path in (functools.partial(_schedule, *compiled), functools.partial(run, expr)):
            with pytest.raises(DivergenceError) as caught:
                path(LADDER, 2, strategy, RoundRobin(), steps - 1)
            errors.append(str(caught.value))
        assert errors == [f"exceeded {steps - 1} steps"] * 2, unparse(expr)
    with mock.patch.object(energy, "_tape_nodes", lambda tapes: 1):  # a limit of 30 steps, which 31 Adds exceed
        with pytest.raises(DivergenceError, match="^exceeded 30 steps$"):
            _schedule(*_compile(parse(" + ".join(["1"] * 32))), LADDER, 2, strategy)


@pytest.mark.parametrize("text", ["1 + future (2 + 3)", "(future (1 + future 2)) + (future (3 + 4) + 5)",
                                  "future (future (1 + 2) + future 3) + (4 + future 5)"])
def test_a_step_limit_one_short_stops_the_traced_and_the_untraced_run_alike(tmp_path, text):
    """Through ``futsim run --mode semantics`` under each policy: the traced run fires the kernel and the untraced
    one replays the tapes, and both exit 7 with one ``error:`` line at a limit one short of the run's steps, and
    both exit 0 at its steps."""
    path = tmp_path / "p.gf"
    path.write_text(text)
    for policy in ("newest-first", "round-robin", "random"):
        argv = ["run", str(path), "--mode", "semantics", "--policy", policy, "--format", "json"]
        outputs = []
        for trace in ([], ["--trace", str(tmp_path / "trace.jsonl")]):
            out, err = io.StringIO(), io.StringIO()
            assert main([*argv, *trace], out, err) == 0, err.getvalue()
            steps = json.loads(out.getvalue())["steps"]
            out, err = io.StringIO(), io.StringIO()
            code = main([*argv, *trace, "--step-limit", str(steps - 1)], out, err)
            outputs.append((steps, code, out.getvalue(), err.getvalue()))
        assert outputs[0] == outputs[1] == (steps, 7, "", f"error: exceeded {steps - 1} steps\n"), policy


ZERO_TIME = [CostModel(create_cycles=5e-324, add_cycles=5e-324, claim_cycles=5e-324, wait_policy=wait, tau=tau)
             for wait in (WAIT_SPIN, WAIT_BLOCK) for tau in (0.0, 0.05)]


@pytest.mark.parametrize("model", ZERO_TIME, ids=lambda m: f"{m.wait_policy}-tau{m.tau}")
def test_steps_that_take_no_time_price_as_the_compositional_oracle_does(model):
    """Cycles of 5e-324 take no time at levels of 2 or more, so Creates, claims and realizes share instants and
    parked claimants are released at their arrival: ``reprice`` = ``simulate`` = the oracle, bit for bit."""
    ties = 0
    for seed in range(40):
        expr = gen_random_program(seed, 6, 3)
        for name, init in itertools.product(STRATEGIES, (1, 2, 4)):
            report = simulate(expr, LADDER, init, make_strategy(name, LADDER), model)
            _assert_repriced(reprice(expr, LADDER, init, make_strategy(name, LADDER), model), report, seed, name)
            expected = compositional_cost(expr, LADDER, init, make_strategy(name, LADDER), model)
            _assert_composed(expected, report, seed, name, init)
            ties += any(record.t_arrive == record.t_realize for record in report.claim_records)
    assert ties > 100


def _recursive_gen_random_program(seed, max_depth, max_future_nesting):
    """The recursive generator gen_random_program used before its single loop, kept as the oracle."""
    rng = random.Random(seed)

    def gen(depth, nesting):
        if depth >= max_depth:
            return IntLit(rng.randint(-9, 9))
        kinds = ["int", "add", "add", "add"]
        if nesting < max_future_nesting:
            kinds += ["future", "future"]
        kind = rng.choice(kinds)
        if kind == "int":
            return IntLit(rng.randint(-9, 9))
        if kind == "add":
            return Add(gen(depth + 1, nesting), gen(depth + 1, nesting))
        return FutureCreate(gen(depth + 1, nesting + 1))

    return gen(1, 0)


@SETTINGS
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=4))
def test_gen_random_program_agrees_with_the_recursive_generator(seed, max_depth, max_future_nesting):
    expected = _recursive_gen_random_program(seed, max_depth, max_future_nesting)
    assert unparse(gen_random_program(seed, max_depth, max_future_nesting)) == unparse(expected)


class _SpineDraws:
    """Stands in for ``random.Random``: draws future, add and int in turn, and 1
    for every literal, so a program is a thin spine as deep as its bound."""

    def __init__(self, seed):
        self.kinds = itertools.cycle(("future", "add", "int"))

    def choice(self, kinds):
        return next(self.kinds)

    def randint(self, low, high):
        return 1


def test_gen_random_program_draws_a_5000_deep_program_without_recursion():
    # Real draws that deep are astronomically large (each node has 4/3
    # children on average), so a stand-in draws a spine: future at odd
    # depths, an add with an int on its left at even depths.
    with mock.patch.object(oracles, "random", SimpleNamespace(Random=_SpineDraws)):
        expr = gen_random_program(3, 5000, 4000)
    assert Counter(type(e).__name__ for e in subterms(expr)) == {"FutureCreate": 2500, "Add": 2499, "IntLit": 2500}
    assert eval_sequential(expr) == 2500
