"""Linked evaluation contexts: a step does O(1) context work, holes share
their outer cells, and a context reads like the tuple of its frames, also
at depths past the recursion limit."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from futsim.calculus import (
    Add,
    ArithRedex,
    ClaimSite,
    Context,
    CreateRedex,
    FutureCreate,
    FutureRef,
    HoleLeft,
    HoleRight,
    IntLit,
    NoRedex,
    _refocus,
    decompose,
    plug,
)
from futsim.energy import SEG_COMPUTE, Segment, simulate
from futsim.engine import run
from futsim.parser import parse
from oracles import unparse_in_context
from futsim.scaling import FrequencyLadder, strategy_both

LADDER = FrequencyLadder((1.0, 2.0, 3.0, 4.0))
BOTH = strategy_both(LADDER)


def chain(n):
    return parse(" + ".join(["1"] * n))


def wide(n):
    return parse(" + ".join(f"(future ({i}+1))" for i in range(n)))


def _compute_holes(report, fid=0):
    return [seg.hole for seg in report.timelines[fid].segments if seg.kind == SEG_COMPUTE]


# ---------------------------------------------------------------------------
# Linear work
# ---------------------------------------------------------------------------

def test_each_chain_hole_is_the_outer_cell_of_the_one_before():
    holes = _compute_holes(simulate(chain(2_000), LADDER, 2, BOTH))
    assert len(holes) == 1_999
    for before, after in zip(holes, holes[1:]):
        assert after[0] is before[0].outer
    assert len(holes[0][0]) == 1_998 and len(holes[-1][0]) == 0


def _cells(context):
    while context.depth:
        yield context
        context = context.outer


def test_the_holes_of_a_wide_sum_share_their_cells():
    holes = _compute_holes(simulate(wide(400), LADDER, 2, BOTH))
    cells = {id(cell) for context, _ in holes for cell in _cells(context)}
    assert len(cells) < 3 * len(holes)


def _counting_cells(monkeypatch):
    built = [0]
    init = Context.__init__

    def counting(self, frame, outer):
        built[0] += 1
        init(self, frame, outer)

    monkeypatch.setattr(Context, "__init__", counting)
    return built


@pytest.mark.parametrize("program", ["chain-2000", "wide-400"])
@pytest.mark.parametrize("mode", ["run", "simulate"])
def test_cells_built_per_step_are_bounded(program, mode, monkeypatch):
    expr = chain(2_000) if program == "chain-2000" else wide(400)
    built = _counting_cells(monkeypatch)
    if mode == "run":
        steps = run(expr, LADDER, 2, BOTH).step_count
    else:
        report = simulate(expr, LADDER, 2, BOTH)
        steps = sum(len(_compute_holes(report, fid)) for fid in report.timelines)
    assert steps > 0 and 0 < built[0] <= 2 * steps


def _counting_frames(monkeypatch):
    built = [0]
    for cls in (HoleLeft, HoleRight):
        def counting(self, operand, init=cls.__init__):
            built[0] += 1
            init(self, operand)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("program", ["chain-2000", "wide-400"])
@pytest.mark.parametrize("mode", ["run", "simulate"])
def test_run_and_simulate_build_no_frame(program, mode, monkeypatch):
    expr = chain(2_000) if program == "chain-2000" else wide(400)
    frames, cells = _counting_frames(monkeypatch), _counting_cells(monkeypatch)
    if mode == "run":
        run(expr, LADDER, 2, BOTH)
    else:
        simulate(expr, LADDER, 2, BOTH)
    assert cells[0] > 0 and frames[0] == 0
    assert HoleLeft(IntLit(1)) != HoleRight(IntLit(1)) and frames[0] == 2  # the counter sees a frame built


def test_a_cells_frame_is_the_frame_it_was_built_from():
    for frame in (HoleLeft(Add(IntLit(1), FutureRef(2))), HoleRight(FutureCreate(IntLit(3)))):
        for context in (Context.of((frame,)), Context.of((HoleLeft(IntLit(0)), frame))):
            assert context.frame == frame and type(context.frame) is type(frame)
            assert context.operand is (frame.right if isinstance(frame, HoleLeft) else frame.left)
            with pytest.raises(AttributeError):
                context.frame = frame
    assert Context.of(()).frame is None
    site = decompose(parse("1 + ((future 2) + 3)"))
    assert isinstance(site, CreateRedex)
    assert (site.context.frame, site.context.outer.frame) == (HoleLeft(IntLit(3)), HoleRight(IntLit(1)))


def _report_bytes(expr) -> int:
    """The memory a ``simulate`` report holds, under tracemalloc; ``expr`` is built before tracing starts."""
    gc.collect()
    tracemalloc.start()
    try:
        report = simulate(expr, LADDER, 2, BOTH)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.final_value > 0
    return held


def test_a_chain_report_holds_linear_memory():
    assert _report_bytes(chain(3_200)) <= 5_000_000


# ---------------------------------------------------------------------------
# A context reads like the tuple of its frames
# ---------------------------------------------------------------------------

DEPTH = 100_000
FRAMES = tuple(HoleRight(FutureRef(k)) if k % 2 else HoleLeft(IntLit(k)) for k in range(DEPTH))


def test_a_deep_context_reads_like_its_tuple():
    context, twin = Context.of(FRAMES), Context.of(FRAMES)
    assert context is not twin and len(context) == DEPTH
    assert list(context) == list(FRAMES)
    assert list(reversed(context)) == list(reversed(FRAMES))
    assert context == twin and not context != twin
    assert context == FRAMES and FRAMES == context
    assert hash(context) == hash(twin) == hash(FRAMES)
    assert repr(context) == repr(FRAMES)
    assert context != Context.of(FRAMES[:-1] + (HoleLeft(IntLit(-1)),))
    assert context != FRAMES[:-1] and context != Context.of(FRAMES[1:])


def test_deep_sites_and_segments_compare_hash_and_print_without_recursion():
    context, twin = Context.of(FRAMES), Context.of(FRAMES)
    site = ClaimSite(context, 7)
    assert site == ClaimSite(twin, 7) == ClaimSite(FRAMES, 7)
    assert hash(site) == hash(ClaimSite(twin, 7)) == hash(ClaimSite(FRAMES, 7))
    assert repr(site) == repr(ClaimSite(FRAMES, 7))
    segment = Segment(0.0, 1.0, SEG_COMPUTE, LADDER.level(2), 1.0, "Add", None, (context, IntLit(3)))
    tupled = segment._replace(hole=(FRAMES, IntLit(3)))
    assert segment == segment._replace(hole=(twin, IntLit(3))) == tupled
    assert hash(segment) == hash(tupled) and repr(segment) == repr(tupled)


def test_two_searches_of_a_deep_term_give_equal_sites():
    expr = IntLit(DEPTH)  # 0 + (1 + (... + (DEPTH-1 + DEPTH)))
    for k in reversed(range(DEPTH)):
        expr = Add(IntLit(k), expr)
    site, again = decompose(expr), decompose(expr)
    assert site.context is not again.context and len(site.context) == DEPTH - 1
    assert site == again and hash(site) == hash(again) and repr(site) == repr(again)


def test_the_empty_context_is_the_empty_tuple():
    empty = Context.of(())
    assert len(empty) == 0 and not empty and list(empty) == []
    assert empty == () and hash(empty) == hash(()) and repr(empty) == "()"
    assert Context.of(empty) is empty and decompose(Add(IntLit(1), IntLit(2))).context is empty


def test_sites_print_and_compare_as_the_dataclasses_did():
    frames = (HoleLeft(IntLit(3)),)
    assert repr(ArithRedex(frames, 1, 2)) == "ArithRedex(context=(HoleLeft(right=IntLit(value=3)),), left=1, right=2)"
    assert repr(decompose(parse("1 + 2 + 3"))) == repr(ArithRedex(frames, 1, 2))
    after_claim = _refocus(ClaimSite(frames, 1), IntLit(5))
    assert after_claim._claim_phase and repr(after_claim) == "ArithRedex(context=(), left=5, right=3)"
    assert repr(CreateRedex((), IntLit(1))) == "CreateRedex(context=(), body=IntLit(value=1))"
    assert repr(NoRedex(IntLit(4))) == "NoRedex(value=IntLit(value=4))"
    assert ClaimSite((), 1) != CreateRedex((), FutureRef(1)) and ClaimSite((), 1) != CreateRedex((), IntLit(1))


@pytest.mark.parametrize("text", ["1 + (future (2 + 3)) + 4", "(1 + (future 9)) + (8 + (3 + future 4))"])
def test_each_edge_takes_a_context_or_its_tuple(text):
    site = decompose(parse(text))
    frames = tuple(site.context)
    assert isinstance(site.context, Context) and frames == site.context
    filler = IntLit(0)
    assert plug(site.context, filler) == plug(frames, filler)
    assert unparse_in_context(filler, context=site.context) == unparse_in_context(filler, context=frames)
    assert unparse_in_context(filler, 20, site.context) == unparse_in_context(filler, 20, frames)
    if not isinstance(site, NoRedex):
        assert _refocus(site, filler) == _refocus(site._replace(context=frames), filler)
