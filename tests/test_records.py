"""The records a run builds per step: field order, defaults, repr, immutability, hashing and derived values;
and the reports that hold them: immutability."""

from __future__ import annotations

import dataclasses

import pytest

from futsim.calculus import Add, HoleLeft, IntLit
from futsim.energy import ClaimRecord, Segment, _compile, _price, reprice, simulate
from futsim.engine import RULE_ADD, RULE_CLAIM, RULE_CREATE, AddEvent, ClaimEvent, CreateEvent
from futsim.parser import parse
from futsim.scaling import FrequencyLadder, make_strategy

LADDER = FrequencyLadder((1.0, 2.0, 3.0))
lv = LADDER.level

COMPUTE = Segment(0.5, 1.0, "compute", lv(2), 4.0, rule="Add", hole=((HoleLeft(IntLit(3)),), IntLit(7)))
WAIT = Segment(0.0, 0.5, "wait", lv(1), 0.5, target=2)
TRANSITION = Segment(1.0, 1.25, "transition", lv(3), 0.0)
CLAIM_RECORD = ClaimRecord(0, 1, 0.5, 1.5, 1.0, "CaseI")
ADD = AddEvent(0, lv(2), 3, 4, 7)
CREATE = CreateEvent(0, lv(2), 1, lv(1), lv(3), 0)
CLAIM = ClaimEvent(0, lv(1), 1, IntLit(9), lv(2), 1)

# The text each record printed as a frozen dataclass.
REPRS = {
    COMPUTE: "Segment(start=0.5, end=1.0, kind='compute', level=FrequencyLevel(index=2, value=2.0), energy=4.0, "
             "rule='Add', target=None, hole=((HoleLeft(right=IntLit(value=3)),), IntLit(value=7)))",
    WAIT: "Segment(start=0.0, end=0.5, kind='wait', level=FrequencyLevel(index=1, value=1.0), energy=0.5, "
          "rule=None, target=2, hole=None)",
    TRANSITION: "Segment(start=1.0, end=1.25, kind='transition', level=FrequencyLevel(index=3, value=3.0), "
                "energy=0.0, rule=None, target=None, hole=None)",
    CLAIM_RECORD: "ClaimRecord(claimant=0, target=1, t_arrive=0.5, t_realize=1.5, wait=1.0, case_tag='CaseI')",
    ADD: "AddEvent(thread=0, level=FrequencyLevel(index=2, value=2.0), left=3, right=4, total=7)",
    CREATE: "CreateEvent(thread=0, level=FrequencyLevel(index=2, value=2.0), child=1, "
            "parent_level=FrequencyLevel(index=1, value=1.0), child_level=FrequencyLevel(index=3, value=3.0), clamps=0)",
    CLAIM: "ClaimEvent(thread=0, level=FrequencyLevel(index=1, value=1.0), claimed=1, value=IntLit(value=9), "
           "claimant_level=FrequencyLevel(index=2, value=2.0), clamps=1)",
}


def test_field_names_in_order():
    assert Segment._fields == ("start", "end", "kind", "level", "energy", "rule", "target", "hole")
    assert ClaimRecord._fields == ("claimant", "target", "t_arrive", "t_realize", "wait", "case_tag")
    assert AddEvent._fields == ("thread", "level", "left", "right", "total")
    assert CreateEvent._fields == ("thread", "level", "child", "parent_level", "child_level", "clamps")
    assert ClaimEvent._fields == ("thread", "level", "claimed", "value", "claimant_level", "clamps")


def test_only_segment_has_defaults_and_they_are_none():
    assert Segment._field_defaults == {"rule": None, "target": None, "hole": None}
    assert (TRANSITION.rule, TRANSITION.target, TRANSITION.hole) == (None, None, None)
    for record in (ClaimRecord, AddEvent, CreateEvent, ClaimEvent):
        assert record._field_defaults == {}


@pytest.mark.parametrize("record", list(REPRS), ids=lambda r: f"{type(r).__name__}-{getattr(r, 'kind', '')}")
def test_repr_is_the_dataclass_text(record):
    assert repr(record) == REPRS[record]


@pytest.mark.parametrize("record", list(REPRS), ids=lambda r: f"{type(r).__name__}-{getattr(r, 'kind', '')}")
def test_records_are_immutable_and_hashable(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 99)
    assert hash(record) == hash(type(record)(*record))
    assert {record: 1}[type(record)(*record)] == 1


def test_segment_duration_and_expr():
    assert COMPUTE.duration == 0.5 and TRANSITION.duration == 0.25
    assert COMPUTE.expr == Add(IntLit(7), IntLit(3))
    assert WAIT.expr is None and TRANSITION.expr is None


def test_event_rule_clamps_and_scaled():
    assert (ADD.rule, ADD.clamps, ADD.scaled) == (RULE_ADD, 0, ())
    assert (CREATE.rule, CREATE.clamps, CREATE.scaled) == (RULE_CREATE, 0, (lv(3), lv(1)))  # child first
    assert (CLAIM.rule, CLAIM.clamps, CLAIM.scaled) == (RULE_CLAIM, 1, (lv(2),))


# The three ways a report is priced: ``simulate``, ``reprice``, and compare's ``_price`` on tapes compiled once.
PRICERS = {
    "simulate": lambda expr, strategy: simulate(expr, LADDER, 2, strategy),
    "reprice": lambda expr, strategy: reprice(expr, LADDER, 2, strategy),
    "compare": lambda expr, strategy: _price(*_compile(expr), LADDER, 2, strategy),
}


@pytest.mark.parametrize("pricer", PRICERS)
def test_a_report_is_frozen_through_its_mappings_too(pricer):
    report = PRICERS[pricer](parse("1 + future (2 + 3)"), make_strategy("both", LADDER))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.per_thread_energy = {}
    mappings = [report.per_thread_energy] + ([report.timelines] if pricer == "simulate" else [])
    for mapping in mappings:
        before = dict(mapping)
        with pytest.raises(TypeError):
            mapping[0] = 99.0
        with pytest.raises(TypeError):
            mapping[7] = 99.0
        with pytest.raises(TypeError):
            del mapping[0]
        assert dict(mapping) == before and set(before) == {0, 1}
