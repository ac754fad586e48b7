"""The names ``futsim`` exports: a change to the public API shows here."""

from __future__ import annotations

import inspect

import futsim

PUBLIC = [
    "Add", "AddEvent", "ArithRedex", "ClaimEvent", "ClaimRecord", "ClaimSite", "Closure", "Configuration",
    "CostModel", "CostReport", "CreateEvent", "CreateRedex", "DEFAULT_INIT_INDEX", "DEFAULT_LADDER",
    "DivergenceError", "ExplorationLimitError", "Expression", "FrequencyLadder", "FrequencyLevel", "FutureCreate",
    "FutureId", "FutureRef", "IntLit", "NewestFirst", "NoRedex", "NotEnabledError", "ParseError", "RoundRobin",
    "RunResult", "ScaleOp", "ScalingStrategy", "SeededRandom", "Segment", "SimulationReport", "ThreadTimeline",
    "decompose", "enabled_threads", "eval_sequential", "explore_with_stats", "initial_configuration",
    "make_strategy", "parse", "plug", "register_strategy", "reprice", "run", "simulate", "step", "step_duration",
    "step_energy", "strategy_both", "strategy_child_only", "strategy_none", "strategy_parent_only", "unparse",
]


def test_public_api_is_pinned_and_bound():
    assert sorted(futsim.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(futsim, name)] == []


def test_reprice_takes_simulates_parameters():
    names = ["expr", "ladder", "init_index", "strategy", "model"]
    assert list(inspect.signature(futsim.reprice).parameters) == names
    assert list(inspect.signature(futsim.simulate).parameters) == names
