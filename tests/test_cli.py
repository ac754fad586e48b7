from __future__ import annotations

import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import futsim.calculus as calculus
import futsim.cli as cli
import futsim.energy as energy
import futsim.engine as engine
from futsim.calculus import Add, FutureCreate, IntLit, subterms
from futsim.cli import main
from futsim.energy import CASE_I, CASE_II, SEG_COMPUTE, CostModel, reprice, simulate
from futsim.parser import parse
from futsim.scaling import (
    DEFAULT_INIT_INDEX,
    DEFAULT_LADDER,
    FrequencyLadder,
    ScalingStrategy,
    make_strategy,
    strategy_both,
)


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.gf"
    path.write_text("2 + future (future (3+4))  # nested futures\n")
    return str(path)


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.gf"
    path.write_text("1 + future (2+3)\n")
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_run_golden_program_table(golden_file):
    code, out, err = invoke(["run", golden_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "both"])
    assert code == 0, err
    assert "final value    9" in out
    assert "EDP" in out


def test_run_trace_matches_golden_reduction(golden_file, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, _, err = invoke(
        ["run", golden_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "both", "--trace", str(trace)]
    )
    assert code == 0, err
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert all(set(r) == {"v", "seq", "t", "thread", "kind", "rule", "freq_idx", "freq", "dur", "energy", "expr"} for r in records)
    assert [r["seq"] for r in records] == list(range(len(records)))
    rules = [r["rule"] for r in records if r["kind"] == "compute"]
    assert rules == ["Create", "Create", "Add", "Claim", "Claim", "Add"]


def test_trace_durations_and_energy_sum_to_report(small_file, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, out, _ = invoke(
        ["run", small_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "both",
         "--trace", str(trace), "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    for thread_id, expected in report["per_thread_energy"].items():
        rows = [r for r in records if r["thread"] == int(thread_id)]
        assert sum(r["energy"] for r in rows) == pytest.approx(expected, rel=1e-9)
        span = max(r["t"] + r["dur"] for r in rows) - min(r["t"] for r in rows)
        assert sum(r["dur"] for r in rows) == pytest.approx(span, rel=1e-9)


def test_run_semantics_mode(golden_file):
    code, out, err = invoke(
        ["run", golden_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "both",
         "--mode", "semantics", "--format", "json"]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["final_value"] == 9
    assert payload["rules"] == ["Create", "Create", "Add", "Claim", "Claim", "Add"]
    assert payload["final_freq_idx"] == 2


def test_json_output_reproducible(small_file):
    argv = ["run", small_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "both",
            "--seed", "5", "--format", "json"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second
    assert first[0] == 0


def test_json_matches_table_numbers(small_file):
    code, table, _ = invoke(["run", small_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "both"])
    assert code == 0
    code, raw, _ = invoke(
        ["run", small_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "both", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(raw)
    table_values = {}
    for line in table.splitlines():
        parts = line.split()
        if parts and parts[0] in ("makespan", "energy", "EDP", "ED2P"):
            table_values[parts[0]] = float(parts[1])
    assert table_values["makespan"] == pytest.approx(payload["makespan"], rel=1e-9)
    assert table_values["energy"] == pytest.approx(payload["total_energy"], rel=1e-9)
    assert table_values["EDP"] == pytest.approx(payload["edp"], rel=1e-9)
    assert table_values["ED2P"] == pytest.approx(payload["ed2p"], rel=1e-9)


def test_compare_closed_form_rows(small_file):
    code, out, err = invoke(
        ["compare", small_file, "--ladder", "1,2,3,4", "--init", "2",
         "--strategies", "none,both", "--format", "json"]
    )
    assert code == 0, err
    payload = json.loads(out)
    rows = {row["strategy"]: row for row in payload["rows"]}
    assert payload["final_value"] == 6
    assert rows["none"]["energy"] == pytest.approx(20.0, rel=1e-9)
    assert rows["none"]["makespan"] == pytest.approx(2.0, rel=1e-9)
    assert rows["none"]["total_wait"] == pytest.approx(0.5, rel=1e-9)
    assert rows["both"]["energy"] == pytest.approx(55 / 3, rel=1e-9)
    assert rows["both"]["makespan"] == pytest.approx(7 / 3, rel=1e-9)
    assert rows["both"]["total_wait"] == pytest.approx(1 / 3, rel=1e-9)


def test_compare_without_futures_gives_identical_rows(tmp_path):
    path = tmp_path / "plain.gf"
    path.write_text("3 + 4\n")
    code, out, _ = invoke(
        ["compare", str(path), "--ladder", "1,2,3,4", "--init", "2",
         "--strategies", "none,both,parent-only", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    stripped = [{k: v for k, v in row.items() if k != "strategy"} for row in rows]
    assert stripped[0] == stripped[1] == stripped[2]


def test_compare_rows_add_the_waits_left_to_right_and_count_each_case(tmp_path):
    """A row's wait is its strategy's claim waits added in record order from the int 0, so a program with no
    claims prints ``"total_wait": 0``; its case counts are its records' Case I and Case II tags."""
    path = tmp_path / "p.gf"
    names, model = ("none", "both", "child-only"), CostModel(tau=0.05)
    for text in ("7", "(future (1 + 2 + 3 + 4 + 5 + 6)) + (future 7) + 8"):  # no claim; one of each case
        path.write_text(text)
        code, out, err = invoke(["compare", str(path), "--strategies", ",".join(names), "--tau", "0.05",
                                 "--format", "json"])
        assert code == 0, err
        for row, name in zip(json.loads(out)["rows"], names, strict=True):
            strategy = make_strategy(name, DEFAULT_LADDER)
            records = reprice(parse(text), DEFAULT_LADDER, DEFAULT_INIT_INDEX, strategy, model).claim_records
            wait = 0
            for record in records:
                wait += record.wait
            cases = Counter(record.case_tag for record in records)
            assert repr(row["total_wait"]) == repr(wait), (text, name)
            assert (row["case_i"], row["case_ii"]) == (cases[CASE_I], cases[CASE_II]), (text, name)


def test_compare_single_strategy_is_usage_error(small_file):
    code, _, err = invoke(["compare", small_file, "--strategies", "both"])
    assert code == 3
    assert "two strategies" in err


def test_compare_fires_no_rule_and_scales_as_often_as_one_simulate_per_strategy(tmp_path, monkeypatch):
    """A 4-strategy compare fires no rule and compiles the program once, yet
    calls the scaling operators as often as 4 simulates, and prints their totals."""
    path = tmp_path / "wide.gf"
    path.write_text(" + ".join(f"(future ({i} + (future {i})))" for i in range(12)))
    names = ("none", "both", "parent-only", "child-only")
    counts = Counter()

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(energy, "_fill", counting("rules", energy._fill))
    compile_counted = counting("walks", energy._compile)
    monkeypatch.setattr(energy, "_compile", compile_counted)
    monkeypatch.setattr(cli, "_compile", compile_counted)
    monkeypatch.setattr(ScalingStrategy, "scale", counting("scales", ScalingStrategy.scale))
    code, out, _ = invoke(["compare", str(path), "--strategies", ",".join(names), "--tau", "0.05", "--format", "json"])
    assert code == 0
    compared = counts.copy()
    counts.clear()
    expr, model = parse(path.read_text()), CostModel(tau=0.05)
    reports = [simulate(expr, DEFAULT_LADDER, DEFAULT_INIT_INDEX, make_strategy(name, DEFAULT_LADDER), model)
               for name in names]
    steps = sum(seg.kind == SEG_COMPUTE for timeline in reports[0].timelines.values() for seg in timeline.segments)
    assert compared["rules"] == 0 and counts["rules"] == 4 * steps
    assert compared["walks"] == 1 and counts["walks"] == 4
    assert compared["scales"] == counts["scales"] > 0
    for row, report in zip(json.loads(out)["rows"], reports):
        assert (row["energy"], row["makespan"], row["edp"], row["ed2p"]) == (
            report.total_energy, report.makespan, report.edp, report.ed2p)


def _assert_rows_are_each_strategys_simulate(out, expr, names, model):
    for row, name in zip(json.loads(out)["rows"], names, strict=True):
        report = simulate(expr, DEFAULT_LADDER, DEFAULT_INIT_INDEX, make_strategy(name, DEFAULT_LADDER), model)
        assert row["strategy"] == name and row["final_value"] == report.final_value
        assert (row["energy"], row["makespan"], row["edp"], row["ed2p"]) == (
            report.total_energy, report.makespan, report.edp, report.ed2p), name


def test_compare_runs_no_simulation(tmp_path, monkeypatch):
    path = tmp_path / "wide.gf"
    path.write_text(" + ".join(f"(future ({i} + (future {i})))" for i in range(12)))
    names = ("none", "both", "parent-only", "child-only")

    def refuse(*args, **kwargs):
        raise AssertionError("compare called simulate")

    monkeypatch.setattr(cli, "simulate", refuse)
    code, out, err = invoke(["compare", str(path), "--strategies", ",".join(names), "--tau", "0.05", "--format", "json"])
    assert code == 0, err
    _assert_rows_are_each_strategys_simulate(out, parse(path.read_text()), names, CostModel(tau=0.05))


def test_compare_prints_the_kernels_value_when_the_sum_wraps_64_bits(tmp_path):
    path = tmp_path / "wrap.gf"
    path.write_text("9223372036854775807 + future (1 + -9223372036854775808) + future (9223372036854775807 + 1)")
    code, out, err = invoke(["compare", str(path), "--strategies", "none,both", "--format", "json"])
    assert code == 0, err
    code, run_out, err = invoke(["run", str(path), "--mode", "semantics", "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["final_value"] == json.loads(run_out)["final_value"] == -(1 << 63)


@pytest.mark.parametrize("text, flags, shown", [
    ("9223372036854775807 + future (1 + -9223372036854775808) + future (9223372036854775807 + 1)", [],
     "final value    -9223372036854775808"),
    ("1 + future (2 + 3)", ["--kappa", "1e308", "--ladder", "1,2", "--init", "1", "--strategy", "none"],
     "energy         inf"),
], ids=["sum-wraps-64-bits", "energy-overflows"])
@pytest.mark.parametrize("form", ["json", "table"])
def test_untraced_run_fires_no_rule_and_prints_the_traced_runs_report(tmp_path, monkeypatch, text, flags, shown, form):
    """Only the trace reads a run's timelines, so an untraced run compiles the program once and fires no rule, yet
    prints what the traced run prints, in JSON and as a table. At 1e308 each step's energy is finite, so the trace
    is written, but the total overflows: the table prints inf, and both JSON runs fail alike."""
    path = tmp_path / "p.gf"
    path.write_text(text)
    counts = Counter()

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(energy, "_fill", counting("rules", energy._fill))
    monkeypatch.setattr(energy, "_compile", counting("walks", energy._compile))
    untraced = invoke(["run", str(path), "--format", form, *flags])
    assert (counts["rules"], counts["walks"]) == (0, 1)
    counts.clear()
    traced = invoke(["run", str(path), "--format", form, "--trace", str(tmp_path / "trace.jsonl"), *flags])
    assert counts["rules"] > 0 and counts["walks"] == 1
    assert untraced == traced
    if form == "table":
        assert untraced[0] == 0 and shown in untraced[1]


@pytest.mark.parametrize("name", ["none", "parent-only", "child-only", "both"])
def test_untraced_run_prints_the_traced_runs_json_under_each_strategy(tmp_path, name):
    """Nested futures at the 4-level ladder's second level, under blocking waits that pay a penalty and switches that
    take time, so each strategy's report differs from the others'."""
    path = tmp_path / "p.gf"
    path.write_text("(future (1 + future (2 + 3))) + (future (4 + 5) + 6) + future (future (7))")
    flags = ["--ladder", "1,2,3,4", "--init", "2", "--strategy", name, "--wait", "block", "--tau", "0.05",
             "--block-penalty", "0.5,2", "--format", "json"]
    untraced = invoke(["run", str(path), *flags])
    traced = invoke(["run", str(path), *flags, "--trace", str(tmp_path / "trace.jsonl")])
    assert untraced[0] == 0, untraced[2]
    assert json.loads(untraced[1]) == json.loads(traced[1]) and untraced == traced


def _bench_corpus():
    """The benchmark's corpus module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up while its class is built
    spec.loader.exec_module(module)
    return module


def _run_sem_programs():
    """Each program that a benchmark workload runs in semantics mode, for seed 1."""
    corpus = _bench_corpus()
    return [cmd.program for workload in corpus.WORKLOADS for cmd in corpus.commands(workload, 1)
            if cmd.kind == "run-sem"]


POLICY_FLAGS = {"newest-first": [], "round-robin": ["--policy", "round-robin"],
                "random": ["--policy", "random", "--seed", "3"]}


def _counting_kernel(monkeypatch):
    """Count the calls of the rule kernel (``engine._advance``) and of redex search (``calculus._search``)."""
    counts = Counter()
    for module, name in ((engine, "_advance"), (calculus, "_search")):
        def wrapper(*args, _original=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("form", [["--format", "json"], []], ids=["json", "table"])
def test_untraced_semantics_runs_fire_no_kernel_and_print_the_traced_runs_output(tmp_path, monkeypatch, form):
    """On every program a benchmark workload runs in semantics mode, under each policy: an untraced run replays the
    compiled tapes, with no rule fired and no redex searched, and prints what the traced run, which fires the kernel,
    prints."""
    counts = _counting_kernel(monkeypatch)
    programs = _run_sem_programs()
    assert len(programs) == 19
    for program in programs:
        path = tmp_path / f"{program.name}.gf"
        path.write_text(program.text)
        for name, flags in POLICY_FLAGS.items():
            argv = ["run", str(path), "--mode", "semantics", *flags, *form]
            counts.clear()
            untraced = invoke(argv)
            assert counts == Counter(), (program.name, name)
            traced = invoke([*argv, "--trace", str(tmp_path / "trace.jsonl")])
            assert counts["_advance"] > 0 and counts["_search"] > 0
            assert untraced[0] == 0, untraced[2]
            assert untraced == traced, (program.name, name)


@pytest.mark.parametrize("text", ["future " * 100_000 + "1", "future (1 + " * 100_000 + "1" + ")" * 100_000],
                         ids=["future-tower", "future-nest"])
def test_untraced_semantics_runs_take_deep_programs_and_print_the_traced_runs_output(tmp_path, text):
    """100,000 nested futures, each claimed by its parent: the untraced JSON is the traced run's, byte for byte, and
    the untraced table shows the same run. Both forms print one (value, rules, level, clamps) shape, and the corpus
    test above compares the table bytes under each policy, so the deep programs are traced in JSON only."""
    path = tmp_path / "deep.gf"
    path.write_text(text)
    argv = ["run", str(path), "--mode", "semantics"]
    traced = invoke([*argv, "--format", "json", "--trace", str(tmp_path / "trace.jsonl")])
    assert traced[0] == 0, traced[2]
    assert invoke([*argv, "--format", "json"]) == traced
    report = json.loads(traced[1])
    level = f"fq_{report['final_freq_idx']} ({cli._fmt(report['final_freq'])})"
    assert invoke(argv) == (0, f"final value    {report['final_value']}\nsteps          {report['steps']}\n"
                               f"final level    {level}\nclamp events   {report['clamp_events']}\n"
                               f"rules          {' '.join(report['rules'])}\n", "")


@pytest.mark.parametrize("name", ["none", "both", "parent-only", "child-only"])
def test_explore_fires_each_rule_of_a_program_once(monkeypatch, name):
    """On every program of the benchmark's explore workload (seed 1), explore fires the rule kernel once per rule a
    run of the program fires, ``adds + 2 × creates``: a record's firing is memoised with its child's id, so a record
    that many interleavings reach fires once, and so do its child's records."""
    counts = _counting_kernel(monkeypatch)
    programs = _bench_corpus().explore_small_corpus(1)
    assert len(programs) == 55
    strategy = make_strategy(name, DEFAULT_LADDER)
    for program in programs:
        expr = parse(program.text)
        kinds = Counter(e.__class__ for e in subterms(expr))
        counts.clear()
        engine.explore_with_stats(expr, DEFAULT_LADDER, DEFAULT_INIT_INDEX, strategy)
        assert counts["_advance"] == kinds[Add] + 2 * kinds[FutureCreate], program.name


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("code", [0, 2, 3, 5, 6, 7])
def test_main_pauses_the_collector_and_leaves_it_as_it_found_it(golden_file, tmp_path, monkeypatch, code, enabled):
    argv = {0: ["run", golden_file], 2: ["run", str(tmp_path / "missing.gf")], 3: ["run", golden_file, "--init", "9"],
            5: ["explore", golden_file], 6: ["explore", golden_file, "--state-limit", "2"],
            7: ["run", golden_file, "--mode", "semantics", "--step-limit", "2"]}[code]
    if code == 5:  # no program has two outcomes
        level = DEFAULT_LADDER.level(1)
        monkeypatch.setattr(cli, "explore_with_stats", lambda *a, **k: ({(1, level), (2, level)}, 10))
    during = []
    dispatch = cli._dispatch
    monkeypatch.setattr(cli, "_dispatch", lambda *args: during.append(gc.isenabled()) or dispatch(*args))
    (gc.enable if enabled else gc.disable)()
    try:
        assert invoke(argv)[0] == code
        after = gc.isenabled()
    finally:
        gc.enable()
    assert (during, after) == ([False], enabled)


def _unreachable_after(argv):
    """The exit code of ``argv`` run with the collector off, and the unreachable objects it left behind."""
    gc.collect()
    gc.disable()
    try:
        code = invoke(argv)[0]
        return code, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("form", [["--format", "json"], []], ids=["json", "table"])
@pytest.mark.parametrize("command", [["run", "--trace"], ["run", "--mode", "semantics"], ["explore"]],
                         ids=["traced-run", "semantics-run", "explore"])
def test_commands_leave_no_cycles_that_grow_with_the_program(tmp_path, command, form):
    """``main`` runs with the collector paused, so only reference counts free what a command builds: a command on a
    program twice as large leaves as many unreachable objects (the JSON encoder leaves a fixed few), and a cyclic
    structure per term, thread or state would fail here before it could grow memory while the collector is off."""
    left = []
    for n in (10, 50, 100):  # the first run warms the caches a command fills once per process
        path = tmp_path / f"nest{n}.gf"
        path.write_text("future (1 + " * n + " + ".join(["1"] * n) + ")" * n)
        argv = [command[0], str(path), *form, *command[1:]]
        if command[-1] == "--trace":
            argv.append(str(tmp_path / "trace.jsonl"))
        left.append(_unreachable_after(argv))
    assert left[1] == left[2] and left[1][0] == 0


@pytest.mark.parametrize("text", ["future " * 4096 + "1", " + ".join(["1"] * 6400)], ids=["future-tower", "chain"])
def test_compare_takes_deep_programs_without_recursion(tmp_path, text):
    path = tmp_path / "deep.gf"
    path.write_text(text)
    names = ("none", "both")
    code, out, err = invoke(["compare", str(path), "--strategies", ",".join(names), "--wait", "block", "--format", "json"])
    assert code == 0, err
    _assert_rows_are_each_strategys_simulate(out, parse(text), names, CostModel(wait_policy="block"))


def test_explore_single_outcome(golden_file):
    code, out, _ = invoke(["explore", golden_file, "--ladder", "1,2,3,4", "--init", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"] == [{"value": 9, "freq_idx": 2, "freq": 2.0}]
    assert payload["states"] > 1


def test_explore_limit_exceeded(golden_file):
    code, _, err = invoke(["explore", golden_file, "--state-limit", "2"])
    assert code == 6
    assert "states" in err


def test_explore_reports_multiple_outcomes(golden_file, monkeypatch):
    from futsim.scaling import FrequencyLevel

    fake = ({(1, FrequencyLevel(1, 1.0)), (2, FrequencyLevel(1, 1.0))}, 10)
    monkeypatch.setattr(cli, "explore_with_stats", lambda *a, **k: fake)
    code, out, _ = invoke(["explore", golden_file])
    assert code == 5
    assert "outcomes        2" in out


def test_missing_program_file(tmp_path):
    missing = str(tmp_path / "nope.gf")
    code, _, err = invoke(["run", missing])
    assert code == 2
    assert "nope.gf" in err


def _run_command(argv):
    """Exit code and stderr of ``futsim`` run as its own process."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "futsim.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    return proc.returncode, proc.stderr


def test_a_program_file_that_is_not_utf8_is_unreadable(tmp_path):
    path = tmp_path / "bad.gf"
    path.write_bytes(b"1 + \xff 2\n")
    code, err = _run_command(["run", str(path)])
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read program file {path}: ")


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, small_file):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"strategy = \xff\n")
    code, err = _run_command(["run", small_file, "--config", str(config)])
    assert code == 3
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read config file {config}: ")


def test_parse_error_exit_and_position(tmp_path):
    path = tmp_path / "bad.gf"
    path.write_text("1 + + +\n")
    code, _, err = invoke(["run", str(path)])
    assert code == 2
    assert "bad.gf:1:" in err


def test_bad_ladder_is_config_error(small_file):
    code, _, err = invoke(["run", small_file, "--ladder", "3,2,1"])
    assert code == 3
    assert "ladder" in err


def test_init_out_of_range(small_file):
    code, _, err = invoke(["run", small_file, "--ladder", "1,2", "--init", "5"])
    assert code == 3


def test_unknown_strategy(small_file):
    code, _, err = invoke(["run", small_file, "--strategy", "warp"])
    assert code == 3
    assert "warp" in err


def test_usage_error_missing_subcommand():
    code, _, _ = invoke([])
    assert code == 3


def test_config_file_and_flag_precedence(small_file, tmp_path):
    config = tmp_path / "sim.conf"
    config.write_text("ladder = 1,2,3,4\ninit = 2\nstrategy = none\nformat = json\n")
    code, out, _ = invoke(["run", small_file, "--config", str(config)])
    assert code == 0
    assert json.loads(out)["strategy"] == "none"
    # A flag overrides the file; the file still supplies the rest.
    code, out, _ = invoke(["run", small_file, "--config", str(config), "--strategy", "both"])
    assert code == 0
    payload = json.loads(out)
    assert payload["strategy"] == "both"
    assert payload["ladder"] == [1.0, 2.0, 3.0, 4.0]


def test_config_file_bad_line(small_file, tmp_path):
    config = tmp_path / "sim.conf"
    config.write_text("just nonsense\n")
    code, _, err = invoke(["run", small_file, "--config", str(config)])
    assert code == 3
    assert "key = value" in err


def test_model_flags_reach_the_simulation(small_file):
    code, out, _ = invoke(
        ["run", small_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "none",
         "--alpha", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    # alpha=1: every unit-cycle step costs 1 energy unit; 4 compute steps plus
    # a 0.5 spin at f=2 whose power is kappa*f = 2.
    assert payload["total_energy"] == pytest.approx(4.0 + 1.0, rel=1e-9)


def test_cycles_flag(small_file):
    code, out, _ = invoke(
        ["run", small_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "none",
         "--cycles", "create=2", "add=2", "claim=2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["makespan"] == pytest.approx(4.0, rel=1e-9)


@pytest.fixture()
def sum_file(tmp_path):
    path = tmp_path / "sum.gf"
    path.write_text("future (1 + 2) + 3 + 4\n")
    return str(path)


def test_step_limit_exceeded_is_engine_error(sum_file):
    code, out, err = invoke(["run", sum_file, "--mode", "semantics", "--step-limit", "0"])
    assert code == 7
    assert out == ""
    assert err.strip() == "error: exceeded 0 steps"


def test_unwritable_trace_is_output_error(sum_file, tmp_path):
    trace = tmp_path / "missing" / "t.jsonl"
    for mode in ("simulate", "semantics"):
        code, _, err = invoke(["run", sum_file, "--mode", mode, "--trace", str(trace)])
        assert code == 3
        assert err.startswith("error: ") and "t.jsonl" in err


@pytest.mark.parametrize(
    "flags",
    [["--tau", "nan"], ["--alpha", "inf"], ["--kappa", "nan"], ["--ladder", "1,inf", "--init", "2"],
     ["--ladder", "1,nan", "--init", "1"], ["--cycles", "add=inf"], ["--block-penalty", "nan,1"]],
)
def test_non_finite_model_numbers_are_config_errors(sum_file, flags):
    code, out, err = invoke(["run", sum_file, "--format", "json"] + flags)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_overflowing_report_is_an_error_not_invalid_json(sum_file, tmp_path):
    code, out, err = invoke(["run", sum_file, "--kappa", "1e308", "--format", "json"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "finite" in err
    code, _, err = invoke(["compare", sum_file, "--kappa", "1e308", "--strategies", "none,both", "--format", "json"])
    assert code == 3
    code, _, err = invoke(["run", sum_file, "--kappa", "1e308", "--trace", str(tmp_path / "t.jsonl")])
    assert code == 3
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag, command", [("--step-limit", ["run", "--mode", "semantics"]), ("--state-limit", ["explore"])])
def test_negative_limit_flag_is_config_error(sum_file, flag, command):
    code, out, err = invoke([command[0], sum_file] + command[1:] + [flag, "-1"])
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: {flag} must be non-negative, got -1"


@pytest.mark.parametrize("key, command", [("step-limit", ["run", "--mode", "semantics"]), ("state_limit", ["explore"])])
def test_negative_limit_config_key_is_config_error(sum_file, tmp_path, key, command):
    config = tmp_path / "limits.conf"
    config.write_text(f"{key} = -5\n")
    code, out, err = invoke([command[0], sum_file] + command[1:] + ["--config", str(config)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "must be non-negative" in err


def test_zero_state_limit_is_still_accepted(sum_file):
    code, _, err = invoke(["explore", sum_file, "--state-limit", "0"])
    assert code == 6
    assert err.startswith("error: more than 0 states")


def test_state_limit_counts_the_initial_state(tmp_path):
    five = tmp_path / "five.gf"
    five.write_text("5\n")
    code, _, err = invoke(["explore", str(five), "--state-limit", "0"])
    assert code == 6
    assert err.startswith("error: more than 0 states")
    code, out, err = invoke(["explore", str(five), "--state-limit", "1"])
    assert code == 0, err
    assert "states explored 1" in out


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_output_is_an_output_error(sum_file):
    err = io.StringIO()
    code = main(["run", sum_file], out=_ClosedPipe(), err=err)
    assert code == 3
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the output")


def test_closed_stdout_of_the_command_gives_no_traceback(sum_file):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes a byte
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "futsim.cli", "run", sum_file], stdout=write_end, stderr=subprocess.PIPE,
            env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 3, lines
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the output"), lines


def test_golden_trace_expr_column(golden_file, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, _, err = invoke(
        ["run", golden_file, "--ladder", "1,2,3,4", "--init", "2", "--strategy", "both", "--trace", str(trace)]
    )
    assert code == 0, err
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [(r["thread"], r["kind"], r["expr"]) for r in records] == [
        (0, "compute", "2 + fv1"),
        (0, "wait", "fv1"),
        (1, "compute", "fv2"),
        (1, "wait", "fv2"),
        (2, "compute", "7"),
        (1, "compute", "7"),
        (0, "compute", "2 + 7"),
        (0, "compute", "9"),
    ]


@pytest.mark.parametrize("literal", ["18446744073709551616", "-9223372036854775809", "9223372036854775808"])
def test_literal_outside_64_bits_is_a_parse_error(tmp_path, literal):
    path = tmp_path / "big.gf"
    path.write_text(f"1 + future {literal}\n")
    code, out, err = invoke(["run", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{path}:1:12:" in err and "64 bits" in err


def test_trace_of_a_chain_deeper_than_the_recursion_limit(tmp_path):
    # Built directly, so only the trace writer is tested: ((0 + 1) + 2) + ... + n.
    n = 1_500
    expr = IntLit(0)
    for k in range(1, n):
        expr = Add(expr, IntLit(k))
    ladder = FrequencyLadder((1.0, 2.0))
    report = simulate(expr, ladder, 1, strategy_both(ladder))
    trace = tmp_path / "trace.jsonl"
    cli._write_simulate_trace(str(trace), report)
    snippets = [json.loads(line)["expr"] for line in trace.read_text().splitlines()]
    assert len(snippets) == n - 1
    # After step s the chain reads (0 + ... + s) + (s + 1) + ... + (n - 1).
    for s in (1, 2, n // 2, n - 3):
        text = " + ".join([str(s * (s + 1) // 2)] + [str(k) for k in range(s + 1, n)])
        assert snippets[s - 1] == (text if len(text) <= 80 else text[:77] + "...")
    assert snippets[-2:] == [f"{(n - 2) * (n - 1) // 2} + {n - 1}", str(n * (n - 1) // 2)]


@pytest.mark.parametrize("source, col", [("²", 1), ("1 + ٣", 5)])
def test_a_digit_outside_ascii_is_a_parse_error(tmp_path, source, col):
    path = tmp_path / "digit.gf"
    path.write_text(f"{source}\n", encoding="utf-8")
    code, out, err = invoke(["run", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{path}:1:{col}: unexpected character" in err


@pytest.mark.parametrize("mode", ["simulate", "semantics"])
def test_a_run_without_records_writes_an_empty_trace(tmp_path, mode):
    path = tmp_path / "five.gf"
    path.write_text("5\n")
    trace = tmp_path / "trace.jsonl"
    code, out, err = invoke(["run", str(path), "--mode", mode, "--trace", str(trace)])
    assert code == 0, err
    assert trace.read_bytes() == b""


@pytest.mark.parametrize("text", ["future " * 4096 + "1", "(" * 100_000 + "1" + ")" * 100_000],
                         ids=["future-tower", "paren-nest"])
def test_run_takes_deep_nests_without_recursion(tmp_path, text):
    path = tmp_path / "deep.gf"
    path.write_text(text)
    code, out, err = invoke(["run", str(path), "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["final_value"] == 1


def test_consecutive_main_calls_print_what_fresh_processes_print(sum_file, monkeypatch):
    # main builds its argument parser once per process; later calls must not see earlier ones.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    calls = [
        ["--help"],
        ["run", "--help"],
        ["run", sum_file, "--state-limit", "3"],
        ["explore", sum_file, "--format", "json"],
        ["run", sum_file, "--format", "json", "--strategy", "none"],
        ["run", sum_file],
        ["compare", sum_file, "--strategies", "none,both"],
    ]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "futsim.cli", *argv], capture_output=True, text=True, env=env,
                               timeout=120)
        assert invoke(argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
