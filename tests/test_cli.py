from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import futsim.cli as cli
from futsim.calculus import Add, IntLit
from futsim.cli import main
from futsim.energy import simulate
from futsim.scaling import FrequencyLadder, strategy_both


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


def test_compare_single_strategy_is_usage_error(small_file):
    code, _, err = invoke(["compare", small_file, "--strategies", "both"])
    assert code == 3
    assert "two strategies" in err


def test_compare_detects_value_divergence(small_file, monkeypatch):
    reports = iter([7, 8])

    class Fake:
        def __init__(self, value):
            self.final_value = value
            self.claim_records = ()
            self.total_energy = 1.0
            self.makespan = 1.0
            self.edp = 1.0
            self.ed2p = 1.0

    monkeypatch.setattr(cli, "simulate", lambda *a, **k: Fake(next(reports)))
    code, _, err = invoke(["compare", small_file, "--strategies", "none,both"])
    assert code == 4
    assert "disagree" in err


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
