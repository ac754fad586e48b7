"""The CLI option table: each option works the same as a flag and as a config key."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from futsim.cli import ALL, OPTIONS, main

PROGRAM = "(future (future 1 + 1)) + (2 + 3) + (future (4 + 5))\n"

# option -> (command and flags it needs, a value that changes the result)
SAMPLES = {
    "ladder": (["run"], "1,2,4"),
    "init": (["run"], "3"),
    "strategy": (["run"], "none"),
    "strategies": (["compare"], "none,child-only"),
    "alpha": (["run"], "2"),
    "kappa": (["run"], "2"),
    "cycles": (["run"], "create=2,add=3"),
    "tau": (["run"], "0.5"),
    "wait": (["run"], "block"),
    "spin-power": (["run"], "idle:0.5"),
    "block-penalty": (["run", "--wait", "block"], "0.5,2"),
    "seed": (["run", "--mode", "semantics", "--policy", "random"], "1"),
    "trace": (["run"], None),  # a path, set per test
    "format": (["run"], "json"),
    "mode": (["run"], "semantics"),
    "policy": (["run", "--mode", "semantics"], "round-robin"),
    "step-limit": (["run", "--mode", "semantics"], "1"),
    "state-limit": (["explore"], "3"),
}


@pytest.fixture()
def program(tmp_path):
    path = tmp_path / "prog.gf"
    path.write_text(PROGRAM)
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_every_option_has_a_sample():
    assert sorted(SAMPLES) == sorted(opt.name for opt in OPTIONS)


@pytest.mark.parametrize("name", [opt.name for opt in OPTIONS])
def test_flag_and_config_key_give_the_same_report(name, program, tmp_path):
    needs, value = SAMPLES[name]
    base = [needs[0], program] + needs[1:] + ([] if name == "format" else ["--format", "json"])
    traces = [tmp_path / "flag.jsonl", tmp_path / "key.jsonl"]
    flag_value, key_value = (str(traces[0]), str(traces[1])) if name == "trace" else (value, value)
    config = tmp_path / "opts.conf"
    config.write_text(f"{name.replace('-', '_')} = {key_value}\n")

    by_flag = invoke(base + [f"--{name}", flag_value])
    by_key = invoke(base + ["--config", str(config)])
    assert by_flag == by_key
    if name == "trace":
        assert traces[0].read_text() == traces[1].read_text() != ""
    else:
        assert by_flag != invoke(base), "the sample value should change the result"


def test_config_mode_is_checked_against_its_choices(program, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("mode = semantix\n")
    code, out, err = invoke(["run", program, "--config", str(config)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: --mode 'semantix'") and len(err.splitlines()) == 1


def test_unknown_config_key_is_a_config_error(program, tmp_path):
    config = tmp_path / "typo.conf"
    config.write_text("ladder = 1,2,3\nstratgy = none\n")
    code, out, err = invoke(["run", program, "--config", str(config)])
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: {config}:2: unknown key 'stratgy'"


def test_model_error_names_the_option(program):
    code, _, err = invoke(["run", program, "--block-penalty", "nan,1"])
    assert code == 3
    assert "--block-penalty" in err and len(err.splitlines()) == 1


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_error_stream_keeps_the_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "missing.gf")], out=io.StringIO(), err=_ClosedPipe()) == 2


@pytest.mark.parametrize("args, code", [(["/nonexistent.gf"], 2), (["PROGRAM", "--init", "9"], 3)])
def test_closed_stderr_of_the_command_keeps_the_exit_code(program, args, code):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read the error line
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "futsim.cli", "run"] + [program if a == "PROGRAM" else a for a in args],
            stdout=subprocess.PIPE, stderr=write_end, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stdout == b""


@pytest.mark.parametrize("argv, words", [
    (["explore", "PROGRAM", "--mode", "semantics"], "unrecognized arguments: --mode semantics"),
    (["run", "PROGRAM", "--wait", "sometimes"], "argument --wait: invalid choice"),
    (["run"], "required: program"),
    ([], "required: command"),
])
def test_usage_error_is_one_line_on_the_given_error_stream(program, capsys, argv, words):
    code, out, err = invoke([program if a == "PROGRAM" else a for a in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("error: futsim") and words in err and len(err.splitlines()) == 1
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv, words", [(["--help"], "{run,compare,explore}"), (["run", "--help"], "--step-limit")])
def test_help_goes_to_the_given_output_stream(capsys, argv, words):
    code, out, err = invoke(argv)
    assert code == 0
    assert out.startswith("usage: futsim") and words in out
    assert err == ""
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", [["run"], ["compare", "--strategies", "none,both"]], ids=["run", "compare"])
@pytest.mark.parametrize("model", [["--alpha", "1e308"], ["--ladder", "1e200,1e300"], ["--kappa", "1e308"]],
                         ids=["alpha", "ladder", "kappa"])
def test_model_overflow_is_inf_in_a_table_and_a_config_error_in_json(program, command, model):
    argv = [command[0], program] + command[1:] + model
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    assert "inf" in out.split()
    code, out, err = invoke(argv + ["--format", "json"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "cost model overflows" in err and len(err.splitlines()) == 1


# command -> the flags it needs to run at all
COMMAND_NEEDS = {"run": [], "compare": ["--strategies", "none,both"], "explore": []}
# Explore's one outcome clamps to fq_3 from every init but 4.
COMMAND_SAMPLES = {("init", "explore"): "4"}


@pytest.mark.parametrize("name, command", [(opt.name, c) for opt in OPTIONS for c in opt.commands])
def test_every_offered_flag_acts(name, command, program, tmp_path):
    needs, value = SAMPLES[name]
    value = COMMAND_SAMPLES.get((name, command), value)
    trace = tmp_path / "t.jsonl"
    base = [command, program] + COMMAND_NEEDS[command] + needs[1:] + ([] if name == "format" else ["--format", "json"])

    def outcome(argv):
        code, out, _ = invoke(argv)
        written = trace.read_text() if trace.exists() else None
        trace.unlink(missing_ok=True)
        return code, out, written

    flag = [f"--{name}", str(trace) if name == "trace" else value]
    assert outcome(base + flag) != outcome(base)


@pytest.mark.parametrize("name, command", [(opt.name, c) for opt in OPTIONS for c in ALL if c not in opt.commands])
def test_flag_a_command_ignores_is_a_usage_error(name, command, program, tmp_path):
    _, value = SAMPLES[name]
    trace = tmp_path / "t.jsonl"
    flag = [f"--{name}", str(trace) if name == "trace" else value]
    code, out, err = invoke([command, program] + COMMAND_NEEDS[command] + flag)
    assert code == 3
    assert out == ""
    assert err.startswith("error: futsim") and f"--{name}" in err and len(err.splitlines()) == 1
    assert not trace.exists()


@pytest.mark.parametrize("name, command", [(opt.name, c) for opt in OPTIONS for c in opt.commands])
def test_an_abbreviated_flag_is_a_usage_error(name, command, program, tmp_path):
    # Each name minus its last letter is a unique prefix in its command (in
    # compare, `--strateg` prefixes only `--strategies`), so it would parse
    # if argparse matched abbreviations.
    needs, value = SAMPLES[name]
    trace = tmp_path / "t.jsonl"
    flag = [f"--{name[:-1]}", str(trace) if name == "trace" else value]
    code, out, err = invoke([command, program] + COMMAND_NEEDS[command] + needs[1:] + flag)
    assert code == 3
    assert out == ""
    assert err.startswith("error: futsim") and f"--{name[:-1]}" in err and len(err.splitlines()) == 1
    assert not trace.exists()


NOT_OFFERED = [(opt, c) for opt in OPTIONS for c in ALL if c not in opt.commands]


@pytest.mark.parametrize("opt, command", NOT_OFFERED, ids=[f"{o.name}-{c}" for o, c in NOT_OFFERED])
def test_a_not_offered_flag_names_its_command_and_the_commands_that_take_it(opt, command, program, tmp_path):
    value = SAMPLES[opt.name][1] or str(tmp_path / "t.jsonl")
    _, _, err = invoke([command, program] + COMMAND_NEEDS[command] + [f"--{opt.name}", value])
    assert err.startswith(f"error: futsim {command}: unrecognized arguments: --{opt.name} {value}")
    assert err.rstrip("\n").endswith(f"(--{opt.name} is a flag of: {', '.join(opt.commands)})")
