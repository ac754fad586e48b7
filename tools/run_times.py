"""Process time of the layers a futsim command runs around the pricer, for comparing two futsim trees.

Imports futsim from ``--src`` and times, best of ``--repeat`` calls of
``time.process_time``, each layer over the programs of the deep-seq and
wide-futures corpora of ``bench/corpus.py``, one row per layer and corpus:

- ``parse``: every program's text;
- ``_compile``: every parsed program;
- ``simulate``: each deep-seq ``run`` in simulate mode, as its traced
  command prices it;
- ``_schedule``: each semantics ``run``, as its untraced command compiles
  the tapes and replays them under its policy;
- ``_json_dump``: the JSON report of every command of each workload
  (explore-small too), as ``futsim.cli.main`` printed it.

Each command's settings come from the CLI's own argument parser and config
resolution. Then it prints one SHA-256 over every layer's outputs, so two
trees can be checked for the same results. ``--against OTHER`` times
``--src`` and ``OTHER`` in alternating fresh interpreters and prints each
row's median per tree and the rounds each won (see ``tools/timing.py``).

    python3 tools/run_times.py --src src --seed 1 --repeat 7
    python3 tools/run_times.py --src src --against ../parent/src --rounds 10

Standard library only; ``bench/corpus.py`` is imported and not changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import timing

BENCH = Path(__file__).resolve().parent.parent / "bench"
CORPORA = ("deep-seq", "wide-futures")


def main() -> int:
    args = timing.arguments(__doc__.splitlines()[0], repeat=7)
    if args.against:
        return timing.against(__file__, args)
    cli = timing.import_futsim(args.src, "cli")
    from futsim.energy import _compile, _schedule, simulate
    from futsim.parser import parse, unparse
    from futsim.scaling import make_strategy

    sys.path.insert(0, str(BENCH))
    import corpus

    commands = {workload: corpus.commands(workload, args.seed) for workload in corpus.WORKLOADS}
    rows: list[tuple[str, float, list[str]]] = []

    def row(label: str, work, show=repr) -> None:
        seconds, results = timing.best(args.repeat, work)
        rows.append((label, seconds, [show(result) for result in results]))

    with tempfile.TemporaryDirectory() as tmp:
        configs, payloads = {}, {}
        for workload, cmds in commands.items():
            payloads[workload] = []
            for index, cmd in enumerate(cmds):
                path = Path(tmp, f"{cmd.program.name}.gf")
                path.write_text(cmd.program.text + "\n", encoding="utf-8")
                argv = [cmd.kind.split("-")[0], str(path)] + [str(Path(tmp, f"trace{index}.jsonl")) if a == "TRACE"
                                                              else a for a in cmd.args]
                configs[workload, index] = cli.resolve_config(cli.build_arg_parser().parse_args(argv))
                out = io.StringIO()
                if cli.main(argv, out, io.StringIO()) not in (0, 5):
                    raise RuntimeError(f"{' '.join(argv)} failed")
                payloads[workload].append(json.loads(out.getvalue()))

    texts = {name: list({cmd.program.name: cmd.program.text for cmd in commands[name]}.values()) for name in CORPORA}
    for name in CORPORA:
        row(f"parse {name}", lambda: [parse(text) for text in texts[name]], unparse)
    exprs = {name: [parse(text) for text in texts[name]] for name in CORPORA}
    for name in CORPORA:
        row(f"_compile {name}", lambda: [_compile(expr) for expr in exprs[name]])

    def runs(name: str, kind: str) -> list:
        return [(parse(cmd.program.text), configs[name, index]) for index, cmd in enumerate(commands[name])
                if cmd.kind == kind]

    def summary(report) -> str:
        return repr((report.final_value, report.makespan, report.total_energy, report.edp, report.ed2p,
                     sorted(report.per_thread_energy.items()), report.claim_records, report.clamp_count,
                     report.transition_count, sum(len(t.segments) for t in report.timelines.values())))

    sims = runs("deep-seq", "run-sim")
    row("simulate deep-seq", lambda: [simulate(expr, cfg.ladder, cfg.init_index,
                                               make_strategy(cfg.strategy, cfg.ladder), cfg.model)
                                      for expr, cfg in sims], summary)
    for name in CORPORA:
        sems = runs(name, "run-sem")
        row(f"_schedule {name}", lambda: [_schedule(*_compile(expr), cfg.ladder, cfg.init_index,
                                                    make_strategy(cfg.strategy, cfg.ladder),
                                                    cli.POLICIES[cfg.policy](cfg.seed), cfg.step_limit)
                                          for expr, cfg in sems])
    for workload in commands:
        row(f"_json_dump {workload}", lambda: [cli._json_dump(payload) for payload in payloads[workload]], str)

    digest = hashlib.sha256()
    for label, seconds, outputs in rows:
        print(f"{label:<26} {seconds * 1e3:9.2f} ms  x{len(outputs)}")
        for output in outputs:
            digest.update(output.encode())
    print(f"outputs {sum(len(outputs) for _, _, outputs in rows)} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
