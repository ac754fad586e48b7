"""One SHA-256 over every benchmark corpus command's output, for comparing two futsim trees.

Runs each command of ``bench/corpus.py`` (all three workloads) for the given
seeds through ``futsim.cli.main`` in process, imported from ``--src``. Each
command runs twice, with ``--format json`` and in table form, and both
forms of a ``run`` write a ``--trace`` file. Each ``run`` also runs once
more in each form with no ``--trace``, so untraced output is covered too. Each
``compare`` command also runs, in both forms, with the cost-model flags of
``COST_FLAGS`` appended, since the corpus itself sets none of them. The
digest covers each invocation's exit code, standard output, standard error
and trace bytes, in order. Two trees that print the same digest for the
same seeds gave the same outputs.

    python3 tools/output_digest.py --src src --seeds 1 2

Prints the number of invocations and then the digest. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACE = "trace.jsonl"
COST_FLAGS = ["--spin-power", "idle:0.5", "--block-penalty", "0.2,0.5", "--cycles", "create=2,add=1,claim=3",
              "--alpha", "2", "--kappa", "1.5"]


def import_main(src: Path):
    sys.path.insert(0, str(src))
    import futsim.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"futsim imported from {cli.__file__}, not from {src}")
    return cli.main


def invocations(seeds: list[int]):
    """(program file name, program text, argv) for every command in both output forms, and its variants."""
    sys.path.insert(0, str(BENCH))
    import corpus

    for seed in seeds:
        for workload in corpus.WORKLOADS:
            for cmd in corpus.commands(workload, seed):
                sub = cmd.kind.split("-")[0]
                args = [TRACE if a == "TRACE" else a for a in cmd.args]
                if sub == "run" and TRACE not in args:
                    args += ["--trace", TRACE]
                i = args.index("--format")  # every corpus command asks for JSON
                name = f"{cmd.program.name}.gf"
                forms = [args, args[:i] + args[i + 2 :]]
                if sub == "compare":
                    forms += [form + COST_FLAGS for form in forms]
                if sub == "run":
                    for form in list(forms):
                        t = form.index("--trace")
                        forms.append(form[:t] + form[t + 2 :])
                for form in forms:
                    yield name, cmd.program.text, [sub, name] + form


def digest(main, seeds: list[int]) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative names keep the temporary path out of every output
        try:
            for name, text, argv in invocations(seeds):
                Path(name).write_text(text + "\n", encoding="utf-8")
                out, err = io.StringIO(), io.StringIO()
                code = main(argv, out, err)
                trace = Path(TRACE).read_bytes() if Path(TRACE).exists() else b""
                Path(TRACE).unlink(missing_ok=True)
                for part in (str(code).encode(), out.getvalue().encode(), err.getvalue().encode(), trace):
                    h.update(len(part).to_bytes(8, "big"))
                    h.update(part)
                count += 1
        finally:
            os.chdir(cwd)
    return count, h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True, help="directory that holds the futsim package")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    count, hexdigest = digest(import_main(args.src.resolve()), args.seeds)
    print(f"invocations {count}")
    print(hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
