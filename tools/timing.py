"""What the timing tools share: their flags, best-of-N process time, and ``--against``.

Each tool times futsim layers from the tree ``--src`` names, prints one row
per timing (a label, then milliseconds and ``ms``) and ends with one line
that names a digest of the outputs it timed.

With ``--against OTHER`` a tool compares two trees instead: each of
``--rounds`` rounds runs the tool once per tree, each run in a fresh
interpreter, the ``--src`` tree first in even rounds (counting from 0) and
``OTHER`` first in odd ones. It then prints each row's median per tree and
the number of rounds each tree won (ties count for neither), and each
tree's digest line; it exits 1 when the two trees' digests differ.

Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROW = re.compile(r"(?P<label>.*?) +(?P<ms>[0-9]+\.[0-9]+) ms\b")


def arguments(description: str, repeat: int) -> argparse.Namespace:
    """The flags every timing tool takes, parsed from the command line."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--src", type=Path, required=True, help="directory that holds the futsim package")
    ap.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    ap.add_argument("--repeat", type=int, default=repeat,
                    help=f"timed calls per row; the least is printed (default {repeat})")
    ap.add_argument("--against", type=Path, help="a second futsim source tree: time both trees, alternating")
    ap.add_argument("--rounds", type=int, default=10,
                    help="with --against, fresh-interpreter runs per tree (default 10)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    args.src = args.src.resolve()
    return args


def import_futsim(src: Path, module: str):
    """``futsim.<module>`` imported from the tree ``src``, and from nowhere else."""
    sys.path.insert(0, str(src))
    imported = importlib.import_module(f"futsim.{module}")
    if Path(imported.__file__).resolve().parent.parent != src:
        raise ImportError(f"futsim imported from {imported.__file__}, not from {src}")
    return imported


def best(repeat: int, work) -> tuple[float, list]:
    """The least process time of ``repeat`` calls of ``work``, in seconds, and the first call's result."""
    times, first = [], None
    for _ in range(repeat):
        start = time.process_time()
        result = work()
        times.append(time.process_time() - start)
        if first is None:
            first = result
    return min(times), first


def against(script: str, args: argparse.Namespace) -> int:
    """Run ``script`` on ``args.src`` and ``args.against`` in alternating fresh interpreters and summarise the rows."""
    trees = (args.src, args.against.resolve())
    rows: dict[str, tuple[list[float], list[float]]] = {}
    digests: tuple[set[str], set[str]] = (set(), set())
    for round_ in range(args.rounds):
        for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
            argv = [sys.executable, script, "--src", str(trees[side]), "--seed", str(args.seed),
                    "--repeat", str(args.repeat)]
            lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
            for line in lines[:-1]:
                match = ROW.match(line)
                if match:
                    rows.setdefault(match["label"], ([], []))[side].append(float(match["ms"]))
            digests[side].add(lines[-1])
    width = max(map(len, rows), default=0)
    print(f"{'row':<{width}} {'src ms':>10} {'against ms':>10}  rounds won (src / against) of {args.rounds}")
    for label, (mine, theirs) in rows.items():
        won = sum(a < b for a, b in zip(mine, theirs)), sum(b < a for a, b in zip(mine, theirs))
        medians = statistics.median(mine), statistics.median(theirs)
        print(f"{label:<{width}} {medians[0]:10.2f} {medians[1]:10.2f}  {won[0]} / {won[1]}")
    for tree, lines in zip(trees, digests):
        print(f"{tree}: {' | '.join(sorted(lines))}")
    same = digests[0] == digests[1] and len(digests[0]) == 1
    print("same outputs" if same else "outputs differ")
    return 0 if same else 1
