"""Process time of futsim's ``explore_with_stats``, for comparing two futsim trees.

Imports futsim from ``--src`` and times, best of ``--repeat`` rounds of
``time.process_time``, ``explore_with_stats`` under ``both`` with the default
ladder and starting level, as ``futsim explore`` calls it:

- explore-small: par5, par6 and the 53 draws of ``bench/corpus.py``, one row
  each and their sum;
- deep programs: chains ``1 + 1 + ...`` of 1,500 and 3,000 terms, 1,000- and
  2,000-deep ``future (1 + ...)`` nests, ``future``^1024 and ``future``^2048
  ``1``, and par 7.

Then it prints one SHA-256 over every program's (states, sorted outcomes), so
two trees timed one after the other can be checked for the same results.
``--against OTHER`` times ``--src`` and ``OTHER`` in alternating fresh
interpreters and prints each row's median per tree and the rounds each
won (see ``tools/timing.py``).

    python3 tools/explore_times.py --src src --seed 1 --repeat 3
    python3 tools/explore_times.py --src src --against ../parent/src --rounds 10

Standard library only; ``bench/corpus.py`` is imported and not changed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import timing

BENCH = Path(__file__).resolve().parent.parent / "bench"


def main() -> int:
    args = timing.arguments(__doc__.splitlines()[0], repeat=3)
    if args.against:
        return timing.against(__file__, args)
    engine = timing.import_futsim(args.src, "engine")
    from futsim.parser import parse
    from futsim.scaling import DEFAULT_INIT_INDEX, DEFAULT_LADDER, make_strategy

    sys.path.insert(0, str(BENCH))
    import corpus

    small = [parse(p.text) for p in corpus.explore_small_corpus(args.seed)]
    sets = {"par5": small[:1], "par6": small[1:2], f"draws x{len(small) - 2}": small[2:]}
    deep = {
        "chain 1500": " + ".join(["1"] * 1500),
        "chain 3000": " + ".join(["1"] * 3000),
        "nest 1000": "future (1 + " * 1000 + "1" + ")" * 1000,
        "nest 2000": "future (1 + " * 2000 + "1" + ")" * 2000,
        "future^1024 1": "future " * 1024 + "1",
        "future^2048 1": "future " * 2048 + "1",
        "par 7": " + ".join(f"(future ({i}+{i}+{i}+{i}))" for i in range(7)),
    }
    sets.update((name, [parse(text)]) for name, text in deep.items())
    strategy = make_strategy("both", DEFAULT_LADDER)

    def explore(exprs):
        return [engine.explore_with_stats(expr, DEFAULT_LADDER, DEFAULT_INIT_INDEX, strategy) for expr in exprs]

    digest = hashlib.sha256()
    hashed = small_s = 0
    for row, (label, exprs) in enumerate(sets.items()):
        seconds, results = timing.best(args.repeat, lambda: explore(exprs))
        print(f"{label:<16} {seconds * 1e3:10.2f} ms  states {sum(states for _, states in results)}")
        for outcomes, states in results:
            digest.update(repr((states, sorted((value, level.index) for value, level in outcomes))).encode())
            hashed += 1
        small_s += seconds
        if row == 2:  # par5, par6 and the draws are timed
            print(f"{'explore-small':<16} {small_s * 1e3:10.2f} ms")
    print(f"programs {hashed} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
