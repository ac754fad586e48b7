"""Process time of futsim's pricing layers, for comparing two futsim trees.

Imports futsim from ``--src`` and times, best of ``--repeat`` rounds of
``time.process_time``:

- ``_compile``: the tapes of each wide-futures ``compare`` command of
  ``bench/corpus.py`` (10 programs, spin and block: 20 compiles);
- ``_price``: those tapes under the four strategies at tau 0.05, as
  ``compare`` prices them (80 pricings);
- ``reprice`` and ``simulate``: a 6,400-term chain ``1 + 1 + ...``,
  ``future``^4096 ``1`` and a 2,000-deep ``future (1 + ...)`` nest, under
  ``both`` with the default ladder and cost model.

Then it prints one SHA-256 over every report's ``repr``, so two trees timed
one after the other can be checked for the same outputs. A compute segment's
hole enters the hash as its context's depth and its atom, since the
``repr`` of every context would grow with the square of the program.

    python3 tools/price_times.py --src src --seed 1 --repeat 7

Standard library only; ``bench/corpus.py`` is imported and not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
WAITS = ("spin", "block")


def import_futsim(src: Path):
    sys.path.insert(0, str(src))
    import futsim.energy as energy

    if Path(energy.__file__).resolve().parent.parent != src:
        raise ImportError(f"futsim imported from {energy.__file__}, not from {src}")
    return energy


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


def hashed(report) -> str:
    """``repr(report)`` with each compute segment's hole as (context depth, atom)."""
    timelines = getattr(report, "timelines", None)
    if timelines is None:
        return repr(report)
    segments = [seg._replace(hole=seg.hole and (seg.hole[0].depth, seg.hole[1]))
                for timeline in timelines.values() for seg in timeline.segments]
    return repr((report.__class__.__name__, report.final_value, report.makespan, report.total_energy,
                 report.per_thread_energy, report.edp, report.ed2p, report.claim_records, report.clamp_count,
                 report.transition_count, [(fid, len(t.segments)) for fid, t in timelines.items()], segments))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True, help="directory that holds the futsim package")
    ap.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    ap.add_argument("--repeat", type=int, default=7, help="rounds per layer; the least is printed (default 7)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    energy = import_futsim(args.src.resolve())
    from futsim.parser import parse
    from futsim.scaling import DEFAULT_INIT_INDEX, DEFAULT_LADDER, make_strategy

    sys.path.insert(0, str(BENCH))
    import corpus

    ladder, init = DEFAULT_LADDER, DEFAULT_INIT_INDEX
    exprs = [parse(p.text) for p in corpus.wide_futures_corpus(args.seed)]
    commands = [(expr, energy.CostModel(wait_policy=wait, tau=0.05)) for expr in exprs for wait in WAITS]
    deep = {"chain 6400": parse(" + ".join(["1"] * 6400)), "future^4096 1": parse("future " * 4096 + "1"),
            "nest 2000": parse("future (1 + " * 2000 + "1" + ")" * 2000)}

    def price(compiled):
        return [energy._price(value, tapes, ladder, init, make_strategy(name, ladder), model)
                for (value, tapes), (_, model) in zip(compiled, commands) for name in corpus.STRATEGIES]

    rows = []
    compile_s, compiled = best(args.repeat, lambda: [energy._compile(expr) for expr, _ in commands])
    rows.append((f"_compile x{len(commands)}", compile_s, []))
    rows.append((f"_price x{len(commands) * len(corpus.STRATEGIES)}", *best(args.repeat, lambda: price(compiled))))
    for name, expr in deep.items():
        for fn in (energy.reprice, energy.simulate):
            rows.append((f"{fn.__name__} {name}",
                         *best(args.repeat, lambda: [fn(expr, ladder, init, make_strategy("both", ladder))])))
    digest = hashlib.sha256()
    for label, seconds, reports in rows:
        print(f"{label:<26} {seconds * 1e3:9.2f} ms")
        for report in reports:
            digest.update(hashed(report).encode())
    print(f"reports {sum(len(reports) for _, _, reports in rows)} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
