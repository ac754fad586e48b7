"""Spans around futsim's public functions, for the benchmark's traced run.

The traced run replaces public names where their callers look them up (for
example ``futsim.engine.decompose``, which ``enabled_threads`` and ``step``
call, and ``futsim.cli.unparse``, which the trace writer calls) with wrappers
that time each call, and restores them afterwards. Nothing under ``src/`` is
edited.

Calls nest strictly (one thread), so a stack gives every span its parent. A
span's self time is its duration minus the durations of its child spans.
Spans are aggregated in memory per (command, parent layer, layer); a wide
pass makes millions of calls, so single calls are not kept.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (owner, attribute, layer name). The owner is a module or "module:Class".
TARGETS = (
    ("futsim.cli", "parse", "parser.parse"),
    ("futsim.cli", "unparse", "parser.unparse"),
    ("futsim.engine", "decompose", "calculus.decompose"),
    ("futsim.energy", "decompose", "calculus.decompose"),
    ("futsim.engine", "plug", "calculus.plug"),
    ("futsim.energy", "plug", "calculus.plug"),
    ("futsim.scaling:ScalingStrategy", "scale", "scaling.scale"),
    ("futsim.engine", "enabled_threads", "engine.enabled_threads"),
    ("futsim.engine", "step", "engine.step"),
    ("futsim.engine", "canonical_key", "engine.canonical_key"),
    ("futsim.cli", "run", "engine.run"),
    ("futsim.cli", "explore_with_stats", "engine.explore"),
    ("futsim.cli", "simulate", "energy.simulate"),
)


def _segments(report) -> int:
    return sum(len(tl.segments) for tl in getattr(report, "timelines", {}).values())


def _states(result) -> int:
    return result[1]


# Work counts read from a layer's return value, outside its span.
AFTER = {"energy.simulate": ("energy.segments", _segments), "engine.explore": ("engine.states", _states)}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class SpanRecorder:
    def __init__(self) -> None:
        self.cmd = -1  # index of the command being run
        self.stats: dict[tuple[int, str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: Counter = Counter()  # work count name -> count
        self._stack: list[list] = []  # [name, start, child_s]

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                key = (self.cmd, parent[0] if parent is not None else None, name)
                entry = stats.get(key)
                if entry is None:
                    stats[key] = [1, duration, duration - frame[2]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[2]
            if after is not None:
                self.counts[after[0]] += after[1](result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; yields the layer names left unwrapped."""
        saved = []
        missing = []
        try:
            for spec, attr, name in TARGETS:
                owner = _owner(spec)
                original = owner.__dict__.get(attr)
                if original is None:
                    missing.append(f"{spec}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield missing
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self, cmds: set[int] | None = None) -> dict[str, list]:
        """name -> [calls, total_s, self_s] over the given commands (default all)."""
        out: dict[str, list] = {}
        for (cmd, _, name), (calls, total, self_s) in self.stats.items():
            if cmds is None or cmd in cmds:
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def buckets(self, focus: set[str], cmds: set[int]) -> tuple[float, dict[str, float]]:
        """Split the commands' traced time into the focus layers' inclusive time
        and the self time of every other layer outside them."""
        focus_s = 0.0
        others: dict[str, float] = {}
        for (cmd, parent, name), (_, total, self_s) in self.stats.items():
            if cmd not in cmds or parent in focus:
                continue
            if name in focus:
                focus_s += total
            else:
                others[name] = others.get(name, 0.0) + self_s
        return focus_s, others

    def dump(self) -> list[dict]:
        """The aggregated spans, for writing out at the end of the run."""
        return [
            {"cmd": cmd, "parent": parent, "name": name, "calls": calls, "total_s": total, "self_s": self_s}
            for (cmd, parent, name), (calls, total, self_s) in sorted(
                self.stats.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2]))
        ]
