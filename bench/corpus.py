"""Seeded program corpora and command lists for the three benchmark workloads.

Every program is built here as source text together with the facts the
checks need, all computed by this module and never by futsim: the value of
the program with its futures erased (64-bit wrapping, as the calculus
specifies), its node count, and its numbers of additions and future
creations. Any run of a program takes exactly ``adds + 2 * creates``
reduction steps: one Add per addition, and one Create plus one Claim per
future.

Shapes (sizes, where futures go, random draws) are fixed per workload and
the seed draws the literals, so every seed asks for the same amount of work
(see ``streams``). Nesting stays well inside the recursion limit of the
parser and the redex search (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_INT_MIN = -(1 << 63)
_INT_MASK = (1 << 64) - 1


def wrap(n: int) -> int:
    """Wrap to 64-bit two's complement, as the Add rule does."""
    return ((n - _INT_MIN) & _INT_MASK) + _INT_MIN


@dataclass(frozen=True)
class Term:
    """A program fragment: its text and the facts the checks compare against."""

    text: str
    value: int
    adds: int
    creates: int
    kind: str  # "lit" | "add" | "fut"


def lit(value: int) -> Term:
    return Term(str(value), value, 0, 0, "lit")


def add(left: Term, right: Term) -> Term:
    # `+` is left-associative and `future` extends rightward, so a future on
    # the left and anything compound on the right need parentheses.
    lt = f"({left.text})" if left.kind == "fut" else left.text
    rt = right.text if right.kind == "lit" else f"({right.text})"
    return Term(f"{lt} + {rt}", wrap(left.value + right.value), left.adds + right.adds + 1,
                left.creates + right.creates, "add")


def fut(body: Term) -> Term:
    bt = body.text if body.kind == "lit" else f"({body.text})"
    return Term(f"future {bt}", body.value, body.adds, body.creates + 1, "fut")


@dataclass(frozen=True)
class Program:
    name: str
    text: str
    value: int
    adds: int
    creates: int
    states: int | None = None  # expected explore state count, where known

    @property
    def steps(self) -> int:
        return self.adds + 2 * self.creates

    @property
    def nodes(self) -> int:
        return (self.adds + 1) + self.adds + self.creates


def program(name: str, term: Term, states: int | None = None) -> Program:
    return Program(name, term.text, term.value, term.adds, term.creates, states)


def _digit(values: random.Random) -> int:
    return values.randint(-9, 9)


def chain(values: random.Random, n: int) -> Term:
    """Left-deep sum of n literals."""
    term = lit(_digit(values))
    for _ in range(n - 1):
        term = add(term, lit(_digit(values)))
    return term


def streams(workload: str, seed: int) -> tuple[random.Random, random.Random]:
    """(shapes, values): every structural choice comes from the first stream,
    which is fixed per workload, and every literal from the second, which the
    seed drives.

    Shapes decide the cost. Drawn from the seed, they moved the median
    command time by 15-30% from seed to seed (where a future lands in a
    nested sum, which random draws come up), which is wider than any useful
    regression bound; drawn once, they leave the spread to the machine.
    """
    return random.Random(f"{workload}/shapes"), random.Random(f"{workload}/values/{seed}")


# ---------------------------------------------------------------------------
# deep-seq: long programs, 0-3 futures
# ---------------------------------------------------------------------------

def deep_chain(shapes: random.Random, values: random.Random, n: int) -> Term:
    """Left-deep chain of n operands; 0-3 operands are futures over short chains."""
    spots = set(shapes.sample(range(1, n), shapes.randint(0, 3)))
    term = lit(_digit(values))
    for i in range(1, n):
        operand = fut(chain(values, shapes.randint(2, 30))) if i in spots else lit(_digit(values))
        term = add(term, operand)
    return term


def right_nested(shapes: random.Random, values: random.Random, n: int) -> Term:
    """a + (b + (c + ...)) with n levels; 0-3 inner levels are spawned as futures."""
    spots = set(shapes.sample(range(2, n), shapes.randint(0, 3)))
    term = lit(_digit(values))
    for i in range(n - 1, 0, -1):
        if i in spots:
            term = fut(term)
        term = add(lit(_digit(values)), term)
    return term


def balanced(shapes: random.Random, values: random.Random, levels: int) -> Term:
    """Perfect binary sum of 2**levels literals; 0-3 subtrees become futures."""
    spots = {tuple(shapes.randint(0, 1) for _ in range(shapes.randint(1, levels - 1)))
             for _ in range(shapes.randint(0, 3))}

    def build(path: tuple[int, ...]) -> Term:
        if len(path) == levels:
            return lit(_digit(values))
        term = add(build(path + (0,)), build(path + (1,)))
        return fut(term) if path in spots else term

    return build(())


def deep_seq_corpus(seed: int) -> list[Program]:
    shapes, values = streams("deep-seq", seed)
    progs = [program(f"chain{n}", deep_chain(shapes, values, n)) for n in (120, 200, 280, 360)]
    progs += [program(f"nested{n}", right_nested(shapes, values, n)) for n in (100, 150, 200)]
    progs += [program(f"balanced{2 ** k}", balanced(shapes, values, k)) for k in (8, 9)]
    return progs


# ---------------------------------------------------------------------------
# wide-futures: many futures, 100-400 threads
# ---------------------------------------------------------------------------

def fan(values: random.Random, n: int) -> Term:
    """n nested `future (a+b) + ...` terms; `future` extends rightward.

    Written without parentheses around the nest, as the grammar intends: with
    them each level would cost the recursive-descent parser twice the frames.
    """
    pairs = [(_digit(values), _digit(values)) for _ in range(n)]
    last = _digit(values)
    text = "".join(f"future ({a} + {b}) + " for a, b in pairs) + str(last)
    value = wrap(sum(a + b for a, b in pairs) + last)
    return Term(text, value, 2 * n, n, "fut")


def wide_sum(shapes: random.Random, values: random.Random, n: int) -> Term:
    """(future e1) + (future e2) + ... with n short future bodies."""
    term = fut(chain(values, shapes.randint(1, 6)))
    for _ in range(n - 1):
        term = add(term, fut(chain(values, shapes.randint(1, 6))))
    return term


def random_draw(shapes: random.Random, values: random.Random, max_depth: int, max_nesting: int) -> Term:
    """One draw with the distribution of futsim's gen_random_program; the
    shape comes from one stream and the literals from another."""

    def gen(depth: int, nesting: int) -> Term:
        if depth >= max_depth:
            return lit(_digit(values))
        kinds = ["int", "add", "add", "add"]
        if nesting < max_nesting:
            kinds += ["future", "future"]
        kind = shapes.choice(kinds)
        if kind == "int":
            return lit(_digit(values))
        if kind == "add":
            return add(gen(depth + 1, nesting), gen(depth + 1, nesting))
        return fut(gen(depth + 1, nesting + 1))

    return gen(1, 0)


def draws(shapes: random.Random, values: random.Random, count: int, max_depth: int, max_nesting: int,
          creates: tuple[int, int], nodes: tuple[int, int]) -> list[Term]:
    """count draws whose creation count and size fall in the bands."""
    out: list[Term] = []
    while len(out) < count:
        term = random_draw(shapes, values, max_depth, max_nesting)
        size = 2 * term.adds + 1 + term.creates
        if creates[0] <= term.creates <= creates[1] and nodes[0] <= size <= nodes[1]:
            out.append(term)
    return out


def wide_futures_corpus(seed: int) -> list[Program]:
    shapes, values = streams("wide-futures", seed)
    progs = [program(f"fan{n}", fan(values, n)) for n in (100, 150)]
    progs += [program(f"wide{n}", wide_sum(shapes, values, n)) for n in (100, 130)]
    progs += [program(f"draw{i}", t) for i, t in enumerate(draws(shapes, values, 6, 14, 12, (120, 140), (500, 600)))]
    return progs


# ---------------------------------------------------------------------------
# explore-small: par-n plus small draws
# ---------------------------------------------------------------------------

def par(n: int) -> Term:
    """n parenthesised, independent `(future (i+i+i+i))` terms, i = 0..n-1."""
    term = fut(chain_of(0, 4))
    for i in range(1, n):
        term = add(term, fut(chain_of(i, 4)))
    return term


def chain_of(value: int, n: int) -> Term:
    term = lit(value)
    for _ in range(n - 1):
        term = add(term, lit(value))
    return term


# Explored state counts for par-5 and par-6 (the calibration the ROADMAP
# Baseline recorded with the default ladder, init level and strategy).
PAR_STATES = {5: 1_791, 6: 7_167}


def explore_small_corpus(seed: int) -> list[Program]:
    progs = [program(f"par{n}", par(n), PAR_STATES[n]) for n in (5, 6)]
    shapes, values = streams("explore-small", seed)
    progs += [program(f"draw{i}", t) for i, t in enumerate(draws(shapes, values, 53, 7, 4, (4, 6), (20, 44)))]
    return progs


def ones_chain(n: int) -> Program:
    """1 + 1 + ... + 1 with n terms: the doubling-ratio probe."""
    return program(f"ones{n}", chain_of(1, n))


def future_tower(depth: int) -> Program:
    """future future ... future 1: the nesting-depth probe."""
    return Program(f"tower{depth}", "future " * depth + "1", 1, 0, depth)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

STRATEGIES = ("none", "parent-only", "child-only", "both")


@dataclass(frozen=True)
class Command:
    kind: str  # "run-sim" | "run-sem" | "compare" | "explore"
    program: Program
    args: tuple[str, ...]  # argv after the subcommand and program path
    strategies: int = 1  # simulations one command performs

    @property
    def steps(self) -> int:
        """Reduction steps the command performs, known from the generator."""
        return self.strategies * self.program.steps if self.kind != "explore" else 0


def commands(workload: str, seed: int) -> list[Command]:
    json_out = ("--format", "json")
    cmds: list[Command] = []
    if workload == "deep-seq":
        for prog in deep_seq_corpus(seed):
            cmds.append(Command("run-sim", prog, ("--trace", "TRACE") + json_out))
            cmds.append(Command("run-sem", prog, ("--mode", "semantics") + json_out))
    elif workload == "wide-futures":
        strategies = ("--strategies", ",".join(STRATEGIES))
        progs = wide_futures_corpus(seed)
        for prog in progs:
            for wait in ("spin", "block"):
                cmds.append(Command("compare", prog, strategies + ("--wait", wait, "--tau", "0.05") + json_out,
                                    len(STRATEGIES)))
        # One semantics run per program, the two policies taking turns.
        for i, prog in enumerate(progs):
            policy = ("--policy", "round-robin") if i % 2 else ("--policy", "random", "--seed", str(seed))
            cmds.append(Command("run-sem", prog, ("--mode", "semantics") + policy + json_out))
    elif workload == "explore-small":
        for prog in explore_small_corpus(seed):
            cmds.append(Command("explore", prog, json_out))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


WORKLOADS = ("deep-seq", "wide-futures", "explore-small")
