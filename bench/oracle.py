"""Independent checker for compiled pulse programs.

Nothing here imports levelpulse or numpy: the oracle reads the two files
the compiler writes (``labeling.txt`` and ``program.txt``) and replays the
pulses as swaps of level contents.  A pi pulse on transition (a, b)
exchanges the populations of levels a and b, so after the whole program
the population that started on the level labelled x must sit on the level
labelled p(x).  Phases are not judged, as in the package's own verifier.

It also computes proven lower bounds on the pulse count and the naive
routing count U that the benchmark charges to an operation that failed.
"""

from __future__ import annotations

from dataclasses import dataclass

CHAIN = "chain"
HYPERCUBE = "hypercube"


class ProgramError(ValueError):
    """A labeling table or pulse program that cannot be a valid answer."""


@dataclass(frozen=True)
class Replay:
    """Outcome of replaying one program: counts and the first problem."""

    pulses: int
    rounds: int
    problem: str | None

    @property
    def ok(self) -> bool:
        return self.problem is None


def distance(topology: str, a: int, b: int) -> int:
    """Number of single-quantum transitions between two levels."""
    if topology == CHAIN:
        return abs(a - b)
    return (a ^ b).bit_count()


def parse_labeling(text: str, n: int) -> tuple[int, ...]:
    """``level_to_label`` from a labeling table (level first, label last)."""
    rows: dict[int, int] = {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        bits = parts[-1]
        if len(parts) not in (2, 3) or len(bits) != n or set(bits) - {"0", "1"}:
            raise ProgramError("bad labeling line {!r}".format(raw))
        rows[int(parts[0])] = int(bits, 2)
    size = 1 << n
    if sorted(rows) != list(range(size)) or sorted(rows.values()) != list(range(size)):
        raise ProgramError("labeling is not a bijection on {} levels".format(size))
    return tuple(rows[lv] for lv in range(size))


def parse_program(text: str) -> list[tuple[int, int, int]]:
    """(round, level_a, level_b) per pulse line, in file order."""
    out = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 4 or parts[1] != "pi_y":
            raise ProgramError("bad pulse line {!r}".format(raw))
        out.append((int(parts[0]), int(parts[2]), int(parts[3])))
    return out


def replay(
    mapping: tuple[int, ...], n: int, topology: str, labeling_text: str, program_text: str
) -> Replay:
    """Check a program against the truth table ``mapping`` on ``topology``."""
    try:
        labels = parse_labeling(labeling_text, n)
        pulses = parse_program(program_text)
    except (ProgramError, ValueError) as exc:
        return Replay(0, 0, str(exc))
    size = 1 << n
    rounds = [r for r, _, _ in pulses]
    if rounds and (rounds[0] != 1 or any(b - a not in (0, 1) for a, b in zip(rounds, rounds[1:]))):
        return Replay(len(pulses), 0, "round numbers are not contiguous from 1")
    content = list(labels)
    busy: set[int] = set()
    current = 0
    for r, a, b in pulses:
        if r != current:
            current, busy = r, set()
        if not (0 <= a < size and 0 <= b < size) or distance(topology, a, b) != 1:
            return Replay(len(pulses), current, "pulse ({}, {}) is not a transition".format(a, b))
        if a in busy or b in busy:
            return Replay(len(pulses), current, "round {} reuses a level".format(r))
        busy.update((a, b))
        content[a], content[b] = content[b], content[a]
    for level, started in enumerate(content):
        if mapping[started] != labels[level]:
            return Replay(
                len(pulses),
                current,
                "population of label {} ends on level {} (label {}), expected label {}".format(
                    started, level, labels[level], mapping[started]
                ),
            )
    return Replay(len(pulses), current, None)


def induced(mapping: tuple[int, ...], labels: tuple[int, ...]) -> tuple[int, ...]:
    """Level permutation: sigma(level) is where that level's population must go."""
    level_of = [0] * len(labels)
    for level, label in enumerate(labels):
        level_of[label] = level
    return tuple(level_of[mapping[labels[level]]] for level in range(len(labels)))


def cycles(sigma: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Non-trivial cycles, each starting at its smallest element."""
    seen = [False] * len(sigma)
    out = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = sigma[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = sigma[nxt]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def transposition_bound(mapping: tuple[int, ...]) -> int:
    """Sum of (|S| - 1) over the maximal sets: no labeling needs fewer pulses."""
    return sum(len(c) - 1 for c in cycles(mapping))


def inversions(sigma: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma)) if sigma[i] > sigma[j])


def fixed_bound(mapping: tuple[int, ...], topology: str, labels: tuple[int, ...]) -> int:
    """Lower bound on the pulses that route ``mapping`` under a fixed labeling.

    On the chain every pulse is an adjacent transposition, which removes
    at most one inversion.  On the hypercube a pulse changes the cycle
    count by one and moves two populations by one step each.
    """
    sigma = induced(mapping, labels)
    if topology == CHAIN:
        return inversions(sigma)
    total = sum(distance(topology, lv, sigma[lv]) for lv in range(len(sigma)))
    return max(transposition_bound(sigma), (total + 1) // 2)


def naive_count(mapping: tuple[int, ...], topology: str, labels: tuple[int, ...]) -> int:
    """U: pulses of naive routing, each cycle as a star of swaps with c0.

    The transposition (c0 c_i) across distance d takes 2d - 1 adjacent
    swaps, so U = sum over cycles of sum_i (2 * dist(c0, c_i) - 1).
    """
    sigma = induced(mapping, labels)
    return sum(
        2 * distance(topology, cyc[0], c) - 1 for cyc in cycles(sigma) for c in cyc[1:]
    )
