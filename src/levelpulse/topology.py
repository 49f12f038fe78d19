"""Single-quantum transition graphs over the 2^N energy levels.

Two level structures are modeled.  A quadrupolar chain has its levels in
a line, each connected to its neighbours, giving 2^N - 1 transitions.  A
weakly coupled spin-1/2 system connects any two levels whose spin
patterns differ in exactly one position, giving N * 2^(N-1) transitions
(a hypercube).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "QUADRUPOLAR_CHAIN",
    "SPIN_HALF_HYPERCUBE",
    "Topology",
    "Labeling",
    "build_topology",
    "conventional_labeling",
    "gray_labeling",
    "single_quantum_distance",
]

QUADRUPOLAR_CHAIN = "quadrupolar_chain"
SPIN_HALF_HYPERCUBE = "spin_half_hypercube"

MAX_QUBITS = 10  # 2^10 levels; keeps every structure desk-sized


@dataclass(frozen=True)
class Topology:
    """An undirected graph of energy levels joined by single-quantum transitions."""

    kind: str
    n_qubits: int

    @property
    def level_count(self) -> int:
        return 1 << self.n_qubits

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        n = self.level_count
        if self.kind == QUADRUPOLAR_CHAIN:
            return tuple((i, i + 1) for i in range(n - 1))
        out = []
        for i in range(n):
            for b in range(self.n_qubits):
                j = i | (1 << b)
                if j != i:
                    out.append((i, j))
        return tuple(sorted(out))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.level_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(sorted(v)) for v in adj)

    def is_edge(self, a: int, b: int) -> bool:
        # the range check matters: (-2, -1) passes both adjacency tests
        n = 1 << self.n_qubits
        if not (0 <= a < n and 0 <= b < n):
            return False
        if self.kind == QUADRUPOLAR_CHAIN:
            return abs(a - b) == 1
        return (a ^ b).bit_count() == 1

    def magnetic_quantum_number(self, level: int) -> Fraction:
        """m value of a chain level; the top level carries m = (2^N - 1)/2."""
        from fractions import Fraction

        if self.kind != QUADRUPOLAR_CHAIN:
            raise ValueError("magnetic quantum numbers apply to the chain only")
        self._check_level(level)
        return Fraction(self.level_count - 1, 2) - level

    def m_text(self, level: int) -> str:
        """Text of ``magnetic_quantum_number``, e.g. ``+7/2``; 2^N - 1 - 2 level is odd."""
        return "{:+d}/2".format(self.level_count - 1 - 2 * level)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.level_count:
            raise ValueError("level {} out of range".format(level))


def build_topology(kind: str, n_qubits: int) -> Topology:
    """Build a transition topology of the given kind."""
    if kind not in (QUADRUPOLAR_CHAIN, SPIN_HALF_HYPERCUBE):
        raise ValueError("unknown topology kind {!r}".format(kind))
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError("n_qubits must be in [1, {}]".format(MAX_QUBITS))
    return Topology(kind, n_qubits)


@dataclass(frozen=True)
class Labeling:
    """A bijection between energy levels and N-bit labels.

    ``level_to_label[level]`` is the label (as an integer) attached to
    that level.
    """

    n_qubits: int
    level_to_label: tuple[int, ...]

    def __post_init__(self) -> None:
        size = 1 << self.n_qubits
        if len(self.level_to_label) != size or sorted(self.level_to_label) != list(range(size)):
            raise ValueError("labeling must use every label exactly once")

    @cached_property
    def label_to_level(self) -> tuple[int, ...]:
        inv = [0] * len(self.level_to_label)
        for level, label in enumerate(self.level_to_label):
            inv[label] = level
        return tuple(inv)

    def label_of(self, level: int) -> int:
        return self.level_to_label[level]

    def level_of(self, label: int) -> int:
        return self.label_to_level[label]

    def induced(self, p: Callable[[int], int]) -> tuple[int, ...]:
        """Level permutation of a label permutation ``p``.

        Entry ``level`` is the level the amplitude starting there ends on.
        """
        to_level = self.label_to_level
        return tuple(to_level[p(label)] for label in self.level_to_label)

    def label_bits(self, level: int) -> str:
        return format(self.level_to_label[level], "0{}b".format(self.n_qubits))


def conventional_labeling(t: Topology) -> Labeling:
    """Label level i with the binary expansion of i.

    On the chain this counts down from the top level in binary order; on
    the hypercube the label equals the spin-state bit pattern itself.
    """
    return Labeling(t.n_qubits, tuple(range(t.level_count)))


def gray_labeling(t: Topology) -> Labeling:
    """Label level i with the reflected binary Gray code of i."""
    return Labeling(t.n_qubits, tuple(i ^ (i >> 1) for i in range(t.level_count)))


def single_quantum_distance(t: Topology, a: int, b: int) -> int:
    """Shortest-path edge count between two levels."""
    t._check_level(a)
    t._check_level(b)
    if t.kind == QUADRUPOLAR_CHAIN:
        return abs(a - b)
    return (a ^ b).bit_count()
