"""Exact pulse products, permutation verification, populations and spectra.

A pi_y pulse on one transition is the identity except for the 2x2 block
(0, 1 / -1, 0) on its two levels, with the +1 in the upper triangle of
the label-ordered basis.  The product of a ``PulseSequence``, whose
constructor has already checked every level, is taken in application
order with the first pulse leftmost, so the realized permutation is read
along rows: the single nonzero entry of row j sits in the column the
amplitude of level j moves to, and its sign is the residual controlled
phase.  Every product is therefore a signed permutation, tracked exactly
as one destination level and one +1/-1 phase per row; verification
compares the levels and reports the phases without judging them.

Populations use the high-temperature deviation model with equal unit
steps per spin flip, which keeps every equilibrium and final population
an exact small integer (or half-integer for odd N), held as a
``Fraction``.  A stick spectrum assigns each transition the population
difference across its edge, which is always an integer.  numpy is needed
only by the dense fixture views ``pulse_unitary`` and
``sequence_unitary``, which import it when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .labeler import LabelingScheme
from .permutation import Permutation
from .synthesizer import Pulse, PulseSequence
from .topology import QUADRUPOLAR_CHAIN, Topology

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

__all__ = [
    "pulse_unitary",
    "sequence_product",
    "sequence_unitary",
    "Verdict",
    "verify_permutation",
    "equilibrium_populations",
    "final_populations",
    "Stick",
    "stick_spectrum",
    "serialize_spectrum",
]


def pulse_unitary(pulse: "Pulse | tuple[int, int]", dim: int) -> np.ndarray:
    """Matrix of one transition-selective pi_y pulse.

    The +1 entry sits in the row of the level carrying the lower label
    (for bare level pairs the labels default to the levels themselves).
    Applying the pulse twice leaves a -1 phase on both levels (a 2 pi
    rotation) and the identity elsewhere.  This is the independent dense
    reference for :func:`sequence_product`, so it checks its levels itself.
    """
    import numpy as np

    if isinstance(pulse, Pulse):
        a, b, label_a, label_b = pulse
    else:
        a, b = label_a, label_b = pulse
    if a == b:
        raise ValueError("pulse levels must differ")
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError("pulse levels ({}, {}) out of range for dim {}".format(a, b, dim))
    lo, hi = (a, b) if label_a < label_b else (b, a)
    m = np.eye(dim, dtype=complex)
    m[lo, lo] = m[hi, hi] = 0.0
    m[lo, hi] = 1.0
    m[hi, lo] = -1.0
    return m


def sequence_product(seq: PulseSequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact product of a ``PulseSequence`` in application order.

    Returns ``(realized, phases)``: the product's row j has its single
    nonzero entry ``phases[j]`` (+1 or -1) in column ``realized[j]``.
    Each pulse moves the row sitting on the lower-label level to the
    other level unchanged, and the row on the other level back with its
    sign flipped, so the whole product costs O(P + 2^N).  An empty
    sequence gives the identity.
    """
    dim = 1 << seq.n_qubits
    row_at = list(range(dim))  # row whose nonzero entry sits in each column
    sign_at = [1] * dim  # and the sign of that entry
    for a, b, label_a, label_b in seq.pulses:
        if label_a > label_b:  # a becomes the level carrying the lower label
            a, b = b, a
        row_at[a], row_at[b] = row_at[b], row_at[a]
        sign_at[a], sign_at[b] = -sign_at[b], sign_at[a]
    realized = [0] * dim
    phases = [0] * dim
    for col, row in enumerate(row_at):
        realized[row] = col
        phases[row] = sign_at[col]
    return tuple(realized), tuple(phases)


def sequence_unitary(seq: PulseSequence) -> np.ndarray:
    """Dense matrix of :func:`sequence_product`, for small fixtures."""
    import numpy as np

    realized, phases = sequence_product(seq)
    u = np.zeros((len(realized), len(realized)), dtype=complex)
    u[np.arange(len(realized)), realized] = phases
    return u


@dataclass(frozen=True)
class Verdict:
    """Outcome of a permutation check that reports phases without judging them.

    ``realized`` is the level permutation actually implemented (the
    destination level of each row) and ``phases`` the +1/-1 picked up
    by each input state.  ``problems`` lists the mismatches on failure.
    """

    passed: bool
    realized: tuple[int, ...]
    phases: tuple[int, ...]
    problems: tuple[str, ...] = ()


def verify_permutation(
    product: tuple[Sequence[int], Sequence[int]],
    p: Permutation,
    scheme: LabelingScheme,
) -> Verdict:
    """Check that a :func:`sequence_product` realizes a truth table up to phases.

    Every row must move to the level the scheme maps the row's output
    label to.
    """
    realized, phases = product
    if len(realized) != p.size:
        raise ValueError(
            "product dimension {} does not match 2^N = {}".format(len(realized), p.size)
        )
    expected = scheme.labeling.induced(p)
    problems = tuple(
        "level {} maps to level {}, expected {}".format(row, got, want)
        for row, (got, want) in enumerate(zip(realized, expected))
        if got != want
    )
    return Verdict(not problems, tuple(realized), tuple(phases), problems)


def equilibrium_populations(t: Topology) -> tuple[Fraction, ...]:
    """Deviation populations at thermal equilibrium.

    Each level's population counts its spin-up content: N/2 minus the
    number of set bits in the level index, so one spin flip changes the
    value by exactly 1 and the populations sum to zero.  The labeling
    scheme does not enter; populations are physical per level.
    """
    from fractions import Fraction

    half = Fraction(t.n_qubits, 2)
    return tuple(half - level.bit_count() for level in range(t.level_count))


def final_populations(
    eq: Sequence[Fraction], p: Permutation, scheme: LabelingScheme
) -> tuple[Fraction, ...]:
    """Populations after the operation: each one moves with its state.

    The level ending up with output label y holds the population that
    started on the level carrying the input label mapped to y.
    """
    sigma = scheme.labeling.induced(p)
    inv = [0] * len(sigma)
    for src, dst in enumerate(sigma):
        inv[dst] = src
    return tuple(eq[inv[lv]] for lv in range(len(sigma)))


@dataclass(frozen=True)
class Stick:
    """One transition line: flipped spin, spectator label and intensity.

    For the chain the spin index is 0 and the transition is named by its
    magnetic quantum number pair.
    """

    spin: int
    transition: str
    level_a: int
    level_b: int
    intensity: int


def stick_spectrum(pop: Sequence[Fraction], t: Topology) -> tuple[Stick, ...]:
    """One stick per transition, intensity = population difference.

    The lower-index endpoint comes first.  Hypercube sticks are grouped
    by flipped spin (1..N, spin 1 the most significant bit) and ordered
    by spectator state; chain sticks follow the level order.
    """
    sticks = []
    if t.kind == QUADRUPOLAR_CHAIN:
        for a in range(t.level_count - 1):
            b = a + 1
            name = "{}->{}".format(t.m_text(a), t.m_text(b))
            sticks.append(Stick(0, name, a, b, int(pop[a] - pop[b])))
        return tuple(sticks)
    n = t.n_qubits
    for spin in range(1, n + 1):
        bit = 1 << (n - spin)
        for a in range(t.level_count):
            if a & bit:
                continue
            b = a | bit
            spectator = "".join(
                str((a >> (n - s)) & 1) for s in range(1, n + 1) if s != spin
            )
            sticks.append(Stick(spin, spectator, a, b, int(pop[a] - pop[b])))
    return tuple(sticks)


def serialize_spectrum(sticks: Sequence[Stick], ascii_bars: bool = False) -> str:
    """Text table of a stick spectrum, one transition per line."""
    lines = ["spin  transition  intensity"]
    for s in sticks:
        spin = "I{}".format(s.spin) if s.spin else "q"
        row = "{}  {}  {:+d}".format(spin, s.transition, s.intensity)
        if ascii_bars:
            bar = ("#" * s.intensity) if s.intensity > 0 else ("-" * (-s.intensity))
            row = "{}  |{}".format(row, bar)
        lines.append(row)
    return "\n".join(lines)
