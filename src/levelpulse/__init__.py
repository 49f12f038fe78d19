"""Compile reversible logic to transition-selective pulse sequences.

The package maps reversible truth tables (bijections on the 2^N
computational basis states) to minimal sequences of transition-selective
pi pulses on two level-diagram topologies, optimizes the level labeling,
and verifies the result at the unitary and population level.
"""

from .permutation import (
    MaximalSetDecomposition,
    Permutation,
    TruthTableError,
    bit_string,
    builtin_operation,
    compose,
    count_optimal_labelings,
    cycles,
    maximal_sets,
    min_pulse_count,
    parse_truth_table,
)
from .topology import (
    QUADRUPOLAR_CHAIN,
    SPIN_HALF_HYPERCUBE,
    Labeling,
    Topology,
    build_topology,
    conventional_labeling,
    gray_labeling,
    single_quantum_distance,
)
from .labeler import (
    LabelingScheme,
    enumerate_ols_quadrupolar,
    ols_quadrupolar,
    parse_labeling,
    relabel_pairswap_spin_half,
    relabel_parallel_spin_half,
    serialize_labeling,
)
from .synthesizer import (
    PulseCountReport,
    PulseSequence,
    parse_pulse_program,
    pulse_count_report,
    schedule_rounds,
    scheme_for,
    serialize_pulse_program,
    synthesize_fixed_labeling,
    synthesize_named,
    synthesize_scheme,
)
from .simulator import (
    Stick,
    Verdict,
    equilibrium_populations,
    final_populations,
    pulse_unitary,
    sequence_product,
    sequence_unitary,
    serialize_spectrum,
    stick_spectrum,
    verify_permutation,
)

__version__ = "0.1.0"
