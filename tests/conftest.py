import pytest

from levelpulse import Labeling, PulseSequence, builtin_operation

# transcription of the reference 4-qubit adder truth table
FULL_ADDER_DOC = """\
# 4-qubit reversible adder
qubits: 4
0000 -> 0000
0001 -> 0001
0010 -> 0010
0011 -> 0011
0100 -> 0110
0101 -> 0111
0110 -> 0101
0111 -> 0100
1000 -> 1010
1001 -> 1011
1010 -> 1001
1011 -> 1000
1100 -> 1101
1101 -> 1100
1110 -> 1111
1111 -> 1110
"""

FULL_ADDER_SETS = """\
S1={|0000>}
S2={|0001>}
S3={|0010>}
S4={|0011>}
S5={|0100>,|0110>,|0101>,|0111>}
S6={|1000>,|1010>,|1001>,|1011>}
S7={|1100>,|1101>}
S8={|1110>,|1111>}"""


@pytest.fixture
def full_adder():
    return builtin_operation("fulladder4")


def conventional(n_qubits):
    """The conventional labeling of ``n_qubits``: level i carries label i."""
    return Labeling(n_qubits, tuple(range(1 << n_qubits)))


def one_per_round(labeling, pulses):
    """A one-pulse-per-round sequence; a qubit count stands for its conventional labeling."""
    if isinstance(labeling, int):
        labeling = conventional(labeling)
    pulses = tuple(pulses)
    return PulseSequence(labeling, pulses, (1,) * len(pulses))
