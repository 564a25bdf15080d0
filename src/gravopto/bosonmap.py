"""Dual-rail (one-hot) encoding of the two modes onto four qubits.

The experiment couples two modes, matter (mode 0) and light (mode 1), each
truncated to levels 0 and 1. Mode m occupies the qubit pair (2m, 2m + 1):
level 0 puts the excitation on qubit 2m + 1, level 1 on qubit 2m, so

    |0>_m <-> |0 1> on qubits (0, 1)      |0>_p <-> |0 1> on qubits (2, 3)
    |1>_m <-> |1 0> on qubits (0, 1)      |1>_p <-> |1 0> on qubits (2, 3)

and the physical subspace is spanned by bitstrings 0101, 0110, 1001, 1010
(qubit 0 leftmost). Under this encoding the interaction
-g (b + b^dag)(a + a^dag) becomes
-(g/4) (XXXX + XXYY + YYXX + YYYY).
"""
from __future__ import annotations

from .circuit import Circuit, x

# two modes, one qubit pair each
N_QUBITS = 4

# Physical 4-qubit bitstrings paired with (matter, photon) logical labels.
PHYSICAL_SUBSPACE = (
    ("0101", (0, 0)),
    ("0110", (0, 1)),
    ("1001", (1, 0)),
    ("1010", (1, 1)),
)
PHYSICAL_BITSTRINGS = tuple(bits for bits, _ in PHYSICAL_SUBSPACE)
SUBSPACE_INDICES = tuple(int(bits, 2) for bits in PHYSICAL_BITSTRINGS)

# Pauli factors of the mapped interaction, in the order the evolution
# circuit realises them.
INTERACTION_FACTORS = ("XXXX", "XXYY", "YYXX", "YYYY")


def ground_state_prep() -> Circuit:
    """Circuit preparing |0>_m |0>_p from the all-zeros register.

    The ground state of each mode is |0 1> on its qubit pair, so flip the
    second qubit, 2m + 1, of every mode m.
    """
    gates = [x(2 * m + 1) for m in range(N_QUBITS // 2)]
    return Circuit(N_QUBITS, tuple(gates))
