"""Dual-rail (one-hot) encoding of two truncated bosonic modes onto qubits.

Each mode keeps Fock levels 0..n_p and occupies the qubit block
(n_p + 1) * m .. (n_p + 1) * m + n_p. A mode in level l puts a single
excitation on the (n_p - l)-th qubit of its block, so with n_p = 1 the
level-0 state reads |0 1> and the level-1 state reads |1 0>.

For the coupling studied here (two modes, n_p = 1, four qubits):

    |0>_m <-> |0 1> on qubits (0, 1)      |0>_p <-> |0 1> on qubits (2, 3)
    |1>_m <-> |1 0> on qubits (0, 1)      |1>_p <-> |1 0> on qubits (2, 3)

so the physical subspace is spanned by bitstrings 0101, 0110, 1001, 1010
(qubit 0 leftmost). Under this encoding the interaction
-g (b + b^dag)(a + a^dag) becomes
-(g/4) (XXXX + XXYY + YYXX + YYYY).
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, x
from .errors import CapacityError
from .pauli import PauliString, PauliSum

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


def qubit_count(n_modes: int, n_p: int) -> int:
    """Qubits needed to hold n_modes modes truncated at occupation n_p."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if n_p < 1:
        raise ValueError("truncation level must be at least 1")
    return n_modes * (n_p + 1)


@dataclass(frozen=True)
class ModeEncoding:
    """Placement of mode levels on qubits."""

    n_modes: int = 2
    n_p: int = 1

    def __post_init__(self):
        qubit_count(self.n_modes, self.n_p)  # validates

    @property
    def n_qubits(self) -> int:
        return qubit_count(self.n_modes, self.n_p)

    def qubit_of(self, mode: int, level: int) -> int:
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} out of range")
        if not 0 <= level <= self.n_p:
            raise ValueError(f"level {level} out of range")
        return (self.n_p + 1) * mode + level

    def _require_two_level_pair(self, what: str):
        if (self.n_modes, self.n_p) != (2, 1):
            raise CapacityError(f"{what} is only defined for two modes at n_p = 1")


def mapped_hamiltonian(g: float, encoding: ModeEncoding = ModeEncoding()) -> PauliSum:
    """Qubit image of -g (b + b^dag)(a + a^dag) under the dual-rail encoding."""
    encoding._require_two_level_pair("the mapped Hamiltonian")
    coeff = -g / 4.0
    return PauliSum(
        [(coeff, PauliString(f)) for f in INTERACTION_FACTORS], n_qubits=4
    )


def ground_state_prep(encoding: ModeEncoding = ModeEncoding()) -> Circuit:
    """Circuit preparing |0>_m |0>_p from the all-zeros register.

    The ground state of each mode is |0 1> on its qubit pair, so flip the
    second qubit, (n_p + 1) * m + 1, of every mode.
    """
    encoding._require_two_level_pair("ground-state preparation")
    gates = [x(encoding.qubit_of(m, 1)) for m in range(encoding.n_modes)]
    return Circuit(encoding.n_qubits, tuple(gates), {"segment": "ground-prep"})
