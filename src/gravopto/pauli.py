"""Exact algebra of phased Pauli strings.

A PauliString is a tensor product of single-qubit factors I, X, Y, Z carrying
a global phase restricted to {+1, +i, -1, -i}. The phase is stored as an
integer power of i, never as a float, so equality and commutation checks are
exact.

Convention used across the whole package: qubit 0 is the leftmost tensor
factor, i.e. the most significant bit of a computational-basis index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .circuit import MAX_DENSE_QUBITS
from .errors import CapacityError

PHASE_VALUES = (1, 1j, -1, -1j)

_SINGLE_MATRICES = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli product with an exact phase i**phase_power."""

    factors: str
    phase_power: int = 0

    def __post_init__(self):
        if not self.factors:
            raise ValueError("PauliString needs at least one factor")
        bad = set(self.factors) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli factors: {sorted(bad)}")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @property
    def phase(self) -> complex:
        return PHASE_VALUES[self.phase_power]

    def commutes(self, other: "PauliString") -> bool:
        """Exact commutation test: count anticommuting factor pairs."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("size mismatch in commutation test")
        clashes = sum(
            1
            for a, b in zip(self.factors, other.factors)
            if a != "I" and b != "I" and a != b
        )
        return clashes % 2 == 0

    def matrix(self) -> np.ndarray:
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise CapacityError(
                f"dense matrix for {self.n_qubits} qubits exceeds the "
                f"{MAX_DENSE_QUBITS}-qubit limit"
            )
        full = reduce(np.kron, (_SINGLE_MATRICES[f] for f in self.factors))
        return self.phase * full


class PauliSum:
    """A real-coefficient combination of equal-size Pauli strings, kept as
    the (coefficient, string) pairs given, in order."""

    def __init__(self, terms: Iterable[tuple[float, PauliString]], n_qubits: int | None = None):
        self._terms = tuple(terms)
        self.n_qubits = self._terms[0][1].n_qubits if n_qubits is None else n_qubits

    def matrix(self) -> np.ndarray:
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise CapacityError(f"{self.n_qubits} qubits exceeds dense limit")
        total = np.zeros((2 ** self.n_qubits,) * 2, dtype=complex)
        for coeff, string in self._terms:
            total += coeff * string.matrix()
        return total

    def __iter__(self):
        return iter(self._terms)
