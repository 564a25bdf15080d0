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
    """A real-coefficient combination of Pauli strings in canonical form.

    Canonical form folds every string phase into its coefficient (only +-1
    phases can do that; +-i would make a real coefficient imaginary and is
    rejected), merges repeated strings and drops exact zeros. Terms are kept
    sorted by factor text so equal sums compare equal.
    """

    def __init__(self, terms: Iterable[tuple[float, PauliString]], n_qubits: int | None = None):
        merged: dict[str, float] = {}
        size = n_qubits
        for coeff, string in terms:
            if size is None:
                size = string.n_qubits
            elif string.n_qubits != size:
                raise ValueError("mixed string sizes in PauliSum")
            if string.phase_power % 2 == 1:
                raise ValueError("a +-i phase cannot carry a real coefficient")
            signed = float(coeff) * (1 if string.phase_power == 0 else -1)
            merged[string.factors] = merged.get(string.factors, 0.0) + signed
        self._n_qubits = size
        self._terms = tuple(
            (c, PauliString(f)) for f, c in sorted(merged.items()) if c != 0.0
        )

    @property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        return self._terms

    @property
    def n_qubits(self) -> int | None:
        return self._n_qubits

    def matrix(self) -> np.ndarray:
        if self._n_qubits is None:
            raise ValueError("empty PauliSum with no declared qubit count")
        if self._n_qubits > MAX_DENSE_QUBITS:
            raise CapacityError(f"{self._n_qubits} qubits exceeds dense limit")
        dim = 2 ** self._n_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for coeff, string in self._terms:
            total += coeff * string.matrix()
        return total

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "PauliSum([])"
        body = " ".join(f"{c:+g}*{s.factors}" for c, s in self._terms)
        return f"PauliSum({body})"
