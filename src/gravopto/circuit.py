"""Gate-level circuit container and the fixed gates' matrices.

Gate definitions (exact, testable):

    X                       Pauli X
    SX   = sqrt(X)          0.5*[[1+i, 1-i], [1-i, 1+i]]
    SXdg = SX^-1
    H                       Hadamard
    S    = diag(1, i)       Sdg = S^-1
    Rx(theta) = exp(-i*theta/2 * X)
    Rz(lam)   = exp(-i*lam/2 * Z)
    U1(lam)   = diag(1, exp(i*lam))     (S == U1(pi/2))
    CNOT(control, target)
    Measure(qubit, cbit)

Circuits are immutable values: a register width and a gate tuple, nothing
more. Gates apply in list order; the circuit unitary is the reverse-order
matrix product. Qubit 0 is the leftmost tensor factor.
Measure gates may only appear as a trailing suffix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the dense limit: 4**12 entries in a simulator pass or a calibration matrix
MAX_DENSE_QUBITS = 12

GATE_KINDS = ("x", "sx", "sxdg", "h", "s", "sdg", "rx", "rz", "u1", "cx", "measure")
PARAM_KINDS = ("rx", "rz", "u1")
SINGLE_QUBIT_KINDS = ("x", "sx", "sxdg", "h", "s", "sdg", "rx", "rz", "u1")

_SQRT2 = math.sqrt(2.0)

FIXED_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}
# Pauli indices: I, X, Y, Z = 0, 1, 2, 3. For a fixed one-qubit kind U and
# P = X, Y, Z, U^dag P U is one signed Pauli: (its index, its sign).
PAULI_1Q = {
    "x": ((1, 1), (2, -1), (3, -1)), "sx": ((1, 1), (3, -1), (2, 1)),
    "sxdg": ((1, 1), (3, 1), (2, -1)), "h": ((3, 1), (2, -1), (1, 1)),
    "s": ((2, -1), (1, 1), (3, 1)), "sdg": ((2, 1), (1, -1), (3, 1)),
}
# the angles at which an Rz (or U1) is exactly k quarter turns, k mod 4; it
# is then S**k up to a phase, and RZ_PAULI[k] is its map as in PAULI_1Q
TURNS_OF = {0.0: 0, math.pi / 2: 1, math.pi: 2, -math.pi / 2: 3, -math.pi: 2}
RZ_PAULI = (((1, 1), (2, 1), (3, 1)), PAULI_1Q["s"], ((1, -1), (2, -1), (3, 1)), PAULI_1Q["sdg"])


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param: float | None = None
    cbit: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")
        if self.kind == "cx":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("cx needs two distinct qubits")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")
        if self.kind in PARAM_KINDS:
            if self.param is None:
                raise ValueError(f"{self.kind} needs an angle")
            object.__setattr__(self, "param", float(self.param))
            if not math.isfinite(self.param):
                raise ValueError(f"{self.kind} angle {self.param} is not finite")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")
        if self.kind == "measure":
            if self.cbit is None or self.cbit < 0:
                raise ValueError("measure needs a nonnegative classical bit")
        elif self.cbit is not None:
            raise ValueError("only measure carries a classical bit")

    @classmethod
    def _trusted(cls, kind: str, qubits: tuple[int, ...], param: float | None = None,
                 cbit: int | None = None) -> "Gate":
        """A gate from fields already in checked form (int qubits, float param),
        built without ``__post_init__``; for compilers re-emitting checked gates."""
        gate = object.__new__(cls)
        # field by field, as the generated __init__ does: one __dict__.update
        # gives each gate a full dict of its own, and compiled circuits then
        # took about 1.6 times the memory
        object.__setattr__(gate, "kind", kind)
        object.__setattr__(gate, "qubits", qubits)
        object.__setattr__(gate, "param", param)
        object.__setattr__(gate, "cbit", cbit)
        return gate


def x(q: int) -> Gate:
    return Gate("x", (q,))


def h(q: int) -> Gate:
    return Gate("h", (q,))


def s(q: int) -> Gate:
    return Gate("s", (q,))


def sdg(q: int) -> Gate:
    return Gate("sdg", (q,))


def rx(q: int, theta: float) -> Gate:
    return Gate("rx", (q,), param=theta)


def u1(q: int, lam: float) -> Gate:
    return Gate("u1", (q,), param=lam)


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def measure(qubit: int, cbit: int) -> Gate:
    return Gate("measure", (qubit,), cbit=cbit)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        seen_measure = False
        used_cbits: set[int] = set()
        measured_qubits: set[int] = set()
        for g in self.gates:
            if not isinstance(g, Gate):
                raise TypeError(f"not a Gate: {g!r}")
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate {g.kind} touches qubit {max(g.qubits)} "
                                 f"outside a {self.n_qubits}-qubit register")
            if g.kind == "measure":
                if g.cbit in used_cbits:
                    raise ValueError(f"classical bit {g.cbit} measured twice")
                if g.qubits[0] in measured_qubits:
                    raise ValueError(f"qubit {g.qubits[0]} measured twice")
                used_cbits.add(g.cbit)
                measured_qubits.add(g.qubits[0])
                seen_measure = True
            elif seen_measure:
                raise ValueError("unitary gate after measurement")

    @classmethod
    def _trusted(cls, n_qubits: int, gates: tuple[Gate, ...]) -> "Circuit":
        """A circuit of gates already known to fit a valid ``n_qubits`` register,
        built without ``__post_init__``; for compilers re-emitting checked gates."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "n_qubits", n_qubits)
        object.__setattr__(circuit, "gates", gates)
        return circuit

    @property
    def has_measurements(self) -> bool:
        return any(g.kind == "measure" for g in self.gates)

    @property
    def measurements(self) -> tuple[tuple[int, int], ...]:
        """(qubit, cbit) pairs in gate order."""
        return tuple((g.qubits[0], g.cbit) for g in self.gates if g.kind == "measure")

    def gate_counts(self) -> tuple[int, int]:
        """(single-qubit count, cnot count); measurements excluded."""
        single = sum(1 for g in self.gates if g.kind in SINGLE_QUBIT_KINDS)
        two = sum(1 for g in self.gates if g.kind == "cx")
        return single, two

