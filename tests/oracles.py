"""Dense references and helpers that the tests check the package against.

No command, sweep or bench script needs them: a run uses the four
interaction strings, never their matrices. ``matrix_of`` writes out a
gate's matrix, and ``pauli_matrix``, ``mapped_hamiltonian`` and
``unitary_of`` are Kronecker products, apart from the simulator they
check; ``run_ideal`` steps the simulator's own kernel one gate at a time;
``bound_points`` gives each point of a compiled sweep its own circuits,
which a sweep never builds, and ``run_point`` its own sweep of one point.
``sx``, ``sxdg`` and ``rz`` build gates that only tests write by hand (the
transpiler and the QASM parser make theirs through ``Gate``).
"""
import dataclasses
import math
from functools import reduce

import numpy as np

from gravopto.bosonmap import INTERACTION_FACTORS, N_QUBITS
from gravopto.circuit import FIXED_MATRICES, MAX_DENSE_QUBITS, Circuit, Gate
from gravopto.errors import CapacityError
from gravopto.experiment import _rows, compile_sweep
from gravopto.simulator import _Kernel
from gravopto.tomography import SETTING_LABELS

_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def sx(q: int) -> Gate:
    return Gate("sx", (q,))


def sxdg(q: int) -> Gate:
    return Gate("sxdg", (q,))


def rz(q: int, lam: float) -> Gate:
    return Gate("rz", (q,), param=lam)


def matrix_of(gate: Gate) -> np.ndarray:
    """Dense matrix of a unitary gate (2x2, or 4x4 for cx)."""
    if gate.kind in FIXED_MATRICES:
        return FIXED_MATRICES[gate.kind].copy()
    if gate.kind == "rx":
        half = gate.param / 2.0
        c, sn = math.cos(half), math.sin(half)
        return np.array([[c, -1j * sn], [-1j * sn, c]])
    if gate.kind == "rz":
        half = gate.param / 2.0
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])
    if gate.kind == "u1":
        return np.array([[1, 0], [0, np.exp(1j * gate.param)]])
    if gate.kind == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"{gate.kind} has no unitary matrix")


def pauli_matrix(factors: str) -> np.ndarray:
    """The Pauli string ``factors`` as a dense matrix, qubit 0 leftmost."""
    return reduce(np.kron, (_PAULI[f] for f in factors))


def mapped_hamiltonian(g: float) -> np.ndarray:
    """Qubit image of -g (b + b^dag)(a + a^dag) under the dual-rail
    encoding: -(g/4) times the sum of the interaction strings."""
    total = np.zeros((2 ** N_QUBITS,) * 2, dtype=complex)
    for factors in INTERACTION_FACTORS:
        total += -g / 4.0 * pauli_matrix(factors)
    return total


def _embedded(gate: Gate, n: int) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    if gate.kind == "cx":
        c, t = gate.qubits
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        hold = [eye] * n
        hold[c] = p0
        term0 = reduce(np.kron, hold)
        hold = [eye] * n
        hold[c] = p1
        hold[t] = FIXED_MATRICES["x"]
        term1 = reduce(np.kron, hold)
        return term0 + term1
    hold = [eye] * n
    hold[gate.qubits[0]] = matrix_of(gate)
    return reduce(np.kron, hold)


def unitary_of(c: Circuit) -> np.ndarray:
    """Dense unitary of a measurement-free circuit.

    Composition convention: for gates [g1, g2, ...] applied in order the
    result is ... @ U(g2) @ U(g1).
    """
    if c.has_measurements:
        raise ValueError("circuit with measurements has no unitary")
    if c.n_qubits > MAX_DENSE_QUBITS:
        raise CapacityError(f"{c.n_qubits} qubits exceeds the dense limit")
    total = np.eye(2 ** c.n_qubits, dtype=complex)
    for g in c.gates:
        total = _embedded(g, c.n_qubits) @ total
    return total


def run_ideal(c: Circuit) -> np.ndarray:
    """Final statevector from |0...0>, flat shape (2**n,). Measurements are skipped."""
    psi = np.zeros((1, 2 ** c.n_qubits), dtype=complex)
    psi[0, 0] = 1.0
    kernel = _Kernel(c.n_qubits, mixed=False)
    for g in c.gates:
        if g.kind != "measure":
            psi = kernel.apply(psi, g.kind, g.qubits, [g.param])
    return psi.reshape(-1)


def bound_points(compiled) -> list:
    """Each point of ``compile_sweep``'s sweep as it runs: its evolution
    circuit and {setting label: (setting, circuit)}, each a template with the
    point's angle at every lane. ZZ, IZ and ZI share one circuit."""
    def bound(template, p):
        circuit, lanes = compiled.laned(template)
        return Circuit(circuit.n_qubits, tuple(
            Gate(g.kind, g.qubits, lanes[i][p], g.cbit) if i in lanes else g
            for i, g in enumerate(circuit.gates)))

    points = []
    for p in range(len(compiled.cores)):
        circuits = {}
        for template, settings in compiled.settings:
            circuit = bound(template, p)
            circuits.update((setting.label, (setting, circuit)) for setting in settings)
        points.append((bound(compiled.evolution, p), {label: circuits[label] for label in SETTING_LABELS}))
    return points


def run_point(cfg, epsilon: float, seed: int) -> dict:
    """The sweep row of one point, its config's one-point sweep with ``seed``."""
    cfg = dataclasses.replace(cfg, epsilon_values=(epsilon,))
    return _rows(cfg, compile_sweep(cfg), [seed])[0]


def exact_state(epsilon: float) -> np.ndarray:
    """cos(eps)|00> + i sin(eps)|11>, the exact two-level evolution."""
    return np.array([math.cos(epsilon), 0.0, 0.0, 1j * math.sin(epsilon)])


def concurrence(state) -> float:
    """sqrt(2 (1 - tr rho_m^2)) for a pure two-mode state: four normalized
    amplitudes, matter mode first."""
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.size != 4:
        raise ValueError("expected a two-mode state")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    psi = vec.reshape(2, 2)
    rho_m = psi @ psi.conj().T
    purity = float(np.real(np.trace(rho_m @ rho_m)))
    return math.sqrt(max(2.0 * (1.0 - purity), 0.0))


def exact_traces(epsilon: float) -> dict:
    """Correlators of exact_state(epsilon)."""
    return {
        "ZZ": 1.0,
        "XY": math.sin(2.0 * epsilon),
        "YX": math.sin(2.0 * epsilon),
        "IZ": math.cos(2.0 * epsilon),
        "ZI": math.cos(2.0 * epsilon),
    }


def perturbative_traces(epsilon: float) -> dict:
    """Second-order predictions: 2 eps off-diagonals, 1 - 2 eps^2 populations."""
    return {
        "ZZ": 1.0,
        "XY": 2.0 * epsilon,
        "YX": 2.0 * epsilon,
        "IZ": 1.0 - 2.0 * epsilon ** 2,
        "ZI": 1.0 - 2.0 * epsilon ** 2,
    }
