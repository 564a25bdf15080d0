import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from gravopto.bosonmap import INTERACTION_FACTORS, SUBSPACE_INDICES
from gravopto.circuit import Circuit, u1
from gravopto.digitizer import (
    build_evolution_circuit,
    compile_pauli_exponential,
    core_angle,
)

from oracles import mapped_hamiltonian, pauli_matrix, run_ideal, unitary_of
from test_circuit import linear_distance


def exact_exponential(factors: str, angle: float) -> np.ndarray:
    return expm(1j * angle * pauli_matrix(factors))


def coupling_generator() -> np.ndarray:
    # exp(i eps M) with M = -H/g, so the matrix below is H at g = -1
    return mapped_hamiltonian(-1.0)


def term_circuit(index: int, epsilon: float):
    """The index-th factor (1..4) of exp(i eps M), as the evolution builds it."""
    return compile_pauli_exponential(INTERACTION_FACTORS[index - 1], epsilon / 4)


# every string of four X or Y factors: the kind of term the coupling has
LADDER_STRINGS = ["".join(f) for f in itertools.product("XY", repeat=4)]


class TestPauliExponential:
    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(31)
        for string in LADDER_STRINGS:
            for angle in rng.uniform(-2.0, 2.0, 5):
                circ = compile_pauli_exponential(string, float(angle))
                d = linear_distance(unitary_of(circ), exact_exponential(string, angle))
                assert d <= 1e-12, f"{string} at {angle}: d = {d}"

    def test_closed_form_cos_sin(self):
        # exp(i t P) = cos(t) I + i sin(t) P for any Pauli string P
        string = "XYYX"
        t = 0.31
        want = math.cos(t) * np.eye(16) + 1j * math.sin(t) * pauli_matrix(string)
        got = unitary_of(compile_pauli_exponential(string, t))
        assert linear_distance(got, want) <= 1e-12

    @pytest.mark.parametrize("string", ["IZI", "XXYZ", "XXY", "XXXXX", "III"])
    def test_a_string_that_is_no_ladder_is_rejected(self, string):
        with pytest.raises(ValueError, match=repr(string)):
            compile_pauli_exponential(string, 0.4)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            compile_pauli_exponential("III", 0.1)

    def test_a_letter_that_is_no_pauli_is_rejected(self):
        with pytest.raises(ValueError, match="'XQ'"):
            compile_pauli_exponential("XQ", 0.1)

    def test_cnots_touch_only_the_pivot_and_support(self):
        # the pivot is qubit 0 and the fan reaches qubits 3, 2, 1 and back
        for string in LADDER_STRINGS:
            circ = compile_pauli_exponential(string, 0.7)
            cnots = [g.qubits for g in circ.gates if g.kind == "cx"]
            assert [control for control, _ in cnots] == [0] * 6
            assert [target for _, target in cnots] == [3, 2, 1, 1, 2, 3]


def test_term_circuits_match_their_exponentials():
    eps = 0.37
    factors = ("XXXX", "XXYY", "YYXX", "YYYY")
    for index, label in enumerate(factors, start=1):
        circ = term_circuit(index, eps)
        want = exact_exponential(label, eps / 4.0)
        assert linear_distance(unitary_of(circ), want) <= 1e-12


def test_first_term_gate_sequence():
    # the all-X factor needs no collars: pure fan, core, mirror fan
    circ = term_circuit(1, 0.4)
    kinds = [g.kind for g in circ.gates]
    assert kinds == [
        "cx", "sdg", "cx", "sdg", "cx", "sdg",
        "rx", "u1", "rx",
        "s", "cx", "s", "cx", "s", "cx",
    ]
    fan_targets = [g.qubits[1] for g in circ.gates if g.kind == "cx"]
    assert fan_targets == [3, 2, 1, 1, 2, 3]
    core = [g for g in circ.gates if g.kind in ("rx", "u1")]
    assert core[0].param == pytest.approx(-math.pi / 2)
    assert core[1].param == pytest.approx(0.4 / 2)
    assert core[2].param == pytest.approx(math.pi / 2)


def test_epsilon_guard():
    with pytest.raises(ValueError):
        build_evolution_circuit(1.0)
    with pytest.raises(ValueError):
        build_evolution_circuit(-1.5)


@pytest.mark.parametrize("eps", [1e-7, 1e-4, 1e-2, 0.1, 0.5])
def test_evolution_matches_generator_exponential(eps):
    want = expm(1j * eps * coupling_generator())
    got = unitary_of(build_evolution_circuit(eps))
    assert linear_distance(got, want) <= 1e-10


def test_term_order_is_irrelevant():
    eps = 0.25
    reference = unitary_of(build_evolution_circuit(eps))
    for perm in itertools.permutations((1, 2, 3, 4)):
        total = term_circuit(perm[0], eps)
        for index in perm[1:]:
            total = Circuit(4, total.gates + term_circuit(index, eps).gates)
        assert linear_distance(unitary_of(total), reference) <= 1e-10


def test_evolved_ground_state_and_leakage():
    eps = 0.1
    circ = build_evolution_circuit(eps, prepend_ground_prep=True)
    state = run_ideal(circ).reshape(-1)
    want = np.zeros(16, dtype=complex)
    want[int("0101", 2)] = math.cos(eps)
    want[int("1010", 2)] = 1j * math.sin(eps)
    # remove the known global phase exp(i eps) before comparing
    aligned = state * np.exp(-1j * np.angle(state[int("0101", 2)]))
    assert np.allclose(aligned, want, atol=1e-10)
    outside = np.delete(np.abs(state) ** 2, list(SUBSPACE_INDICES))
    assert outside.sum() <= 1e-12


def test_evolution_preserves_subspace():
    rng = np.random.default_rng(77)
    for _ in range(20):
        eps = float(rng.uniform(-0.9, 0.9))
        u = unitary_of(build_evolution_circuit(eps))
        inside = np.zeros(16)
        inside[list(SUBSPACE_INDICES)] = 1.0
        outside_rows = u[inside == 0][:, inside == 1]
        assert np.abs(outside_rows).max() <= 1e-12


def test_gate_budget_of_logical_circuit():
    circ = build_evolution_circuit(0.1, prepend_ground_prep=True)
    single, two = circ.gate_counts()
    assert two == 24
    assert single == 54


@pytest.mark.parametrize("eps", [1e-7, 0.01, 0.1, -0.3, 0.0, -0.0, -0.999])
def test_core_angles_are_the_only_epsilon_dependent_angles(eps):
    """Binding ``core_angle(eps)`` into the four U1 gates of the epsilon = 0
    circuit gives the circuit at eps, bit for bit."""
    def exact(gates):
        return [(g.kind, g.qubits, None if g.param is None else g.param.hex()) for g in gates]

    bound = list(build_evolution_circuit(0.0, prepend_ground_prep=True).gates)
    slots = [i for i, g in enumerate(bound) if g.kind == "u1"]
    assert len(slots) == 4
    for i in slots:
        bound[i] = u1(bound[i].qubits[0], core_angle(eps))
    assert exact(bound) == exact(build_evolution_circuit(eps, prepend_ground_prep=True).gates)


def test_core_angles_check_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        core_angle(1.0)
