import numpy as np
import pytest

from gravopto.pauli import PauliString, PauliSum
from gravopto.errors import CapacityError

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(label: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, MATS[ch])
    return out


def random_string(rng, n):
    return PauliString("".join(rng.choice(list("IXYZ")) for _ in range(n)))


def test_factors_are_validated():
    p = PauliString("XZ", phase_power=3)
    assert p.factors == "XZ" and p.n_qubits == 2 and p.phase == -1j
    with pytest.raises(ValueError):
        PauliString("XQ")
    with pytest.raises(ValueError):
        PauliString("")


def test_phase_power_wraps():
    assert PauliString("X", phase_power=5).phase == 1j
    assert PauliString("X", phase_power=-1).phase == -1j


def test_commutes_matches_matrices():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        a, b = random_string(rng, n), random_string(rng, n)
        comm = a.matrix() @ b.matrix() - b.matrix() @ a.matrix()
        assert a.commutes(b) == np.allclose(comm, 0.0, atol=1e-12)


def test_interaction_strings_all_commute():
    strings = [PauliString(f) for f in ("XXXX", "XXYY", "YYXX", "YYYY")]
    for i, a in enumerate(strings):
        for b in strings[i + 1:]:
            assert a.commutes(b)


def test_matrix_convention_qubit_zero_is_leftmost():
    # X on qubit 0 of two flips the high bit: |00> -> |10>
    m = PauliString("XI").matrix()
    assert m[2, 0] == 1 and m[0, 2] == 1


def test_matrix_capacity_guard():
    with pytest.raises(CapacityError):
        PauliString("I" * 13).matrix()
    with pytest.raises(CapacityError):
        PauliSum([(1.0, PauliString("I" * 13))]).matrix()


def test_sum_matrix():
    s = PauliSum([(0.5, PauliString("XZ")), (-1.5, PauliString("YY"))])
    want = 0.5 * dense("XZ") - 1.5 * dense("YY")
    assert np.allclose(s.matrix(), want, atol=1e-12)

