import numpy as np
import pytest

from gravopto.bosonmap import (
    INTERACTION_FACTORS,
    PHYSICAL_BITSTRINGS,
    PHYSICAL_SUBSPACE,
    N_QUBITS,
    SUBSPACE_INDICES,
    ground_state_prep,
)

from oracles import mapped_hamiltonian, pauli_matrix, run_ideal

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
LOWER = (X - 1j * Y) / 2  # |0><1| on one qubit
RAISE = (X + 1j * Y) / 2


def kron_all(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def one_hot_annihilator(pair_offset: int) -> np.ndarray:
    """16x16 image of a two-level annihilator on qubits (offset, offset+1).

    Dropping a mode from level 1 to level 0 moves the excitation from the
    level-1 qubit to the level-0 qubit: |10> -> |01> on the pair, so the
    level-0 qubit is raised while the level-1 qubit is lowered.
    """
    ops = [np.eye(2, dtype=complex)] * 4
    ops[pair_offset] = LOWER
    ops[pair_offset + 1] = RAISE
    return kron_all(ops)


def test_qubit_placement():
    # mode m on the pair (2m, 2m + 1); its ground state |0 1> flips qubit 2m + 1
    prep = ground_state_prep()
    assert N_QUBITS == prep.n_qubits == 4
    assert all(len(factors) == N_QUBITS for factors in INTERACTION_FACTORS)
    assert [g.qubits for g in prep.gates] == [(1,), (3,)]


def test_subspace_table():
    assert PHYSICAL_BITSTRINGS == ("0101", "0110", "1001", "1010")
    assert SUBSPACE_INDICES == (5, 6, 9, 10)
    for bits, (matter, photon) in PHYSICAL_SUBSPACE:
        # one excitation per pair, with the '1' marking the occupied level
        assert bits[:2].count("1") == 1 and bits[2:].count("1") == 1
        assert bits[:2] == ("01", "10")[matter]
        assert bits[2:] == ("01", "10")[photon]


def test_mapped_hamiltonian_matches_ladder_construction():
    g = 0.7321
    b = one_hot_annihilator(0)   # matter mode on qubits (0, 1)
    a = one_hot_annihilator(2)   # photon mode on qubits (2, 3)
    want = -g * (b + b.conj().T) @ (a + a.conj().T)
    got = mapped_hamiltonian(g)
    assert np.allclose(got, want, atol=1e-12)


def test_terms_commute_pairwise():
    terms = [pauli_matrix(factors) for factors in INTERACTION_FACTORS]
    for i, a in enumerate(terms):
        for b in terms[i + 1:]:
            assert np.array_equal(a @ b, b @ a)
    # the check sees a pair that anticommutes
    a, b = pauli_matrix("XXXX"), pauli_matrix("XXXY")
    assert not np.array_equal(a @ b, b @ a)


def test_restriction_to_subspace_is_sigma_x_pair():
    g = 1.25
    ham = mapped_hamiltonian(g)
    iso = np.zeros((16, 4), dtype=complex)
    for col, idx in enumerate(SUBSPACE_INDICES):
        iso[idx, col] = 1.0
    restricted = iso.conj().T @ ham @ iso
    want = -g * np.kron(X, X)
    assert np.allclose(restricted, want, atol=1e-12)
    # the interaction never leaks out of the encoded subspace
    image = ham @ iso
    assert np.allclose(iso @ restricted, image, atol=1e-12)


def test_ground_state_prep():
    prep = ground_state_prep()
    assert all(g.kind == "x" for g in prep.gates)
    state = run_ideal(prep)
    vec = state.reshape(-1)
    assert abs(vec[int("0101", 2)]) == pytest.approx(1.0)

