import numpy as np
import pytest

from gravopto.bosonmap import (
    INTERACTION_FACTORS,
    PHYSICAL_BITSTRINGS,
    PHYSICAL_SUBSPACE,
    SUBSPACE_INDICES,
    ModeEncoding,
    ground_state_prep,
    mapped_hamiltonian,
    qubit_count,
)
from gravopto.errors import CapacityError
from gravopto.simulator import run_ideal

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


def test_qubit_count():
    assert qubit_count(2, 1) == 4
    assert qubit_count(3, 2) == 9
    with pytest.raises(ValueError):
        qubit_count(0, 1)
    with pytest.raises(ValueError):
        qubit_count(2, 0)


def test_qubit_placement():
    enc = ModeEncoding()
    assert enc.n_qubits == 4
    assert [enc.qubit_of(m, l) for m in (0, 1) for l in (0, 1)] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        enc.qubit_of(2, 0)
    with pytest.raises(ValueError):
        enc.qubit_of(0, 2)


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
    got = mapped_hamiltonian(g).matrix()
    assert np.allclose(got, want, atol=1e-12)


def test_mapped_hamiltonian_terms():
    ham = mapped_hamiltonian(2.0)
    assert sorted(s.factors for _, s in ham) == sorted(INTERACTION_FACTORS)
    assert all(c == -0.5 for c, _ in ham)


def test_terms_commute_pairwise():
    terms = [s for _, s in mapped_hamiltonian(1.0)]
    for i, a in enumerate(terms):
        for b in terms[i + 1:]:
            assert a.commutes(b)


def test_restriction_to_subspace_is_sigma_x_pair():
    g = 1.25
    ham = mapped_hamiltonian(g).matrix()
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


def test_two_level_pair_guard():
    wide = ModeEncoding(n_modes=2, n_p=2)
    with pytest.raises(CapacityError):
        mapped_hamiltonian(1.0, wide)
    with pytest.raises(CapacityError):
        ground_state_prep(wide)
