"""Two-mode tomography on dual-rail pairs.

A logical mode lives on a qubit pair: |0> = |01|, |1> = |10|, first qubit
leftmost. Restricted to that pair, logical Z is Z on the first qubit, logical
X is XX, and logical Y is YX (Y on the first qubit, X on the second). So a
logical basis choice is a local pre-rotation of the pair, and the pair's two
measured bits read as one eigenvalue of the basis; ``_BASES`` holds both.

``EIGENVALUES`` is each setting's eigenvalue on every 4-bit outcome key
(cbit order, mode 0 first), the product of its two pairs' entries. A Z
factor reads the pair as 01 -> +1, 10 -> -1 and a leaked 00 or 11 as 0, so
a leaked shot adds nothing to the numerator but still counts in the
denominator. X and Y factors read the pair parity, (-1)**(sum of the two
bits). Post-selection applies only to settings measured in the
computational basis, where leaked pairs are identifiable.

A sweep's settings are the rows of one weights array, 2**4 weights per row
in key order; one setting's weights are a one-row array. ``mitigate_weights``
undoes the readout flip on every row without building a matrix, and takes
each row's total with ``np.sum``; ``postselect_weights`` and ``expectations``
add a row's weights one after another in key order, which can differ from
that in the last bit.
"""
from __future__ import annotations

import numpy as np

from .bosonmap import N_QUBITS, SUBSPACE_INDICES
from .circuit import MAX_DENSE_QUBITS, Circuit, Gate, h, measure, sdg
from .errors import CapacityError
from .simulator import NoiseModel, apply_readout, sample_weights

SETTING_LABELS = ("ZZ", "XY", "YX", "IZ", "ZI")

# each logical basis on a mode's pair (2m, 2m+1): its pre-rotation, as (gate,
# 0 for the first qubit or 1 for the second), and its eigenvalue on the pair's
# outcomes 00, 01, 10 and 11
_BASES = {
    "I": ((), (1.0, 1.0, 1.0, 1.0)),
    "Z": ((), (0.0, 1.0, -1.0, 0.0)),
    "X": (((h, 0), (h, 1)), (1.0, -1.0, -1.0, 1.0)),
    "Y": (((sdg, 0), (h, 0), (h, 1)), (1.0, -1.0, -1.0, 1.0)),
}

# each setting's eigenvalue on every 4-bit outcome key, in key order; a
# leaked Z pair times -1 is -0.0, which ``_totals`` adds to 0.0
EIGENVALUES = {label: np.kron(_BASES[label[0]][1], _BASES[label[1]][1]) for label in SETTING_LABELS}


def rotation_gates(label: str) -> list[Gate]:
    """The pre-rotations of a setting; label[m] is the basis for logical mode m."""
    return [gate(2 * mode + q) for mode, basis in enumerate(label) for gate, q in _BASES[basis][0]]


def measurement_circuits(base: Circuit) -> list[tuple[str, Circuit]]:
    """Append basis rotations and a full register measurement per setting."""
    if base.has_measurements:
        raise ValueError("base circuit already measures")
    if base.n_qubits != N_QUBITS:
        raise ValueError(f"base circuit must act on {N_QUBITS} qubits")
    measures = tuple(measure(q, q) for q in range(N_QUBITS))
    return [(label, Circuit(N_QUBITS, base.gates + tuple(rotation_gates(label)) + measures))
            for label in SETTING_LABELS]


def _totals(weights: np.ndarray) -> np.ndarray:
    """Each row's weight, added one entry after another in key order (``np.sum``
    adds in pairs, which can differ in the last bit)."""
    return 0.0 + np.cumsum(weights, axis=-1)[..., -1]


def postselect_weights(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop leaked outcomes from each row of a setting measured in the
    computational basis (ZZ, IZ or ZI), where leakage is identifiable; the
    second return value is each row's retained weight fraction."""
    totals = _totals(weights)
    if not (totals > 0).all():
        raise ValueError("a row has no weight")
    if weights.shape[-1] != 2 ** N_QUBITS:
        raise ValueError(f"post-selection reads {N_QUBITS}-bit outcomes")
    kept = np.zeros_like(weights)
    kept[:, SUBSPACE_INDICES] = weights[:, SUBSPACE_INDICES]
    return kept, _totals(kept) / totals


def calibrate_confusion(
    n_bits: int,
    noise: NoiseModel,
    shots: int | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Readout confusion of ``n_bits`` measured qubits: the 2**n x 2**n
    matrix whose column j is the recorded distribution of basis state j.

    The exact matrix (default) is the Kronecker product of one symmetric bit
    flip at ``noise.readout`` per qubit; gate rates do not enter. With
    ``shots``, column j is instead ``sample_weights`` of the exact column j
    divided by ``shots``, each column drawn with its own seed from ``seed``.
    """
    if n_bits > MAX_DENSE_QUBITS:
        raise CapacityError(f"n_bits: {n_bits} exceeds the dense limit")
    if shots is not None and shots < 1:
        raise ValueError("empirical calibration needs at least one shot")
    r = noise.readout
    dense = np.array([[1.0]])
    for _ in range(n_bits):
        dense = np.kron(dense, np.array([[1.0 - r, r], [r, 1.0 - r]]))
    if shots is not None:
        # each column is read before its own sample overwrites it
        for j, column_seed in enumerate(np.random.SeedSequence(seed).generate_state(2 ** n_bits)):
            dense[:, j] = sample_weights(dense[:, j], shots, int(column_seed)) / shots
    return dense


def project_to_simplex(quasi: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = 1}, max(quasi - theta, 0),
    of each vector along the last axis.

    theta comes from the sorted vector; a distribution projects to itself.
    """
    u = np.sort(quasi, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    ks = np.arange(1, u.shape[-1] + 1)
    # the last k with u_k > (css_k - 1) / k; the first always qualifies
    rho = u.shape[-1] - 1 - np.argmax((u > (css - 1.0) / ks)[..., ::-1], axis=-1)
    theta = (np.take_along_axis(css, rho[..., None], -1) - 1.0) / (rho[..., None] + 1)
    return np.maximum(quasi - theta, 0.0)


def mitigate_weights(weights: np.ndarray, readout: float) -> np.ndarray:
    """Undo a symmetric bit flip at ``readout`` on every measured bit and
    take the nearest distribution, row by row.

    The inverse of the tensored flip at r is the tensored flip at
    -r / (1 - 2r) (Bravyi, Sheldon, Kandala, McKay and Gambetta, PRA 103,
    042605 (2021)), so ``apply_readout`` at that rate gives each row's
    quasi-distribution. It can have negative entries; its Euclidean
    projection onto the simplex is the closest distribution (Smolin,
    Gambetta and Smith, PRL 108, 070502 (2012)). Each result is rescaled to
    its row's total weight. The stack is read in C order, so its memory
    order cannot change the sums' rounding.
    """
    weights = np.ascontiguousarray(weights)
    totals = weights.sum(axis=-1, keepdims=True)
    if not (totals > 0).all():
        raise ValueError("a row has no weight")
    probs = project_to_simplex(apply_readout(weights / totals, -readout / (1.0 - 2.0 * readout)))
    return probs / probs.sum(axis=-1, keepdims=True) * totals


def expectations(weights: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """(estimate, shot-noise standard error) of the setting's eigenvalue for
    each row, from its ``EIGENVALUES``."""
    den = _totals(weights)
    if not (den > 0).all():
        raise ValueError("no weight left to average")
    est = _totals(weights * EIGENVALUES[label]) / den
    return est, np.sqrt(np.maximum(1.0 - est * est, 0.0) / den)
