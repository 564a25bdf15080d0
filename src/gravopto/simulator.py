"""Dense statevector and density-matrix simulation with depolarising and
readout noise.

States are complex128 arrays over 2**n amplitudes; axis/bit order follows the
circuit convention (qubit 0 is the leftmost bit of a basis label). Histogram
keys follow classical-bit order: cbit 0 is the leftmost character.

Statevectors and density matrices (flat, over m row bits then m column bits)
share one kernel: a one-qubit gate on bit axis a is
``u @ state.reshape(2**a, 2, -1)`` and a CNOT is a basis-state permutation.

The noise model puts, after every gate and with the configured probability, a
uniformly random non-identity Pauli error on the gate's qubits. That is the
depolarising channel rho -> (1 - lam) rho + lam (I/d (x) Tr_gate rho) with
lam = p d^2 / (d^2 - 1) (Nielsen & Chuang, section 8.3). ``noisy_probabilities``
evolves the density matrix of the qubits the circuit touches under it and
returns the exact outcome distribution; readout error enters as an exact
per-qubit symmetric bit-flip transform on that distribution. Shots are i.i.d.,
so ``run_noisy`` draws the whole histogram as one multinomial sample.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Gate, matrix_of


def _apply_1q(u: np.ndarray, state: np.ndarray, axis: int) -> np.ndarray:
    """u on one bit axis of a flat array; axis 0 is the leftmost bit."""
    return (u @ state.reshape(2 ** axis, 2, -1)).reshape(-1)


def _cx_permutation(n_bits: int, control: int, target: int) -> np.ndarray:
    """CNOT as a basis permutation: flip the target bit where the control is 1."""
    idx = np.arange(2 ** n_bits)
    return idx ^ (((idx >> (n_bits - 1 - control)) & 1) << (n_bits - 1 - target))


def zero_state(n_qubits: int) -> np.ndarray:
    psi = np.zeros((2,) * n_qubits, dtype=complex)
    psi[(0,) * n_qubits] = 1.0
    return psi


def run_ideal(c: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Final statevector, flat shape (2**n,). Measurements are skipped."""
    psi = zero_state(c.n_qubits) if initial is None else np.asarray(initial, dtype=complex)
    if psi.size != 2 ** c.n_qubits:
        raise ValueError("initial state has the wrong dimension")
    psi = psi.reshape(-1).copy()
    perms = {}  # this call's CNOT permutations, by (control, target)
    for g in c.gates:
        if g.kind == "cx":
            if g.qubits not in perms:
                perms[g.qubits] = _cx_permutation(c.n_qubits, *g.qubits)
            psi = psi[perms[g.qubits]]
        elif g.kind != "measure":
            psi = _apply_1q(matrix_of(g), psi, g.qubits[0])
    return psi


def align_global_phase(state: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate state's global phase so its overlap with reference is real > 0."""
    ip = np.vdot(reference, state)
    if abs(ip) < 1e-12:
        return state
    return state * (ip.conjugate() / abs(ip))


def _measure_order(c: Circuit) -> list[int]:
    """Measured qubits sorted by classical bit; cbits must be 0..k-1."""
    pairs = sorted(c.measurements, key=lambda qc: qc[1])
    if not pairs:
        raise ValueError("circuit has no measurements")
    cbits = [cb for _, cb in pairs]
    if cbits != list(range(len(cbits))):
        raise ValueError("classical bits must be contiguous from 0")
    return [q for q, _ in pairs]


def born_probabilities(c: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Exact outcome distribution over the 2**k classical keys."""
    psi = run_ideal(c, initial).reshape((2,) * c.n_qubits)
    return _marginal(np.abs(psi) ** 2, _measure_order(c))


def _marginal(p: np.ndarray, measured: list[int]) -> np.ndarray:
    """Sum a per-qubit-axis distribution down to the measured axes, in order."""
    rest = [ax for ax in range(p.ndim) if ax not in measured]
    return np.transpose(p, measured + rest).reshape(2 ** len(measured), -1).sum(axis=1)


def apply_readout(probs: np.ndarray, lambdas) -> np.ndarray:
    """Mix a symmetric bit flip with rate lambdas[j] into classical bit j."""
    k = int(round(math.log2(probs.size)))
    lam = list(lambdas)
    if len(lam) != k:
        raise ValueError("one flip rate per classical bit")
    p = np.asarray(probs, dtype=float).reshape((2,) * k)
    for axis, rate in enumerate(lam):
        if rate:
            p = (1.0 - rate) * p + rate * np.flip(p, axis=axis)
    return p.reshape(-1)


@dataclass(frozen=True)
class NoiseModel:
    """Bit-flip readout plus per-gate depolarising error rates.

    readout is a single rate for all qubits or one rate per physical qubit.
    """

    readout: float | tuple[float, ...] = 0.0
    sq_depol: float = 0.0
    cx_depol: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        ro = self.readout
        rates = (ro,) if np.isscalar(ro) else tuple(float(r) for r in ro)
        for r in rates:
            if not 0.0 <= r < 0.5:
                raise ValueError(f"readout rate {r} outside [0, 0.5)")
        if not np.isscalar(ro):
            object.__setattr__(self, "readout", rates)
        for name in ("sq_depol", "cx_depol"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} rate {v} outside [0, 1)")

    def readout_rate(self, qubit: int) -> float:
        if np.isscalar(self.readout):
            return float(self.readout)
        if qubit >= len(self.readout):
            raise ValueError(f"no readout rate for qubit {qubit}")
        return self.readout[qubit]

    @property
    def is_noiseless(self) -> bool:
        scalar = np.isscalar(self.readout)
        ro_zero = self.readout == 0.0 if scalar else all(r == 0.0 for r in self.readout)
        return ro_zero and self.sq_depol == 0.0 and self.cx_depol == 0.0


@dataclass(frozen=True)
class CountsHistogram:
    """Outcome weights keyed by classical bitstring.

    Weights are integer counts straight after sampling; readout mitigation
    turns them into real quasi-weights, so values are not forced to int.
    """

    entries: dict = field(default_factory=dict)
    shots: int = 0
    n_bits: int = 0

    def __post_init__(self):
        for key in self.entries:
            if len(key) != self.n_bits or set(key) - {"0", "1"}:
                raise ValueError(f"malformed outcome key {key!r}")

    def total(self) -> float:
        return float(sum(self.entries.values()))

    def __getitem__(self, key: str):
        return self.entries.get(key, 0)

    def to_vector(self) -> np.ndarray:
        vec = np.zeros(2 ** self.n_bits)
        for key, w in self.entries.items():
            vec[int(key, 2)] = w
        return vec

    @classmethod
    def from_vector(cls, vec: np.ndarray, shots: int, n_bits: int) -> "CountsHistogram":
        entries = {}
        for idx, w in enumerate(np.asarray(vec).reshape(-1)):
            if w != 0:
                entries[format(idx, f"0{n_bits}b")] = (
                    int(w) if float(w).is_integer() else float(w)
                )
        return cls(entries, shots, n_bits)

    def to_json_dict(self) -> dict:
        return {
            "counts": {k: self.entries[k] for k in sorted(self.entries)},
            "n_bits": self.n_bits,
            "shots": self.shots,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountsHistogram":
        return cls(dict(data["counts"]), int(data["shots"]), int(data["n_bits"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CountsHistogram":
        return cls.from_json_dict(json.loads(text))


def _gate_rate(g: Gate, noise: NoiseModel) -> float:
    return noise.cx_depol if g.kind == "cx" else noise.sq_depol


def _expose(rho: np.ndarray, axes: list[int], n_axes: int) -> np.ndarray:
    """View of a flat contiguous array with each of the ascending bit axes
    as its own length-2 dimension, at odd positions, and the rest merged."""
    shape, prev = [], 0
    for ax in axes:
        shape += [2 ** (ax - prev), 2]
        prev = ax + 1
    shape.append(2 ** (n_axes - prev))
    return rho.reshape(shape)


def _evolve(rho: np.ndarray, g: Gate, m: int, rows: list[int]) -> np.ndarray:
    """rho -> U rho U^dag on a flat m-qubit density matrix; rows are the
    gate's qubits as row bit axes, column axes follow at m + row."""
    if g.kind == "cx":
        perm = _cx_permutation(m, *rows)
        return rho.reshape(2 ** m, 2 ** m)[np.ix_(perm, perm)].reshape(-1)
    u = matrix_of(g)
    return _apply_1q(u.conj(), _apply_1q(u, rho, rows[0]), m + rows[0])


def _depolarize(rho: np.ndarray, m: int, rows: list[int], rate: float) -> np.ndarray:
    """Pauli error at rate on the row qubits, in closed form:
    rho -> (1 - lam) rho + lam (I/2**k (x) Tr_rows rho), lam = rate 4**k/(4**k - 1)."""
    k = len(rows)
    lam = rate * 4 ** k / (4 ** k - 1)
    axes = sorted(rows) + sorted(m + a for a in rows)
    # one index per diagonal block: equal row and column bits on the exposed axes
    diagonal = [sum(((slice(None), b) for b in bits + bits), ()) + (slice(None),)
                for bits in itertools.product((0, 1), repeat=k)]
    traced = (lam / 2 ** k) * sum(_expose(rho, axes, 2 * m)[key] for key in diagonal)
    out = (1.0 - lam) * rho
    out_view = _expose(out, axes, 2 * m)
    for key in diagonal:
        out_view[key] += traced
    return out


def _mixed_probabilities(c: Circuit, noise: NoiseModel, qubits: list[int]) -> np.ndarray:
    """Outcome distribution of the touched qubits' density matrix, no readout."""
    gates = [g for g in c.gates if g.kind != "measure"]
    touched = sorted({q for g in gates for q in g.qubits} | set(qubits))
    axis = {q: i for i, q in enumerate(touched)}
    m = len(touched)
    rho = np.zeros(4 ** m, dtype=complex)
    rho[0] = 1.0
    for g in gates:
        rows = [axis[q] for q in g.qubits]
        rho = _evolve(rho, g, m, rows)
        rate = _gate_rate(g, noise)
        if rate:
            rho = _depolarize(rho, m, rows, rate)
    p = rho.reshape(2 ** m, 2 ** m).diagonal().real.reshape((2,) * m)
    return _marginal(p, [axis[q] for q in qubits])


# one sweep point: five settings, of which ZZ, IZ and ZI compile to one circuit
@functools.lru_cache(maxsize=5)
def noisy_probabilities(c: Circuit, noise: NoiseModel) -> np.ndarray:
    """Exact outcome distribution over the 2**k classical keys under noise.

    A circuit none of whose gates carries an error rate stays pure, so it
    takes the statevector path. The result is cached and read-only.
    """
    qubits = _measure_order(c)
    lambdas = [noise.readout_rate(q) for q in qubits]
    if any(_gate_rate(g, noise) for g in c.gates if g.kind != "measure"):
        probs = _mixed_probabilities(c, noise, qubits)
    else:
        probs = born_probabilities(c)
    probs = apply_readout(probs, lambdas)
    probs.setflags(write=False)
    return probs


def _sample_vector(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    p = np.clip(probs, 0.0, None)
    return rng.multinomial(shots, p / p.sum()).astype(float)


def run_noisy(
    c: Circuit,
    shots: int,
    noise: NoiseModel | None = None,
    seed: int | None = None,
) -> CountsHistogram:
    """Sample a measured circuit's histogram from ``noisy_probabilities``.

    The Philox counter generator keeps results reproducible for a fixed
    (circuit, shots, noise, seed) regardless of platform.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    noise = noise or NoiseModel()
    probs = noisy_probabilities(c, noise)
    rng = np.random.Generator(np.random.Philox(seed if seed is not None else noise.seed))
    k = probs.size.bit_length() - 1
    return CountsHistogram.from_vector(_sample_vector(probs, shots, rng), shots, k)
