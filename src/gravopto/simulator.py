"""Dense statevector and density-matrix simulation with depolarising and
readout noise.

States are complex128 arrays over 2**n amplitudes; axis/bit order follows the
circuit convention (qubit 0 is the leftmost bit of a basis label). Histogram
keys follow classical-bit order: cbit 0 is the leftmost character.

Statevectors and density matrices (flat, over m row bits then m column bits)
share one kernel, which acts on a stack of them, one per row. A one-qubit
gate on bit axis a is applied elementwise, out_i = u_i0 v_0 + u_i1 v_1 over
the halves v_0, v_1 of ``states.reshape(rows, 2**a, 2, -1)``, with a 2x2
matrix per row for Rz, Rx and U1 and one fixed matrix for the other kinds. A
CNOT is the same basis-state permutation on every row.

The noise model puts, after every gate and with the configured probability, a
uniformly random non-identity Pauli error on the gate's qubits. That is the
depolarising channel rho -> (1 - lam) rho + lam (I/d (x) Tr_gate rho) with
lam = p d^2 / (d^2 - 1) (Nielsen & Chuang, section 8.3). Readout error enters
as an exact symmetric bit-flip transform, at one rate for every measured
qubit, on the outcome distribution.

``outcome_distributions`` turns a list of measured circuits (a whole sweep's
tomography settings) into their exact outcome distributions in one pass per
register. A circuit's register is the qubits its gates and measurements
touch, so a device's idle qubits, which stay in |0>, are never simulated; a
circuit with gate noise evolves their density matrix, any other their
statevector. Circuits on one register walk the tree of their gate
structures, the gates' kinds and qubits without their angles: each position
in it is one kernel call on the stacked states of every circuit below it, so
the sweep points that compile to the same structure share every call, and
each point's settings share their evolution's calls. Every row gets the
arithmetic of its circuit evolved alone. ``noisy_probabilities`` is the
one-circuit case, and ``born_probabilities`` its noiseless one. Shots are
i.i.d., so ``sample_weights`` draws a whole setting as one multinomial
sample, a row of counts; ``sample_counts`` makes it a histogram, and
``run_noisy`` does both for one circuit. Nothing is kept between calls.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import FIXED_MATRICES, MAX_DENSE_QUBITS, PARAM_KINDS, SINGLE_QUBIT_KINDS, Circuit
from .errors import CapacityError, ConfigError


_FIXED_ENTRIES = {
    kind: [[None if z == 0 else complex(z) for z in row] for row in u]
    for kind, u in FIXED_MATRICES.items()
}


def _entries_of(kind: str, params) -> list[list]:
    """The 2x2 matrix of a one-qubit gate kind, entry by entry: a structural
    zero is None, any other entry a scalar or, for a parametric kind, one
    value per angle in ``params``, shaped (rows, 1, 1) to broadcast over the
    rows of a stack."""
    if kind in _FIXED_ENTRIES:
        return _FIXED_ENTRIES[kind]
    theta = np.asarray(params, dtype=float).reshape(-1, 1, 1)
    if kind == "u1":
        return [[1.0, None], [None, np.exp(1j * theta)]]
    # exp(-i theta/2) = cos(theta/2) - i sin(theta/2), each part as libm gives it
    phase = np.exp(-1j * (theta / 2.0))
    if kind == "rz":
        return [[phase, None], [None, phase.conj()]]
    if kind == "rx":
        c, minus_i_s = phase.real, 1j * phase.imag
        return [[c, minus_i_s], [minus_i_s, c]]
    raise ValueError(f"{kind} is not a one-qubit gate")


def _apply_1q(u: list[list], states: np.ndarray, axis: int) -> np.ndarray:
    """u (``_entries_of``) on one bit axis of every row of a stack of flat
    states; axis 0 is the leftmost bit. Each output half is u_i0 v_0 + u_i1 v_1
    with the structural zeros' terms left out, which changes no value but
    the sign of a zero."""
    v = states.reshape(len(states), 2 ** axis, 2, -1)
    out = np.empty_like(v)
    for i in (0, 1):
        (a, va), *rest = [(uij, v[:, :, j]) for j, uij in enumerate(u[i]) if uij is not None]
        np.multiply(a, va, out=out[:, :, i])
        for b, vb in rest:
            out[:, :, i] += b * vb
    return out.reshape(len(states), -1)


def _cx_permutation(n_bits: int, control: int, target: int) -> np.ndarray:
    """CNOT as a basis permutation: flip the target bit where the control is 1."""
    idx = np.arange(2 ** n_bits)
    return idx ^ (((idx >> (n_bits - 1 - control)) & 1) << (n_bits - 1 - target))


class _Kernel:
    """Gates on stacks of flat states over ``m`` qubits, one state per row:
    statevectors of 2**m entries, or (``mixed``) density matrices of 4**m
    entries, the m row bits followed by the m column bits.

    A CNOT's permutation and a depolarising channel's diagonal slices are
    built once per kernel for each tuple of row axes they act on, and shared
    by every row.
    """

    def __init__(self, m: int, mixed: bool):
        self.m, self.mixed = m, mixed
        self._perms: dict[tuple, np.ndarray] = {}
        self._diagonals: dict[tuple, tuple] = {}

    def apply(self, states: np.ndarray, kind: str, axes: tuple[int, ...],
              params=None, rate: float = 0.0) -> np.ndarray:
        """U state (U^dag) on every row, the gate's qubits at row axes
        ``axes``; a parametric kind takes one angle per row in ``params``.
        Then on density matrices the depolarising error at ``rate``. The
        input stack is left as it was."""
        if kind == "cx":
            if axes not in self._perms:
                perm = _cx_permutation(self.m, *axes)
                if self.mixed:  # the same permutation of rows and of columns
                    perm = (perm[:, None] * 2 ** self.m + perm).reshape(-1)
                self._perms[axes] = perm
            states = states[:, self._perms[axes]]
        else:
            u = _entries_of(kind, params)
            states = _apply_1q(u, states, axes[0])
            if self.mixed:
                u_conj = [[None if z is None else np.conj(z) for z in row] for row in u]
                states = _apply_1q(u_conj, states, self.m + axes[0])
        return self._depolarize(states, axes, rate) if rate else states

    def _depolarize(self, rho: np.ndarray, axes: tuple[int, ...], rate: float) -> np.ndarray:
        """Pauli error at rate on the row qubits, in closed form:
        rho -> (1 - lam) rho + lam (I/2**k (x) Tr_axes rho), lam = rate 4**k/(4**k - 1)."""
        k = len(axes)
        lam = rate * 4 ** k / (4 ** k - 1)
        if axes not in self._diagonals:
            # a view with each row and column axis of the gate as its own
            # length-2 dimension, at odd positions after the stack's rows,
            # and the rest merged
            shape, prev = [-1], 0
            for ax in sorted(axes) + sorted(self.m + a for a in axes):
                shape += [2 ** (ax - prev), 2]
                prev = ax + 1
            shape.append(2 ** (2 * self.m - prev))
            # one index per diagonal block: equal row and column bits on those axes
            self._diagonals[axes] = (shape, [
                (slice(None),) + sum(((slice(None), b) for b in bits + bits), ()) + (slice(None),)
                for bits in itertools.product((0, 1), repeat=k)
            ])
        shape, diagonal = self._diagonals[axes]
        view = rho.reshape(shape)
        traced = (lam / 2 ** k) * sum(view[key] for key in diagonal)
        out = (1.0 - lam) * rho
        out_view = out.reshape(shape)
        for key in diagonal:
            out_view[key] += traced
        return out


def run_ideal(c: Circuit) -> np.ndarray:
    """Final statevector from |0...0>, flat shape (2**n,). Measurements are skipped."""
    psi = np.zeros((1, 2 ** c.n_qubits), dtype=complex)
    psi[0, 0] = 1.0
    kernel = _Kernel(c.n_qubits, mixed=False)
    for g in c.gates:
        if g.kind != "measure":
            psi = kernel.apply(psi, g.kind, g.qubits, [g.param])
    return psi.reshape(-1)


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
    """Bit-flip readout at one rate for every measured qubit, plus per-gate
    depolarising error rates. The rates' ranges are checked here alone."""

    readout: float = 0.0
    sq_depol: float = 0.0
    cx_depol: float = 0.0

    def __post_init__(self):
        for name, high in (("readout", 0.5), ("sq_depol", 1.0), ("cx_depol", 1.0)):
            rate = getattr(self, name)
            if not 0.0 <= rate < high:
                raise ConfigError(f"{name}: {rate} outside [0, {high:g})")


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

    @classmethod
    def _trusted(cls, entries: dict, shots: int, n_bits: int) -> "CountsHistogram":
        """A histogram of keys formatted or checked already, built without ``__post_init__``."""
        hist = object.__new__(cls)
        object.__setattr__(hist, "entries", entries)
        object.__setattr__(hist, "shots", shots)
        object.__setattr__(hist, "n_bits", n_bits)
        return hist

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
        vec = np.asarray(vec).reshape(-1)
        nonzero = np.flatnonzero(vec)
        key = f"0{n_bits}b"
        entries = {
            format(idx, key): int(w) if float(w).is_integer() else float(w)
            for idx, w in zip(nonzero.tolist(), vec[nonzero].tolist())
        }
        return cls._trusted(entries, shots, n_bits)


def outcome_distributions(circuits, noise: NoiseModel) -> list[np.ndarray]:
    """Exact outcome distribution over the 2**k classical keys of each
    measured circuit under noise, in order.

    Each circuit evolves over the qubits its gates and measurements touch:
    a density matrix if one of its gates carries an error rate, else a
    statevector. Circuits on the same such register share one pass over
    the tree of their gate structures, the gates' kinds and qubits: each
    position in it is applied once to the stacked states of every circuit
    below it, each with its own angle, and equal circuits are computed once.
    Every row sees the arithmetic of its circuit evolved alone. The results
    are read-only; equal circuits share one array. A CapacityError is raised
    before anything is allocated if a pass's rows times entries exceed
    4**MAX_DENSE_QUBITS, the size ``unitary_of`` allows.
    """
    # hashing a circuit hashes every gate, so a circuit object seen before
    # (a point's ZZ, IZ and ZI settings share one) is found by identity
    index: dict[Circuit, int] = {}
    by_id: dict[int, int] = {}
    slots = []
    for c in circuits:
        if id(c) not in by_id:
            by_id[id(c)] = index.setdefault(c, len(index))
        slots.append(by_id[id(c)])
    distinct = list(index)
    gates = [[g for g in c.gates if g.kind != "measure"] for c in distinct]
    measured = [_measure_order(c) for c in distinct]
    rates = {"cx": noise.cx_depol, **{kind: noise.sq_depol for kind in SINGLE_QUBIT_KINDS}}
    passes: dict[tuple, list[int]] = {}
    for i in range(len(distinct)):
        touched = {q for g in gates[i] for q in g.qubits} | set(measured[i])
        mixed = any(rates[g.kind] for g in gates[i])
        passes.setdefault((mixed, tuple(sorted(touched))), []).append(i)
    for (mixed, register), group in passes.items():
        if len(group) * (4 if mixed else 2) ** len(register) > 4 ** MAX_DENSE_QUBITS:
            raise CapacityError(
                f"{len(group)} circuits on {len(register)} touched qubits exceed the dense "
                f"limit of 4**{MAX_DENSE_QUBITS} entries per pass")
    done: dict[int, np.ndarray] = {}
    for (mixed, register), group in passes.items():
        m = len(register)
        kernel = _Kernel(m, mixed)
        axis = {q: a for a, q in enumerate(register)}
        start = np.zeros((len(group), 4 ** m if mixed else 2 ** m), dtype=complex)
        start[:, 0] = 1.0
        # walk the tree of the group's gate structures; each edge is one gate
        # position, and row r of a node's stack is the state of circuit here[r]
        todo = [(0, start, group)]
        while todo:
            depth, states, here = todo.pop()
            branches: dict[tuple, list[int]] = {}
            for r, i in enumerate(here):
                if len(gates[i]) > depth:
                    g = gates[i][depth]
                    branches.setdefault((g.kind, g.qubits), []).append(r)
                    continue
                p = states[r].reshape(2 ** m, 2 ** m).diagonal().real if mixed else np.abs(states[r]) ** 2
                # sum down to the measured axes, in classical-bit order
                kept = [axis[q] for q in measured[i]]
                p = np.transpose(p.reshape((2,) * m), kept + [a for a in range(m) if a not in kept])
                p = p.reshape(2 ** len(kept), -1).sum(axis=1)
                done[i] = apply_readout(p, [noise.readout] * len(kept))
                done[i].setflags(write=False)
            for (kind, qubits), rows in branches.items():
                below = [here[r] for r in rows]
                params = [gates[i][depth].param for i in below] if kind in PARAM_KINDS else None
                stack = states if len(rows) == len(here) else states[rows]
                axes = tuple(axis[q] for q in qubits)
                todo.append((depth + 1, kernel.apply(stack, kind, axes, params, rates[kind]), below))
    return [done[i] for i in slots]


def noisy_probabilities(c: Circuit, noise: NoiseModel) -> np.ndarray:
    """``outcome_distributions`` of one circuit."""
    return outcome_distributions([c], noise)[0]


def born_probabilities(c: Circuit) -> np.ndarray:
    """``noisy_probabilities`` without noise: the exact outcome distribution
    over the 2**k classical keys."""
    return noisy_probabilities(c, NoiseModel())


def sample_weights(probs: np.ndarray, shots: int, seed: int | None) -> np.ndarray:
    """One multinomial draw of ``shots`` outcomes from ``probs``, a float count per key.

    The Philox counter generator keeps results reproducible for a fixed
    (probs, shots, seed) regardless of platform.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    p = np.clip(probs, 0.0, None)
    return rng.multinomial(shots, p / p.sum()).astype(float)


def sample_counts(probs: np.ndarray, shots: int, seed: int | None) -> CountsHistogram:
    """``sample_weights`` as a histogram."""
    counts = sample_weights(probs, shots, seed)
    return CountsHistogram.from_vector(counts, shots, probs.size.bit_length() - 1)


def run_noisy(
    c: Circuit,
    shots: int,
    noise: NoiseModel | None = None,
    seed: int | None = None,
) -> CountsHistogram:
    """Sample a measured circuit's histogram from ``noisy_probabilities``
    (noiseless without ``noise``) with ``sample_counts``."""
    noise = noise or NoiseModel()
    return sample_counts(noisy_probabilities(c, noise), shots, seed)
