"""Dense statevector and Pauli-vector simulation with depolarising and
readout noise.

Statevectors are complex128 arrays over 2**n amplitudes; axis/bit order
follows the circuit convention (qubit 0 is the leftmost bit of a basis
label). A mixed state is its real Pauli vector, v_s = tr(P_s rho) over the
4**n Pauli strings, one base-4 digit per qubit (I, X, Y, Z = 0, 1, 2, 3).
An outcome distribution is indexed by classical bits: cbit 0 is the most
significant bit of an entry's index.

Both share one kernel, which acts on a stack of them, one per row. A
one-qubit gate is applied elementwise on one axis, out_i = sum_j u_ij v_j
over the slices v_j of ``states.reshape(rows, d**a, d, -1)``: u is the 2x2
matrix (d = 2) or the real 4x4 Pauli transfer matrix (d = 4), per row for
Rz, Rx and U1. A CNOT is a gather of entries, the same on every row. On
Pauli vectors a Clifford one-qubit gate, a fixed kind or an Rz or U1 of
one angle at exactly 0, +-pi/2 or +-pi, maps each digit to one signed
digit, so it too is a signed gather, of its axis; a compiled template's
one-qubit gates are all Cliffords but its core slots. An Rz or U1 with an
angle per row takes exact cos and sin at those angles, 0 and +-1, so a row
at a quarter turn gets the gather's bytes.

The noise model puts, after every gate and with the configured probability, a
uniformly random non-identity Pauli error on the gate's qubits. That is the
depolarising channel rho -> (1 - lam) rho + lam (I/d (x) Tr_gate rho) with
lam = p d^2 / (d^2 - 1) (Nielsen & Chuang, section 8.3). Pauli strings are
its eigenvectors: it scales each string that is not the identity on the
gate's qubits by 1 - lam, so on Pauli vectors it is a scaling. Readout error
is a symmetric bit flip at one rate for every measured qubit, mixed into the
finished distribution by ``apply_readout``; at -r / (1 - 2r) that routine
undoes a flip at r, which is how ``tomography`` mitigates it.

``outcome_distributions`` turns measured circuits and templates (a sweep's
tomography settings, with one *lane* of angles per point at their core
slots) into exact outcome distributions in one pass per call. The items of
a call touch the same qubits, its register, with their gates and
measurements, so a device's idle qubits, which stay in |0>, are never
simulated; the pass evolves their Pauli vector if the noise model has a
gate error rate, else their statevector. It evolves the leading gates that
all its items have alike, kinds, qubits and angles' bits (0.0 and -0.0
part), once on a stack of one row per lane; then each item's other gates
from that stack, each gate one kernel call. Every row gets the arithmetic
of its circuit evolved alone; a circuit is one lane. Shots are i.i.d., so
``sample_weights`` draws a setting as one multinomial sample, a row of
counts. Nothing is kept between calls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    FIXED_MATRICES, MAX_DENSE_QUBITS, PAULI_1Q, RZ_PAULI, SINGLE_QUBIT_KINDS, TURNS_OF, Circuit,
)
from .errors import CapacityError, ConfigError


_FIXED_TERMS = {kind: [[(j, complex(z)) for j, z in enumerate(row) if z != 0] for row in u]
                for kind, u in FIXED_MATRICES.items()}
# CNOT P CNOT for the 16 two-qubit Paulis P, index 4 * control + target: (its index, its sign)
_CX_PAULI = (
    (0, 1), (1, 1), (14, 1), (15, 1), (5, 1), (4, 1), (11, 1), (10, -1),
    (9, 1), (8, 1), (7, -1), (6, 1), (12, 1), (13, 1), (2, 1), (3, 1),
)


def _terms_of(kind: str, params) -> list[list]:
    """The rows of a one-qubit gate kind's 2x2 matrix, each as the (column,
    entry) terms of its nonzero entries; a parametric kind's entries hold
    one value per angle in ``params``, shaped (rows, 1, 1) to broadcast over
    the rows of a stack."""
    if kind in _FIXED_TERMS:
        return _FIXED_TERMS[kind]
    theta = np.asarray(params, dtype=float).reshape(-1, 1, 1)
    if kind == "u1":
        return [[(0, 1.0)], [(1, np.exp(1j * theta))]]
    # exp(-i theta/2) = cos(theta/2) - i sin(theta/2), each part as libm gives it
    phase = np.exp(-1j * (theta / 2.0))
    if kind == "rz":
        return [[(0, phase)], [(1, phase.conj())]]
    c, minus_i_s = phase.real, 1j * phase.imag
    return [[(0, c), (1, minus_i_s)], [(0, minus_i_s), (1, c)]]


def _pauli_terms_of(kind: str, params, keep: float) -> list[list] | tuple:
    """``_terms_of`` for the gate's 4x4 Pauli transfer matrix, with its X, Y
    and Z rows scaled by ``keep``; for a Clifford (a fixed kind, or an Rz or
    U1 of one angle in ``TURNS_OF``), which maps each digit to one signed
    digit, the gather (index, factor): out_i = factor_i v_index_i."""
    if kind in PAULI_1Q or kind != "rx" and not isinstance(params, list) and params in TURNS_OF:
        index, sign = zip((0, 1), *(PAULI_1Q.get(kind) or RZ_PAULI[TURNS_OF[params]]))
        return np.array(index), np.array([1.0] + [keep * f for f in sign[1:]])[:, None]
    theta = np.asarray(params, dtype=float).reshape(-1, 1, 1)
    c, s = np.cos(theta), np.sin(theta)
    # an Rz or U1 lane at k quarter turns gets its gather's 0 and +-1, not cos(pi/2) = 6.1e-17
    exact = [kind != "rx" and a in TURNS_OF for a in theta.flat]
    if any(exact):
        c[exact], s[exact] = np.round(c[exact]), np.round(s[exact])
    c, s = keep * c, keep * s
    if kind == "rx":  # turns Y towards Z
        return [[(0, 1.0)], [(1, keep)], [(2, c), (3, -s)], [(2, s), (3, c)]]
    # rz, and u1, equal to it up to a global phase, turn X towards Y
    return [[(0, 1.0)], [(1, c), (2, -s)], [(1, s), (2, c)], [(3, keep)]]


def _apply_1q(terms: list[list] | tuple, states: np.ndarray, axis: int) -> np.ndarray:
    """A one-qubit gate (``_terms_of``, ``_pauli_terms_of``) on one qubit
    axis of every row of a stack of flat states, 2 or 4 entries per axis;
    axis 0 is the leftmost. A gather takes one signed entry per digit; a
    sum leaves out structural zeros' terms, which changes no value but the
    sign of a zero."""
    if isinstance(terms, tuple):
        out = states.reshape(len(states), 4 ** axis, 4, -1).take(terms[0], axis=2)
        return np.multiply(out, terms[1], out=out).reshape(len(states), -1)
    v = states.reshape(len(states), len(terms) ** axis, len(terms), -1)
    out = np.empty_like(v)
    for i, ((j, a), *rest) in enumerate(terms):
        np.multiply(a, v[:, :, j], out=out[:, :, i])
        for j, b in rest:
            out[:, :, i] += b * v[:, :, j]
    return out.reshape(len(states), -1)


def _cx_permutation(n_bits: int, control: int, target: int) -> np.ndarray:
    """CNOT as a basis permutation: flip the target bit where the control is 1."""
    idx = np.arange(2 ** n_bits)
    return idx ^ (((idx >> (n_bits - 1 - control)) & 1) << (n_bits - 1 - target))


def _cx_pauli(m: int, control: int, target: int, keep: float) -> tuple[np.ndarray, np.ndarray]:
    """CNOT and its error on Pauli vectors over m qubits: out = v[:, gather] *
    factor, a sign of ``_CX_PAULI`` times ``keep`` where the string is not
    the identity on both qubits."""
    idx = np.arange(4 ** m)
    wc, wt = 4 ** (m - 1 - control), 4 ** (m - 1 - target)
    pair = idx // wc % 4 * 4 + idx // wt % 4
    image, sign = np.array(_CX_PAULI)[pair].T
    gather = idx + (image // 4 - pair // 4) * wc + (image % 4 - pair % 4) * wt
    return gather, sign * np.where(pair > 0, keep, 1.0)


def _iz_index(m: int, axes) -> np.ndarray:
    """Pauli-vector indices of the strings that are I or Z on ``axes`` and I
    elsewhere, the first of ``axes`` the most significant."""
    index = np.zeros(1, dtype=np.intp)
    for a in axes:
        index = (index[:, None] + [0, 3 * 4 ** (m - 1 - a)]).reshape(-1)
    return index


def _pauli_probabilities(z: np.ndarray) -> np.ndarray:
    """Outcome distributions from rows of measured qubits' I/Z components
    (``_iz_index``): the Walsh transform p_b = 2**-k sum_s (-1)**(b.s) z_s."""
    p = z.reshape((len(z),) + (2,) * (z.shape[1].bit_length() - 1))
    for ax in range(1, p.ndim):
        i, zz = np.take(p, 0, ax), np.take(p, 1, ax)
        p = np.stack((i + zz, i - zz), axis=ax)
    return p.reshape(len(z), -1) / z.shape[1]


class _Kernel:
    """Gates on stacks of flat states over ``m`` qubits, one state per row:
    statevectors of 2**m entries, or (``mixed``) Pauli vectors of 4**m.

    A gate U maps v_s to tr(U^dag P_s U rho). For a CNOT, U^dag P_s U is a
    signed Pauli string, so the gate is a signed gather; for a one-qubit
    gate, a real mix of X, Y and Z, so a 4x4 map on one digit, but for a
    Clifford one signed Pauli again, so a signed gather of the digit. The
    depolarising error on k qubits then keeps 1 - rate 4**k / (4**k - 1) of
    every string that is not the identity on them, a scaling folded into
    the gate. A CNOT's gather with its factors, and a one-qubit gate's terms
    (or gather) for one angle on every row, are built once per kernel and
    shared.
    """

    def __init__(self, m: int, mixed: bool):
        self.m, self.mixed = m, mixed
        self._made: dict[tuple, object] = {}

    def apply(self, states: np.ndarray, kind: str, axes: tuple[int, ...],
              params=None, rate: float = 0.0) -> np.ndarray:
        """The gate on every row, its qubits at axes ``axes``; a parametric
        kind takes in ``params`` one angle for every row, or a list of one
        per row. On Pauli vectors, the depolarising error at ``rate``
        follows. The input stack is left as it was."""
        if kind != "cx" and isinstance(params, list):  # an angle per row: terms of their own
            return _apply_1q(self._terms(kind, params, rate), states, axes[0])
        key = (kind, axes if kind == "cx" else params if params is None else params.hex(), rate)
        if key not in self._made:
            self._made[key] = self._terms(kind, params, rate) if kind != "cx" else (
                _cx_pauli(self.m, *axes, 1.0 - 16.0 * rate / 15.0) if self.mixed
                else (_cx_permutation(self.m, *axes), None))
        if kind != "cx":
            return _apply_1q(self._made[key], states, axes[0])
        perm, factor = self._made[key]
        states = states.take(perm, axis=1)  # in C order, which later sums follow
        return states if factor is None else np.multiply(states, factor, out=states)

    def _terms(self, kind: str, params, rate: float) -> list[list] | tuple:
        return (_pauli_terms_of(kind, params, 1.0 - 4.0 * rate / 3.0) if self.mixed
                else _terms_of(kind, params))


def _measure_order(c: Circuit) -> list[int]:
    """Measured qubits sorted by classical bit; cbits must be 0..k-1."""
    pairs = sorted(c.measurements, key=lambda qc: qc[1])
    if not pairs:
        raise ValueError("circuit has no measurements")
    cbits = [cb for _, cb in pairs]
    if cbits != list(range(len(cbits))):
        raise ValueError("classical bits must be contiguous from 0")
    return [q for q, _ in pairs]


def apply_readout(probs: np.ndarray, rate: float) -> np.ndarray:
    """Mix a symmetric bit flip at ``rate`` into every classical bit of a
    distribution over 2**k keys, or of each row of a stack of them. Per bit
    that is [[1 - r, r], [r, 1 - r]]; at r' = -r / (1 - 2r) it is that
    matrix's inverse, [[1 - r, -r], [-r, 1 - r]] / (1 - 2r)."""
    probs = np.asarray(probs, dtype=float)
    width = probs.shape[-1]
    if width < 1 or width & (width - 1):
        raise ValueError(f"a distribution over {width} keys is not over 2**k keys")
    if not rate:
        return probs
    k = width.bit_length() - 1
    p = probs.reshape(probs.shape[:-1] + (2,) * k)
    for axis in range(probs.ndim - 1, p.ndim):
        p = (1.0 - rate) * p + rate * np.flip(p, axis=axis)
    return p.reshape(probs.shape)


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


def _bits(angle):
    """An angle's bits, or a lane's each: ``float.hex`` tells -0.0 from 0.0, which == does not."""
    return [*map(_bits, angle)] if isinstance(angle, list) else None if angle is None else angle.hex()


def outcome_distributions(circuits, noise: NoiseModel) -> list[np.ndarray]:
    """Exact outcome distribution over the 2**k classical keys of each
    measured circuit under noise, in order; a template, a circuit and
    ``{gate index: one angle per lane}``, gets row l of a (lanes, 2**k)
    array for the circuit with each laned gate at its angle l.

    The items are one pass: they must touch the same qubits, with their
    gates and measurements, and have as many lanes each (a circuit has
    one); else a ValueError names the registers and lane counts given. The
    pass evolves Pauli vectors if the noise has a gate error rate, else
    statevectors. The leading gates that every item has alike, kinds,
    qubits and angles' bits, are applied once to a stack of a row per lane;
    each item's other gates then go on from that stack. Every row sees the
    arithmetic of its circuit evolved alone. The results are read-only. A
    CapacityError is raised before anything is allocated if the pass's
    lanes, over all its items, plus its CNOT tables, one per pair of
    qubits, times a row's entries exceed 4**MAX_DENSE_QUBITS, the dense
    limit.
    """
    rates = {"cx": noise.cx_depol, **{kind: noise.sq_depol for kind in SINGLE_QUBIT_KINDS}}
    mixed = bool(noise.sq_depol or noise.cx_depol)
    items, registers, counts = [], set(), set()
    for item in circuits:
        circuit, lanes = item if isinstance(item, tuple) else (item, {})
        counts.update({len(angles) for angles in lanes.values()} or {1})
        # each gate's kind, qubits and angle, a list of one per lane where it has lanes
        steps = [(g.kind, g.qubits, list(lanes[i]) if i in lanes else g.param)
                 for i, g in enumerate(circuit.gates) if g.kind != "measure"]
        measured = _measure_order(circuit)
        register = tuple(sorted(set(measured).union(*(q for _, q, _ in steps))))
        registers.add(register)
        # a template's every row, a circuit's one
        items.append((steps, [register.index(q) for q in measured], 0 if circuit is item else slice(None)))
    if len(registers) > 1 or len(counts) > 1:
        raise ValueError(f"one call evolves one register with one lane count, not registers "
                         f"{sorted(registers)} with lane counts {sorted(counts)}")
    if not items:
        return []
    (register,), (lanes,) = registers, counts
    m, entries = len(register), (4 if mixed else 2) ** len(register)
    # a CNOT's table per pair of qubits holds as many entries as a row
    pairs = {qubits for steps, *_ in items for _, qubits, _ in steps if len(qubits) == 2}
    if (lanes * len(items) + len(pairs)) * entries > 4 ** MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{lanes * len(items)} lanes and {len(pairs)} CNOT pairs on {m} touched "
            f"qubits exceed the dense limit of 4**{MAX_DENSE_QUBITS} entries per pass")
    kernel = _Kernel(m, mixed)
    axis = {q: a for a, q in enumerate(register)}
    # the shared prefix: the leading steps alike in every item
    shared = 0
    for column in zip(*(((k, q, _bits(a)) for k, q, a in steps) for steps, *_ in items)):
        if column.count(column[0]) < len(column):
            break
        shared += 1
    prefix = np.zeros((lanes, entries), float if mixed else complex)
    prefix[:, _iz_index(m, range(m)) if mixed else 0] = 1.0  # |0><0| = prod (I + Z)/2
    for kind, qubits, angle in items[0][0][:shared]:
        prefix = kernel.apply(prefix, kind, tuple(axis[q] for q in qubits), angle, rates[kind])
    done = []
    for steps, kept, out in items:
        states = prefix
        for kind, qubits, angle in steps[shared:]:
            states = kernel.apply(states, kind, tuple(axis[q] for q in qubits), angle, rates[kind])
        if mixed:
            probs = _pauli_probabilities(states[:, _iz_index(m, kept)])
        else:  # |psi|**2 summed down to the measured axes, in classical-bit order
            p = (np.abs(states) ** 2).reshape((lanes,) + (2,) * m)
            p = np.moveaxis(p, [a + 1 for a in kept], range(1, len(kept) + 1))
            probs = p.reshape(lanes, 2 ** len(kept), -1).sum(axis=2)
        done.append(apply_readout(probs, noise.readout)[out])
        done[-1].setflags(write=False)
    return done


def sample_weights(probs: np.ndarray, shots: int, seeds) -> np.ndarray:
    """One multinomial draw of ``shots`` outcomes from each row of ``probs``,
    a float count per key, with its seed in ``seeds``; a distribution alone
    takes one seed. The Philox counter generator keeps each row reproducible
    for a fixed (row, shots, seed) regardless of platform.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    p = np.maximum(probs, 0.0)
    p = p / p.sum(axis=-1, keepdims=True)
    rows, seeds = (p[None], [seeds]) if p.ndim == 1 else (p, seeds)
    return np.array([np.random.Generator(np.random.Philox(seed)).multinomial(shots, row)
                     for row, seed in zip(rows, seeds, strict=True)], dtype=float).reshape(p.shape)
