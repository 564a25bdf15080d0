import itertools
import json
import tracemalloc

import numpy as np
import pytest

from gravopto import simulator
from gravopto.bosonmap import SUBSPACE_INDICES, ground_state_prep
from gravopto.circuit import PARAM_KINDS, PAULI_1Q, Circuit, Gate, cx, h, measure, x
from gravopto.digitizer import build_evolution_circuit
from gravopto.errors import CapacityError, ConfigError
from gravopto.experiment import (
    NOISE_PRESETS,
    ExperimentConfig,
    compile_sweep,
    emit_outputs,
    run_sweep,
)
from gravopto.simulator import (
    NoiseModel,
    apply_readout,
    outcome_distributions,
    sample_weights,
)
from gravopto.transpiler import TOPOLOGY_PRESETS

from oracles import bound_points, pauli_matrix, run_ideal, run_point, unitary_of
from test_circuit import random_circuit


def measured(c: Circuit) -> Circuit:
    return Circuit(c.n_qubits, c.gates + tuple(measure(q, q) for q in range(c.n_qubits)))


def test_zero_state():
    # every run starts from |0...0>
    psi = run_ideal(Circuit(3))
    assert psi.shape == (8,)
    assert psi[0] == 1.0 and np.abs(psi).sum() == 1.0


def test_run_ideal_matches_unitary():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, int(rng.integers(1, 15)))
        want = unitary_of(c)[:, 0]
        got = run_ideal(c)
        assert np.allclose(got, want, atol=1e-12)


def test_run_ideal_matches_unitary_on_wider_registers():
    # CNOTs between non-adjacent bits, control below and above the target
    rng = np.random.default_rng(72)
    for n in (5, 6, 7):
        for _ in range(3):
            wide = (cx(n - 1, 0), cx(n - 2, 1), cx(0, n - 1), cx(n - 1, 2))
            c = Circuit(n, random_circuit(rng, n, 20).gates + wide
                        + random_circuit(rng, n, 20).gates)
            u = unitary_of(c)
            assert np.abs(run_ideal(c) - u[:, 0]).max() <= 1e-12
            # the kernel on a stack of random inputs, one row each
            v = rng.normal(size=(2, 2 ** n)) + 1j * rng.normal(size=(2, 2 ** n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            kernel = simulator._Kernel(n, mixed=False)
            out = v
            for g in c.gates:
                out = kernel.apply(out, g.kind, g.qubits, [g.param])
            assert np.abs(out - v @ u.T).max() <= 1e-12


def test_run_ideal_skips_measurements():
    c = Circuit(2, (h(0), cx(0, 1), measure(0, 0), measure(1, 1)))
    got = run_ideal(c)
    assert np.allclose(got, unitary_of(Circuit(2, c.gates[:2]))[:, 0])


class TestBornProbabilities:
    """The noiseless outcome distribution of one measured circuit."""

    def test_bell_pair(self):
        c = measured(Circuit(2, (h(0), cx(0, 1))))
        p = outcome_distributions([c], NoiseModel())[0]
        assert np.allclose(p, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_cbit_order_is_key_order(self):
        # qubit 1 goes to cbit 0, so key bit 0 reads qubit 1
        c = Circuit(2, (x(0), measure(1, 0), measure(0, 1)))
        p = outcome_distributions([c], NoiseModel())[0]
        assert p[int("01", 2)] == pytest.approx(1.0)

    def test_partial_measurement_marginalizes(self):
        c = Circuit(2, (h(0), cx(0, 1), measure(0, 0)))
        p = outcome_distributions([c], NoiseModel())[0]
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)

    def test_requires_contiguous_cbits(self):
        with pytest.raises(ValueError):
            outcome_distributions([Circuit(2, (measure(0, 1),))], NoiseModel())
        with pytest.raises(ValueError):
            outcome_distributions([Circuit(2, (h(0),))], NoiseModel())


class TestApplyReadout:
    def test_single_bit(self):
        lam = 0.07
        out = apply_readout(np.array([1.0, 0.0]), lam)
        assert np.allclose(out, [1 - lam, lam])

    def test_four_bit_diagonal_weight(self):
        lam = 0.02
        probs = np.zeros(16)
        probs[0] = 1.0
        out = apply_readout(probs, lam)
        assert out[0] == pytest.approx((1 - lam) ** 4)
        assert out[-1] == pytest.approx(lam ** 4)
        assert out.sum() == pytest.approx(1.0)

    def test_zero_rate_is_identity(self):
        p = np.linspace(0.0, 1.0, 8)
        p /= p.sum()
        assert np.allclose(apply_readout(p, 0.0), p)



class TestNoiseModel:
    def test_validation(self):
        # the one place the rates' ranges are checked; the error names the field
        with pytest.raises(ConfigError, match=r"^readout: 0\.5 outside \[0, 0\.5\)$"):
            NoiseModel(readout=0.5)
        with pytest.raises(ConfigError, match="^readout:"):
            NoiseModel(readout=-0.1)
        with pytest.raises(ConfigError, match=r"^sq_depol: 1\.0 outside \[0, 1\)$"):
            NoiseModel(sq_depol=1.0)
        with pytest.raises(ConfigError, match="^cx_depol:"):
            NoiseModel(cx_depol=-0.5)

    def test_per_qubit_readout(self):
        # the one rate flips every measured qubit, whichever qubits they are
        c = Circuit(3, (x(0), h(1), measure(2, 0), measure(0, 1)))
        got, = outcome_distributions([c], NoiseModel(readout=0.05))
        clean, = outcome_distributions([c], NoiseModel())
        assert np.array_equal(got, apply_readout(clean, 0.05))


class TestRunNoisy:
    """A measured circuit's sampled counts, one multinomial row."""

    def test_requires_shots_and_measures(self):
        p, = outcome_distributions([measured(Circuit(1, (h(0),)))], NoiseModel())
        with pytest.raises(ValueError):
            sample_weights(p, 0, None)
        with pytest.raises(ValueError):
            outcome_distributions([Circuit(1, (h(0),))], NoiseModel())

    def test_seed_reproducibility(self):
        c = measured(Circuit(2, (h(0), cx(0, 1))))
        nm = NoiseModel(readout=0.03, sq_depol=0.01, cx_depol=0.05)
        p, = outcome_distributions([c], nm)
        a = sample_weights(p, 500, 9)
        assert np.array_equal(sample_weights(p, 500, 9), a)
        assert not np.array_equal(sample_weights(p, 500, 10), a)

    def test_noiseless_matches_born_statistics(self):
        c = measured(Circuit(2, (h(0), cx(0, 1))))
        shots = 100_000
        counts = sample_weights(outcome_distributions([c], NoiseModel())[0], shots, 3)
        assert counts.sum() == shots
        assert set(np.flatnonzero(counts).tolist()) <= {int("00", 2), int("11", 2)}
        freq = counts[int("00", 2)] / shots
        sigma = (0.25 / shots) ** 0.5
        assert abs(freq - 0.5) <= 4 * sigma

    def test_irrelevant_depol_changes_nothing(self):
        # cx error rate on a cx-free circuit must not even perturb the rng
        c = measured(Circuit(1, (h(0),)))
        plain, with_cx_rate = (sample_weights(outcome_distributions([c], nm)[0], 300, 5)
                               for nm in (NoiseModel(), NoiseModel(cx_depol=0.3)))
        assert np.array_equal(plain, with_cx_rate)

    def test_readout_only_diagonal(self):
        lam = 0.05
        c = measured(ground_state_prep())
        shots = 40_000
        counts = sample_weights(outcome_distributions([c], NoiseModel(readout=lam))[0], shots, 8)
        want = (1 - lam) ** 4
        freq = counts[int("0101", 2)] / shots
        sigma = (want * (1 - want) / shots) ** 0.5
        assert abs(freq - want) <= 4 * sigma

    def test_readout_matches_exact_transform(self):
        lam = 0.11
        c = measured(Circuit(2, (h(0),)))
        shots = 200_000
        counts = sample_weights(outcome_distributions([c], NoiseModel(readout=lam))[0], shots, 4)
        want = apply_readout(outcome_distributions([c], NoiseModel())[0], lam)
        got = counts / shots
        assert np.abs(got - want).max() <= 4 * (0.25 / shots) ** 0.5

    def test_depolarizing_leaks_out_of_the_subspace(self):
        c = measured(build_evolution_circuit(0.1, prepend_ground_prep=True))
        counts = sample_weights(outcome_distributions([c], NoiseModel(cx_depol=0.05))[0], 5_000, 14)
        leaked = np.delete(counts, SUBSPACE_INDICES).sum()
        assert leaked > 0
        assert counts.sum() == 5_000

    def test_depol_rate_one_half_mixes_single_qubit(self):
        c = measured(Circuit(1, (x(0),)))
        shots = 50_000
        counts = sample_weights(outcome_distributions([c], NoiseModel(sq_depol=0.75))[0], shots, 2)
        # error fires 75% of the time; only the Z draw leaves |1> in place
        want = 0.25 + 0.75 / 3
        freq = counts[1] / shots
        sigma = (want * (1 - want) / shots) ** 0.5
        assert abs(freq - want) <= 4 * sigma


def kraus_probabilities(c: Circuit, noise: NoiseModel) -> np.ndarray:
    """Full density matrix; after each gate, every non-identity Pauli on its
    qubits as an explicit Kraus term, each with weight rate / (4**k - 1)."""
    n = c.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    for g in [g for g in c.gates if g.kind != "measure"]:
        u = unitary_of(Circuit(n, (g,)))
        rho = u @ rho @ u.conj().T
        rate = noise.cx_depol if g.kind == "cx" else noise.sq_depol
        terms = list(itertools.product(range(4), repeat=len(g.qubits)))[1:]
        mixed = np.zeros_like(rho)
        for term in terms:
            factors = ["I"] * n
            for q, idx in zip(g.qubits, term):
                factors[q] = "IXYZ"[idx]
            pauli = pauli_matrix("".join(factors))
            mixed += pauli @ rho @ pauli.conj().T
        rho = (1 - rate) * rho + rate / len(terms) * mixed
    qubits = [q for q, _ in sorted(c.measurements, key=lambda qc: qc[1])]
    diag = rho.diagonal().real.reshape((2,) * n)
    rest = [q for q in range(n) if q not in qubits]
    probs = np.transpose(diag, qubits + rest).reshape(2 ** len(qubits), -1).sum(axis=1)
    return apply_readout(probs, noise.readout)


class TestNoisyProbabilities:
    def test_matches_brute_force_kraus_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            c = random_circuit(rng, 3, 12)
            c = Circuit(3, c.gates + (measure(2, 0), measure(0, 1)))
            noise = NoiseModel(readout=0.07, sq_depol=0.04, cx_depol=0.09)
            want = kraus_probabilities(c, noise)
            got, = outcome_distributions([c], noise)
            assert np.abs(got - want).max() <= 1e-12

    def test_single_qubit_flip_closed_form(self):
        c = measured(Circuit(1, (x(0),)))
        for p in (0.0, 0.01, 0.3, 0.75):
            probs, = outcome_distributions([c], NoiseModel(sq_depol=p))
            assert probs[1] == pytest.approx(1 - 2 * p / 3, abs=1e-14)

    def test_idle_pad_qubits_change_nothing(self):
        rng = np.random.default_rng(5)
        noise = NoiseModel(readout=0.02, sq_depol=0.01, cx_depol=0.05)
        bare = random_circuit(rng, 3, 15)
        # the same gates on qubits 0, 2, 4 of a 6-qubit register
        padded = Circuit(6, tuple(
            type(g)(g.kind, tuple(2 * q for q in g.qubits), g.param) for g in bare.gates
        ))
        bare = Circuit(3, bare.gates + tuple(measure(q, q) for q in range(3)))
        padded = Circuit(6, padded.gates + tuple(measure(2 * q, q) for q in range(3)))
        got, = outcome_distributions([padded], noise)
        want, = outcome_distributions([bare], noise)
        assert np.abs(got - want).max() <= 1e-14

    def test_without_gate_noise_it_is_the_pure_state_distribution(self):
        c = measured(build_evolution_circuit(0.1, prepend_ground_prep=True))
        noise = NoiseModel(readout=0.03)
        want = apply_readout(outcome_distributions([c], NoiseModel())[0], 0.03)
        assert np.array_equal(outcome_distributions([c], noise)[0], want)

    def test_result_is_read_only(self):
        probs, = outcome_distributions([measured(Circuit(1, (h(0),)))], NoiseModel(sq_depol=0.1))
        with pytest.raises(ValueError):
            probs[0] = 1.0

    def test_sampler_chi_square_on_routed_xy_setting(self):
        cfg = ExperimentConfig(**NOISE_PRESETS["belem-like"], topology="belem-like",
                               epsilon_values=(1e-2,))
        (_, circuits), = bound_points(compile_sweep(cfg))
        _, circ = circuits["XY"]
        noise = cfg.noise_model()
        shots = 200_000
        probs, = outcome_distributions([circ], noise)
        expected = shots * probs
        observed = sample_weights(probs, shots, 31)
        assert observed.sum() == shots and expected.min() > 5
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # 16 bins, 15 degrees of freedom: P(chi2 > 39.3) = 1e-3
        assert chi2 < 39.3


def pauli_transfer(u: np.ndarray) -> np.ndarray:
    """R[s, t] = tr(P_s u P_t u^dag) / 2**n over the n-qubit Pauli strings,
    qubit 0 the leftmost base-4 digit."""
    n = len(u).bit_length() - 1
    strings = [pauli_matrix("".join(f)) for f in itertools.product("IXYZ", repeat=n)]
    return np.array([[np.trace(ps @ u @ pt @ u.conj().T).real / 2 ** n for pt in strings]
                     for ps in strings])


def test_pauli_vector_gates_are_the_transfer_matrices_of_their_unitaries():
    """On Pauli vectors a gate maps basis row t to column t of its transfer
    matrix: the fixed kinds' tables against FIXED_MATRICES, the rotations,
    and the CNOT's signed gather on every ordered pair of 2 and 3 qubits."""
    rng = np.random.default_rng(61)
    for kind in ("x", "sx", "sxdg", "h", "s", "sdg", "rx", "rz", "u1"):
        g = Gate(kind, (0,), rng.uniform(-4, 4) if kind in PARAM_KINDS else None)
        got = simulator._Kernel(1, mixed=True).apply(np.eye(4), kind, (0,), [g.param])
        assert np.abs(got.T - pauli_transfer(unitary_of(Circuit(1, (g,))))).max() <= 1e-15
    for n in (2, 3):
        for pair in itertools.permutations(range(n), 2):
            got = simulator._Kernel(n, mixed=True).apply(np.eye(4 ** n), "cx", pair)
            want = pauli_transfer(unitary_of(Circuit(n, (cx(*pair),))))
            assert np.abs(got.T - want).max() <= 1e-15


QUARTER_TURNS = (0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi)


def test_a_clifford_on_pauli_vectors_is_a_signed_gather_of_its_transfer_matrix():
    """Every fixed kind, and Rz and U1 at each exact quarter turn, with
    one angle on every row is a gather of its qubit's digit: on every axis
    of a 3-qubit stack it is the gate's transfer matrix, X, Y and Z scaled
    by the depolarising factor 1 - 4p/3."""
    rate = 0.01
    keep = np.diag([1.0] + [1.0 - 4.0 * rate / 3.0] * 3)
    states = np.random.default_rng(62).uniform(-1, 1, (3, 4 ** 3))
    gates = [(kind, None) for kind in PAULI_1Q] + [(k, a) for k in ("rz", "u1") for a in QUARTER_TURNS]
    for kind, angle in gates:
        kernel = simulator._Kernel(3, mixed=True)
        assert isinstance(kernel._terms(kind, angle, rate), tuple)
        transfer = keep @ pauli_transfer(unitary_of(Circuit(1, (Gate(kind, (0,), angle),))))
        for axis in range(3):
            got = kernel.apply(states, kind, (axis,), angle, rate)
            want = np.einsum("ij,rajb->raib", transfer, states.reshape(3, 4 ** axis, 4, -1))
            assert np.abs(got - want.reshape(3, -1)).max() <= 1e-15


def test_a_lane_at_a_quarter_turn_gets_the_bytes_of_its_gather():
    """Rz and U1 with a lane per row, each at an exact quarter turn, give
    each row the bytes of the one-angle gather: their cos and sin are
    exactly 0 and +-1, where libm's cos(pi/2) is 6.1e-17."""
    states = np.random.default_rng(63).uniform(-1, 1, (len(QUARTER_TURNS), 4 ** 3))
    for kind in ("rz", "u1"):
        for axis in range(3):
            kernel = simulator._Kernel(3, mixed=True)
            laned = kernel.apply(states, kind, (axis,), list(QUARTER_TURNS), 0.01)
            for row, angle in enumerate(QUARTER_TURNS):
                alone = kernel.apply(states[row:row + 1], kind, (axis,), angle, 0.01)
                assert laned[row].tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("kwargs, gathers", [
    (dict(topology="belem-like", **NOISE_PRESETS["belem-like"]), 47),
    (dict(topology="nairobi-like", layout=(0, 2, 4, 6), **NOISE_PRESETS["nairobi-like"]), 57),
], ids=["belem-like", "nairobi-like-0246"])
def test_a_gate_noise_pass_sums_only_its_core_slots(monkeypatch, kwargs, gathers):
    """A compiled sweep's one-qubit gates are Clifford but for its 4 core
    slots: on Pauli vectors those 4 are a 4x4 sum each, every other one a
    gather."""
    cfg = ExperimentConfig(**kwargs)
    compiled = compile_sweep(cfg)
    summed = []
    apply_1q = simulator._apply_1q

    def spied(terms, states, axis):
        summed.append(isinstance(terms, list))
        return apply_1q(terms, states, axis)

    monkeypatch.setattr(simulator, "_apply_1q", spied)
    compiled.distributions(cfg.noise_model())
    assert (summed.count(True), summed.count(False)) == (4, gathers)


@pytest.mark.parametrize("n", [4, 5])
def test_pauli_vectors_match_the_kraus_sum_on_partial_permuted_measurements(n):
    rng = np.random.default_rng(60 + n)
    noise = NoiseModel(readout=0.04, sq_depol=0.03, cx_depol=0.07)
    kinds = ("x", "sx", "sxdg", "h", "s", "sdg", "rx", "rz", "u1", "cx")
    for k in (1, n - 2, n):
        gates = tuple(
            Gate(kind, tuple(int(q) for q in rng.choice(n, 1 + (kind == "cx"), replace=False)),
                 rng.uniform(-4, 4) if kind in PARAM_KINDS else None)
            for kind in rng.permutation(kinds * 2)
        )
        kept = rng.permutation(n)[:k]
        c = Circuit(n, gates + tuple(measure(int(q), cbit) for cbit, q in enumerate(kept)))
        got, = outcome_distributions([c], noise)
        assert np.abs(got - kraus_probabilities(c, noise)).max() <= 1e-12


def test_readout_on_pauli_vectors_is_the_bit_flip_transform():
    """Readout on Pauli-vector rows is apply_readout on the distribution of
    the same circuit without it, byte for byte: the rows' Walsh transform
    has no readout of its own."""
    rng = np.random.default_rng(67)
    gate_noise = dict(sq_depol=0.02, cx_depol=0.06)
    for _ in range(5):
        c = Circuit(4, random_circuit(rng, 4, 20).gates + (measure(3, 0), measure(1, 1), measure(2, 2)))
        without, = outcome_distributions([c], NoiseModel(**gate_noise))
        for r in (0.01, 0.2, 0.49):
            got, = outcome_distributions([c], NoiseModel(readout=r, **gate_noise))
            assert np.array_equal(got, apply_readout(without, r))


@pytest.mark.parametrize("readout", [0.0, 0.03])
def test_statevector_rows_read_out_together_equal_one_row_at_a_time(readout):
    """Pure rows that end with one measured order are read out as a batch;
    each equals, bit for bit, its own |psi|**2 summed down to its measured
    qubits in classical-bit order and passed through ``apply_readout``."""
    rng = np.random.default_rng(97)
    n = 4
    orders = ([2, 0, 3], [1, 3], [3, 2, 1, 0])
    circuits = []
    for _ in range(6):
        # an H on every wire, so every row is on the whole register; four
        # sets of angles per structure, so rows end together
        base = Circuit(n, tuple(h(q) for q in range(n)) + random_circuit(rng, n, 12).gates)
        for k in range(4):
            gates = tuple(Gate(g.kind, g.qubits, rng.uniform(-4, 4)) if g.kind in PARAM_KINDS else g
                          for g in base.gates)
            circuits.append(Circuit(n, gates + tuple(
                measure(q, cbit) for cbit, q in enumerate(orders[k % 3]))))
    got = outcome_distributions(circuits, NoiseModel(readout=readout))
    for c, p in zip(circuits, got):
        order = [q for q, _ in sorted(c.measurements, key=lambda qc: qc[1])]
        rest = [q for q in range(n) if q not in order]
        probs = np.transpose((np.abs(run_ideal(c)) ** 2).reshape((2,) * n), order + rest)
        want = apply_readout(probs.reshape(2 ** len(order), -1).sum(axis=1), readout)
        assert np.array_equal(p, want)


def _families(rng, n):
    """Families of measured circuits, each on one register: branches of a
    random trunk, the trunk itself, a copy of a branch and the first branch
    again; a trunk and a branch of it whose gates and measurements touch
    qubits 0 and 2 only; and two circuits on a register of n - 1 qubits."""
    trunk = random_circuit(rng, n, 10)
    wide = [Circuit(n, trunk.gates + random_circuit(rng, n, int(rng.integers(1, 6))).gates)
            for _ in range(3)]
    wide = [measured(c) for c in wide + [trunk, wide[0]]]
    wide.append(wide[0])
    narrow_trunk = random_circuit(rng, 2, 8).gates
    narrow = [Circuit(n, tuple(
        type(g)(g.kind, tuple(2 * q for q in g.qubits), g.param) for g in gates
    ) + (measure(2, 0), measure(0, 1))) for gates in (
        narrow_trunk, narrow_trunk + random_circuit(rng, 2, 3).gates)]
    return [wide, narrow, [measured(random_circuit(rng, n - 1, 6)) for _ in range(2)]]


@pytest.mark.parametrize("noise", [
    NoiseModel(readout=0.02, sq_depol=0.01, cx_depol=0.05),
    NoiseModel(readout=0.03, cx_depol=0.05),
    NoiseModel(readout=0.02),
    NoiseModel(),
], ids=["gate-noise", "cx-noise-only", "readout-only", "noiseless"])
def test_shared_prefix_distributions_equal_each_circuit_alone(noise):
    rng = np.random.default_rng(41)
    for _ in range(4):
        families = _families(rng, 4)
        results = [outcome_distributions(circuits, noise) for circuits in families]
        for circuits, together in zip(families, results):
            for c, got in zip(circuits, together, strict=True):
                assert np.array_equal(got, outcome_distributions([c], noise)[0])
                assert not got.flags.writeable
        # the object given again and the equal copy each get their own output array
        wide = results[0]
        assert wide[-1] is not wide[0] and np.array_equal(wide[-1], wide[0])
        assert wide[4] is not wide[0] and np.array_equal(wide[4], wide[0])


@pytest.mark.parametrize("noise", [NoiseModel(readout=0.02), NoiseModel(readout=0.02, cx_depol=0.01)],
                         ids=["statevector", "pauli-vector"])
def test_equal_circuits_get_equal_bytes_without_hashing(monkeypatch, noise):
    """A circuit object given again (a point's ZZ, IZ and ZI settings) and
    an equal copy that is another object get equal bytes; neither a Circuit
    nor a Gate is hashed. One that differs in a single angle, which sets a
    measured marginal, gets other bytes: those of its own run."""
    rng = np.random.default_rng(47)
    a = measured(random_circuit(rng, 3, 8))
    # b's last gate before its measurements is an rx on qubit 2, in |0> there
    b = measured(Circuit(3, random_circuit(rng, 3, 8).gates + (Gate("rx", (2,), 0.4),)))
    b_copy = Circuit(b.n_qubits, b.gates)
    i = len(b.gates) - 1 - b.n_qubits
    b_moved = Circuit(b.n_qubits, b.gates[:i] + (Gate(b.gates[i].kind, b.gates[i].qubits,
                                                      b.gates[i].param + 1e-3),) + b.gates[i + 1:])

    def refuse(obj):
        raise AssertionError(f"hashed a {type(obj).__name__}")

    monkeypatch.setattr(Circuit, "__hash__", refuse)
    monkeypatch.setattr(Gate, "__hash__", refuse)
    circuits = [a, a, b, a, b, b_copy, b_moved]
    got = outcome_distributions(circuits, noise)
    assert got[0].tobytes() == got[1].tobytes() == got[3].tobytes()
    assert got[2].tobytes() == got[4].tobytes() == got[5].tobytes()
    assert not np.array_equal(got[0], got[2])
    assert got[6].tobytes() != got[2].tobytes()
    for c, p in zip(circuits, got):
        assert np.array_equal(p, outcome_distributions([c], noise)[0])


@pytest.mark.parametrize("noise", [NoiseModel(readout=0.02), NoiseModel(readout=0.02, sq_depol=0.01)],
                         ids=["statevector", "pauli-vector"])
def test_rows_merge_by_angle_bits_not_by_equality(monkeypatch, noise):
    """rz(0.0) and rz(-0.0) are equal angles with different bits, so the
    shared prefix of the two circuits stops there, after h(0), and each goes
    on on a row of its own; each gets the bytes of its own one-circuit run."""
    rest = random_circuit(np.random.default_rng(53), 3, 8).gates
    circuits = [measured(Circuit(3, (h(0), Gate("rz", (0,), angle)) + rest)) for angle in (0.0, -0.0)]
    rows = []
    apply = simulator._Kernel.apply

    def counted(kernel, states, *args):
        rows.append(len(states))
        return apply(kernel, states, *args)

    monkeypatch.setattr(simulator._Kernel, "apply", counted)
    got = outcome_distributions(circuits, noise)
    assert rows == [1] + [1] * 2 * (len(rest) + 1)
    for c, p in zip(circuits, got):
        assert p.tobytes() == outcome_distributions([c], noise)[0].tobytes()


def test_a_sweep_over_both_zeros_keeps_each_points_bytes():
    # at epsilon 0.0 and -0.0 the core slots' angles are equal with different bits
    cfg = ExperimentConfig(analytic_mode=True, epsilon_values=(0.0, -0.0), topology="belem-like",
                           **NOISE_PRESETS["belem-like"])
    circuits = [c for _, settings in bound_points(compile_sweep(cfg)) for _, c in settings.values()]
    zero, minus_zero = circuits[0], circuits[len(circuits) // 2]
    assert any(a.param.hex() != b.param.hex() for a, b in zip(zero.gates, minus_zero.gates)
               if a.kind in PARAM_KINDS)
    noise = cfg.noise_model()
    for c, p in zip(circuits, outcome_distributions(circuits, noise)):
        assert p.tobytes() == outcome_distributions([c], noise)[0].tobytes()


def _structure_family(rng, n):
    """Measured circuits that share gate structures (kinds and qubits) but
    not angles: a trunk with every gate kind, two tails after it that three
    sets of angles each take, and the trunk alone."""
    def structure(kinds):
        return [(k, tuple(int(q) for q in rng.choice(n, 2 if k == "cx" else 1, replace=False)))
                for k in kinds]

    kinds = ("x", "sx", "sxdg", "h", "s", "sdg", "rx", "rz", "u1", "cx")
    trunk = structure(rng.permutation(kinds + tuple(rng.choice(kinds, 6))))
    tails = [structure(rng.choice(kinds, int(rng.integers(1, 6)))) for _ in range(2)]

    def with_angles(gates):
        return measured(Circuit(n, tuple(
            Gate(k, qubits, rng.uniform(-4, 4) if k in PARAM_KINDS else None)
            for k, qubits in gates
        )))

    return [with_angles(trunk + tail) for tail in tails for _ in range(3)] + [with_angles(trunk)]


@pytest.mark.parametrize("noise", [
    NoiseModel(readout=0.02, sq_depol=0.01, cx_depol=0.05),
    NoiseModel(readout=0.03, cx_depol=0.05),
    NoiseModel(readout=0.02),
    NoiseModel(),
], ids=["gate-noise", "cx-noise-only", "readout-only", "noiseless"])
def test_stacked_angles_equal_each_circuit_alone_and_the_kraus_sum(noise):
    rng = np.random.default_rng(43)
    for _ in range(3):
        circuits = _structure_family(rng, 4)
        together = outcome_distributions(circuits, noise)
        for c, got in zip(circuits, together):
            assert np.array_equal(got, outcome_distributions([c], noise)[0])
            assert np.abs(got - kraus_probabilities(c, noise)).max() <= 1e-12


def _spy_on_rows(monkeypatch) -> list:
    """The number of rows of every kernel call made from here on."""
    applied = []
    apply = simulator._Kernel.apply

    def counted(kernel, states, *args):
        applied.append(len(states))
        return apply(kernel, states, *args)

    monkeypatch.setattr(simulator._Kernel, "apply", counted)
    return applied


def prefix_rows(items) -> tuple[int, int]:
    """(kernel calls, rows) of one pass over measured circuits and templates
    ``(circuit, {gate index: one angle per lane})``. If every item has as
    many lanes, the leading gates alike in all of them (kind, qubits and
    angle bits, a tuple of them at a laned gate) are applied once, on a row
    per lane; every other gate once per item, on a row per lane of it."""
    seqs, lanes = [], []
    for item in items:
        c, laned = item if isinstance(item, tuple) else (item, {})
        lanes.append(len(next(iter(laned.values()), [None])))
        seqs.append([(g.kind, g.qubits, tuple(a.hex() for a in laned[i]) if i in laned
                      else None if g.param is None else g.param.hex())
                     for i, g in enumerate(c.gates) if g.kind != "measure"])
    shared = 0
    while (len(set(lanes)) == 1 and all(len(seq) > shared for seq in seqs)
           and len({seq[shared] for seq in seqs}) == 1):
        shared += 1
    tails = [len(seq) - shared for seq in seqs]
    return shared + sum(tails), shared * lanes[0] + sum(t * n for t, n in zip(tails, lanes))


@pytest.mark.parametrize("kwargs,calls,row_count", [
    # gate noise: one density-matrix pass
    (dict(topology="belem-like", **NOISE_PRESETS["belem-like"]), 75, 975),
    # readout only, SWAP-routed: one statevector pass
    (dict(topology="nairobi-like", layout=(0, 2, 4, 6), readout=0.0306), 142, 1846),
    # readout only on belem-like: the statevector pass of the same templates
    (dict(topology="belem-like", readout=0.0211), 75, 975),
], ids=["belem-like", "nairobi-like-swap", "readout-belem-like"])
def test_a_sweep_applies_each_structural_prefix_once(monkeypatch, kwargs, calls, row_count):
    """A sweep's three settings templates, 13 lanes each, share the prefix
    of the evolution: it is applied once, and every call takes a row per
    point."""
    cfg = ExperimentConfig(shots=50, **kwargs)
    compiled = compile_sweep(cfg)
    applied = _spy_on_rows(monkeypatch)
    run_sweep(cfg, compiled)
    laned = [compiled.laned(template) for template, _ in compiled.settings]
    assert applied == [len(cfg.epsilon_values)] * calls
    assert (len(applied), sum(applied)) == (calls, row_count) == prefix_rows(laned)
    evolution = [g for g in compiled.evolution[0].gates if g.kind != "measure"]
    assert calls < 3 * len(evolution)


@pytest.mark.parametrize("kwargs", [
    dict(analytic_mode=True, topology="belem-like", **NOISE_PRESETS["belem-like"]),
    dict(shots=2000, seed=5, topology="belem-like", **NOISE_PRESETS["belem-like"]),
    dict(analytic_mode=True, topology="nairobi-like", layout=(0, 2, 4, 6), readout=0.0306),
    # equal circuits that are distinct objects
    dict(analytic_mode=True, epsilon_values=(0.01, 0.01, 0.02), topology="belem-like",
         **NOISE_PRESETS["belem-like"]),
    # templates that end in a CNOT: the stacks' memory order sets how the rows are summed
    dict(analytic_mode=True, epsilon_values=(-0.3, 0.0, 0.01), topology="nairobi-like", transpile=False),
], ids=["analytic-gate-noise", "sampled-gate-noise", "analytic-readout-swap", "repeated-epsilon",
        "untranspiled"])
def test_sweep_rows_equal_each_point_run_alone(kwargs):
    cfg = ExperimentConfig(**kwargs)
    compiled = compile_sweep(cfg)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(len(cfg.epsilon_values))
    alone = [run_point(cfg, eps, int(seed)) for eps, seed in zip(cfg.epsilon_values, seeds)]
    assert run_sweep(cfg, compiled) == alone
    assert run_sweep(cfg) == alone


def test_a_pass_above_the_dense_limit_raises_before_allocation(tmp_path, monkeypatch):
    # a layout spread over a 20-qubit line: the SWAP chains touch every qubit,
    # so one gate-noise pass would hold 65 density matrices of 4**20 entries
    line = tmp_path / "line20.json"
    line.write_text(json.dumps({"n": 20, "edges": [[i, i + 1] for i in range(19)]}))
    cfg = ExperimentConfig(topology=str(line), layout=(0, 6, 12, 19), cx_depol=0.01)
    circuits = [c for _, settings in bound_points(compile_sweep(cfg)) for _, c in settings.values()]
    assert all({q for g in c.gates for q in g.qubits} == set(range(20)) for c in circuits)

    def refuse(*args, **kwargs):
        pytest.fail("a pass over 20 touched qubits was allocated")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(CapacityError, match="on 20 touched qubits"):
        outcome_distributions(circuits, cfg.noise_model())


def _spy_on_kernels(monkeypatch) -> list:
    """The (m, mixed) of every ``_Kernel`` made from here on."""
    made = []
    init = simulator._Kernel.__init__

    def spied(kernel, m, mixed):
        made.append((m, mixed))
        init(kernel, m, mixed)

    monkeypatch.setattr(simulator._Kernel, "__init__", spied)
    return made


def test_a_seven_qubit_gate_noise_sweep_fits_the_dense_limit(monkeypatch):
    # the SWAP-routed nairobi-like layout touches all 7 qubits: 39 density
    # matrices of 4**7 entries, below 4**12
    registers = _spy_on_kernels(monkeypatch)
    cfg = ExperimentConfig(topology="nairobi-like", layout=(0, 2, 4, 6), analytic_mode=True,
                           **NOISE_PRESETS["nairobi-like"])
    rows = run_sweep(cfg)
    assert registers == [(7, True)]
    assert all(0.0 < row["fidelity"] < 1.0 for row in rows)


def test_idle_device_qubits_are_not_simulated(tmp_path, monkeypatch):
    """belem-like's graph with a chain 4-5-...-13 hung on: every circuit
    touches the 4 qubits it touches on belem-like, so every kernel is over 4
    qubits and results.csv is byte-identical, with and without gate noise."""
    n, edges = TOPOLOGY_PRESETS["belem-like"]
    topo = tmp_path / "belem-chain.json"
    topo.write_text(json.dumps({"n": 14, "edges": [list(e) for e in edges]
                                + [[q, q + 1] for q in range(n - 1, 13)]}))
    registers = _spy_on_kernels(monkeypatch)
    for preset in ("none", "belem-like"):
        noise = dict(NOISE_PRESETS[preset], readout=0.0211)
        csv = {}
        for topology in ("belem-like", str(topo)):
            cfg = ExperimentConfig(topology=topology, shots=2000, seed=7, **noise)
            out = tmp_path / f"{preset}-{len(csv)}"
            csv[topology] = open(emit_outputs(run_sweep(cfg), cfg, str(out))["csv"], "rb").read()
        assert csv["belem-like"] == csv[str(topo)]
    assert registers and {m for m, _ in registers} == {4}


def test_only_gate_noise_evolves_pauli_vectors(monkeypatch):
    """Readout alone keeps a statevector kernel; a gate error rate in the
    noise model makes one Pauli-vector kernel per call, even for circuits
    without a gate of that kind."""
    rng = np.random.default_rng(73)
    circuits = _families(rng, 4)[0]
    no_cnot = [measured(Circuit(3, tuple(g for g in random_circuit(rng, 3, 12).gates if g.kind != "cx")))
               for _ in range(2)]
    kernels = _spy_on_kernels(monkeypatch)
    outcome_distributions(circuits, NoiseModel(readout=0.05))
    assert kernels == [(4, False)]
    for noise in (NoiseModel(readout=0.05, sq_depol=0.01), NoiseModel(cx_depol=0.01)):
        kernels.clear()
        outcome_distributions(circuits, noise)
        outcome_distributions(no_cnot, noise)
        assert kernels == [(4, True), (3, True)]


def test_a_pass_counts_its_cnot_tables_before_allocation(tmp_path, monkeypatch):
    """Readout only at one ε on a 20-qubit line: the 5 settings' statevectors
    of 2**20 entries fit 4**12, but the SWAP chains' 37 CNOT pairs each need
    a permutation of 2**20 entries too, and the pass would not."""
    line = tmp_path / "line20.json"
    line.write_text(json.dumps({"n": 20, "edges": [[i, i + 1] for i in range(19)]}))
    cfg = ExperimentConfig(topology=str(line), layout=(0, 6, 12, 19), readout=0.02,
                           epsilon_values=(0.01,))
    circuits = [c for _, settings in bound_points(compile_sweep(cfg)) for _, c in settings.values()]

    def refuse(*args, **kwargs):
        pytest.fail("a pass over 20 touched qubits was allocated")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(CapacityError, match="5 lanes and 37 CNOT pairs on 20 touched qubits"):
        outcome_distributions(circuits, cfg.noise_model())


def test_a_seven_qubit_gate_noise_pass_peaks_below_its_bound():
    """The nairobi-like [0, 2, 4, 6] gate-noise sweep, as its 3 templates of
    13 lanes and as its 65 bound circuits: a stack of 13 Pauli vectors of
    4**7 floats is 1.6 MiB, and a pass keeps its shared prefix's stack and
    one item's stacks alive at once. Both peak under 16 MiB (about 7.7 and
    3.7 MiB measured)."""
    cfg = ExperimentConfig(topology="nairobi-like", layout=(0, 2, 4, 6),
                           **NOISE_PRESETS["nairobi-like"])
    compiled = compile_sweep(cfg)
    circuits = [c for _, settings in bound_points(compiled) for _, c in settings.values()]
    noise = cfg.noise_model()
    for run in (lambda: compiled.distributions(noise), lambda: outcome_distributions(circuits, noise)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


LANE_GRID = (0.0, -0.0, 0.01, -0.01, 0.01, 3e-4, -3e-4, 1e-7)


@pytest.mark.parametrize("kwargs", [
    dict(topology="belem-like", readout=0.0211),
    dict(topology="belem-like", **NOISE_PRESETS["belem-like"]),
    dict(topology="nairobi-like", layout=(0, 2, 4, 6), readout=0.0306),
], ids=["statevector-belem-like", "pauli-vector-belem-like", "swap-routed-nairobi-0246"])
def test_each_lane_equals_its_points_circuits_evolved_alone(monkeypatch, kwargs):
    """A sweep's three settings templates, each core slot a lane of one
    angle per point, give every point and setting the bytes of that point's
    bound circuit evolved alone; over 0, -0.0, a repeated epsilon and
    epsilons of both signs. The templates share their leading gates, core
    slots and all, and every call takes a row per point."""
    cfg = ExperimentConfig(epsilon_values=LANE_GRID, **kwargs)
    noise = cfg.noise_model()
    compiled = compile_sweep(cfg)
    points = bound_points(compiled)
    applied = _spy_on_rows(monkeypatch)
    stack = compiled.distributions(noise)
    assert (len(applied), sum(applied)) == prefix_rows(
        [compiled.laned(template) for template, _ in compiled.settings])
    assert set(applied) == {len(LANE_GRID)}
    monkeypatch.undo()
    assert stack.shape == (len(LANE_GRID), 5, 16)
    for p, ((_, circuits), eps) in enumerate(zip(points, LANE_GRID)):
        for s, (_, circuit) in enumerate(circuits.values()):
            alone, = outcome_distributions([circuit], noise)
            assert stack[p, s].tobytes() == alone.tobytes(), (eps, s)


@pytest.mark.parametrize("noise", [NoiseModel(readout=0.02), NoiseModel(readout=0.02, sq_depol=0.01)],
                         ids=["statevector", "pauli-vector"])
def test_a_random_templates_lanes_equal_its_bound_circuits(monkeypatch, noise):
    """Lanes at three rotations of a random circuit, among them 0.0, -0.0 and
    a repeated lane: each lane is the bytes of its bound circuit run alone.
    Plain circuits that share its gates, one lane each, are a call of their
    own, and each gets its own bytes."""
    rng = np.random.default_rng(89)
    base = measured(Circuit(3, (h(0), h(1), h(2)) + random_circuit(rng, 3, 14).gates
                            + (Gate("rz", (0,), 0.5), Gate("rx", (1,), 0.5), Gate("u1", (2,), 0.5))))
    slots = [i for i, g in enumerate(base.gates) if g.kind in PARAM_KINDS][-3:]
    lanes = {i: [0.0, -0.0, 0.7, 0.7, float(rng.uniform(-4, 4))] for i in slots}
    lanes[slots[0]][2:] = [0.0, 0.0, -1.1]

    def bound(lane):
        return Circuit(3, tuple(Gate(g.kind, g.qubits, lanes[i][lane]) if i in lanes else g
                                for i, g in enumerate(base.gates)))

    plain = [bound(1), base]
    applied = _spy_on_rows(monkeypatch)
    template, = outcome_distributions([(base, lanes)], noise)
    got = outcome_distributions(plain, noise)
    # the template runs every gate on 5 rows; the circuits share all but the 3 slots, on one row
    gates = len(base.gates) - base.n_qubits
    assert (gates, 5 * gates) == prefix_rows([(base, lanes)])
    assert (gates + 3, gates + 3) == prefix_rows(plain)
    assert applied == [5] * gates + [1] * (gates + 3)
    monkeypatch.undo()
    assert template.shape == (5, 8) and not template.flags.writeable
    for lane in range(5):
        assert template[lane].tobytes() == outcome_distributions([bound(lane)], noise)[0].tobytes()
    for c, p in zip(plain, got):
        assert p.tobytes() == outcome_distributions([c], noise)[0].tobytes()


def test_a_template_needs_as_many_angles_at_each_laned_rotation():
    c = measured(Circuit(1, (h(0), Gate("rz", (0,), 0.1), Gate("rx", (0,), 0.1))))
    for lanes in ({1: [0.1, 0.2], 2: [0.3]}, {1: [0.1], 2: [0.1, 0.2]}):
        with pytest.raises(ValueError, match=r"lane counts \[1, 2\]"):
            outcome_distributions([(c, lanes)], NoiseModel())


def test_a_call_takes_one_register_and_one_lane_count():
    """Items on two registers, or with two lane counts, are no one pass:
    the call names the registers and lane counts it got."""
    wide = measured(Circuit(3, (h(0), cx(0, 2))))
    narrow = Circuit(3, (h(0), cx(0, 1), measure(0, 0), measure(1, 1)))
    with pytest.raises(ValueError, match=r"registers \[\(0, 1\), \(0, 1, 2\)\] with lane counts \[1\]"):
        outcome_distributions([wide, narrow], NoiseModel())
    template = (measured(Circuit(3, (h(0), cx(0, 2), Gate("rz", (1,), 0.1)))), {2: [0.1, 0.2]})
    with pytest.raises(ValueError, match=r"registers \[\(0, 1, 2\)\] with lane counts \[1, 2\]"):
        outcome_distributions([wide, template], NoiseModel(cx_depol=0.01))


@pytest.mark.parametrize("preset", ["none", "belem-like"])
def test_a_one_qubit_gate_with_one_angle_is_built_once_per_pass(monkeypatch, preset):
    """In a sweep, each one-qubit gate kind with one angle (or none) for
    every row of a call gets its terms built once per kernel; only the core
    slots, an angle per row, are built per call."""
    built = []
    terms = simulator._Kernel._terms

    def spied(kernel, kind, params, rate):
        built.append((id(kernel), kind, params if isinstance(params, list) else
                      None if params is None else params.hex(), rate))
        return terms(kernel, kind, params, rate)

    monkeypatch.setattr(simulator._Kernel, "_terms", spied)
    run_sweep(ExperimentConfig(shots=50, topology="belem-like", **NOISE_PRESETS[preset]))
    constant = [b for b in built if not isinstance(b[2], list)]
    assert constant and len(set(constant)) == len(constant)
    assert 0 < len(built) - len(constant) <= 4 * 3


def test_a_template_counts_one_row_per_lane_against_the_dense_limit(monkeypatch):
    """One template on 12 qubits: a lane's statevector is 2**12 entries,
    so 4**12 entries hold 4096 lanes. One lane runs; 4097 are refused
    before anything is allocated."""
    c = measured(Circuit(12, tuple(h(q) for q in range(12)) + (Gate("rz", (0,), 0.3),)))
    one, = outcome_distributions([(c, {12: [0.3]})], NoiseModel())
    assert one.shape == (1, 2 ** 12)

    def refuse(*args, **kwargs):
        pytest.fail("a pass above the dense limit was allocated")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(CapacityError, match="4097 lanes and 0 CNOT pairs on 12 touched qubits"):
        outcome_distributions([(c, {12: [0.3] * 4097})], NoiseModel())


def test_stacked_draws_equal_one_row_draws_with_the_same_seed():
    """Each row of a stacked draw is the bytes of a one-row draw with its
    seed, and of the Philox multinomial of the clipped, normalised row."""
    rng = np.random.default_rng(101)
    probs = rng.dirichlet(np.ones(16), size=7)
    seeds = [int(s) for s in rng.integers(0, 2**63, 7)]
    got = sample_weights(probs, 1000, seeds)
    assert got.shape == probs.shape and got.dtype == float
    for row, seed, counts in zip(probs, seeds, got):
        assert counts.tobytes() == sample_weights(row, 1000, seed).tobytes()
        want = np.random.Generator(np.random.Philox(seed)).multinomial(1000, row / row.sum())
        assert counts.tobytes() == want.astype(float).tobytes()
    with pytest.raises(ValueError):
        sample_weights(probs, 1000, seeds[:-1])


def test_a_row_with_tiny_negative_entries_is_clipped_before_normalising():
    rng = np.random.default_rng(103)
    probs = rng.dirichlet(np.ones(16), size=3)
    probs[1, [2, 5, 11]] = [-1e-17, -3e-18, -2e-16]
    probs[1] /= probs[1].sum()
    got = sample_weights(probs, 100_000, [5, 6, 7])
    clipped = np.maximum(probs[1], 0.0)
    want = np.random.Generator(np.random.Philox(6)).multinomial(100_000, clipped / clipped.sum())
    assert got[1].tobytes() == want.astype(float).tobytes()
    assert not got[1, [2, 5, 11]].any() and got[1].sum() == 100_000
    for r, seed in ((0, 5), (2, 7)):
        assert got[r].tobytes() == sample_weights(probs[r], 100_000, seed).tobytes()
