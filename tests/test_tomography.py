import json
import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest

from gravopto import simulator
from gravopto.circuit import Circuit, Gate, h, measure, sdg
from gravopto.digitizer import build_evolution_circuit
from gravopto.errors import CapacityError
from gravopto.experiment import ExperimentConfig, compile_sweep
from gravopto.simulator import (
    NoiseModel,
    apply_readout,
    outcome_distributions,
    sample_weights,
)
from gravopto.tomography import (
    EIGENVALUES,
    SETTING_LABELS,
    calibrate_confusion,
    expectations,
    measurement_circuits,
    mitigate_weights,
    postselect_weights,
    project_to_simplex,
    rotation_gates,
)

from oracles import pauli_matrix, run_ideal, unitary_of

# the Pauli string of one logical factor on a dual-rail qubit pair
PAIR_FACTORS = {"I": "II", "Z": "ZI", "X": "XX", "Y": "YX"}


def setting_operator(label: str) -> np.ndarray:
    return pauli_matrix(PAIR_FACTORS[label[0]] + PAIR_FACTORS[label[1]])


def weights_row(entries: dict, n_bits: int = 4) -> np.ndarray:
    """A one-row weights array from outcome keys and their weights."""
    row = np.zeros((1, 2 ** n_bits))
    for key, weight in entries.items():
        row[0, int(key, 2)] = weight
    return row


def eigenvalue(label: str, key: str) -> float:
    return float(EIGENVALUES[label][int(key, 2)])


def test_rotation_gates():
    assert rotation_gates("ZZ") == []
    assert rotation_gates("IZ") == []
    assert rotation_gates("XY") == [
        h(0), h(1), sdg(2), h(2), h(3),
    ]
    assert rotation_gates("YX") == [
        sdg(0), h(0), h(1), h(2), h(3),
    ]


class TestDecode:
    def test_z_pairs(self):
        assert eigenvalue("ZZ", "0101") == 1.0
        assert eigenvalue("ZZ", "0110") == -1.0
        assert eigenvalue("ZZ", "1001") == -1.0
        assert eigenvalue("ZZ", "1010") == 1.0

    def test_z_leakage_reads_zero(self):
        assert eigenvalue("ZZ", "0011") == 0.0
        assert eigenvalue("ZZ", "1111") == 0.0
        # identity on the leaked pair rescues the shot
        assert eigenvalue("IZ", "1110") == -1.0
        assert eigenvalue("ZI", "0111") == 1.0

    def test_parity_decode(self):
        assert eigenvalue("XY", "0000") == 1.0
        assert eigenvalue("XY", "0100") == -1.0
        assert eigenvalue("XY", "0110") == 1.0
        assert eigenvalue("XY", "1110") == -1.0


# h as sqrt(2) h, so a rotation with k h gates is 2**(k/2) times its unitary
# in Gaussian integers, and its conjugate of a Pauli string is exact
_SCALED_1Q = {"h": np.array([[1, 1], [1, -1]]), "sdg": np.diag([1, -1j])}


def test_eigenvalues_are_the_rotated_operators_diagonal():
    """Each entry is the diagonal of U O U^dag, U the setting's rotation and O
    its Pauli string, except where a Z factor's pair leaked (00 or 11): 0."""
    for label in SETTING_LABELS:
        gates = rotation_gates(label)
        per_qubit = [np.eye(2)] * 4
        for g in gates:
            per_qubit[g.qubits[0]] = _SCALED_1Q[g.kind] @ per_qubit[g.qubits[0]]
        k = sum(g.kind == "h" for g in gates)
        scaled = reduce(np.kron, per_qubit)
        assert np.abs(scaled / np.sqrt(2) ** k - unitary_of(Circuit(4, tuple(gates)))).max() <= 1e-15
        diagonal = np.diag(scaled @ setting_operator(label) @ scaled.conj().T) / 2 ** k
        assert not diagonal.imag.any()
        for i in range(16):
            key = format(i, "04b")
            leaked = any(b == "Z" and key[2 * m] == key[2 * m + 1] for m, b in enumerate(label))
            assert EIGENVALUES[label][i] == (0.0 if leaked else diagonal[i].real), (label, key)


def test_measurement_circuits_structure():
    base = build_evolution_circuit(0.1, prepend_ground_prep=True)
    pairs = measurement_circuits(base)
    assert [label for label, _ in pairs] == list(SETTING_LABELS)
    for _, circ in pairs:
        assert circ.measurements == tuple((q, q) for q in range(4))
        assert circ.gates[: len(base.gates)] == base.gates


def test_measurement_circuits_rejects_bad_base():
    base = build_evolution_circuit(0.1, prepend_ground_prep=True)
    already = Circuit(4, base.gates + tuple(measure(q, q) for q in range(4)))
    with pytest.raises(ValueError):
        measurement_circuits(already)
    with pytest.raises(ValueError):
        measurement_circuits(Circuit(3, (h(0),)))


def test_decoded_settings_match_dense_operators():
    # analytic distributions reproduce <psi| O |psi> for all five settings
    for eps in (0.0, 0.05, 0.2, 0.45):
        base = build_evolution_circuit(eps, prepend_ground_prep=True)
        psi = run_ideal(base)
        for label, circ in measurement_circuits(base):
            want = np.vdot(psi, setting_operator(label) @ psi).real
            est, _ = expectations(outcome_distributions([circ], NoiseModel())[0][None], label)
            assert abs(est[0] - want) <= 1e-9, (eps, label)


class TestPostselect:
    def test_filters_z_settings(self):
        weights = weights_row({"0101": 900, "0110": 50, "1010": 40, "1111": 10})
        kept, retained = postselect_weights(weights)
        assert retained[0] == pytest.approx(0.99)
        assert np.flatnonzero(kept[0]).tolist() == [int(k, 2) for k in ("0101", "0110", "1010")]
        assert kept.sum() == 990

    def test_idempotent(self):
        weights = weights_row({"0101": 5, "0011": 5})
        once, _ = postselect_weights(weights)
        twice, retained = postselect_weights(once)
        assert np.array_equal(twice, once) and retained.tolist() == [1.0]

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            postselect_weights(np.zeros((1, 16)))

    @pytest.mark.parametrize("n_bits", [2, 5])
    def test_other_widths_are_refused(self, n_bits):
        # the physical subspace is one of 4-bit dual-rail keys
        weights = weights_row({"0" * (n_bits - 1) + "1": 3}, n_bits)
        with pytest.raises(ValueError, match="4-bit"):
            postselect_weights(weights)


def exact_confusion(lam: float, n_bits: int) -> np.ndarray:
    return calibrate_confusion(n_bits, NoiseModel(readout=lam))


def circuit_per_column_calibration(n_bits, noise, shots, seed):
    """The calibration as first written: each basis state prepared with X
    gates, its outcome distribution sampled with its column's seed."""
    column_seeds = np.random.SeedSequence(seed).generate_state(2 ** n_bits)
    dense = np.zeros((2 ** n_bits, 2 ** n_bits))
    for state in range(2 ** n_bits):
        bits = format(state, f"0{n_bits}b")
        gates = [Gate("x", (j,)) for j, b in enumerate(bits) if b == "1"]
        gates += [measure(j, j) for j in range(n_bits)]
        probs, = outcome_distributions([Circuit(n_bits, tuple(gates))], noise)
        dense[:, state] = sample_weights(probs, shots, int(column_seeds[state])) / shots
    return dense


class TestConfusionMatrix:
    """The matrix ``calibrate_confusion`` returns."""

    def test_single_bit(self):
        assert np.allclose(exact_confusion(0.1, 1), [[0.9, 0.1], [0.1, 0.9]])

    def test_inverse(self):
        cm = exact_confusion(0.05, 3)
        assert np.allclose(np.linalg.inv(cm) @ cm, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.0211, 0.1, 0.37, 0.4999])
    def test_columns_are_the_readout_of_each_basis_state(self, lam):
        # column j is the recorded distribution of basis state j, byte for
        # byte as the simulator's readout channel computes it
        for n_bits in range(1, 9):
            eye = np.eye(2 ** n_bits)
            want = apply_readout(eye, lam)
            assert exact_confusion(lam, n_bits).tobytes() == want.T.copy().tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.0211, 0.1, 0.37])
    def test_the_flip_at_minus_r_over_1_minus_2r_is_the_inverse(self, lam):
        # the per-bit inverse [[1 - r, -r], [-r, 1 - r]] / (1 - 2r) is the flip
        # at -r / (1 - 2r). Against the inverse Kronecker matrix it holds within
        # 4e-15 (1 - 2r)**-k (measured: 3.1e-16 (1 - 2r)**-k), and a flip and its
        # inverse return the distribution within 1e-14 (measured: 1.8e-15)
        rng = np.random.default_rng(41)
        undo = -lam / (1.0 - 2.0 * lam)
        for n_bits in range(1, 7):
            p = rng.dirichlet(np.ones(2 ** n_bits), size=20)
            inverse = np.linalg.inv(exact_confusion(lam, n_bits))
            bound = 4e-15 * (1.0 - 2.0 * lam) ** -n_bits
            assert np.abs(apply_readout(p, undo) - p @ inverse.T).max() <= bound
            assert np.abs(apply_readout(apply_readout(p, lam), undo) - p).max() <= 1e-14


class TestCalibrateConfusion:
    def test_analytic_default(self):
        cm = calibrate_confusion(4, NoiseModel(readout=0.04))
        single = np.array([[0.96, 0.04], [0.04, 0.96]])
        want = np.kron(np.kron(np.kron(single, single), single), single)
        assert isinstance(cm, np.ndarray) and np.array_equal(cm, want)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            calibrate_confusion(2, NoiseModel(readout=0.1), shots=0)

    def test_dense_limit_checked_before_allocation(self, monkeypatch):
        def refuse(*args):
            pytest.fail("a 2**40-dimensional confusion matrix was requested")

        # the matrix is a Kronecker product of one 2x2 flip per bit, sampled or not
        monkeypatch.setattr(np, "kron", refuse)
        for shots in (None, 5):
            with pytest.raises(CapacityError, match="n_bits"):
                calibrate_confusion(40, NoiseModel(readout=0.01), shots=shots)

    def test_empirical_approaches_analytic(self):
        nm = NoiseModel(readout=0.06)
        got = calibrate_confusion(2, nm, shots=20_000, seed=15)
        want = calibrate_confusion(2, nm)
        assert np.abs(got - want).max() <= 0.01
        assert np.allclose(got.sum(axis=0), 1.0)

    def test_empirical_is_seeded(self):
        nm = NoiseModel(readout=0.06)
        a = calibrate_confusion(2, nm, shots=500, seed=3)
        b = calibrate_confusion(2, nm, shots=500, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("lam", [0.0, 0.0211, 0.1, 0.4999])
    def test_sampled_equals_a_circuit_per_column(self, lam):
        noise = NoiseModel(readout=lam)
        for n_bits in range(1, 6):
            for shots, seed in ((1, 0), (7, 3), (1000, 11), (100_003, 1000 + n_bits)):
                got = calibrate_confusion(n_bits, noise, shots=shots, seed=seed)
                want = circuit_per_column_calibration(n_bits, noise, shots, seed)
                assert np.array_equal(got, want), (n_bits, shots, seed)

    def test_gate_rates_do_not_enter(self):
        # the calibration is the readout channel's alone, sampled or not
        plain = NoiseModel(readout=0.02)
        gated = NoiseModel(readout=0.02, sq_depol=0.05, cx_depol=0.1)
        for shots in (None, 400):
            assert np.array_equal(calibrate_confusion(3, gated, shots=shots, seed=4),
                                  calibrate_confusion(3, plain, shots=shots, seed=4))

    def test_sampled_calibration_simulates_no_circuit(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("a calibration circuit was simulated")

        monkeypatch.setattr(simulator, "outcome_distributions", refuse)
        cm = calibrate_confusion(6, NoiseModel(readout=0.03), shots=100, seed=2)
        assert cm.shape == (64, 64)
        assert np.abs(cm.sum(axis=0) - 1.0).max() <= 1e-12


class TestMitigate:
    def test_identity_matrix_is_noop(self):
        out = mitigate_weights(weights_row({"00": 7, "11": 3}, 2), 0.0)
        assert out.tolist() == [[7.0, 0.0, 0.0, 3.0]]

    def test_exact_recovery_of_transformed_distribution(self):
        lam = 0.08
        truth = np.zeros(16)
        truth[int("0101", 2)] = 0.7
        truth[int("1010", 2)] = 0.3
        noisy = apply_readout(truth, lam)
        out = mitigate_weights(noisy[None] * 10_000, lam)[0]
        recovered = out / out.sum()
        assert np.abs(recovered - truth).max() <= 1e-9

    def test_constrained_fallback_stays_a_distribution(self):
        # weight concentrated on a flipped outcome drives the plain
        # inverse negative, so the simplex projection has work to do
        weights = weights_row({"01": 90, "10": 10}, 2)
        quasi = np.linalg.inv(exact_confusion(0.2, 2)) @ (weights[0] / 100.0)
        assert quasi.min() < -1e-10
        out = mitigate_weights(weights, 0.2)[0]
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(100.0)

    def test_projection_meets_kkt_conditions(self):
        # p is the Euclidean projection of q onto the simplex iff p is a
        # distribution and one theta has p = q - theta on the support and
        # q <= theta off it
        rng = np.random.default_rng(7)
        for _ in range(500):
            q = rng.normal(scale=rng.uniform(0.01, 2.0), size=rng.integers(1, 17))
            p = project_to_simplex(q)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            support = p > 0
            theta = np.mean(q[support] - p[support])
            assert np.abs(q[support] - p[support] - theta).max() <= 1e-12
            assert np.all(q[~support] <= theta + 1e-12)

    def test_distribution_projects_to_itself(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = np.concatenate([rng.dirichlet(np.ones(rng.integers(1, 13))),
                                np.zeros(rng.integers(0, 5))])
            rng.shuffle(p)
            assert np.abs(project_to_simplex(p) - p).max() <= 1e-15

    def test_mitigated_sweep_runs_without_scipy(self, tmp_path):
        # a readout-only belem point, where the plain inverse goes negative
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "shots": 100_000, "readout": 0.0211, "topology": "belem-like",
            "epsilon_values": [0.01],
        }))
        script = (
            "import json, sys\n"
            "from gravopto import tomography\n"
            "from gravopto.cli import main\n"
            "project, negative = tomography.project_to_simplex, []\n"
            "def counting(quasi):\n"
            "    negative.append(bool(quasi.min() < 0))\n"
            "    return project(quasi)\n"
            "tomography.project_to_simplex = counting\n"
            "rc = main(['sweep', '--config', sys.argv[1], '--out-dir', sys.argv[2]])\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([rc, sum(negative), scipy]))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rc, negative, scipy = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0
        assert negative > 0
        assert scipy == []

    @pytest.mark.parametrize("width", [3, 6])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_a_width_that_is_no_power_of_two_is_refused(self, rate, width):
        # at rate 0 too, where the flip itself is the identity
        with pytest.raises(ValueError, match=f"over {width} keys"):
            mitigate_weights(np.arange(1.0, width + 1.0)[None], rate)

    def test_round_trip_through_sampling(self):
        lam = 0.04
        base = build_evolution_circuit(0.3, prepend_ground_prep=True)
        circ = Circuit(4, base.gates + tuple(measure(q, q) for q in range(4)))
        counts = sample_weights(outcome_distributions([circ], NoiseModel(readout=lam))[0], 100_000, 33)
        out = mitigate_weights(counts[None], lam)[0]
        ideal, = outcome_distributions([circ], NoiseModel())
        sampled = out / out.sum()
        assert np.abs(sampled - ideal).sum() <= 0.02

    def test_memory_order_does_not_change_the_bytes(self):
        # a sampled readout-belem sweep's (65, 16) weights, mitigated as laid
        # out in C order and as an F-ordered copy of the same values
        cfg = ExperimentConfig(readout=0.0211, topology="belem-like", shots=1000)
        flat = compile_sweep(cfg).distributions(cfg.noise_model()).reshape(-1, 16)
        weights = sample_weights(flat, cfg.shots, list(range(len(flat))))
        assert weights.shape == (65, 16) and weights.flags.c_contiguous
        want = mitigate_weights(weights, cfg.readout)
        got = mitigate_weights(np.asfortranarray(weights), cfg.readout)
        assert got.tobytes() == want.tobytes()


class TestExpectation:
    def test_plain_average(self):
        est, se = expectations(weights_row({"0101": 3, "0110": 1}), "ZZ")
        assert est[0] == pytest.approx((3 - 1) / 4)
        assert se[0] == pytest.approx(np.sqrt((1 - 0.25) / 4))

    def test_leakage_dilutes_the_estimate(self):
        est, _ = expectations(weights_row({"0101": 1, "0011": 1}), "ZZ")
        assert est[0] == pytest.approx(0.5)

    def test_deterministic_outcome_has_zero_error(self):
        est, se = expectations(weights_row({"0101": 6, "1010": 2}), "ZZ")
        assert est[0] == 1.0 and se[0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expectations(np.zeros((1, 16)), "ZZ")


def test_estimate_traces_collects_everything():
    # each setting's exact distribution, one row, gives its correlator
    eps = 0.25
    base = build_evolution_circuit(eps, prepend_ground_prep=True)
    pairs = measurement_circuits(base)
    distributions = outcome_distributions([circ for _, circ in pairs], NoiseModel())
    traces = {label: float(expectations(p[None], label)[0][0])
              for (label, _), p in zip(pairs, distributions)}
    assert list(traces) == list(SETTING_LABELS)
    assert traces["ZZ"] == pytest.approx(1.0, abs=1e-9)
    assert traces["XY"] == pytest.approx(np.sin(2 * eps), abs=1e-9)
    assert traces["YX"] == pytest.approx(np.sin(2 * eps), abs=1e-9)
    assert traces["IZ"] == pytest.approx(np.cos(2 * eps), abs=1e-9)
    assert traces["ZI"] == pytest.approx(np.cos(2 * eps), abs=1e-9)


def random_weight_rows() -> np.ndarray:
    """Sampled counts with zero entries, fractional exact weights, and a row
    with nothing in the physical subspace."""
    rng = np.random.default_rng(21)
    rows = [rng.multinomial(300, rng.dirichlet(np.full(16, 0.2))).astype(float) for _ in range(8)]
    rows += [rng.dirichlet(np.ones(16)) * 1000.0 for _ in range(4)]
    leaked = np.zeros(16)
    leaked[[0, 3, 12, 15]] = [4.0, 2.5, 1.0, 0.5]
    return np.array(rows + [leaked])


def test_row_sums_run_in_key_order():
    """Each sum adds a row's nonzero weights one by one in key order."""
    weights = random_weight_rows()
    kept, retained = postselect_weights(weights)
    for label in SETTING_LABELS:
        est, se = expectations(weights, label)
        for w, e, s, k, frac in zip(weights, est, se, kept, retained):
            keys = [(format(i, "04b"), w[i]) for i in np.flatnonzero(w)]
            num = den = 0.0
            for key, weight in keys:
                num += weight * eigenvalue(label, key)
                den += weight
            assert e == num / den
            assert s == float(np.sqrt(max(1.0 - e * e, 0.0) / den))
            assert frac == sum(k[k != 0].tolist()) / den


def test_a_fully_leaked_row_keeps_no_weight():
    weights = random_weight_rows()
    kept, retained = postselect_weights(weights)
    assert retained[-1] == 0.0 and retained[:-1].min() > 0.0
    with pytest.raises(ValueError, match="no weight left"):
        expectations(kept, "ZZ")
    expectations(kept[:-1], "ZZ")


def test_projection_of_rows_is_each_row_projected():
    rng = np.random.default_rng(5)
    quasi = rng.normal(scale=0.3, size=(40, 16)) + 1 / 16
    rows = project_to_simplex(quasi)
    for q, p in zip(quasi, rows):
        assert p.tolist() == project_to_simplex(q).tolist()
