"""Full-pipeline acceptance checks, one test per numbered criterion.

Each test runs at the tolerance it states; the terminal summary hook in
conftest.py prints a PASS/FAIL line per criterion at the end of the run.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from gravopto.analysis import fidelity_error, fidelity_from_traces, trace_uncertainty
from gravopto.bosonmap import INTERACTION_FACTORS, SUBSPACE_INDICES
from gravopto.circuit import Circuit, measure
from gravopto.digitizer import build_evolution_circuit, compile_pauli_exponential
from gravopto.experiment import (
    NOISE_PRESETS,
    ExperimentConfig,
    compile_sweep,
    emit_outputs,
    run_sweep,
)
from gravopto.qasm import emit as qasm_emit
from gravopto.qasm import parse as qasm_parse
from gravopto.simulator import NoiseModel, outcome_distributions, sample_weights
from gravopto.tomography import expectations, mitigate_weights
from gravopto.transpiler import Topology, hub_layout, lower_to_basis, route, simplify

from oracles import (
    bound_points,
    concurrence,
    exact_state,
    exact_traces,
    mapped_hamiltonian,
    pauli_matrix,
    perturbative_traces,
    run_ideal,
    run_point,
    unitary_of,
)
from test_circuit import linear_distance


def coupling_matrix() -> np.ndarray:
    # (XXXX + XXYY + YYXX + YYYY) / 4, the generator of the evolution
    return mapped_hamiltonian(-1.0)


def test_criterion_01_circuit_matches_dense_exponential():
    start = time.perf_counter()
    m = coupling_matrix()
    for eps in (1e-7, 1e-4, 1e-2, 0.1, 0.5):
        got = unitary_of(build_evolution_circuit(eps))
        want = expm(1j * eps * m)
        assert linear_distance(got, want) <= 1e-10, f"epsilon={eps}"
    # the distance sees the smallest coupling: the identity is 2e-7 away
    assert linear_distance(np.eye(16), expm(1j * 1e-7 * m)) > 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_02_terms_commute_and_order_is_free():
    start = time.perf_counter()
    terms = [pauli_matrix(factors) for factors in INTERACTION_FACTORS]
    assert len(terms) == 4
    for a, b in itertools.combinations(terms, 2):
        assert np.array_equal(a @ b, b @ a)
    ref = unitary_of(build_evolution_circuit(0.3))
    for perm in itertools.permutations((1, 2, 3, 4)):
        circ = Circuit(4)
        for index in perm:
            term = compile_pauli_exponential(INTERACTION_FACTORS[index - 1], 0.3 / 4)
            circ = Circuit(4, circ.gates + term.gates)
        assert linear_distance(unitary_of(circ), ref) <= 1e-10, f"order {perm}"
    assert time.perf_counter() - start < 1.0


def test_criterion_03_closed_form_state_and_leakage():
    psi = run_ideal(build_evolution_circuit(0.1, prepend_ground_prep=True))
    target = np.zeros(16, dtype=complex)
    target[int("0101", 2)] = math.cos(0.1)
    target[int("1010", 2)] = 1j * math.sin(0.1)
    overlap = np.vdot(psi, target)
    aligned = psi * (overlap / abs(overlap))
    assert np.abs(aligned - target).max() <= 1e-10
    outside = [i for i in range(16) if i not in SUBSPACE_INDICES]
    assert np.sum(np.abs(psi[outside]) ** 2) <= 1e-10


def test_criterion_04_analytic_correlators():
    for eps in (1e-4, 1e-3, 5e-3, 1e-2, 0.1):
        t = exact_traces(eps)
        assert t["ZZ"] == 1.0
        assert t["XY"] == t["YX"] == math.sin(2.0 * eps)
        assert t["IZ"] == t["ZI"] == math.cos(2.0 * eps)
    for eps in (1e-4, 1e-3, 5e-3, 1e-2):
        bound = 2.0 * eps ** 3 + 2.0 * eps ** 4
        t, p = exact_traces(eps), perturbative_traces(eps)
        for label in t:
            assert abs(t[label] - p[label]) <= bound, f"{label} at {eps}"


def test_criterion_05_concurrence():
    for eps in np.linspace(-0.8, 0.8, 33):
        got = concurrence(exact_state(float(eps)))
        assert abs(got - abs(math.sin(2.0 * eps))) <= 1e-12
    assert abs(concurrence(exact_state(1e-3)) - 2e-3) <= 1e-5


def test_criterion_06_gate_budget_on_hub_layout():
    logical = build_evolution_circuit(0.1, prepend_ground_prep=True)
    _, cnots_before = logical.gate_counts()
    assert cnots_before == 24
    topo = Topology.preset("belem-like")
    lowered = lower_to_basis(logical)
    routed = route(lowered, topo, hub_layout(topo, lowered.n_qubits)).circuit
    single, cnots = simplify(routed).gate_counts()
    assert cnots == 24
    assert single <= 40


def test_criterion_07_million_shot_ideal_tomography():
    start = time.perf_counter()
    eps = 0.01
    cfg = ExperimentConfig(epsilon_values=(eps,), shots=1_000_000)
    row = run_point(cfg, eps, seed=3)
    want = exact_traces(eps)
    for key, label in (
        ("tr_zz", "ZZ"), ("tr_xy", "XY"), ("tr_yx", "YX"),
        ("tr_iz", "IZ"), ("tr_zi", "ZI"),
    ):
        assert abs(row[key] - want[label]) <= 0.005, label
    assert abs(row["fidelity"] - 1.0) <= 0.01
    assert time.perf_counter() - start < 30.0


def test_criterion_08_noisy_sweep_mitigation_and_postselection_win():
    start = time.perf_counter()
    on = ExperimentConfig(
        **NOISE_PRESETS["belem-like"], shots=10_000, topology="belem-like", seed=11,
    )
    off = ExperimentConfig(
        **NOISE_PRESETS["belem-like"], shots=10_000, topology="belem-like", seed=11,
        mitigation=False, postselection=False,
    )
    table_on = run_sweep(on)
    table_off = run_sweep(off)
    for row_on, row_off in zip(table_on, table_off):
        assert row_on["fidelity"] > row_off["fidelity"], row_on["epsilon"]
    mean = sum(r["fidelity"] for r in table_on) / len(table_on)
    assert 0.88 <= mean <= 0.97, f"mean mitigated fidelity {mean:.4f}"
    assert time.perf_counter() - start < 300.0


def test_criterion_09_readout_error_bars():
    assert trace_uncertainty(1.0, 0.02) == pytest.approx(0.16, abs=1e-15)
    eps = 0.01
    t = exact_traces(eps)
    d = {label: 4 * 0.02 * (1.0 + t[label]) for label in t}
    want = 0.25 * math.sqrt(
        d["ZZ"] ** 2
        + 4 * eps ** 2 * (d["XY"] ** 2 + d["YX"] ** 2)
        + (1 - 4 * eps ** 2) * (d["IZ"] ** 2 + d["ZI"] ** 2)
    )
    assert fidelity_error(eps, t, 0.02) == pytest.approx(want, abs=1e-15)

    # bootstrap arm: resample sampled histograms, compare the fidelity spread
    noise = NoiseModel(readout=0.0211, sq_depol=2.76e-4, cx_depol=0.00875)
    shots = 32
    cfg = ExperimentConfig(epsilon_values=(eps,), shots=shots)
    (_, circuits), = bound_points(compile_sweep(cfg))
    seeds = np.random.SeedSequence(0).generate_state(5)
    settings = [setting for setting, _ in circuits.values()]
    distributions = outcome_distributions([circ for _, circ in circuits.values()], noise)
    counts = [sample_weights(p, shots, int(seed)) for p, seed in zip(distributions, seeds)]
    traces = {s.label: float(expectations(w[None], s)[0][0]) for s, w in zip(settings, counts)}
    formula = fidelity_error(eps, traces, 0.0211)
    # redraw index, setting, key: each redraw takes one row per setting
    rng = np.random.default_rng(1000)
    redraws = np.array([[rng.multinomial(shots, w / w.sum()) for w in counts]
                        for _ in range(200)], dtype=float)
    estimates = [expectations(redraws[:, i], s)[0] for i, s in enumerate(settings)]
    samples = [fidelity_from_traces(eps, {s.label: float(e[k]) for s, e in zip(settings, estimates)})
               for k in range(len(redraws))]
    bootstrap = float(np.std(samples))
    ratio = formula / bootstrap
    assert 1.0 / 3.0 <= ratio <= 3.0, f"formula {formula:.4f} bootstrap {bootstrap:.4f}"


def test_criterion_10_mitigation_inverts_readout():
    base = build_evolution_circuit(0.3, prepend_ground_prep=True)
    circ = Circuit(4, base.gates + tuple(measure(q, q) for q in range(4)))
    ideal, = outcome_distributions([circ], NoiseModel())
    noise = NoiseModel(readout=0.03)
    counts = sample_weights(outcome_distributions([circ], noise)[0], 1_000_000, 5)
    fixed, = mitigate_weights(counts[None], noise.readout)
    l1 = float(np.abs(fixed / fixed.sum() - ideal).sum())
    assert l1 <= 0.01


def test_criterion_11_round_trips_and_byte_stability(tmp_path):
    for circ in (
        build_evolution_circuit(0.37, prepend_ground_prep=True),
        simplify(lower_to_basis(build_evolution_circuit(0.1))),
    ):
        again = qasm_parse(qasm_emit(circ))
        assert linear_distance(unitary_of(again), unitary_of(circ)) <= 1e-10

    cfg = ExperimentConfig(
        **NOISE_PRESETS["belem-like"], epsilon_values=(1e-3, 5e-3, 1e-2), shots=500,
        topology="belem-like", seed=7,
    )
    first = emit_outputs(run_sweep(cfg), cfg, out_dir=str(tmp_path / "a"), timestamp="fixed")
    second = emit_outputs(run_sweep(cfg), cfg, out_dir=str(tmp_path / "b"), timestamp="fixed")
    assert open(first["csv"], "rb").read() == open(second["csv"], "rb").read()
    assert open(first["json"], "rb").read() == open(second["json"], "rb").read()
