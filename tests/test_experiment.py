import dataclasses
import json
import math
import time

import numpy as np
import pytest

from gravopto import experiment, tomography, transpiler
from gravopto.analysis import concurrence_theory, fidelity_error, fidelity_from_traces
from gravopto.circuit import Circuit, Gate, u1
from gravopto.digitizer import build_evolution_circuit, core_angle
from gravopto.errors import ConfigError
from gravopto.experiment import (
    DEFAULT_EPSILONS,
    NOISE_PRESETS,
    RESULT_COLUMNS,
    ExperimentConfig,
    compile_sweep,
    device_layout,
    emit_outputs,
    resolve_topology,
    run_sweep,
)
from gravopto.qasm import emit as qasm_emit
from gravopto.qasm import parse as qasm_parse
from gravopto.simulator import outcome_distributions, sample_weights
from gravopto.tomography import (
    SETTING_LABELS,
    expectations,
    measurement_circuits,
    mitigate_weights,
    postselect_weights,
)
from gravopto.transpiler import (
    BASIS_KINDS,
    RoutedCircuit,
    Topology,
    hub_layout,
    lower_to_basis,
    route,
    transpile,
    turned,
)

from oracles import bound_points, exact_traces, run_point, unitary_of
from test_circuit import linear_distance


def closed_form_fidelity(eps: float) -> float:
    # trace formula evaluated on the exact correlators
    return 0.25 * (
        2.0
        + 4.0 * eps * math.sin(2 * eps)
        + 2.0 * (1.0 - 2.0 * eps ** 2) * math.cos(2 * eps)
    )


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.epsilon_values == DEFAULT_EPSILONS
        assert len(DEFAULT_EPSILONS) == 13
        assert DEFAULT_EPSILONS[0] == pytest.approx(1e-7)
        assert DEFAULT_EPSILONS[-1] == pytest.approx(1e-2)
        assert cfg.mitigation and cfg.postselection and cfg.transpile
        assert not cfg.analytic_mode

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"epsilon_values": ()}, "epsilon_values"),
            ({"epsilon_values": (1.0,)}, "epsilon_values"),
            ({"shots": 0}, "shots"),
            ({"readout": 0.5}, "readout"),
            ({"sq_depol": -0.1}, "sq_depol"),
            ({"cx_depol": 1.0}, "cx_depol"),
            ({"workers": 0}, "workers"),
            ({"layout": (0, 1, 2, 3)}, "layout"),
            ({"seed": -1}, "seed"),
            ({"topology": "belem-like", "layout": (0, 1, 2)}, "layout"),
            ({"topology": "belem-like", "layout": (0, 1, 1, 2)}, "layout"),
            ({"topology": "belem-like", "layout": (0, 1, 2, -1)}, "layout"),
            ({"topology": ["belem-like"]}, "topology"),
            ({"mitigation": "no"}, "mitigation"),
            ({"postselection": 1}, "postselection"),
            ({"transpile": None}, "transpile"),
            ({"analytic_mode": "true"}, "analytic_mode"),
            ({"export_qasm": 0}, "export_qasm"),
            ({"out_dir": 5}, "out_dir"),
            ({"topology": "belem-like", "layout": (1, 0.9, 2, 3.99)}, "layout"),
            ({"shots": 2**63}, "shots"),  # more than numpy's multinomial draws
        ],
    )
    def test_validation_names_the_field(self, kwargs, field):
        # through the config parser, which also rejects removed fields
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_json(json.dumps(kwargs))

    def test_one_rule_per_field(self):
        assert set(experiment.FIELD_RULES) == {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_noise_presets(self):
        cfg = ExperimentConfig(**NOISE_PRESETS["belem-like"], shots=10)
        assert cfg.readout == 0.0211
        assert cfg.sq_depol == 2.76e-4
        assert cfg.cx_depol == 0.00875
        assert cfg.shots == 10
        assert NOISE_PRESETS["none"] == {"readout": 0.0, "sq_depol": 0.0, "cx_depol": 0.0}

    def test_json_round_trip(self):
        cfg = ExperimentConfig(
            epsilon_values=(0.01, 0.02),
            shots=50,
            readout=0.03,
            topology="belem-like",
            layout=(1, 0, 2, 3),
            seed=5,
        )
        again = ExperimentConfig.from_json(json.dumps(cfg.to_json_dict()))
        assert again == cfg

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="shotz"):
            ExperimentConfig.from_json('{"shotz": 100}')
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    def test_noise_model(self):
        cfg = ExperimentConfig(readout=0.02, sq_depol=0.001, cx_depol=0.01)
        nm = cfg.noise_model()
        assert nm.readout == 0.02
        assert nm.sq_depol == 0.001 and nm.cx_depol == 0.01


def test_resolve_topology(tmp_path):
    assert resolve_topology(None) is None
    assert resolve_topology("belem-like").n == 5
    custom = tmp_path / "ring.json"
    custom.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}')
    topo = resolve_topology(str(custom))
    assert topo.n == 4 and (0, 3) in topo.edges
    with pytest.raises(ConfigError):
        resolve_topology("no-such-thing")


def exact_gates(circ):
    """Every gate field, the angle by its bits (so -0.0 is not 0.0)."""
    return [(g.kind, g.qubits, None if g.param is None else g.param.hex(), g.cbit)
            for g in circ.gates]


@pytest.mark.parametrize("kwargs", [
    dict(topology="belem-like"),
    dict(topology="nairobi-like"),
    dict(topology="nairobi-like", layout=(0, 2, 4, 6)),
    dict(transpile=False),
], ids=["belem-like", "nairobi-like", "nairobi-like-0246", "no-transpile"])
def test_compile_sweep_equals_each_point_compiled_alone(kwargs):
    """One set of templates and topology for the sweep change no gate:
    each point as the one-point sweep of it compiles."""
    cfg = ExperimentConfig(epsilon_values=DEFAULT_EPSILONS + (0.1, -0.3, 1e-7), **kwargs)
    compiled = compile_sweep(cfg)
    assert len(compiled.cores) == len(cfg.epsilon_values)
    for eps, (evolution, circuits) in zip(cfg.epsilon_values, bound_points(compiled)):
        (alone, want), = bound_points(compile_sweep(dataclasses.replace(cfg, epsilon_values=(eps,))))
        assert exact_gates(evolution) == exact_gates(alone), eps
        assert list(circuits) == list(want)
        for label, (setting, circ) in circuits.items():
            assert setting == want[label][0]
            assert exact_gates(circ) == exact_gates(want[label][1]), (eps, label)
            assert circ.measurements == want[label][1].measurements
            assert circ.gate_counts() == want[label][1].gate_counts()
        assert circuits["ZZ"][1] is circuits["IZ"][1] is circuits["ZI"][1]


COMPILE_CASES = pytest.mark.parametrize("kwargs", [
    dict(topology="belem-like"),
    dict(topology="nairobi-like"),
    dict(topology="nairobi-like", layout=(0, 2, 4, 6)),
    dict(),
    dict(transpile=False),
], ids=["belem-like", "nairobi-like", "nairobi-like-0246", "no-topology", "no-transpile"])


@COMPILE_CASES
def test_compile_sweep_equals_the_reference_compile(kwargs):
    """Each point as it compiles from scratch, with nothing shared: its
    evolution, and each setting's whole circuit, built, lowered, routed and
    simplified by ``transpile`` (or built bare without transpiling).
    Epsilon = 0 is left out: it keeps the sweep's structure, which its own
    transpile does not (``test_epsilon_zero_keeps_the_sweep_structure``)."""
    eps_values = DEFAULT_EPSILONS + (0.1, -0.3, -1e-7, 0.9, -0.999)
    cfg = ExperimentConfig(epsilon_values=eps_values, **kwargs)
    topo = resolve_topology(cfg.topology)
    for eps, (evolution, circuits) in zip(eps_values, bound_points(compile_sweep(cfg))):
        base = build_evolution_circuit(eps, prepend_ground_prep=True)
        if cfg.transpile:
            want = transpile(base, topo, device_layout(topo, 4, cfg.layout))
        else:
            want = RoutedCircuit(base, (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3))
        key = (kwargs, eps.hex())
        assert exact_gates(evolution) == exact_gates(want.circuit), key
        assert evolution.n_qubits == want.circuit.n_qubits
        # ZZ, IZ and ZI share one suffix and one circuit, made for ZZ
        refs = {}
        for (setting, suffix), (_, full) in zip(measurement_circuits(Circuit(4)),
                                                 measurement_circuits(base)):
            got = circuits[setting.label][1]
            ref = refs.setdefault(suffix, transpile(full, topo, device_layout(topo, 4, cfg.layout))
                                  .circuit if cfg.transpile else Circuit(4, want.circuit.gates + suffix.gates))
            assert exact_gates(got) == exact_gates(ref), (key, setting.label)
            assert got.n_qubits == ref.n_qubits


@COMPILE_CASES
def test_evolution_compile_runs_once_per_sweep(kwargs, monkeypatch):
    """Build, lowering and routing of the evolution do not grow with the
    number of points: one build, one route, and each gate of the evolution
    lowered once per sweep, all made again by the next sweep."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            circuit = args[0]
            if name == "build":
                calls.append((name, None))
            elif not circuit.has_measurements:  # a suffix is not the evolution
                calls.append((name, len(circuit.gates)))
            return fn(*args, **kwargs)
        return wrapper

    for name, short in (("build_evolution_circuit", "build"),
                        ("lower_to_basis", "lower"), ("route", "route")):
        for module in (experiment, transpiler):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(short, getattr(module, name)))

    def one_sweep(cfg):
        calls.clear()
        compile_sweep(cfg)
        return list(calls)

    cfg = ExperimentConfig(**kwargs)
    many = one_sweep(cfg)
    one = one_sweep(dataclasses.replace(cfg, epsilon_values=(0.01,)))
    again = one_sweep(cfg)
    assert many == one == again
    names = [name for name, _ in many]
    assert names.count("build") == 1
    assert names.count("route") == (1 if cfg.transpile and cfg.topology else 0)
    whole = len(build_evolution_circuit(0.0, prepend_ground_prep=True).gates)
    assert sum(n for name, n in many if name == "lower") == (whole if cfg.transpile else 0)


@COMPILE_CASES
def test_a_sweep_compiles_its_evolution_with_one_transpile(kwargs, monkeypatch):
    """A transpiled sweep makes one ``transpile`` call, whatever its number
    of points, and its evolution template is, gate for gate, that
    ``transpile`` of the evolution at the marking epsilon, whose four core
    angles are its slots; an untranspiled sweep makes none."""
    calls = []

    def counted(*args):
        calls.append(args)
        return transpile(*args)

    monkeypatch.setattr(experiment, "transpile", counted)
    cfg = ExperimentConfig(**kwargs)
    for eps_values in (DEFAULT_EPSILONS, (0.01,)):
        calls.clear()
        compiled = compile_sweep(dataclasses.replace(cfg, epsilon_values=eps_values))
        assert len(calls) == (1 if cfg.transpile else 0)
    marked = build_evolution_circuit(experiment._MARKING_EPSILON, prepend_ground_prep=True)
    topo = resolve_topology(cfg.topology)
    want = transpile(marked, topo, device_layout(topo, 4, cfg.layout)).circuit if cfg.transpile else marked
    template, slots = compiled.evolution
    assert exact_gates(template) == exact_gates(want)
    assert len(slots) == 4
    mark = core_angle(experiment._MARKING_EPSILON)
    assert [template.gates[i].param for i, _ in slots] == [turned(mark, k) for _, k in slots]


@COMPILE_CASES
def test_suffixes_are_lowered_once_per_sweep(kwargs, monkeypatch):
    """Every point keeps the evolution's final layout, so each of the three
    distinct measurement suffixes is lowered and placed once per sweep,
    whatever the number of points."""
    lowered = []
    lower = transpiler.lower_to_basis

    def counted(circuit):
        if circuit.has_measurements:
            lowered.append(circuit)
        return lower(circuit)

    monkeypatch.setattr(transpiler, "lower_to_basis", counted)
    cfg = ExperimentConfig(**kwargs)
    for eps_values in (DEFAULT_EPSILONS, (0.01,)):
        lowered.clear()
        compile_sweep(dataclasses.replace(cfg, epsilon_values=eps_values))
        assert len(lowered) == (3 if cfg.transpile else 0)
        assert len(set(lowered)) == len(lowered)


@pytest.mark.parametrize("topology,layout", [
    ("belem-like", None), ("nairobi-like", None), ("nairobi-like", (0, 2, 4, 6)), (None, None),
], ids=["belem-like", "nairobi-like", "nairobi-like-0246", "no-topology"])
def test_lowering_and_routing_do_not_branch_on_a_slot_angle(topology, layout):
    """The evolution at two epsilons, lowered and routed from scratch, has
    the same gate kinds, qubits and layouts, and the angles differ at four
    Rz gates and nowhere else: there each has its core angles, in order."""
    topo = resolve_topology(topology)
    placed = []
    for eps in (0.37, -0.81):
        lowered = lower_to_basis(build_evolution_circuit(eps, prepend_ground_prep=True))
        if topo is None:
            placed.append((lowered.gates, None))
        else:
            routed = route(lowered, topo, layout or hub_layout(topo, 4))
            placed.append((routed.circuit.gates, routed.full_final_layout))
    (a, layout_a), (b, layout_b) = placed
    assert [(g.kind, g.qubits) for g in a] == [(g.kind, g.qubits) for g in b]
    assert layout_a == layout_b
    differ = [i for i, (g, h) in enumerate(zip(a, b)) if g.param != h.param]
    assert all(a[i].kind == "rz" for i in differ)
    assert [a[i].param for i in differ] == [core_angle(0.37)] * 4
    assert [b[i].param for i in differ] == [core_angle(-0.81)] * 4


def with_extra_u1(monkeypatch, angle):
    """Make the sweep's evolution end with U1(angle) on qubit 2."""
    build = experiment.build_evolution_circuit

    def with_extra(epsilon, prepend_ground_prep=False):
        circ = build(epsilon, prepend_ground_prep)
        return Circuit(circ.n_qubits, circ.gates + (u1(2, angle),))

    monkeypatch.setattr(experiment, "build_evolution_circuit", with_extra)


@pytest.mark.parametrize("transpile", [True, False])
def test_an_extra_rotation_besides_the_cores_is_refused(monkeypatch, transpile):
    """The sweep takes its four core slots as the template's rotations that
    are no quarter turns; a fifth, an extra U1(0.7), is refused."""
    with_extra_u1(monkeypatch, 0.7)
    with pytest.raises(RuntimeError, match="has 5 non-Clifford angles, not 4 slots"):
        compile_sweep(ExperimentConfig(epsilon_values=(0.01,), topology="belem-like",
                                       transpile=transpile))


@pytest.mark.parametrize("transpile", [True, False])
def test_an_extra_u1_of_zero_is_not_taken_for_a_core(monkeypatch, transpile):
    """An extra U1(0) in the evolution is no core slot: the sweep's rows,
    over 0, -0.0 and both signs, are those it gives without it, float for
    float, but for the gate itself in the untranspiled gate count."""
    cfg = ExperimentConfig(epsilon_values=(0.0, -0.0, 0.01, -0.3), topology="belem-like",
                           readout=0.02, analytic_mode=True, transpile=transpile)
    want = run_sweep(cfg)
    with_extra_u1(monkeypatch, 0.0)
    compiled = compile_sweep(cfg)
    slots = {i for i, _ in compiled.evolution[1]}
    zeros = {i for i, g in enumerate(compiled.evolution[0].gates) if g.param == 0.0}
    assert len(slots) == 4 and not slots & zeros
    assert len(zeros) == (0 if transpile else 1)  # simplify drops it
    for row in want:
        row["single_qubit_gates"] += len(zeros)
    assert [exact_row(row) for row in run_sweep(cfg, compiled)] == [exact_row(row) for row in want]


def test_a_template_without_one_angle_per_core_slot_is_refused(monkeypatch):
    """A sweep lanes its cores only where a template has each slot once.
    A ``simplify`` that turned one core into a quarter turn (3 angles left
    that are not quarter turns), or into an angle that is no core's plus
    quarter turns (4 such angles, one slot missing), is refused."""
    simplify = experiment.simplify

    def rewritten(angle):
        def wrong(circuit):
            gates = list(simplify(circuit).gates)
            i = next(i for i, g in enumerate(gates) if g.kind == "rz" and abs(g.param) < 1)
            gates[i] = Gate("rz", gates[i].qubits, angle)
            return Circuit(circuit.n_qubits, tuple(gates))
        return wrong

    for angle, found in ((math.pi / 2, 3), (-1.0, 4), (1.7, 4)):
        monkeypatch.setattr(experiment, "simplify", rewritten(angle))
        with pytest.raises(RuntimeError, match=f"has {found} non-Clifford angles, not 4 slots"):
            compile_sweep(ExperimentConfig(epsilon_values=(0.01,), topology="belem-like"))


def test_an_evolution_with_three_core_rotations_is_refused(monkeypatch):
    """The evolution's template comes from ``transpile``, not ``simplify``:
    a ``transpile`` that turns one core into a quarter turn leaves 3
    rotations that are no quarter turns, and the sweep is refused there."""
    transpile = experiment.transpile

    def wrong(*args):
        routed = transpile(*args)
        gates = list(routed.circuit.gates)
        i = next(i for i, g in enumerate(gates) if g.kind in ("u1", "rz")
                 and transpiler.quarter_turns(g.param) is None)
        gates[i] = Gate(gates[i].kind, gates[i].qubits, math.pi / 2)
        return dataclasses.replace(routed, circuit=Circuit(routed.circuit.n_qubits, tuple(gates)))

    monkeypatch.setattr(experiment, "transpile", wrong)
    with pytest.raises(RuntimeError, match=r"^a template has 3 non-Clifford angles, not 4 slots$"):
        compile_sweep(ExperimentConfig(epsilon_values=(0.01,), topology="belem-like"))


BINDING_CASES = pytest.mark.parametrize("kwargs", [
    dict(topology="belem-like"),
    dict(topology="nairobi-like"),
    dict(topology="nairobi-like", layout=(0, 2, 4, 6)),
    dict(transpile=False),
], ids=["belem-like", "nairobi-like", "nairobi-like-0246", "no-transpile"])

# the default grid, its negatives, and 25 magnitudes over [1e-7, 0.9] of
# either sign
BINDING_EPSILONS = (DEFAULT_EPSILONS + tuple(-e for e in DEFAULT_EPSILONS)
                    + tuple(sign * float(e) for e in np.geomspace(1e-7, 0.9, 25) for sign in (1, -1)))


def structure(circ):
    return [(g.kind, g.qubits, g.cbit) for g in circ.gates]


@BINDING_CASES
def test_a_bound_point_equals_its_own_transpile(kwargs):
    """Each point binds its core angles into the sweep's templates. Its
    evolution and each setting's circuit have the gates of that circuit's
    own ``transpile`` (or of the bare circuit), kind and qubits, with every
    angle within 1e-12 rad. Every compiled setting has exactly four
    rotations that are not within 1e-9 of a quarter turn, its core slots,
    and every other Rz angle is exactly k * pi / 2 after wrapping."""
    cfg = ExperimentConfig(epsilon_values=BINDING_EPSILONS, **kwargs)
    topo = resolve_topology(cfg.topology)
    layout = device_layout(topo, 4, cfg.layout)
    quarter_turns = [math.remainder(k * (math.pi / 2), 2 * math.pi) for k in range(-2, 3)]
    for eps, (evolution, circuits) in zip(cfg.epsilon_values, bound_points(compile_sweep(cfg))):
        base = build_evolution_circuit(eps, prepend_ground_prep=True)
        pairs = [(evolution, base)] + [(circuits[setting.label][1], full)
                                               for setting, full in measurement_circuits(base)]
        for got, logical in pairs:
            want = transpile(logical, topo, layout).circuit if cfg.transpile else logical
            assert got.n_qubits == want.n_qubits
            assert structure(got) == structure(want), eps
            for a, b in zip(got.gates, want.gates):
                if a.param is not None:
                    assert abs(math.remainder(a.param - b.param, 2 * math.pi)) <= 1e-12, eps
        for _, circ in circuits.values():
            angles = [g.param for g in circ.gates if g.kind in ("rz", "u1")]
            cores = [a for a in angles if abs(math.remainder(a, math.pi / 2)) > 1e-9]
            assert len(cores) == 4, eps
            assert all(a in quarter_turns for a in angles if a not in cores), eps


@pytest.mark.parametrize("kwargs", [
    dict(topology="belem-like"),
    dict(topology="nairobi-like"),
    dict(topology="nairobi-like", layout=(0, 2, 4, 6)),
], ids=["belem-like", "nairobi-like", "nairobi-like-0246"])
def test_every_epsilon_compiles_to_one_structure(kwargs):
    """Every default-grid epsilon and its negative compile to the same gate
    kinds and qubits, in every setting. (Reading the core angles back with
    np.angle, the parent compiled 30 singles at 0 < epsilon <= 1.21e-5 and
    every epsilon < 0, and 28 above.)"""
    cfg = ExperimentConfig(epsilon_values=DEFAULT_EPSILONS + tuple(-e for e in DEFAULT_EPSILONS),
                           **kwargs)
    (_, first), *rest = bound_points(compile_sweep(cfg))
    for eps, (_, circuits) in zip(cfg.epsilon_values[1:], rest):
        for label, (_, circ) in circuits.items():
            assert structure(circ) == structure(first[label][1]), (eps, label)


@pytest.mark.parametrize("preset", ["belem-like", "nairobi-like"])
def test_the_analytic_fidelity_is_even_in_epsilon(preset):
    """With its preset's noise and topology, the analytic fidelity at each
    default-grid epsilon and at its negative agree within 1e-12: the
    compiled circuits are one structure whose core angles change sign. (At
    the parent they differed by up to 3.27e-4.)"""
    grid = DEFAULT_EPSILONS + tuple(-e for e in DEFAULT_EPSILONS)
    cfg = ExperimentConfig(**NOISE_PRESETS[preset], topology=preset, analytic_mode=True,
                           epsilon_values=grid)
    rows = run_sweep(cfg)
    n = len(DEFAULT_EPSILONS)
    for pos, neg in zip(rows[:n], rows[n:]):
        assert abs(pos["fidelity"] - neg["fidelity"]) <= 1e-12, pos["epsilon"]


def test_epsilon_zero_keeps_the_sweep_structure():
    """Epsilon = 0 binds zero core angles into the same templates: 24 CNOTs
    and the gates of epsilon = 1e-7, though its own ``transpile`` drops the
    cores and cancels every CNOT."""
    cfg = ExperimentConfig(topology="belem-like", epsilon_values=(0.0, -0.0, 1e-7))
    (zero, at_zero), (_, at_minus_zero), (small, at_small) = bound_points(compile_sweep(cfg))
    assert structure(zero) == structure(small)
    for label, (_, circ) in at_small.items():
        assert structure(at_zero[label][1]) == structure(at_minus_zero[label][1]) == structure(circ)
        assert at_zero[label][1].gate_counts() == circ.gate_counts()
        assert circ.gate_counts()[1] == 24
    alone = transpile(build_evolution_circuit(0.0, prepend_ground_prep=True),
                      Topology.preset("belem-like"), hub_layout(Topology.preset("belem-like")))
    assert alone.circuit.gate_counts() == (2, 0)


@pytest.mark.parametrize("preset,kwargs", [
    ("belem-like", dict(topology="belem-like")),
    ("nairobi-like", dict(topology="nairobi-like")),
    ("nairobi-like", dict(topology="nairobi-like", layout=(0, 2, 4, 6))),
], ids=["belem-like", "nairobi-like", "nairobi-like-0246"])
def test_every_trace_is_a_trigonometric_polynomial_in_epsilon(preset, kwargs):
    """Each core slot turns by epsilon/2 and every other gate and noise step
    is linear and independent of epsilon. So without mitigation or
    post-selection each analytic trace is a trigonometric polynomial of
    degree 4 in epsilon/2, nine coefficients: a fit at 11 nodes in
    [-0.9, 0.9] predicts +-1e-7, 0, the default grid and seeded points
    within 1e-12. XY and YX are odd in epsilon, and ZZ, IZ and ZI even,
    within 1e-12."""
    nodes = tuple(float(e) for e in np.linspace(-0.9, 0.9, 11))
    away = DEFAULT_EPSILONS + tuple(float(e) for e in np.random.default_rng(29).uniform(-0.9, 0.9, 8))
    probes = (1e-7, -1e-7, 0.0) + away
    mirrored = tuple(-e for e in away)
    cfg = ExperimentConfig(**NOISE_PRESETS[preset], analytic_mode=True, mitigation=False,
                           postselection=False, epsilon_values=nodes + probes + mirrored, **kwargs)
    rows = run_sweep(cfg)

    def basis(eps):
        turns = np.array(eps)[:, None] / 2 * np.arange(1, 5)
        return np.hstack([np.ones((len(eps), 1)), np.cos(turns), np.sin(turns)])

    n = len(nodes)
    for label in SETTING_LABELS:
        trace = np.array([row[f"tr_{label.lower()}"] for row in rows])
        coefficients, *_ = np.linalg.lstsq(basis(nodes), trace[:n], rcond=None)
        fitted = basis(probes) @ coefficients
        assert np.abs(fitted - trace[n:n + len(probes)]).max() <= 1e-12, label
        sign = -1.0 if label in ("XY", "YX") else 1.0
        at_away = trace[n + 3:n + len(probes)]
        assert np.abs(trace[n + len(probes):] - sign * at_away).max() <= 1e-12, label


def prepared(cfg: ExperimentConfig, eps: float) -> dict:
    """The circuits of one point's settings, as its one-point sweep runs them."""
    (_, circuits), = bound_points(compile_sweep(dataclasses.replace(cfg, epsilon_values=(eps,))))
    return circuits


class TestPrepareCircuits:
    def test_five_settings(self):
        cfg = ExperimentConfig(transpile=False)
        circuits = prepared(cfg, 0.01)
        assert set(circuits) == {"ZZ", "XY", "YX", "IZ", "ZI"}
        for label, (setting, circ) in circuits.items():
            assert setting.label == label
            assert circ.has_measurements

    @pytest.mark.parametrize(
        "topology,layout",
        [("belem-like", None), ("nairobi-like", (0, 2, 4, 6)), (None, None)],
    )
    def test_shared_compile_matches_full_transpile(self, topology, layout):
        cfg = ExperimentConfig(topology=topology, layout=layout,
                               epsilon_values=DEFAULT_EPSILONS + (0.3, -0.5))
        topo = resolve_topology(topology)
        for eps, (_, circuits) in zip(cfg.epsilon_values, bound_points(compile_sweep(cfg))):
            base = build_evolution_circuit(eps, prepend_ground_prep=True)
            for setting, full in measurement_circuits(base):
                want = transpile(full, topo, device_layout(topo, 4, layout)).circuit
                assert circuits[setting.label][1].gates == want.gates, (eps, setting.label)
            assert circuits["ZZ"][1] is circuits["IZ"][1] is circuits["ZI"][1]

    def test_layout_off_the_topology_is_a_config_error(self):
        cfg = ExperimentConfig(topology="belem-like", layout=(0, 1, 2, 9))
        with pytest.raises(ConfigError, match="layout"):
            compile_sweep(cfg)

    def test_transpiled_to_basis(self):
        cfg = ExperimentConfig(transpile=True)
        circuits = prepared(cfg, 0.01)
        for _, circ in circuits.values():
            assert all(g.kind in BASIS_KINDS for g in circ.gates)
            assert circ.n_qubits == 4

    def test_routed_onto_topology(self):
        cfg = ExperimentConfig(topology="belem-like")
        circuits = prepared(cfg, 0.01)
        topo = Topology.preset("belem-like")
        _, zz = circuits["ZZ"]
        assert zz.n_qubits == 5
        single, cnots = zz.gate_counts()
        assert cnots == 24
        assert single <= 40
        for g in zz.gates:
            if g.kind == "cx":
                assert tuple(sorted(g.qubits)) in topo.edges


class TestRunPoint:
    def test_ideal_analytic_point(self):
        cfg = ExperimentConfig(analytic_mode=True, shots=1000, transpile=False)
        row = run_point(cfg, 0.01, seed=0)
        assert row["fidelity"] == pytest.approx(closed_form_fidelity(0.01), abs=1e-12)
        assert row["fidelity_err"] == 0.0
        assert row["tr_zz"] == pytest.approx(1.0, abs=1e-9)
        assert row["tr_xy"] == pytest.approx(math.sin(0.02), abs=1e-9)
        assert row["tr_iz"] == pytest.approx(math.cos(0.02), abs=1e-9)
        assert row["retained_fraction_zz"] == 1.0
        assert row["concurrence_theory"] == pytest.approx(abs(math.sin(0.02)))
        assert row["shots"] == 1000 and row["seed"] == 0

    def test_row_has_every_column(self):
        cfg = ExperimentConfig(analytic_mode=True, shots=10)
        row = run_point(cfg, 0.001, seed=3)
        assert set(row) == set(RESULT_COLUMNS)

    def test_gate_counts_reported_from_the_run_circuit(self):
        cfg = ExperimentConfig(analytic_mode=True, shots=10, topology="belem-like")
        row = run_point(cfg, 0.001, seed=0)
        assert row["cnot_gates"] == 24
        assert row["single_qubit_gates"] <= 40
        bare = ExperimentConfig(analytic_mode=True, shots=10, transpile=False)
        row = run_point(bare, 0.001, seed=0)
        assert row["cnot_gates"] == 24
        assert row["single_qubit_gates"] > 40

    def test_a_mitigated_sweep_builds_and_inverts_no_matrix(self, monkeypatch):
        # mitigation undoes the one readout rate bit by bit (``apply_readout``
        # at -r / (1 - 2r)), so no confusion matrix is built or inverted
        def refuse(*args, **kwargs):
            pytest.fail("a mitigated sweep built or inverted a confusion matrix")

        monkeypatch.setattr(tomography, "calibrate_confusion", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        cfg = ExperimentConfig(shots=100, readout=0.02, topology="belem-like")
        mitigated = run_point(cfg, 0.01, seed=0)
        assert run_sweep(cfg)
        assert mitigated != run_point(dataclasses.replace(cfg, mitigation=False), 0.01, seed=0)

    def test_sampling_is_seeded(self):
        cfg = ExperimentConfig(shots=400, readout=0.02, transpile=False)
        a = run_point(cfg, 0.01, seed=11)
        b = run_point(cfg, 0.01, seed=11)
        c = run_point(cfg, 0.01, seed=12)
        assert a == b
        assert a != c

    def test_mitigation_recovers_analytic_readout(self):
        noisy = ExperimentConfig(
            analytic_mode=True, shots=100, readout=0.04, mitigation=False,
            transpile=False,
        )
        fixed = ExperimentConfig(
            analytic_mode=True, shots=100, readout=0.04, mitigation=True,
            transpile=False,
        )
        f_noisy = run_point(noisy, 0.01, seed=0)["fidelity"]
        f_fixed = run_point(fixed, 0.01, seed=0)["fidelity"]
        assert f_fixed == pytest.approx(closed_form_fidelity(0.01), abs=1e-6)
        assert f_fixed > f_noisy

    def test_depolarizing_shows_up_in_retained_fraction(self):
        cfg = ExperimentConfig(
            shots=4000, cx_depol=0.05, mitigation=False, transpile=False,
        )
        row = run_point(cfg, 0.01, seed=7)
        assert 0.0 < row["retained_fraction_zz"] < 1.0

    def test_postselection_toggle_changes_zz_under_leakage(self):
        base = dict(shots=4000, cx_depol=0.05, mitigation=False, transpile=False)
        on = run_point(ExperimentConfig(postselection=True, **base), 0.01, seed=7)
        off = run_point(ExperimentConfig(postselection=False, **base), 0.01, seed=7)
        assert on["retained_fraction_zz"] == off["retained_fraction_zz"]
        assert on["tr_zz"] > off["tr_zz"]

    def test_analytic_mode_takes_depolarizing_noise(self):
        base = dict(cx_depol=0.1, sq_depol=0.01, readout=0.02)
        exact = run_point(ExperimentConfig(analytic_mode=True, shots=10, **base), 0.01, seed=0)
        shots = 200_000
        sampled = run_point(ExperimentConfig(shots=shots, **base), 0.01, seed=3)
        assert 0.0 < exact["retained_fraction_zz"] < 1.0
        # a +-1 estimate from N kept shots has standard error <= 1/sqrt(N);
        # readout inversion scales it by 1/(1 - 2r)**4
        sigma = 1.0 / ((1 - 2 * 0.02) ** 4 * math.sqrt(shots * exact["retained_fraction_zz"]))
        for key in ("tr_zz", "tr_xy", "tr_yx", "tr_iz", "tr_zi"):
            assert abs(sampled[key] - exact[key]) <= 5 * sigma, key

    def test_transpile_toggle_is_invisible_in_analytic_mode(self):
        for topo in (None, "belem-like"):
            on = ExperimentConfig(
                analytic_mode=True, shots=10, readout=0.02, topology=topo,
            )
            off = ExperimentConfig(
                analytic_mode=True, shots=10, readout=0.02, transpile=False,
            )
            f_on = run_point(on, 0.005, seed=0)["fidelity"]
            f_off = run_point(off, 0.005, seed=0)["fidelity"]
            assert abs(f_on - f_off) <= 1e-9


class TestRunSweep:
    def test_rows_in_input_order(self):
        cfg = ExperimentConfig(
            epsilon_values=(0.01, 0.001, 0.005), analytic_mode=True, shots=10,
            transpile=False,
        )
        table = run_sweep(cfg)
        assert [r["epsilon"] for r in table] == [0.01, 0.001, 0.005]

    def test_reruns_are_identical(self):
        cfg = ExperimentConfig(
            epsilon_values=(1e-3,), shots=500, readout=0.03, cx_depol=0.01, seed=9,
            transpile=False,
        )
        assert run_sweep(cfg) == run_sweep(cfg)


def reference_rows(cfg: ExperimentConfig) -> list[dict]:
    """Each point's row as the sweep made it setting by setting: one
    one-row weights array per setting, sampled with the setting's seed or
    exact, mitigated, post-selected and estimated on its own."""
    noise = cfg.noise_model()
    point_seeds = np.random.SeedSequence(cfg.seed).generate_state(len(cfg.epsilon_values))
    rows = []
    for eps, seed, (_, circuits) in zip(cfg.epsilon_values, point_seeds, bound_points(compile_sweep(cfg))):
        setting_seeds = np.random.SeedSequence(int(seed)).generate_state(5)
        distributions = outcome_distributions([circuits[lab][1] for lab in SETTING_LABELS], noise)
        traces, retained = {}, {}
        for label, probs, setting_seed in zip(SETTING_LABELS, distributions, setting_seeds):
            setting = circuits[label][0]
            if cfg.analytic_mode:
                row = probs[None] * cfg.shots
            else:
                row = sample_weights(probs, cfg.shots, int(setting_seed))[None]
            if cfg.mitigation:
                row = mitigate_weights(row, cfg.readout)
            if label == "ZZ":
                kept, fraction = postselect_weights(row)
                retained[label] = float(fraction[0])
                if cfg.postselection:
                    row = kept
            traces[label] = float(expectations(row, setting)[0][0])
        single, cnots = circuits["ZZ"][1].gate_counts()
        rows.append({
            "epsilon": eps,
            "fidelity": fidelity_from_traces(eps, traces),
            "fidelity_err": fidelity_error(eps, traces, cfg.readout),
            "tr_zz": traces["ZZ"], "tr_xy": traces["XY"],
            "tr_yx": traces["YX"], "tr_iz": traces["IZ"],
            "tr_zi": traces["ZI"],
            "concurrence_theory": concurrence_theory(eps),
            "retained_fraction_zz": retained["ZZ"],
            "single_qubit_gates": single, "cnot_gates": cnots,
            "shots": cfg.shots, "seed": int(seed),
        })
    return rows


def exact_row(row: dict) -> dict:
    """Every cell with its type, a float by its bits."""
    return {k: (type(v).__name__, v.hex() if isinstance(v, float) else v) for k, v in row.items()}


@pytest.mark.parametrize("preset,kwargs", [
    ("belem-like", dict(topology="belem-like", shots=1000)),
    ("none", dict(readout=0.0211, topology="belem-like", shots=100_000)),
    ("none", dict(readout=0.0306, topology="nairobi-like", layout=(0, 2, 4, 6),
                  analytic_mode=True)),
], ids=["belem-like-1k", "readout-belem-100k", "analytic-nairobi-0246"])
@pytest.mark.parametrize("mitigation", [True, False])
@pytest.mark.parametrize("postselection", [True, False])
@pytest.mark.parametrize("seed", [11, 12])
def test_sweep_rows_equal_the_per_setting_reference(preset, kwargs, mitigation, postselection, seed):
    """A sweep's weights array gives each point the row its settings give
    one at a time, float for float."""
    cfg = ExperimentConfig(**{**NOISE_PRESETS[preset], **kwargs}, mitigation=mitigation,
                           postselection=postselection, seed=seed)
    got = run_sweep(cfg)
    want = reference_rows(cfg)
    assert [exact_row(row) for row in got] == [exact_row(row) for row in want]


class TestEmitOutputs:
    @staticmethod
    def small_config(**kwargs):
        base = dict(
            epsilon_values=(1e-4, 1e-3), analytic_mode=True, shots=10, seed=2,
            transpile=False,
        )
        base.update(kwargs)
        return ExperimentConfig(**base)

    def test_files_and_header(self, tmp_path):
        cfg = self.small_config()
        table = run_sweep(cfg)
        paths = emit_outputs(table, cfg, out_dir=str(tmp_path), timestamp="T0")
        lines = open(paths["csv"], newline="").read().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 1 + len(table)
        report = json.load(open(paths["json"]))
        assert report["provenance"]["timestamp"] == "T0"
        assert report["provenance"]["seed"] == 2
        assert report["config"]["epsilon_values"] == [1e-4, 1e-3]
        assert len(report["results"]) == 2

    def test_byte_stability(self, tmp_path):
        cfg = self.small_config()
        a = emit_outputs(run_sweep(cfg), cfg, out_dir=str(tmp_path / "a"), timestamp="T")
        b = emit_outputs(run_sweep(cfg), cfg, out_dir=str(tmp_path / "b"), timestamp="T")
        assert open(a["csv"], "rb").read() == open(b["csv"], "rb").read()
        assert open(a["json"], "rb").read() == open(b["json"], "rb").read()

    def test_sampled_runs_are_byte_stable_too(self, tmp_path):
        cfg = ExperimentConfig(
            epsilon_values=(1e-3,), shots=200, readout=0.02, seed=6, transpile=False,
        )
        a = emit_outputs(run_sweep(cfg), cfg, out_dir=str(tmp_path / "a"), timestamp="T")
        b = emit_outputs(run_sweep(cfg), cfg, out_dir=str(tmp_path / "b"), timestamp="T")
        assert open(a["csv"], "rb").read() == open(b["csv"], "rb").read()

    def test_timestamp_only_in_json(self, tmp_path):
        cfg = self.small_config()
        table = run_sweep(cfg)
        a = emit_outputs(table, cfg, out_dir=str(tmp_path / "a"), timestamp="T1")
        b = emit_outputs(table, cfg, out_dir=str(tmp_path / "b"), timestamp="T2")
        assert open(a["csv"], "rb").read() == open(b["csv"], "rb").read()
        assert open(a["json"], "rb").read() != open(b["json"], "rb").read()

    def test_qasm_export_round_trips(self, tmp_path):
        cfg = self.small_config(export_qasm=True, transpile=True)
        table = run_sweep(cfg)
        paths = emit_outputs(table, cfg, out_dir=str(tmp_path), timestamp="T")
        assert len(paths["qasm"]) == 2
        for path, eps in zip(paths["qasm"], cfg.epsilon_values):
            circ = qasm_parse(open(path).read())
            want = unitary_of(build_evolution_circuit(eps, prepend_ground_prep=True))
            assert linear_distance(unitary_of(circ), want) <= 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"topology": "belem-like"},
        {"topology": "nairobi-like", "layout": (0, 2, 4, 6)},  # SWAP-routed
        {"transpile": False},  # u1 core slots
    ])
    def test_each_exported_file_is_its_bound_evolution(self, kwargs, tmp_path):
        """Each circuit_NN.qasm is, byte for byte, ``emit`` of point NN's
        bound evolution, over 0, -0.0, a repeated epsilon, both signs and a
        tiny one; its angles read back bit for bit (float.hex tells -0.0
        from 0.0)."""
        cfg = ExperimentConfig(epsilon_values=(0.01, 0.0, -0.0, 0.01, -0.5, 1e-7),
                               analytic_mode=True, export_qasm=True, **kwargs)
        paths = emit_outputs(run_sweep(cfg), cfg, out_dir=str(tmp_path), timestamp="T")
        assert len(paths["qasm"]) == len(cfg.epsilon_values)
        for path, (bound, _) in zip(paths["qasm"], bound_points(compile_sweep(cfg))):
            text = open(path, encoding="utf-8").read()
            assert text == qasm_emit(bound)
            back = qasm_parse(text)
            assert [g.kind for g in back.gates] == [g.kind for g in bound.gates]
            assert ([None if g.param is None else g.param.hex() for g in back.gates]
                    == [None if g.param is None else g.param.hex() for g in bound.gates])

    def test_a_sweep_is_emitted_once_and_binds_no_point(self, tmp_path, monkeypatch):
        """The export writes the evolution template's text in one ``emit``
        call, not one per point: the template itself with its lanes, no
        point's circuit."""
        cfg = self.small_config(epsilon_values=DEFAULT_EPSILONS, export_qasm=True,
                                topology="nairobi-like", layout=(0, 2, 4, 6), transpile=True)
        compiled = compile_sweep(cfg)
        table = run_sweep(cfg, compiled)
        calls = []

        def spy(*args):
            calls.append(args)
            return qasm_emit(*args)

        monkeypatch.setattr(experiment, "qasm_emit", spy)
        paths = emit_outputs(table, cfg, out_dir=str(tmp_path), timestamp="T", compiled=compiled)
        assert len(calls) == 1
        assert calls[0][0] is compiled.evolution[0]
        assert len(paths["qasm"]) == len(DEFAULT_EPSILONS) == 13

    def test_the_report_is_written_in_one_write(self, tmp_path, monkeypatch):
        """report.json goes out in one write of the whole text: 2-space
        indented, keys sorted, a newline at the end."""
        cfg = self.small_config(epsilon_values=DEFAULT_EPSILONS)
        table = run_sweep(cfg)
        writes = []
        real_open = open

        def spied_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if str(path).endswith("report.json"):
                write = fh.write
                fh.write = lambda text: writes.append(text) or write(text)
            return fh

        monkeypatch.setattr("builtins.open", spied_open)
        paths = emit_outputs(table, cfg, out_dir=str(tmp_path), timestamp="T")
        monkeypatch.undo()
        text = open(paths["json"], encoding="utf-8").read()
        assert len(writes) == 1 and writes[0] == text
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_outputs([], self.small_config(), out_dir=str(tmp_path))


RANDOM_GRAPH_EPSILONS = (-0.5, -1e-3, 1e-7, 1e-3, 0.2, 0.7)


def test_random_device_graphs_compile_and_run_exactly(tmp_path):
    """Seeded random connected device graphs of 4 to 8 qubits (a random
    spanning tree plus extra edges), 60% with a random layout and the rest
    with the hub layout. On each, a noiseless analytic sweep over both signs
    of epsilon measures the closed-form traces to within 1e-12, and every
    point compiles gate for gate as its own ``transpile`` does, the
    evolution and each setting's whole circuit, nothing shared. The whole
    set takes at most 4 s (about 1.3 s on a 2-core x86 box)."""
    from test_transpiler import random_connected_topology

    rng = np.random.default_rng(5)
    start = time.perf_counter()
    for trial in range(24):
        topo = random_connected_topology(rng, int(rng.integers(4, 9)))
        path = tmp_path / f"graph{trial}.json"
        path.write_text(json.dumps({"n": topo.n, "edges": sorted(topo.edges)}))
        layout = tuple(int(q) for q in rng.choice(topo.n, 4, replace=False)) if rng.random() < 0.6 else None
        cfg = ExperimentConfig(epsilon_values=RANDOM_GRAPH_EPSILONS, analytic_mode=True,
                               topology=str(path), layout=layout)
        compiled = compile_sweep(cfg)
        for row, (evolution, circuits) in zip(run_sweep(cfg, compiled), bound_points(compiled)):
            eps = row["epsilon"]
            key = (trial, sorted(topo.edges), layout, eps)
            for label, want in exact_traces(eps).items():
                assert abs(row[f"tr_{label.lower()}"] - want) <= 1e-12, (key, label)
            ref = transpile(build_evolution_circuit(eps, prepend_ground_prep=True), topo,
                            layout or hub_layout(topo, 4))
            assert exact_gates(evolution) == exact_gates(ref.circuit), key
            for setting, full in measurement_circuits(build_evolution_circuit(eps, prepend_ground_prep=True)):
                if setting.label in ("IZ", "ZI"):  # the ZZ circuit
                    continue
                want = transpile(full, topo, layout or hub_layout(topo, 4)).circuit
                assert exact_gates(circuits[setting.label][1]) == exact_gates(want), (key, setting.label)
    assert time.perf_counter() - start < 4.0
