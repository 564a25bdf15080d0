"""End-to-end sweeps: build, transpile, simulate, estimate, report.

A sweep point is fully determined by the config and a per-point seed derived
from the global one, so results are reproducible row by row.

``compile_sweep`` is the one way a point compiles, and ``prepare_circuits``
is its one-point case. What does not depend on epsilon is done once per
sweep: the topology and layout are resolved, the measurement suffixes built
and placed, and the evolution's skeleton, its circuit at epsilon = 0, is
built, lowered and routed once, keeping the positions of its four U1 cores.
A point binds its core angles there and simplifies; its evolution is shared
by its five tomography settings, which add only basis rotations and
measurements, and by its QASM export. One memo (see ``transpiler``) serves
the sweep and goes with it: each distinct single-qubit resynthesis and each
distinct settings window's simplified tail is made once, a function of its
gates alone, so a point compiles bit for bit as it does alone. ``run_sweep``
then makes one ``outcome_distributions`` call for the settings of every
point, which evolves the points that share a gate structure as one stack.
The settings' weights, sampled or exact, are the rows of one array, which
one confusion matrix mitigates and which are post-selected and estimated row
by row (see ``tomography``); no setting makes a histogram. ``run_point`` is
the one-point case of the same code. The CSV payload is byte-stable for a
fixed config; the JSON report additionally carries a timestamp.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from numbers import Integral, Real

import numpy as np

from .analysis import (
    concurrence_theory,
    fidelity_error,
    fidelity_from_traces,
)
from .bosonmap import N_QUBITS
from .circuit import Circuit, Gate
from .digitizer import build_evolution_circuit, core_angles
from .errors import ConfigError, RoutingError
from .qasm import emit as qasm_emit
from .simulator import NoiseModel, outcome_distributions, sample_weights
from .tomography import (
    SETTING_LABELS,
    MeasurementSetting,
    calibrate_confusion,
    expectations,
    measurement_circuits,
    mitigate_weights,
    postselect_weights,
)
from .transpiler import (
    TOPOLOGY_PRESETS,
    RoutedCircuit,
    Topology,
    append_placed,
    hub_layout,
    lower_to_basis,
    place_suffix,
    route,
    simplify,
)

RESULT_COLUMNS = (
    "epsilon",
    "fidelity",
    "fidelity_err",
    "tr_zz",
    "tr_xy",
    "tr_yx",
    "tr_iz",
    "tr_zi",
    "concurrence_theory",
    "retained_fraction_zz",
    "single_qubit_gates",
    "cnot_gates",
    "shots",
    "seed",
)

NOISE_PRESETS = {
    "none": {"readout": 0.0, "sq_depol": 0.0, "cx_depol": 0.0},
    "belem-like": {"readout": 0.0211, "sq_depol": 2.76e-4, "cx_depol": 0.00875},
    "nairobi-like": {"readout": 0.0306, "sq_depol": 3.28e-4, "cx_depol": 0.01492},
}

DEFAULT_EPSILONS = tuple(float(e) for e in np.logspace(-7.0, -2.0, 13))


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _kept_if(test):
    """A rule that stores a value as given when ``test`` holds for it."""
    def rule(value):
        if not test(value):
            raise ValueError(value)
        return value
    return rule


_NUMBER = _kept_if(lambda v: isinstance(v, Real) and not isinstance(v, bool))
_FLAG = _kept_if(lambda v: isinstance(v, bool))
_PATH = _kept_if(lambda v: v is None or isinstance(v, str))


def _epsilons(values) -> tuple:
    eps = tuple(float(_NUMBER(e)) for e in values)
    if not eps or not all(abs(e) < 1.0 for e in eps):
        raise ValueError(values)
    return eps

# One row per ExperimentConfig field: the rule that returns the value as
# stored or raises TypeError or ValueError, and what a valid value is, for the
# error "<field>: <value> is not <what>". A rate's range is NoiseModel's, and
# a layout is checked against its topology by ``check_layout``.
FIELD_RULES = {
    "epsilon_values": (_epsilons, "a non-empty list of numbers, each of absolute value < 1"),
    "shots": (_kept_if(lambda v: _is_integer(v) and v >= 1), "an integer >= 1"),
    "readout": (_NUMBER, "a number"),
    "sq_depol": (_NUMBER, "a number"),
    "cx_depol": (_NUMBER, "a number"),
    "topology": (_PATH, "a preset name or a file path"),
    "layout": (lambda v: v, "a list of qubit indices"),  # see check_layout
    "mitigation": (_FLAG, "true or false"),
    "postselection": (_FLAG, "true or false"),
    "transpile": (_FLAG, "true or false"),
    "analytic_mode": (_FLAG, "true or false"),
    "seed": (_kept_if(lambda v: _is_integer(v) and v >= 0), "an integer >= 0"),
    "out_dir": (_PATH, "a directory path"),
    "export_qasm": (_FLAG, "true or false"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; validation errors name the offending field."""

    epsilon_values: tuple = DEFAULT_EPSILONS
    shots: int = 100_000
    readout: float = 0.0
    sq_depol: float = 0.0
    cx_depol: float = 0.0
    topology: str | None = None
    layout: tuple | None = None
    mitigation: bool = True
    postselection: bool = True
    transpile: bool = True
    analytic_mode: bool = False
    seed: int = 0
    out_dir: str | None = None
    export_qasm: bool = False

    def __post_init__(self):
        for name, (rule, what) in FIELD_RULES.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, rule(value))
            except (TypeError, ValueError):
                raise ConfigError(f"{name}: {value!r} is not {what}") from None
        self.noise_model()  # checks the rates' ranges
        if self.layout is not None:
            layout = check_layout(self.layout, N_QUBITS, self.topology)
            object.__setattr__(self, "layout", layout)

    @classmethod
    def with_preset(cls, preset: str, **kwargs) -> "ExperimentConfig":
        if preset not in NOISE_PRESETS:
            raise ConfigError(
                f"noise preset: unknown {preset!r}; have {sorted(NOISE_PRESETS)}"
            )
        merged = dict(NOISE_PRESETS[preset])
        merged.update(kwargs)
        return cls(**merged)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown config field")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be an object")
        return cls.from_json_dict({**data, **(overrides or {})})

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def noise_model(self) -> NoiseModel:
        return NoiseModel(
            readout=self.readout, sq_depol=self.sq_depol, cx_depol=self.cx_depol
        )


def check_layout(layout, n_qubits: int, topology: Topology | str | None) -> tuple[int, ...]:
    """``layout`` as n_qubits distinct physical qubits >= 0, integers that are
    not bools, on ``topology`` once it is resolved (before that, its name); a
    ConfigError otherwise."""
    if topology is None:
        raise ConfigError("layout: requires a topology")
    if not isinstance(layout, (list, tuple)) or not all(_is_integer(q) for q in layout):
        raise ConfigError(f"layout: {layout!r} is not a list of qubit indices")
    qubits = tuple(int(q) for q in layout)
    if len(qubits) != n_qubits or len(set(qubits)) != n_qubits or any(q < 0 for q in qubits):
        raise ConfigError(f"layout: {list(qubits)} is not {n_qubits} distinct qubits >= 0")
    if isinstance(topology, Topology) and max(qubits) >= topology.n:
        raise ConfigError(f"layout: qubit {max(qubits)} is not on the topology")
    return qubits


def device_layout(topology: Topology | None, n_qubits: int, layout=None) -> tuple[int, ...] | None:
    """The physical qubits a circuit of ``n_qubits`` is routed from: ``layout``
    after ``check_layout``, else the hub layout; None without a topology.
    Checked before anything compiles, a device that cannot run the circuit
    is a ConfigError naming ``topology`` (too few qubits in the hub's
    connected component) or ``layout`` (qubits in two components)."""
    if layout is not None:
        layout = check_layout(layout, n_qubits, topology)
    if topology is None:
        return None
    if layout is None:
        try:
            return tuple(hub_layout(topology, n_qubits))
        except RoutingError:
            raise ConfigError(f"topology: the connected component of its hub qubit "
                              f"has fewer than {n_qubits} qubits") from None
    apart = [q for q in layout if topology.shortest_path(layout[0], q) is None]
    if apart:
        raise ConfigError(f"layout: qubits {layout[0]} and {apart[0]} are disconnected on the topology")
    return layout


def resolve_topology(name_or_path: str | None) -> Topology | None:
    if name_or_path is None:
        return None
    if name_or_path in TOPOLOGY_PRESETS:
        return Topology.preset(name_or_path)
    if not os.path.exists(name_or_path):
        raise ConfigError(f"topology: {name_or_path!r} is neither a preset nor a file")
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return Topology.from_json(fh.read(), name=os.path.basename(name_or_path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"topology: {name_or_path!r} is not a topology file ({type(exc).__name__}: {exc})"
        ) from exc


class _SweepCompiler:
    """What the points of a sweep share when they compile, made once: the
    resolved topology and layout, the measurement suffixes, the evolution's
    skeleton, lowered and routed as ``transpile`` would before it
    simplifies, with its four core slots, and one memo of resyntheses and
    settings windows' tails (exact: see ``transpiler.simplify``). The slots
    are the skeleton's only 0.0 angles: at epsilon = 0 its U1 cores are
    +-0.0 and all else is +-pi/2, and a U1 lowers and routes to an Rz of its
    angle. ``evolution`` binds a point's ``core_angles`` in the skeleton;
    nothing outlives the sweep's compile."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        n = N_QUBITS
        self.topology = self.layout = None
        if cfg.transpile:
            self.topology = resolve_topology(cfg.topology)
            self.layout = device_layout(self.topology, n, cfg.layout)
        self.memo: dict = {}
        skeleton = build_evolution_circuit(0.0, prepend_ground_prep=True)
        if cfg.transpile:
            skeleton = lower_to_basis(skeleton)
        ident = tuple(range(n))
        self.skeleton = RoutedCircuit(skeleton, ident, ident, ident)
        if self.topology is not None:
            self.skeleton = route(skeleton, self.topology, self.layout)
        self.slots = [i for i, g in enumerate(self.skeleton.circuit.gates)
                      if g.kind in ("u1", "rz") and g.param == 0.0]
        if len(self.slots) != 4:
            raise RuntimeError(f"the skeleton has {len(self.slots)} zero angles, not 4 core slots")
        # each distinct suffix with its settings (ZZ, IZ and ZI share one),
        # placed once: every point keeps the skeleton's final layout
        suffixes: dict[Circuit, list] = {}
        for setting, suffix in measurement_circuits(Circuit(n)):
            suffixes.setdefault(suffix, []).append(setting)
        self.suffixes = {place_suffix(suffix, self.skeleton) if cfg.transpile else suffix: settings
                         for suffix, settings in suffixes.items()}

    def evolution(self, epsilon: float) -> RoutedCircuit:
        gates = list(self.skeleton.circuit.gates)
        for i, angle in zip(self.slots, core_angles(epsilon)):
            gates[i] = Gate._trusted(gates[i].kind, gates[i].qubits, angle)
        circuit = Circuit._trusted(self.skeleton.circuit.n_qubits, tuple(gates),
                                   {"epsilon": float(epsilon)})
        if self.cfg.transpile:
            circuit = simplify(circuit, self.memo)
        return replace(self.skeleton, circuit=circuit)

    def settings(self, evolution: RoutedCircuit) -> dict:
        circuits = {}
        for suffix, settings in self.suffixes.items():
            circ = (append_placed(evolution.circuit, suffix, self.memo) if self.cfg.transpile
                    else evolution.circuit + suffix)
            circuits.update((setting.label, (setting, circ)) for setting in settings)
        return {label: circuits[label] for label in SETTING_LABELS}


def compile_sweep(cfg: ExperimentConfig) -> list[tuple[RoutedCircuit, dict]]:
    """Each point's ``(evolution, settings)``, in input order: its evolution
    circuit (with ground-state prep) as it runs, and its ``prepare_circuits``.
    A point compiles gate for gate as it does in a one-point sweep; what does
    not depend on epsilon is made once for the sweep (see ``_SweepCompiler``)."""
    compiler = _SweepCompiler(cfg)
    points = []
    for eps in cfg.epsilon_values:
        evolution = compiler.evolution(eps)
        points.append((evolution, compiler.settings(evolution)))
    return points


def prepare_circuits(cfg: ExperimentConfig, epsilon: float) -> dict:
    """The five as-run measurement circuits for one sweep point, by setting
    label: the point's evolution plus each setting's basis rotation and
    measurements, ``compile_sweep`` of the one-point sweep. ZZ, IZ and ZI
    share one circuit.
    """
    return compile_sweep(replace(cfg, epsilon_values=(epsilon,)))[0][1]


def run_point(cfg: ExperimentConfig, epsilon: float, seed: int) -> dict:
    """One sweep row; self-contained and deterministic for (cfg, eps, seed)."""
    return _rows(cfg, [(epsilon, seed, prepare_circuits(cfg, epsilon))])[0]


def run_sweep(cfg: ExperimentConfig,
              compiled: list[tuple[RoutedCircuit, dict]] | None = None) -> list[dict]:
    """One row per epsilon, in input order. ``compiled`` is the sweep's
    ``compile_sweep``, made here when not given."""
    if compiled is None:
        compiled = compile_sweep(cfg)
    point_seeds = np.random.SeedSequence(cfg.seed).generate_state(
        len(cfg.epsilon_values)
    )
    return _rows(cfg, [
        (eps, int(s), circuits)
        for eps, s, (_, circuits) in zip(cfg.epsilon_values, point_seeds, compiled)
    ])


def _rows(cfg: ExperimentConfig, points: list[tuple]) -> list[dict]:
    """The result row of each (epsilon, seed, ``prepare_circuits``) point.

    One ``outcome_distributions`` call evolves every point's settings, whose
    weights, sampled with a seed per setting or exact, are the rows of one
    array; one confusion matrix serves all: every setting measures all
    N_QUBITS qubits, each flipped at the one readout rate. Each result row
    depends only on its own point.
    """
    noise = cfg.noise_model()
    distributions = outcome_distributions(
        [circuits[label][1] for _, _, circuits in points for label in SETTING_LABELS], noise
    )
    if cfg.analytic_mode:
        weights = np.array(distributions) * cfg.shots
    else:
        seeds = [int(s) for _, seed, _ in points
                 for s in np.random.SeedSequence(seed).generate_state(len(SETTING_LABELS))]
        weights = np.array([sample_weights(p, cfg.shots, s) for p, s in zip(distributions, seeds)])
    if cfg.mitigation:
        weights = mitigate_weights(weights, calibrate_confusion(N_QUBITS, noise))
    rows = dict(zip(SETTING_LABELS, weights.reshape(len(points), len(SETTING_LABELS), -1).swapaxes(0, 1)))
    # the sweep post-selects the correlation setting; the population settings
    # keep their leakage, which decodes to zero weight
    kept, retained = postselect_weights(rows["ZZ"], MeasurementSetting("ZZ"))
    if cfg.postselection:
        empty = [eps for (eps, _, _), frac in zip(points, retained) if not frac > 0]
        if empty:
            raise ConfigError(f"shots: {cfg.shots} is too few: post-selection keeps no weight of "
                              f"setting ZZ at epsilon {empty[0]!r}; use more shots or --no-postselect")
        rows["ZZ"] = kept
    estimates = {label: expectations(w, MeasurementSetting(label))[0] for label, w in rows.items()}
    table = []
    for n, (epsilon, seed, circuits) in enumerate(points):
        traces = {label: float(est[n]) for label, est in estimates.items()}
        single, cnots = circuits["ZZ"][1].gate_counts()
        table.append({
            "epsilon": float(epsilon),
            "fidelity": float(fidelity_from_traces(epsilon, traces)),
            "fidelity_err": float(fidelity_error(epsilon, traces, cfg.readout)),
            **{f"tr_{label.lower()}": trace for label, trace in traces.items()},
            "concurrence_theory": concurrence_theory(epsilon),
            "retained_fraction_zz": float(retained[n]),
            "single_qubit_gates": single,
            "cnot_gates": cnots,
            "shots": cfg.shots,
            "seed": int(seed),
        })
    return table


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_outputs(
    table: list[dict],
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    timestamp: str | None = None,
    evolutions: list[RoutedCircuit] | None = None,
) -> dict:
    """Write results.csv and report.json (and QASM exports when asked).

    Returns the paths written. The CSV holds exactly RESULT_COLUMNS and is
    byte-stable for a fixed config; the timestamp lives only in the JSON.
    The QASM export writes the sweep's ``evolutions`` (the first items of
    ``compile_sweep``), made here when not given.
    """
    if not table:
        raise ValueError("nothing to write")
    out_dir = out_dir or cfg.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in table:
            writer.writerow([_format_cell(row[col]) for col in RESULT_COLUMNS])
    paths["csv"] = csv_path

    when = timestamp or datetime.now(timezone.utc).isoformat()
    from gravopto import __version__

    report = {
        "config": cfg.to_json_dict(),
        "provenance": {"version": __version__, "seed": cfg.seed, "timestamp": when},
        "results": table,
    }
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["json"] = json_path

    if cfg.export_qasm:
        if evolutions is None:
            evolutions = [evolution for evolution, _ in compile_sweep(cfg)]
        qasm_paths = []
        for i, evolution in enumerate(evolutions):
            path = os.path.join(out_dir, f"circuit_{i:02d}.qasm")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(qasm_emit(evolution.circuit))
            qasm_paths.append(path)
        paths["qasm"] = qasm_paths
    return paths
