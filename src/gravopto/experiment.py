"""End-to-end sweeps: build, transpile, simulate, estimate, report.

A sweep point is fully determined by the config and a per-point seed derived
from the global one, so results are reproducible row by row.

``compile_sweep`` is the one way a sweep compiles. Every point is one
circuit: a Clifford skeleton and four core rotations, the only gates whose
angles (epsilon / 2 each) depend on epsilon. So a sweep builds the evolution
once, at an epsilon whose core angles are no quarter turns, compiles it with
``transpile`` as ``gravopto circuit --transpile`` does, and places each
measurement suffix after it, simplified again. ``simplify`` keeps each core
an Rz of its own with k quarter turns merged in (see ``transpiler``), so a
point's angle there is ``turned(core angle, k)``: gate for gate its own
``transpile``, in one structure for every epsilon. So does epsilon = 0, as
the experiment at zero coupling, with Rz(0) cores where its own
``transpile`` would cancel every gate but two. A compiled sweep keeps each
slot's angles as a *lane*, one per point, and exports the evolution
template's QASM text with each point's lanes filled in.

``run_sweep`` then makes one ``outcome_distributions`` call on the three
settings templates with their lanes, which evolves every point as a row of
one stack. The settings' weights, sampled or exact, are the rows of one
(points x settings) array, which is mitigated, post-selected and estimated
row by row (see ``tomography``). The CSV payload is byte-stable for a
fixed config; the JSON report additionally carries a timestamp.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from numbers import Integral, Real

import numpy as np

from .analysis import (
    concurrence_theory,
    fidelity_error,
    fidelity_from_traces,
)
from .bosonmap import N_QUBITS
from .circuit import Circuit
from .digitizer import build_evolution_circuit, core_angle
from .errors import ConfigError, RoutingError
from .qasm import emit as qasm_emit
from .simulator import NoiseModel, outcome_distributions, sample_weights
from .tomography import (
    SETTING_LABELS,
    MeasurementSetting,
    expectations,
    measurement_circuits,
    mitigate_weights,
    postselect_weights,
)
from .transpiler import (
    TOPOLOGY_PRESETS,
    Topology,
    hub_layout,
    place_suffix,
    quarter_turns,
    simplify,
    transpile,
    turned,
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
    "shots": (_kept_if(lambda v: _is_integer(v) and 1 <= v < 2**63),  # what numpy multinomials draw
              "an integer from 1 to 2**63 - 1"),
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


def checked(name: str, value):
    """``value`` as config field ``name`` stores it, by its ``FIELD_RULES`` row."""
    rule, what = FIELD_RULES[name]
    try:
        return rule(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: {value!r} is not {what}") from None


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
        for name in FIELD_RULES:
            object.__setattr__(self, name, checked(name, getattr(self, name)))
        self.noise_model()  # checks the rates' ranges
        if self.layout is not None:
            layout = check_layout(self.layout, N_QUBITS, self.topology)
            object.__setattr__(self, "layout", layout)

    @classmethod
    def from_json(cls, text: str, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be an object")
        data.update(overrides or {})
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown config field")
        return cls(**data)

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
    reached = topology.reach(layout[0])
    apart = [q for q in layout if q not in reached]
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
            return Topology.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"topology: {name_or_path!r} is not a topology file ({type(exc).__name__}: {exc})"
        ) from exc


# an epsilon whose core angles, all epsilon / 2, are generic: no quarter
# turns, so each marks its core in the compiled evolution
_MARKING_EPSILON = 0.3


class CompiledSweep:
    """What the points of a sweep share, made once: the templates of the
    evolution and of each distinct settings circuit, compiled at the marking
    epsilon on the resolved topology and layout; and each point's core angle."""

    def __init__(self, cfg: ExperimentConfig):
        topology = resolve_topology(cfg.topology)
        layout = device_layout(topology, N_QUBITS, cfg.layout)
        marked = build_evolution_circuit(_MARKING_EPSILON, prepend_ground_prep=True)
        routed = transpile(marked, topology, layout) if cfg.transpile else None
        evolution = routed.circuit if routed else marked
        self.evolution = self._template(evolution)
        # each distinct suffix (ZZ, IZ and ZI share one), placed once after
        # the evolution's template: simplified again, that is its transpile
        suffixes: dict[Circuit, list] = {}
        for setting, suffix in measurement_circuits(Circuit(N_QUBITS)):
            suffixes.setdefault(suffix, []).append(setting)
        self.settings = []
        for suffix, settings in suffixes.items():
            placed = place_suffix(suffix, routed) if cfg.transpile else suffix
            circuit = Circuit._trusted(evolution.n_qubits, evolution.gates + placed.gates)
            if any(g.kind != "measure" for g in placed.gates):
                template = self._template(simplify(circuit) if cfg.transpile else circuit)
            else:  # measurements keep a fixpoint one: a pass stops at them as at the end
                template = (circuit, self.evolution[1])
            self.settings.append((template, settings))
        self.gate_counts = self.settings[0][0][0].gate_counts()  # ZZ's template: every point's
        self.cores = [core_angle(eps) for eps in cfg.epsilon_values]

    @staticmethod
    def _template(circuit: Circuit) -> tuple:
        """``circuit`` and each core slot in it as (gate index, quarter turns
        k): a rotation that is no quarter turn, at the marking core angle
        plus k quarter turns. There must be four."""
        mark = core_angle(_MARKING_EPSILON)
        slots = [(i, quarter_turns(g.param - mark)) for i, g in enumerate(circuit.gates)
                 if g.kind in ("u1", "rz") and quarter_turns(g.param) is None]
        if len(slots) != 4 or any(k is None for _, k in slots):
            raise RuntimeError(f"a template has {len(slots)} non-Clifford angles, not 4 slots")
        return circuit, slots

    def laned(self, template: tuple) -> tuple:
        """A template's circuit and its lanes: per slot (i, k), each point's angle at gate i."""
        return template[0], {i: [turned(core, k) for core in self.cores] for i, k in template[1]}

    def distributions(self, noise: NoiseModel) -> np.ndarray:
        """(points, settings, 2**4): the templates in one call, each core slot a lane."""
        laned = [self.laned(template) for template, _ in self.settings]
        got = {s.label: p for (_, settings), p in zip(self.settings, outcome_distributions(laned, noise))
               for s in settings}
        return np.stack([got[label] for label in SETTING_LABELS], axis=1)


def compile_sweep(cfg: ExperimentConfig) -> CompiledSweep:
    """The sweep's templates and its points' core angles."""
    return CompiledSweep(cfg)


def run_sweep(cfg: ExperimentConfig, compiled: CompiledSweep | None = None) -> list[dict]:
    """One row per epsilon, in input order. ``compiled`` is the sweep's
    ``compile_sweep``, made here when not given."""
    if compiled is None:
        compiled = compile_sweep(cfg)
    point_seeds = np.random.SeedSequence(cfg.seed).generate_state(len(cfg.epsilon_values))
    return _rows(cfg, compiled, [int(s) for s in point_seeds])


def _rows(cfg: ExperimentConfig, compiled: CompiledSweep, point_seeds: list[int]) -> list[dict]:
    """The result row of each point of ``compiled``, the sweep of ``cfg``.

    Every point's settings are rows of one weights array, point by point:
    their distributions, sampled with a seed per setting or exact.
    Mitigation undoes the one readout rate on every measured bit. Each
    result row depends only on its own point.
    """
    noise = cfg.noise_model()
    flat = compiled.distributions(noise).reshape(-1, 2 ** N_QUBITS)
    if cfg.analytic_mode:
        weights = flat * cfg.shots
    else:
        seeds = [int(s) for seed in point_seeds
                 for s in np.random.SeedSequence(seed).generate_state(len(SETTING_LABELS))]
        weights = sample_weights(flat, cfg.shots, seeds)
    if cfg.mitigation:
        weights = mitigate_weights(weights, noise.readout)
    rows = {label: weights[s::len(SETTING_LABELS)] for s, label in enumerate(SETTING_LABELS)}
    # the sweep post-selects the correlation setting; the population settings
    # keep their leakage, which decodes to zero weight
    kept, retained = postselect_weights(rows["ZZ"])
    if cfg.postselection:
        empty = [eps for eps, frac in zip(cfg.epsilon_values, retained) if not frac > 0]
        if empty:
            raise ConfigError(f"shots: {cfg.shots} is too few: post-selection keeps no weight of "
                              f"setting ZZ at epsilon {empty[0]!r}; use more shots or --no-postselect")
        rows["ZZ"] = kept
    estimates = {label: expectations(w, MeasurementSetting(label))[0] for label, w in rows.items()}
    table = []
    single, cnots = compiled.gate_counts
    for n, (epsilon, seed) in enumerate(zip(cfg.epsilon_values, point_seeds)):
        traces = {label: float(est[n]) for label, est in estimates.items()}
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


def emit_outputs(
    table: list[dict],
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    timestamp: str | None = None,
    compiled: CompiledSweep | None = None,
) -> dict:
    """Write results.csv and report.json (and QASM exports when asked).

    Returns the paths written. The CSV holds exactly RESULT_COLUMNS and is
    byte-stable for a fixed config; the timestamp lives only in the JSON.
    The QASM export is the evolution template of the sweep's ``compiled``
    (its ``compile_sweep``, made here when not given), written once by
    ``qasm.emit`` with each point's four core angles filled in.
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
            writer.writerow([row[col] for col in RESULT_COLUMNS])  # csv writes a float as its repr
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
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    paths["json"] = json_path

    if cfg.export_qasm:
        if compiled is None:
            compiled = compile_sweep(cfg)
        texts = qasm_emit(*compiled.laned(compiled.evolution))
        paths["qasm"] = [os.path.join(out_dir, f"circuit_{i:02d}.qasm") for i in range(len(texts))]
        for path, text in zip(paths["qasm"], texts):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return paths
