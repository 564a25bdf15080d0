"""Command line entry points.

Exit codes: 0 success, 2 configuration problem (also argparse's own code),
3 runtime failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .digitizer import build_evolution_circuit
from .errors import ConfigError
from .experiment import (
    NOISE_PRESETS,
    ExperimentConfig,
    checked,
    compile_sweep,
    device_layout,
    emit_outputs,
    resolve_topology,
    run_sweep,
)
from .qasm import emit as qasm_emit
from .qasm import parse as qasm_parse
from .simulator import NoiseModel
from .tomography import calibrate_confusion
from .transpiler import transpile


# built once per process: main() may run many times in one process, and
# each parser is a web of reference cycles that waits for the cyclic GC
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravopto",
        description="Digital simulation of a linearized optomechanical coupling "
        "on dual-rail encoded qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a run flag stores onto its config field, and only when it is given
    sweep = sub.add_parser("sweep", help="run a full epsilon sweep and write results",
                           argument_default=argparse.SUPPRESS)
    _add_run_flags(sweep)
    sweep.add_argument("--out-dir", help="output directory")
    sweep.add_argument("--export-qasm", action="store_true",
                       help="also write per-point circuits")

    tomo = sub.add_parser("tomography", help="single-epsilon run; prints its result row "
                          "(the CSV's columns) as JSON",
                          argument_default=argparse.SUPPRESS)
    _add_run_flags(tomo, epsilon_required=True)

    circuit = sub.add_parser("circuit", help="emit one evolution circuit as OpenQASM")
    circuit.add_argument("--epsilon", type=float, default=0.1)
    circuit.add_argument("--no-ground-prep", action="store_true")
    circuit.add_argument("--transpile", action="store_true")
    circuit.add_argument("--topology", default=None, help="preset name or JSON file")
    circuit.add_argument("--out", default="-", help="output file, - for stdout")

    transpile = sub.add_parser("transpile", help="transpile an OpenQASM file")
    transpile.add_argument("input", help="OpenQASM 2.0 file")
    transpile.add_argument("--topology", default=None)
    transpile.add_argument("--layout", default=None, help="comma-separated physical qubits")
    transpile.add_argument("--out", default="-", help="output file, - for stdout")

    calib = sub.add_parser("calibrate", help="print a readout confusion matrix")
    calib.add_argument("--noise-preset", choices=sorted(NOISE_PRESETS), default="belem-like")
    calib.add_argument("--readout", type=float, default=None, help="override flip rate")
    calib.add_argument("--n-bits", type=int, default=4)
    calib.add_argument("--shots", type=int, default=0, help="0 for the analytic matrix")
    calib.add_argument("--seed", type=int, default=0)
    calib.add_argument("--out", default="-")
    return parser


def _add_run_flags(p: argparse.ArgumentParser, epsilon_required: bool = False):
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--epsilon", dest="epsilon_values", required=epsilon_required,
                   help="comma-separated values, overrides config")
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-preset", choices=sorted(NOISE_PRESETS), default=None)
    p.add_argument("--topology", help="preset name or JSON file")
    p.add_argument("--layout", help="comma-separated physical qubits")
    p.add_argument("--no-mitigation", dest="mitigation", action="store_false")
    p.add_argument("--no-postselect", dest="postselection", action="store_false")
    p.add_argument("--no-transpile", dest="transpile", action="store_false")
    p.add_argument("--analytic", dest="analytic_mode", action="store_true")


def _qubits(text: str) -> list[int]:
    """A --layout value: comma-separated qubit indices."""
    try:
        return [int(q) for q in text.split(",")]
    except ValueError:
        raise ConfigError(f"layout: {text!r} is not a list of qubit indices") from None


def _run_config(args) -> ExperimentConfig:
    """The config file's fields, overridden by the noise preset's rates and
    then by every run flag given, each stored under its field's name."""
    data = dict(NOISE_PRESETS[args.noise_preset]) if args.noise_preset else {}
    data.update((k, v) for k, v in vars(args).items()
                if k not in ("command", "config", "noise_preset"))
    if "epsilon_values" in data:
        try:
            data["epsilon_values"] = [float(v) for v in data["epsilon_values"].split(",")]
        except ValueError as exc:
            raise ConfigError(f"epsilon_values: {exc}") from exc
    if "layout" in data:
        data["layout"] = _qubits(data["layout"])
    text = "{}"
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"config: {exc}") from exc
    return ExperimentConfig.from_json(text, overrides=data)


def _write(chunks, dest: str):
    """Write each piece of text in ``chunks`` as it comes, to file ``dest`` or - for stdout."""
    if dest == "-":
        sys.stdout.writelines(chunks)
        return
    with open(dest, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _cmd_sweep(args) -> int:
    cfg = _run_config(args)
    # one compile serves the settings and the QASM export of every point
    compiled = compile_sweep(cfg)
    table = run_sweep(cfg, compiled)
    paths = emit_outputs(table, cfg, compiled=compiled)
    mean_f = sum(r["fidelity"] for r in table) / len(table)
    print(f"wrote {paths['csv']} and {paths['json']}")
    print(f"{len(table)} points, mean fidelity {mean_f:.4f}")
    return 0


def _cmd_tomography(args) -> int:
    cfg = _run_config(args)
    if len(cfg.epsilon_values) != 1:
        raise ConfigError("epsilon_values: tomography takes exactly one value")
    row = run_sweep(cfg)[0]
    print(json.dumps(row, indent=2, sort_keys=True))
    return 0


def _cmd_circuit(args) -> int:
    if not abs(args.epsilon) < 1.0:
        raise ConfigError(f"epsilon: |{args.epsilon}| is not < 1")
    circ = build_evolution_circuit(
        args.epsilon, prepend_ground_prep=not args.no_ground_prep
    )
    if args.transpile:
        topo = resolve_topology(args.topology)
        circ = transpile(circ, topo, device_layout(topo, circ.n_qubits)).circuit
    elif args.topology:
        raise ConfigError("topology: only used together with --transpile")
    _write([qasm_emit(circ)], args.out)
    return 0


def _cmd_transpile(args) -> int:
    try:  # a file that cannot be read, is not UTF-8 or is not the QASM subset
        with open(args.input, "r", encoding="utf-8") as fh:
            circ = qasm_parse(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"input: {exc}") from exc
    topo = resolve_topology(args.topology)
    layout = _qubits(args.layout) if args.layout else None
    if layout is None and topo is not None and circ.n_qubits == topo.n:
        layout = list(range(topo.n))  # as wide as the device: placed, as a sweep's export is
    circ = transpile(circ, topo, device_layout(topo, circ.n_qubits, layout)).circuit
    single, cnots = circ.gate_counts()
    _write([qasm_emit(circ)], args.out)
    summary = f"single_qubit_gates={single} cnot_gates={cnots}\n"
    (sys.stderr if args.out == "-" else sys.stdout).write(summary)
    return 0


def _cmd_calibrate(args) -> int:
    if args.n_bits < 1:
        raise ConfigError(f"n_bits: {args.n_bits} is not >= 1")
    if args.shots:  # 0 asks for the analytic matrix
        checked("shots", args.shots)
    checked("seed", args.seed)
    rate = args.readout if args.readout is not None else NOISE_PRESETS[args.noise_preset]["readout"]
    noise = NoiseModel(readout=rate)
    confusion = calibrate_confusion(
        args.n_bits, noise, shots=args.shots or None, seed=args.seed
    )
    # one matrix row per line, written as it is made; each distinct entry's
    # repr, most of a 10-bit matrix's cost, made once
    cells: dict = {}
    rows = ((",\n    [" if n else "    [")
            + ", ".join([cells.get(v) or cells.setdefault(v, repr(v)) for v in row.tolist()]) + "]"
            for n, row in enumerate(confusion))
    rest = json.dumps({"n_bits": args.n_bits, "readout": rate, "shots": args.shots},
                      indent=2, sort_keys=True)
    head, tail = '{\n  "matrix": [\n', "\n  ]," + rest[1:] + "\n"
    _write((text for part in ([head], rows, [tail]) for text in part), args.out)
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "tomography": _cmd_tomography,
    "circuit": _cmd_circuit,
    "transpile": _cmd_transpile,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
