"""OpenQASM 2.0 emission and parsing for the gate set used here.

Angles are printed with 17 significant digits so a parameterised gate
round-trips to the identical float. A template's laned angles are holes in
its text, written once, which each point fills in. The parser accepts the
emitted subset plus simple multiples of pi (pi/2, -3*pi/4, ...); ``Gate``
checks each statement's kind, arity and angle, and its refusal quotes it.
"""
from __future__ import annotations

import math
import re

from .circuit import PARAM_KINDS, Circuit, Gate

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_GATE_RE = re.compile(
    r"^(?P<name>[a-z0-9]+)\s*(?:\((?P<param>[^)]*)\))?\s*(?P<args>.*)$"
)
_QARG_RE = re.compile(r"^q\[(\d+)\]$")
_MEASURE_RE = re.compile(r"^measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]$")
_PI_RE = re.compile(
    r"^(?P<sign>-?)(?:(?P<coef>\d+(?:\.\d+)?)\s*\*\s*)?pi(?:\s*/\s*(?P<div>\d+(?:\.\d+)?))?$"
)


def _format_angle(value: float) -> str:
    return format(value, ".17g")


def _parse_angle(text: str) -> float:
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    m = _PI_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse angle {text!r}")
    value = math.pi
    if m.group("coef"):
        value *= float(m.group("coef"))
    if m.group("div"):
        value /= float(m.group("div"))
    if m.group("sign"):
        value = -value
    return value


def emit(circuit: Circuit, lanes: dict | None = None) -> str | list[str]:
    """The circuit's text; with a template's ``lanes``, {gate index: each point's angle}, each point's."""
    lines = [_HEADER, f"qreg q[{circuit.n_qubits}];\n"]
    cbits = [g.cbit for g in circuit.gates if g.kind == "measure"]
    if cbits:
        lines.append(f"creg c[{max(cbits) + 1}];\n")
    for i, g in enumerate(circuit.gates):
        if g.kind == "measure":
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.cbit}];\n")
        elif g.kind == "cx":
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];\n")
        elif g.kind not in PARAM_KINDS:
            lines.append(f"{g.kind} q[{g.qubits[0]}];\n")
        elif lanes is not None and i in lanes:  # a hole; no other statement holds a %
            lines.append(f"{g.kind}(%s) q[{g.qubits[0]}];\n")
        else:
            lines.append(f"{g.kind}({_format_angle(g.param)}) q[{g.qubits[0]}];\n")
    text = "".join(lines)
    if lanes is None:
        return text
    return [text % tuple(map(_format_angle, angles))  # a hole per lane, in gate order
            for angles in zip(*(lanes[i] for i in sorted(lanes)), strict=True)]


def parse(text: str) -> Circuit:
    """Parse the subset of OpenQASM 2.0 that emit() produces."""
    n_qubits = None
    gates: list[Gate] = []
    body = re.sub(r"//[^\n]*", "", text)
    for raw in body.split(";"):
        stmt = raw.strip()
        if not stmt or stmt.startswith("include") or re.match(r"^creg\s+c\[(\d+)\]$", stmt):
            continue
        if stmt.startswith("OPENQASM"):
            if stmt.split()[1] != "2.0":
                raise ValueError(f"unsupported version in {stmt!r}")
            continue
        m = re.match(r"^qreg\s+q\[(\d+)\]$", stmt)
        if m:
            n_qubits = int(m.group(1))
            continue
        if n_qubits is None:
            raise ValueError("gate before qreg declaration")
        m = _MEASURE_RE.match(stmt)
        if m:
            gates.append(Gate("measure", (int(m.group(1)),), cbit=int(m.group(2))))
            continue
        m = _GATE_RE.match(stmt)
        if not m:
            raise ValueError(f"cannot parse statement {stmt!r}")
        args = [a.strip() for a in m.group("args").split(",") if a.strip()]
        qubits = []
        for arg in args:
            qm = _QARG_RE.match(arg)
            if not qm:
                raise ValueError(f"bad qubit argument {arg!r} in {stmt!r}")
            qubits.append(int(qm.group(1)))
        param = m.group("param")
        try:
            gates.append(Gate(m.group("name"), tuple(qubits),
                              None if param is None else _parse_angle(param)))
        except ValueError as exc:
            raise ValueError(f"{exc} in {stmt!r}") from None
    if n_qubits is None:
        raise ValueError("missing qreg declaration")
    return Circuit(n_qubits, tuple(gates))
