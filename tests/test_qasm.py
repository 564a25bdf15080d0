import math

import numpy as np
import pytest

from gravopto.circuit import GATE_KINDS, PARAM_KINDS, Circuit, Gate, cx, h, measure
from gravopto.qasm import emit, parse

from oracles import rz, unitary_of
from test_circuit import linear_distance, random_circuit


def test_emit_shape():
    c = Circuit(2, (h(0), cx(0, 1), measure(0, 0), measure(1, 1)))
    text = emit(c)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert "qreg q[2];" in lines
    assert "creg c[2];" in lines
    assert "cx q[0],q[1];" in lines
    assert "measure q[1] -> c[1];" in lines
    assert text.endswith("\n")


def test_no_creg_without_measurements():
    assert "creg" not in emit(Circuit(1, (h(0),)))


def test_round_trip_gate_for_gate():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, int(rng.integers(1, 15)))
        back = parse(emit(c))
        assert back.n_qubits == c.n_qubits
        assert back.gates == c.gates


def joined_lines(circuit):
    """A statement per line, each gate's angle in ``.17g``: the text that
    ``emit`` gives a circuit, written out statement by statement."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    cbits = [g.cbit for g in circuit.gates if g.kind == "measure"]
    if cbits:
        lines.append(f"creg c[{max(cbits) + 1}];")
    for g in circuit.gates:
        if g.kind == "measure":
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.cbit}];")
        elif g.kind == "cx":
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
        elif g.kind in PARAM_KINDS:
            lines.append(f"{g.kind}({format(g.param, '.17g')}) q[{g.qubits[0]}];")
        else:
            lines.append(f"{g.kind} q[{g.qubits[0]}];")
    return "\n".join(lines) + "\n"


def every_kind(n_qubits=3):
    """A circuit with every gate kind on every qubit, measured last."""
    gates = []
    for q in range(n_qubits):
        for kind in GATE_KINDS:
            if kind == "cx":
                gates.append(Gate("cx", (q, (q + 1) % n_qubits)))
            elif kind in PARAM_KINDS:
                gates.append(Gate(kind, (q,), 0.1 * (q + 1) - 0.25))
            elif kind != "measure":
                gates.append(Gate(kind, (q,)))
    return Circuit(n_qubits, tuple(gates) + tuple(measure(q, n_qubits - 1 - q) for q in range(n_qubits)))


def test_emit_without_lanes_is_the_statement_per_line_text():
    assert emit(every_kind()) == joined_lines(every_kind())
    rng = np.random.default_rng(31)
    for _ in range(50):
        c = random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(0, 15)))
        assert emit(c) == joined_lines(c)


HOLE_ANGLES = (0.0, -0.0, 0.1, -0.5, 1e-7, 0.12345678901234568, -2.718281828459045,
               math.pi, 5e-324, 1.2345678901234567e-300)


@pytest.mark.parametrize("kind", ["rz", "u1"])
def test_a_hole_is_filled_as_emit_writes_its_angle(kind):
    """Each point's text is ``emit`` of the circuit with that point's angle
    at each laned gate, for -0.0 and 17-digit angles too; it reads back
    bit for bit."""
    base = every_kind()
    at = [i for i, g in enumerate(base.gates) if g.kind == kind]
    lanes = {i: [a * (n + 1) for a in HOLE_ANGLES] for n, i in enumerate(at)}
    texts = emit(base, lanes)
    assert len(texts) == len(HOLE_ANGLES)
    for p, text in enumerate(texts):
        gates = list(base.gates)
        for i, lane in lanes.items():
            gates[i] = Gate(kind, gates[i].qubits, lane[p])
        bound = Circuit(base.n_qubits, tuple(gates))
        assert text == emit(bound)
        assert [g.param.hex() for g in parse(text).gates if g.kind == kind] == [
            g.param.hex() for g in bound.gates if g.kind == kind]


def test_lanes_need_one_angle_per_point_at_gates_with_an_angle():
    c = Circuit(1, (h(0), rz(0, 0.1), rz(0, 0.2)))
    assert emit(c, {1: [0.3, 0.4], 2: [0.5, 0.6]}) == [
        emit(Circuit(1, (h(0), rz(0, 0.3), rz(0, 0.5)))),
        emit(Circuit(1, (h(0), rz(0, 0.4), rz(0, 0.6))))]
    with pytest.raises(ValueError):
        emit(c, {1: [0.3, 0.4], 2: [0.5]})
    with pytest.raises(TypeError):
        emit(c, {0: [0.3], 1: [0.4]})


def test_round_trip_angles_are_bit_exact():
    angles = [0.1, math.pi / 3, -2.718281828459045, 1e-300, 7.25e-5]
    c = Circuit(1, tuple(rz(0, a) for a in angles))
    back = parse(emit(c))
    assert [g.param for g in back.gates] == angles


def test_round_trip_unitary():
    rng = np.random.default_rng(97)
    for _ in range(20):
        c = random_circuit(rng, 3, 12)
        d = linear_distance(unitary_of(parse(emit(c))), unitary_of(c))
        assert d <= 1e-10


def test_round_trip_with_measurements():
    c = Circuit(4, (h(0), cx(0, 3), measure(3, 0), measure(0, 1)))
    assert parse(emit(c)).gates == c.gates


def test_parse_pi_expressions():
    c = parse(
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[1];\n"
        "rz(pi) q[0];\n"
        "rz(-pi/2) q[0];\n"
        "rz(3*pi/4) q[0];\n"
        "rx(2*pi) q[0];\n"
        "u1(0.5) q[0];\n"
    )
    params = [g.param for g in c.gates]
    assert params == [math.pi, -math.pi / 2, 3 * math.pi / 4, 2 * math.pi, 0.5]


def test_parse_ignores_comments_and_whitespace():
    c = parse(
        "OPENQASM 2.0;\n"
        "// preamble comment\n"
        'include "qelib1.inc";\n'
        "qreg q[2];  // register\n"
        "  h q[0] ;\n"
        "cx q[0], q[1];\n"
    )
    assert c.n_qubits == 2
    assert [g.kind for g in c.gates] == ["h", "cx"]


@pytest.mark.parametrize(
    "text",
    [
        "qreg q[1]; h q[0];",                       # missing version line is fine
        "OPENQASM 2.0; qreg q[1]; h q[0];",
    ],
)
def test_parse_lenient_preamble(text):
    assert parse(text).n_qubits == 1


@pytest.mark.parametrize(
    "text",
    [
        "OPENQASM 3.0; qreg q[1];",
        "OPENQASM 2.0; h q[0];",
        "OPENQASM 2.0; qreg q[1]; cz q[0];",
        "OPENQASM 2.0; qreg q[1]; rz() q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(nonsense) q[0];",
        "OPENQASM 2.0; qreg q[1]; h q[x];",
        "OPENQASM 2.0; qreg q[2]; cx q[0];",
        "OPENQASM 2.0; qreg q[2]; h(0.1) q[0];",
        "OPENQASM 2.0; qreg q[2]; rz q[0];",
        "OPENQASM 2.0; qreg q[2]; cx q[0],q[0];",
        "OPENQASM 2.0; qreg q[2]; x q[0],q[1];",
        "OPENQASM 2.0; qreg q[2]; measure q[0];",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse(text)


def test_parse_validates_circuit_rules():
    with pytest.raises(ValueError):
        parse("OPENQASM 2.0; qreg q[1]; h q[3];")
    with pytest.raises(ValueError):
        parse("OPENQASM 2.0; qreg q[1]; measure q[0] -> c[0]; h q[0];")
