import math

import numpy as np
import pytest

from gravopto.circuit import (
    Circuit,
    Gate,
    cx,
    h,
    measure,
    s,
    sdg,
    u1,
    x,
)
from gravopto.errors import CapacityError

from oracles import matrix_of, rz, sx, sxdg, unitary_of

PARAMLESS = ("x", "sx", "sxdg", "h", "s", "sdg")


def linear_distance(a, b):
    """The Frobenius norm of a - b after the phase that minimises it, entry
    by entry: linear in an angle error, unlike 1 - |tr(a^dag b)| / dim. For
    unitaries of dimension d its square is 2d (1 - |tr(a^dag b)| / d)."""
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.sqrt(np.sum(np.abs(a - phase * b) ** 2)))


def random_circuit(rng, n, depth, with_params=True):
    gates = []
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.3 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(cx(int(a), int(b)))
        elif roll < 0.6 and with_params:
            kind = rng.choice(["rx", "rz", "u1"])
            gates.append(Gate(kind, (int(rng.integers(n)),),
                              param=float(rng.uniform(-2 * math.pi, 2 * math.pi))))
        else:
            kind = rng.choice(PARAMLESS)
            gates.append(Gate(str(kind), (int(rng.integers(n)),)))
    return Circuit(n, tuple(gates))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cz", (0, 1))
    with pytest.raises(ValueError):
        cx(2, 2)
    with pytest.raises(ValueError):
        Gate("h", (0,), param=1.0)
    with pytest.raises(ValueError):
        Gate("rz", (0,))
    with pytest.raises(ValueError):
        Gate("x", (0,), cbit=0)
    with pytest.raises(ValueError):
        Gate("measure", (0,))


@pytest.mark.parametrize("kind", ["rz", "rx", "u1"])
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_a_non_finite_angle_is_refused(kind, angle):
    with pytest.raises(ValueError, match=f"^{kind} angle .* is not finite$"):
        Gate(kind, (0,), angle)
    # compilers re-emit checked gates unchecked
    assert math.isnan(Gate._trusted(kind, (0,), math.nan).param)


def test_matrix_identities():
    assert np.allclose(matrix_of(sx(0)) @ matrix_of(sx(0)), matrix_of(x(0)))
    assert np.allclose(matrix_of(sx(0)) @ matrix_of(sxdg(0)), np.eye(2))
    assert np.allclose(matrix_of(s(0)), matrix_of(u1(0, math.pi / 2)))
    assert np.allclose(matrix_of(sdg(0)) @ matrix_of(s(0)), np.eye(2))
    # H = Rz(pi/2) SX Rz(pi/2) up to global phase
    composed = (matrix_of(rz(0, math.pi / 2))
                @ matrix_of(sx(0))
                @ matrix_of(rz(0, math.pi / 2)))
    assert linear_distance(composed, matrix_of(h(0))) < 1e-12


def test_rz_u1_differ_only_by_phase():
    lam = 0.7341
    assert linear_distance(matrix_of(rz(0, lam)), matrix_of(u1(0, lam))) < 1e-12
    assert not np.allclose(matrix_of(rz(0, lam)), matrix_of(u1(0, lam)))


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0)
    with pytest.raises(ValueError):
        Circuit(1, (h(1),))
    with pytest.raises(ValueError):
        Circuit(2, (measure(0, 0), h(1)))
    with pytest.raises(ValueError):
        Circuit(2, (measure(0, 0), measure(1, 0)))
    with pytest.raises(ValueError):
        Circuit(2, (measure(0, 0), measure(0, 1)))


def test_measurement_helpers():
    c = Circuit(3, (h(0), cx(0, 1), measure(1, 0), measure(0, 1)))
    assert c.has_measurements
    assert c.measurements == ((1, 0), (0, 1))
    assert not Circuit(3, c.gates[:2]).has_measurements
    with pytest.raises(ValueError):
        unitary_of(c)


def test_unitary_applies_gates_in_list_order():
    # X then S on one qubit: matrix is S @ X
    c = Circuit(1, (x(0), s(0)))
    assert np.allclose(unitary_of(c), matrix_of(s(0)) @ matrix_of(x(0)))


def test_qubit_zero_is_most_significant():
    c = Circuit(2, (x(0),))
    state = unitary_of(c)[:, 0]
    assert np.allclose(state, [0, 0, 1, 0])
    c = Circuit(2, (x(1),))
    state = unitary_of(c)[:, 0]
    assert np.allclose(state, [0, 1, 0, 0])


def test_cx_orientation():
    # control 1, target 0 maps |01> to |11>
    c = Circuit(2, (cx(1, 0),))
    u = unitary_of(c)
    assert u[3, 1] == 1 and u[1, 3] == 1 and u[0, 0] == 1


def test_gate_counts():
    c = Circuit(3, (h(0), rz(1, 0.1), cx(0, 1), cx(1, 2), sx(2), measure(0, 0)))
    assert c.gate_counts() == (3, 2)


def test_unitary_capacity_guard():
    with pytest.raises(CapacityError):
        unitary_of(Circuit(13, (x(0),)))


class TestPhaseDistance:
    """``linear_distance``, the tests' global-phase-invariant distance."""

    def test_zero_for_equal_and_phased(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = random_circuit(rng, 2, 8)
            u = unitary_of(c)
            assert linear_distance(u, u) < 1e-14
            phi = rng.uniform(0, 2 * math.pi)
            assert linear_distance(u, np.exp(1j * phi) * u) < 1e-12

    def test_positive_for_distinct(self):
        u = np.eye(2, dtype=complex)
        v = matrix_of(x(0))
        # orthogonal: the square is 2d times 1 - |tr(u^dag v)| / d = 1
        assert linear_distance(u, v) == pytest.approx(2.0)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            linear_distance(np.eye(2), np.eye(4))
