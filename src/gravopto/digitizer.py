"""Exact circuit synthesis for the four terms of the coupling.

The coupling unitary exp(i eps M) with
M = (XXXX + XXYY + YYXX + YYYY) / 4 factors exactly into its four term
exponentials because the terms commute pairwise; no product-formula error
is introduced and term order is irrelevant. A term is its factor string,
four X or Y factors (qubit 0 leftmost), with coefficient +1.

Each term exponential is one conjugation ladder around a rotation on qubit 0:

    Sdg collars . [CNOT fan to qubits 3, 2, 1, each step followed by Sdg on 0]
        . core . mirror

The collars map every Y factor to X. The interleaved fan's three steps
conjugate the core generator, +Y on qubit 0, onto the all-X string, so the
core is exp(i a Y): the Rx(pi/2) U1(2a) Rx(-pi/2) sandwich.

Everything here equals the target exponential up to a global phase, which
no measured distribution can see.
"""
from __future__ import annotations

import math

from .bosonmap import INTERACTION_FACTORS, ground_state_prep
from .circuit import Circuit, cx, rx, s, sdg, u1

_HALF_PI = math.pi / 2.0


def compile_pauli_exponential(factors: str, angle: float) -> Circuit:
    """Circuit phase-equivalent to exp(i * angle * P), P the string of four
    X or Y factors ``factors``, e.g. "XXYY"."""
    if len(factors) != 4 or set(factors) - set("XY"):
        raise ValueError(f"{factors!r} is not a string of four X or Y factors")
    opening = [sdg(q) for q in (3, 2, 1, 0) if factors[q] == "Y"]
    fan_in = [g for q in (3, 2, 1) for g in (cx(0, q), sdg(0))]
    # Y-type core: Rx(pi/2) U1(2a) Rx(-pi/2) = exp(ia) exp(ia Y)
    core = [rx(0, -_HALF_PI), u1(0, 2.0 * float(angle)), rx(0, _HALF_PI)]
    fan_out = [g for q in (1, 2, 3) for g in (s(0), cx(0, q))]
    closing = [s(q) for q in (0, 1, 2, 3) if factors[q] == "Y"]
    return Circuit(4, tuple(opening + fan_in + core + fan_out + closing))


def build_evolution_circuit(epsilon: float, prepend_ground_prep: bool = False) -> Circuit:
    """Full coupling unitary exp(i eps M), optionally after ground-state prep."""
    _check_epsilon(epsilon)
    gates = ground_state_prep().gates if prepend_ground_prep else ()
    for factors in INTERACTION_FACTORS:
        gates += compile_pauli_exponential(factors, epsilon / 4.0).gates
    # the assembled gates are checked once, not once per partial sum
    return Circuit(4, gates)


def core_angle(epsilon: float) -> float:
    """The angle of each of ``build_evolution_circuit(epsilon)``'s four U1
    gates: its Y-type cores, one per term, all of coefficient epsilon / 4,
    and the only gates whose angle depends on epsilon."""
    _check_epsilon(epsilon)
    return 2.0 * float(epsilon / 4.0)


def _check_epsilon(epsilon: float):
    if not abs(epsilon) < 1.0:
        raise ValueError(f"|epsilon| = {abs(epsilon)} outside the validated range (< 1)")
