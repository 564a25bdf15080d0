"""Exact circuit synthesis for exponentials of Pauli strings.

The coupling unitary exp(i eps M) with
M = (XXXX + XXYY + YYXX + YYYY) / 4 factors exactly into its four term
exponentials because the terms commute pairwise; no product-formula error
is introduced and term order is irrelevant. A term is its factor string,
one of I, X, Y, Z per qubit (qubit 0 leftmost), with coefficient +1.

Each term exponential is built as a conjugation ladder around a single-qubit
rotation on the pivot (lowest-index support qubit):

    collars . [CNOT fan interleaved with Sdg on the pivot] . core . mirror

Collars map every support factor to X (Sdg/S for Y, H/H for Z). The
interleaved fan conjugates the core generator onto the full X string; whether
the core must generate exp(i a X) or exp(i a Y), and with which sign, depends
only on the number of fan steps modulo 4. The Y-type core is the
Rx(pi/2) U1 Rx(-pi/2) sandwich; the X-type core is a bare Rx.

Everything here equals the target exponential up to a global phase, which
no measured distribution can see.
"""
from __future__ import annotations

import math

from .bosonmap import INTERACTION_FACTORS, ground_state_prep
from .circuit import Circuit, Gate, cx, h, rx, s, sdg, u1

_HALF_PI = math.pi / 2.0


def _core_angle(factors: str, angle: float) -> float:
    """2a for the core of exp(i * angle * factors)'s ladder, its sign set by
    the fan steps modulo 4."""
    sign = 1.0 if (sum(f != "I" for f in factors) - 1) % 4 in (0, 3) else -1.0
    return 2.0 * sign * float(angle)


def compile_pauli_exponential(factors: str, angle: float) -> Circuit:
    """Circuit phase-equivalent to exp(i * angle * P), P the Pauli string
    ``factors``, e.g. "XXYY"."""
    support = [q for q, f in enumerate(factors) if f != "I"]
    if not support or set(factors) - set("IXYZ"):
        raise ValueError(f"{factors!r} is not a Pauli string other than the identity")
    n = len(factors)
    core = _core_angle(factors, angle)

    if len(support) == 1 and factors[support[0]] == "Z":
        # diagonal case: exp(i t Z) = U1(-2t) up to phase, 2t the core angle
        return Circuit(n, (u1(support[0], -core),))

    opening: list[Gate] = []
    closing: list[Gate] = []
    for q in sorted(support, reverse=True):
        f = factors[q]
        if f == "Y":
            opening.append(sdg(q))
        elif f == "Z":
            opening.append(h(q))
    for q in sorted(support):
        f = factors[q]
        if f == "Y":
            closing.append(s(q))
        elif f == "Z":
            closing.append(h(q))

    pivot, *rest = support
    fan_in: list[Gate] = []
    fan_out: list[Gate] = []
    for q in reversed(rest):
        fan_in.append(cx(pivot, q))
        fan_in.append(sdg(pivot))
    for q in rest:
        fan_out.append(s(pivot))
        fan_out.append(cx(pivot, q))

    if len(rest) % 2 == 1:
        # Y-type core: Rx(pi/2) U1(2a) Rx(-pi/2) = exp(ia) exp(ia Y)
        core_gates = [rx(pivot, -_HALF_PI), u1(pivot, core), rx(pivot, _HALF_PI)]
    else:
        # X-type core: exp(ia X) = Rx(-2a)
        core_gates = [rx(pivot, -core)]
    return Circuit(n, tuple(opening + fan_in + core_gates + fan_out + closing))


def build_evolution_circuit(epsilon: float, prepend_ground_prep: bool = False) -> Circuit:
    """Full coupling unitary exp(i eps M), optionally after ground-state prep."""
    _check_epsilon(epsilon)
    gates = ground_state_prep().gates if prepend_ground_prep else ()
    for factors in INTERACTION_FACTORS:
        gates += compile_pauli_exponential(factors, epsilon / 4.0).gates
    # the assembled gates are checked once, not once per partial sum
    return Circuit(4, gates)


def core_angles(epsilon: float) -> tuple[float, ...]:
    """The angles of ``build_evolution_circuit(epsilon)``'s four U1 gates, in
    order: its Y-type cores, and the only gates whose angle depends on epsilon."""
    _check_epsilon(epsilon)
    return tuple(_core_angle(factors, epsilon / 4.0) for factors in INTERACTION_FACTORS)


def _check_epsilon(epsilon: float):
    if not abs(epsilon) < 1.0:
        raise ValueError(f"|epsilon| = {abs(epsilon)} outside the validated range (< 1)")
