"""Reference states, fidelity, concurrence and error propagation.

The register of interest is the logical two-mode space {|00>, |01>, |10>,
|11>} (matter mode first). The fidelity target is the second-order
perturbative state, so evaluating the closed-form fidelity on perfect inputs
overshoots 1 by 2*eps**4; results keep that raw value, unclamped.
"""
from __future__ import annotations

import math

import numpy as np

from .tomography import SETTING_LABELS


def exact_state(epsilon: float) -> np.ndarray:
    """cos(eps)|00> + i sin(eps)|11>, the exact two-level evolution."""
    return np.array([math.cos(epsilon), 0.0, 0.0, 1j * math.sin(epsilon)])


def _as_state_vector(state) -> np.ndarray:
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.size != 4:
        raise ValueError("expected a two-mode state")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    return vec


def concurrence(state) -> float:
    """sqrt(2 (1 - tr rho_m^2)) for a pure two-mode state."""
    psi = _as_state_vector(state).reshape(2, 2)
    rho_m = psi @ psi.conj().T
    purity = float(np.real(np.trace(rho_m @ rho_m)))
    return math.sqrt(max(2.0 * (1.0 - purity), 0.0))


def concurrence_theory(epsilon: float) -> float:
    """Closed form for the exactly evolved state."""
    return abs(math.sin(2.0 * epsilon))


def exact_traces(epsilon: float) -> dict:
    """Correlators of exact_state(epsilon)."""
    return {
        "ZZ": 1.0,
        "XY": math.sin(2.0 * epsilon),
        "YX": math.sin(2.0 * epsilon),
        "IZ": math.cos(2.0 * epsilon),
        "ZI": math.cos(2.0 * epsilon),
    }


def perturbative_traces(epsilon: float) -> dict:
    """Second-order predictions: 2 eps off-diagonals, 1 - 2 eps^2 populations."""
    return {
        "ZZ": 1.0,
        "XY": 2.0 * epsilon,
        "YX": 2.0 * epsilon,
        "IZ": 1.0 - 2.0 * epsilon ** 2,
        "ZI": 1.0 - 2.0 * epsilon ** 2,
    }


def _trace_dict(traces) -> dict:
    missing = [lab for lab in SETTING_LABELS if lab not in traces]
    if missing:
        raise ValueError(f"missing traces: {missing}")
    out = {}
    for lab in SETTING_LABELS:
        t = float(traces[lab])
        if abs(t) > 1.0 + 1e-6:
            raise ValueError(f"trace {lab}={t} outside [-1, 1]")
        out[lab] = min(max(t, -1.0), 1.0)
    return out


def fidelity_from_traces(epsilon: float, traces) -> float:
    """Overlap with the perturbative target, from a mapping of the five
    measured correlators by setting label."""
    t = _trace_dict(traces)
    return 0.25 * (
        1.0
        + t["ZZ"]
        + 2.0 * epsilon * (t["YX"] + t["XY"])
        + (1.0 - 2.0 * epsilon ** 2) * (t["IZ"] + t["ZI"])
    )


def trace_uncertainty(trace: float, lam: float, n_qubits: int = 4) -> float:
    """Linear readout-error propagation for one correlator: n lambda (1 + tr)."""
    if n_qubits < 1:
        raise ValueError("need at least one measured qubit")
    return n_qubits * lam * (1.0 + trace)


def fidelity_error(epsilon: float, traces, lam: float, n_qubits: int = 4) -> float:
    """Quadrature combination of per-trace uncertainties.

    Weights are {1, 4 eps^2, 4 eps^2, 1 - 4 eps^2, 1 - 4 eps^2} on the
    squared uncertainties of {ZZ, XY, YX, IZ, ZI}.
    """
    t = _trace_dict(traces)
    d = {lab: trace_uncertainty(t[lab], lam, n_qubits) for lab in SETTING_LABELS}
    w_off = 4.0 * epsilon ** 2
    w_pop = 1.0 - 4.0 * epsilon ** 2
    total = (
        d["ZZ"] ** 2
        + w_off * (d["XY"] ** 2 + d["YX"] ** 2)
        + w_pop * (d["IZ"] ** 2 + d["ZI"] ** 2)
    )
    return 0.25 * math.sqrt(max(total, 0.0))
