"""Fidelity from the measured correlators, its error bar, and concurrence.

The register of interest is the logical two-mode space {|00>, |01>, |10>,
|11>} (matter mode first). The fidelity target is the second-order
perturbative state, so evaluating the closed-form fidelity on perfect inputs
overshoots 1 by 2*eps**4; results keep that raw value, unclamped.
"""
from __future__ import annotations

import math

from .bosonmap import N_QUBITS
from .tomography import SETTING_LABELS


def concurrence_theory(epsilon: float) -> float:
    """|sin 2 eps|, the concurrence of cos(eps)|00> + i sin(eps)|11>."""
    return abs(math.sin(2.0 * epsilon))


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


def trace_uncertainty(trace: float, lam: float) -> float:
    """Linear readout-error propagation for one correlator over the
    N_QUBITS measured bits: N_QUBITS lambda (1 + tr)."""
    return N_QUBITS * lam * (1.0 + trace)


def fidelity_error(epsilon: float, traces, lam: float) -> float:
    """Quadrature combination of per-trace uncertainties.

    Weights are {1, 4 eps^2, 4 eps^2, 1 - 4 eps^2, 1 - 4 eps^2} on the
    squared uncertainties of {ZZ, XY, YX, IZ, ZI}.
    """
    t = _trace_dict(traces)
    d = {lab: trace_uncertainty(t[lab], lam) for lab in SETTING_LABELS}
    w_off = 4.0 * epsilon ** 2
    w_pop = 1.0 - 4.0 * epsilon ** 2
    total = (
        d["ZZ"] ** 2
        + w_off * (d["XY"] ** 2 + d["YX"] ** 2)
        + w_pop * (d["IZ"] ** 2 + d["ZI"] ** 2)
    )
    return 0.25 * math.sqrt(max(total, 0.0))
