"""Correctness checks on the files a sweep writes.

``check_sweep`` returns one failure message per sweep point, or ``None`` for
a point that passed; a point fails when its CSV row is missing or fails the
workload's check. Reference values come from closed forms here, not from the
program under test.
"""
from __future__ import annotations

import csv
import math
import os

# CNOTs of the evolution circuit before routing (four 4-qubit Pauli
# exponentials, six CNOTs each)
EVOLUTION_CNOTS = 24

# shot-noise tolerance in standard errors; see readout_tolerance
Z_SCORE = 5.0

NUMERIC_COLUMNS = (
    "epsilon", "fidelity", "fidelity_err", "tr_zz", "tr_xy", "tr_yx", "tr_iz",
    "tr_zi", "concurrence_theory", "retained_fraction_zz", "single_qubit_gates",
    "cnot_gates", "shots", "seed",
)

TRACE_COLUMNS = {"tr_zz": "ZZ", "tr_xy": "XY", "tr_yx": "YX", "tr_iz": "IZ", "tr_zi": "ZI"}


def exact_traces(eps: float) -> dict:
    """Correlators of cos(eps)|00> + i sin(eps)|11>."""
    return {"ZZ": 1.0, "XY": math.sin(2 * eps), "YX": math.sin(2 * eps),
            "IZ": math.cos(2 * eps), "ZI": math.cos(2 * eps)}


def readout_tolerance(shots: int, readout: float, n_bits: int = 4) -> float:
    """Largest trace deviation allowed from shot noise alone.

    A +-1-valued estimate from N shots has standard error at most 1/sqrt(N).
    Inverting a symmetric flip of rate r on each of n bits scales a parity
    by 1/(1-2r)**n, and its noise with it. The bound is Z_SCORE such errors:
    at 100k shots and r = 0.0211 that is 5 * 1.188 / 316.2 = 0.0188.
    """
    return Z_SCORE / ((1.0 - 2.0 * readout) ** n_bits * math.sqrt(shots))


def read_rows(out_dir: str) -> list[dict] | None:
    path = os.path.join(out_dir, "results.csv")
    if not os.path.exists(path):
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _row_problem(row: dict, eps: float, cfg: dict) -> str | None:
    try:
        values = {k: float(row[k]) for k in NUMERIC_COLUMNS}
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable row ({exc!r})"
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite {bad}"
    if values["epsilon"] != eps:
        return f"epsilon {values['epsilon']} != {eps}"
    if values["shots"] != cfg["shots"]:
        return f"shots {values['shots']} != {cfg['shots']}"
    if not 0.0 < values["retained_fraction_zz"] <= 1.0:
        return f"retained_fraction_zz {values['retained_fraction_zz']} outside (0, 1]"
    return None


def _trace_problem(row: dict, eps: float, tol: float) -> str | None:
    want = exact_traces(eps)
    for col, label in TRACE_COLUMNS.items():
        dev = abs(float(row[col]) - want[label])
        if not dev <= tol:
            return f"{col} off by {dev:.3g} (tolerance {tol:.3g})"
    return None


def _qasm_problem(out_dir: str, index: int, row: dict, qasm_parse) -> str | None:
    path = os.path.join(out_dir, f"circuit_{index:02d}.qasm")
    try:
        with open(path, encoding="utf-8") as fh:
            circ = qasm_parse(fh.read())
    except (OSError, ValueError) as exc:
        return f"{os.path.basename(path)}: {exc}"
    cx = sum(1 for g in circ.gates if g.kind == "cx")
    if cx != int(float(row["cnot_gates"])):
        return f"{os.path.basename(path)} has {cx} CNOTs, row says {row['cnot_gates']}"
    return None


def check_sweep(
    workload: str, cfg: dict, out_dir: str, program, whole_grid: bool = True
) -> list[str | None]:
    """Per-point failure messages for one sweep written to ``out_dir``.

    The mean-fidelity band is a property of the whole epsilon grid, so it is
    checked only when ``whole_grid`` is set. ``program`` carries what the checks take from the package under test:
    ``epsilons`` (the default grid), ``qasm_parse`` and ``swaps`` (SWAPs the
    router inserts for this config's layout).
    """
    epsilons = cfg.get("epsilon_values") or program.epsilons
    rows = read_rows(out_dir)
    if rows is None:
        return ["results.csv missing"] * len(epsilons)
    out: list[str | None] = []
    for i, eps in enumerate(epsilons):
        if i >= len(rows):
            out.append("row missing")
            continue
        row = rows[i]
        problem = _row_problem(row, eps, cfg)
        if problem is None and workload == "analytic-nairobi-swap":
            problem = _trace_problem(row, eps, 1e-9)
            want_cx = EVOLUTION_CNOTS + 3 * program.swaps
            if problem is None and float(row["cnot_gates"]) != want_cx:
                problem = f"cnot_gates {row['cnot_gates']} != {EVOLUTION_CNOTS} + 3 * {program.swaps}"
            if problem is None:
                problem = _qasm_problem(out_dir, i, row, program.qasm_parse)
        elif problem is None and workload == "readout-belem":
            tol = readout_tolerance(cfg["shots"], cfg["readout"])
            problem = _trace_problem(row, eps, tol)
        out.append(problem)
    if len(rows) > len(epsilons):
        out = [f"{len(rows)} rows for {len(epsilons)} points"] * len(epsilons)
    if workload == "noisy-belem" and whole_grid and len(rows) == len(epsilons):
        # criterion 08's band on the mean mitigated fidelity
        try:
            mean = sum(float(r["fidelity"]) for r in rows) / len(rows)
        except (KeyError, ValueError):
            mean = float("nan")
        if not 0.88 <= mean <= 0.97:
            msg = f"mean fidelity {mean:.4f} outside [0.88, 0.97]"
            out = [p or msg for p in out]
    return out
