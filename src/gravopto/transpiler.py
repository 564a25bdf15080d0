"""Lowering, routing and simplification to the device basis {X, SX, Rz, CNOT}.

Lowering rewrites each gate locally (diagonal gates become a single Rz; H is
the 3-gate Rz-SX-Rz form; a generic Rx uses the 5-gate Rz-SX-Rz-SX-Rz form).

Routing walks a SWAP (3 CNOTs) along a BFS shortest path whenever a CNOT
spans non-adjacent physical qubits. No swap-back is appended; the final
logical-to-physical permutation is reported instead.

Simplification iterates three deterministic passes to a fixpoint:

  1. rz floating: an Rz slides over any CNOT acting on its qubit as control,
     accumulating with later Rz gates on the same wire; zero rotations
     (|angle| < 1e-12 after wrapping to (-pi, pi]) are dropped.
  2. adjacent identical CNOT pairs cancel.
  3. every maximal run of >= 2 single-qubit gates on one wire is resynthesised
     into a canonical form (at most Rz SX Rz SX Rz) when that is strictly
     shorter; this subsumes SX^4 -> identity and SX SX -> X.

All three preserve the unitary up to global phase and never increase any
gate count, so simplify is idempotent gate for gate. Whether a run is
replaced depends on its gates alone, so ``simplify`` takes a memo of
resyntheses keyed by a run's (kind, param) sequence; a run one pass kept is
a hit on the next. The compile of a sweep passes one memo to all its calls,
so a run that recurs across the sweep's points is synthesised once; without
one, each call keeps its own.

``place_suffix`` lowers a suffix of 1-qubit gates and measurements and
places it through a routed circuit's final layout. ``append_placed`` appends
it to a simplified circuit and simplifies again only the tail it can reach,
its window: the trailing single-qubit run of each wire it touches and every
still-floating trailing Rz, widened to start on a run boundary. The head is
already a fixpoint that no pass changes, so the result is ``simplify`` of
the whole circuit.

Gates and circuits re-emitted from checked ones are built with
``Gate._trusted`` and ``Circuit._trusted``, which skip re-validation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Sequence

import numpy as np

from .circuit import FIXED_MATRICES, SINGLE_QUBIT_KINDS, Circuit, Gate, matrix_of, phase_distance
from .errors import RoutingError

BASIS_KINDS = ("x", "sx", "rz", "cx", "measure")

_TWO_PI = 2.0 * math.pi
_ANGLE_TOL = 1e-12

TOPOLOGY_PRESETS = {
    "belem-like": (5, ((0, 1), (1, 2), (1, 3), (3, 4))),
    "nairobi-like": (7, ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6))),
}


@dataclass(frozen=True)
class Topology:
    """Undirected coupling graph of a device."""

    n: int
    edges: frozenset = field(default_factory=frozenset)
    name: str = ""
    # each qubit's neighbours, ascending, so a BFS step scans no edge set
    _adjacency: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ends = [q for edge in self.edges for q in edge]
        if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in (self.n, *ends)):
            raise ValueError("the qubit count and the edge ends must be integers")
        if self.n < 1:
            raise ValueError("topology needs at least one qubit")
        norm = set()
        for a, b in self.edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("self-loop edge")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) outside {self.n} qubits")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        adjacency = [[] for _ in range(self.n)]
        for a, b in norm:
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(self, "_adjacency", tuple(tuple(sorted(nbs)) for nbs in adjacency))

    @classmethod
    def preset(cls, name: str) -> "Topology":
        if name not in TOPOLOGY_PRESETS:
            raise ValueError(
                f"unknown topology preset {name!r}; have {sorted(TOPOLOGY_PRESETS)}"
            )
        n, edges = TOPOLOGY_PRESETS[name]
        return cls(n, frozenset(edges), name)

    @classmethod
    def from_json(cls, text: str, name: str = "") -> "Topology":
        """``{"n": 5, "edges": [[0, 1], ...]}``, every number an integer."""
        data = json.loads(text)
        return cls(data["n"], frozenset(tuple(e) for e in data["edges"]), name)

    def neighbors(self, q: int) -> list[int]:
        return list(self._adjacency[q])

    def adjacent(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def degree(self, q: int) -> int:
        return len(self.neighbors(q))

    def shortest_path(self, start: int, goal: int) -> list[int] | None:
        """BFS path (deterministic: neighbours visited in ascending order)."""
        if start == goal:
            return [start]
        parent = {start: start}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in self._adjacency[node]:
                    if nb in parent:
                        continue
                    parent[nb] = node
                    if nb == goal:
                        path = [goal]
                        while path[-1] != start:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(nb)
            frontier = nxt
        return None


@dataclass(frozen=True)
class Layout:
    """Injective logical -> physical qubit assignment."""

    logical_to_physical: tuple[int, ...]

    def __post_init__(self):
        l2p = tuple(int(p) for p in self.logical_to_physical)
        if len(set(l2p)) != len(l2p):
            raise ValueError("layout is not injective")
        object.__setattr__(self, "logical_to_physical", l2p)

    def __len__(self) -> int:
        return len(self.logical_to_physical)

    def __iter__(self):
        return iter(self.logical_to_physical)


def hub_layout(topo: Topology, n_logical: int = 4) -> Layout:
    """Put logical 0 on the highest-degree physical qubit, the rest BFS-out.

    Ties on degree break toward the lowest physical index, so the layout is
    deterministic for a given topology.
    """
    hub = max(range(topo.n), key=lambda q: (topo.degree(q), -q))
    order = [hub]
    seen = {hub}
    frontier = [hub]
    while frontier and len(order) < n_logical:
        nxt = []
        for node in frontier:
            for nb in topo.neighbors(node):
                if nb not in seen:
                    seen.add(nb)
                    order.append(nb)
                    nxt.append(nb)
        frontier = nxt
    if len(order) < n_logical:
        raise RoutingError("topology is disconnected under the requested size")
    return Layout(tuple(order[:n_logical]))


# ---------------------------------------------------------------------------
# lowering
#
# Every gate from here on is re-emitted from gates that were checked on the
# way in, so it is built with ``Gate._trusted``.

def _fixed(kind: str, q: int) -> Gate:
    return Gate._trusted(kind, (q,))


def _rz(q: int, angle: float) -> Gate:
    return Gate._trusted("rz", (q,), angle)


def _lower_rx(gate: Gate) -> list[Gate]:
    q = gate.qubits[0]
    theta = math.remainder(gate.param, _TWO_PI)
    for target, kinds in (
        (0.0, ()),
        (math.pi / 2, ("sx",)),
        (math.pi, ("x",)),
        (-math.pi, ("x",)),
        (-math.pi / 2, ("sx", "x")),
    ):
        if abs(theta - target) < _ANGLE_TOL:
            return [_fixed(kind, q) for kind in kinds]
    half = math.pi / 2
    return [_rz(q, half), _fixed("sx", q), _rz(q, gate.param + math.pi), _fixed("sx", q),
            _rz(q, half)]


def lower_to_basis(c: Circuit) -> Circuit:
    """Rewrite every gate into {x, sx, rz, cx, measure}, phase-equivalent."""
    out: list[Gate] = []
    for g in c.gates:
        q = g.qubits[0]
        if g.kind in ("x", "sx", "rz", "cx", "measure"):
            out.append(g)
        elif g.kind == "s":
            out.append(_rz(q, math.pi / 2))
        elif g.kind == "sdg":
            out.append(_rz(q, -math.pi / 2))
        elif g.kind == "u1":
            out.append(_rz(q, g.param))
        elif g.kind == "h":
            out.extend([_rz(q, math.pi / 2), _fixed("sx", q), _rz(q, math.pi / 2)])
        elif g.kind == "sxdg":
            out.extend([_fixed("sx", q), _fixed("x", q)])
        elif g.kind == "rx":
            out.extend(_lower_rx(g))
        else:
            raise ValueError(f"no lowering rule for {g.kind}")
    return Circuit._trusted(c.n_qubits, tuple(out), dict(c.metadata))


# ---------------------------------------------------------------------------
# routing

@dataclass(frozen=True)
class RoutedCircuit:
    """A circuit placed on a device, from ``route`` or ``transpile``."""

    circuit: Circuit
    initial_layout: tuple[int, ...]
    final_layout: tuple[int, ...]
    # placement of every virtual wire (logical first, then pad wires that
    # started on the unused physical qubits, ascending)
    full_final_layout: tuple[int, ...]


def route(c: Circuit, topo: Topology, layout: Layout | Sequence[int] | None = None) -> RoutedCircuit:
    """Map a circuit onto a topology, inserting SWAPs as CNOT triples."""
    if layout is None:
        layout = tuple(range(c.n_qubits))
    l2p_logical = tuple(Layout(tuple(layout)))
    if len(l2p_logical) != c.n_qubits:
        raise ValueError("layout size does not match the circuit")
    if any(p >= topo.n or p < 0 for p in l2p_logical):
        raise ValueError("layout maps outside the topology")

    pads = [p for p in range(topo.n) if p not in l2p_logical]
    l2p = list(l2p_logical) + pads  # virtual wire -> physical
    p2l = {p: v for v, p in enumerate(l2p)}

    out: list[Gate] = []

    def emit_swap(a: int, b: int):
        out.extend([Gate._trusted("cx", (a, b)), Gate._trusted("cx", (b, a)),
                    Gate._trusted("cx", (a, b))])
        va, vb = p2l[a], p2l[b]
        l2p[va], l2p[vb] = b, a
        p2l[a], p2l[b] = vb, va

    for g in c.gates:
        if g.kind == "cx":
            a, b = l2p[g.qubits[0]], l2p[g.qubits[1]]
            path = topo.shortest_path(a, b)
            if path is None:
                raise RoutingError(f"qubits {a} and {b} are disconnected")
            while len(path) > 2:
                emit_swap(path[0], path[1])
                a = path[1]
                path = path[1:]
            out.append(Gate._trusted("cx", (a, b)))
        else:
            out.append(Gate._trusted(g.kind, (l2p[g.qubits[0]],), g.param, g.cbit))
    routed = Circuit._trusted(topo.n, tuple(out), dict(c.metadata))
    return RoutedCircuit(
        circuit=routed,
        initial_layout=l2p_logical,
        final_layout=tuple(l2p[: c.n_qubits]),
        full_final_layout=tuple(l2p),
    )


# ---------------------------------------------------------------------------
# simplification

def _wrap(angle: float) -> float:
    return math.remainder(angle, _TWO_PI)


def _is_zero_angle(angle: float) -> bool:
    return abs(_wrap(angle)) < _ANGLE_TOL


def _float_rz(gates: list[Gate]) -> list[Gate]:
    """Slide Rz gates over CNOT controls and merge them along each wire."""
    out: list[Gate] = []
    pending: dict[int, tuple[float, Gate | None]] = {}  # wire -> (angle, lone Rz)

    def flush(q: int):
        total, lone = pending.pop(q)
        angle = _wrap(total)
        if abs(angle) >= _ANGLE_TOL:
            # a lone Rz whose angle is already in range goes out as it came
            out.append(lone if lone is not None and lone.param == angle else _rz(q, angle))

    for g in gates:
        if g.kind == "rz":
            q = g.qubits[0]
            pending[q] = (pending[q][0] + g.param, None) if q in pending else (g.param, g)
            continue
        if g.kind == "cx":
            if g.qubits[1] in pending:
                flush(g.qubits[1])
            out.append(g)
            continue
        if g.kind == "measure":
            # measures are a suffix; park every floating rotation before it
            for q in sorted(pending):
                flush(q)
            out.append(g)
            continue
        for q in g.qubits:
            if q in pending:
                flush(q)
        out.append(g)
    for q in sorted(pending):
        flush(q)
    return out


def _cancel_cx_pairs(gates: list[Gate]) -> list[Gate]:
    """Cancel each CNOT whose next gate on both its wires is an identical one,
    cascading, in one forward scan; a cancellation uncovers earlier gates."""
    out: list[Gate | None] = []
    last: dict[int, int] = {}  # wire -> index in out, -1 for none
    for g in gates:
        if g.kind == "cx":
            i = last.get(g.qubits[0], -1)
            if i >= 0 and i == last.get(g.qubits[1], -1) and out[i].qubits == g.qubits:
                out[i] = None
                for q in g.qubits:
                    j = i - 1
                    while j >= 0 and (out[j] is None or q not in out[j].qubits):
                        j -= 1
                    last[q] = j
                continue
        for q in g.qubits:
            last[q] = len(out)
        out.append(g)
    return [g for g in out if g is not None]


_SX_MATRIX = FIXED_MATRICES["sx"]
_SX3_MATRIX = _SX_MATRIX @ _SX_MATRIX @ _SX_MATRIX


def _synthesize_1q(q: int, u: np.ndarray) -> list[Gate]:
    """Canonical basis-gate realisation of a 2x2 unitary, up to phase."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    v = u / np.sqrt(det)
    if abs(v[0, 1]) < _ANGLE_TOL and abs(v[1, 0]) < _ANGLE_TOL:
        angle = 2.0 * np.angle(v[1, 1])
        return [] if _is_zero_angle(angle) else [_rz(q, _wrap(angle))]
    if abs(v[0, 0]) < _ANGLE_TOL and abs(v[1, 1]) < _ANGLE_TOL:
        angle = np.angle(v[0, 1] / v[1, 0])
        gates = [] if _is_zero_angle(angle) else [_rz(q, _wrap(angle))]
        gates.append(_fixed("x", q))
        return gates
    if phase_distance(u, _SX_MATRIX) < _ANGLE_TOL:
        return [_fixed("sx", q)]
    if phase_distance(u, _SX3_MATRIX) < _ANGLE_TOL:
        return [_fixed("sx", q), _fixed("x", q)]
    beta = 2.0 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    alpha_plus = 2.0 * np.angle(v[1, 1])
    alpha_minus = 2.0 * np.angle(v[1, 0])
    alpha = 0.5 * (alpha_plus + alpha_minus)
    gamma = 0.5 * (alpha_plus - alpha_minus)
    gates = []
    if not _is_zero_angle(gamma):
        gates.append(_rz(q, _wrap(gamma)))
    gates.extend([_fixed("sx", q), _rz(q, _wrap(beta + math.pi)), _fixed("sx", q)])
    if not _is_zero_angle(alpha + math.pi):
        gates.append(_rz(q, _wrap(alpha + math.pi)))
    return gates


def _candidate_distance(candidate: list[Gate], u: np.ndarray) -> float:
    """``phase_distance`` from a resynthesis ``candidate``'s product (Rz as
    diag(1, e^(i angle)), SX, X) to ``u``, in Python complex arithmetic: the
    drift guard makes no compiled value, so it may round unlike numpy."""
    (a, b), (c, d) = (1, 0), (0, 1)  # the product's rows
    for g in candidate:
        if g.kind == "rz":
            z = complex(math.cos(g.param), math.sin(g.param))
            c, d = z * c, z * d
        elif g.kind == "sx":
            p, m = 0.5 + 0.5j, 0.5 - 0.5j
            (a, b), (c, d) = (p * a + m * c, p * b + m * d), (m * a + p * c, m * b + p * d)
        else:  # x
            (a, b), (c, d) = (c, d), (a, b)
    (u00, u01), (u10, u11) = u.tolist()
    trace = a.conjugate() * u00 + b.conjugate() * u01 + c.conjugate() * u10 + d.conjugate() * u11
    return max(0.0, 1.0 - abs(trace) / 2)


def _resynth_runs(gates: list[Gate], memo: dict) -> list[Gate]:
    """Shrink maximal single-qubit runs to canonical form when that is shorter.

    ``memo`` maps a run's (kind, param) sequence to its replacement's, or to
    None when the run is kept. Whether and how a run is replaced depends on
    those pairs alone, not on its wire, so a hit re-labels the stored
    replacement onto the run's wire, and the synthesis and its drift guard
    run once per distinct run.
    """
    runs: list[list[int]] = []
    open_runs: dict[int, list[int]] = {}
    for i, g in enumerate(gates):
        if g.kind in SINGLE_QUBIT_KINDS:
            open_runs.setdefault(g.qubits[0], []).append(i)
        else:
            for q in g.qubits:
                if q in open_runs:
                    runs.append(open_runs.pop(q))
    runs.extend(open_runs.values())

    inserts: dict[int, list[Gate]] = {}
    removed: set[int] = set()
    for run in runs:
        q = gates[run[0]].qubits[0]
        if len(run) < 2:
            continue
        key = tuple((gates[idx].kind, gates[idx].param) for idx in run)
        if key in memo:
            found = memo[key]
            if found is not None:
                inserts[run[0]] = [Gate._trusted(kind, (q,), param) for kind, param in found]
                removed.update(run)
            continue
        u = np.eye(2, dtype=complex)
        for idx in run:
            u = matrix_of(gates[idx]) @ u
        candidate = _synthesize_1q(q, u)
        if _candidate_distance(candidate, u) > 1e-10:
            raise RuntimeError("single-qubit resynthesis drifted")
        if len(candidate) < len(run):
            memo[key] = tuple((g.kind, g.param) for g in candidate)
            inserts[run[0]] = candidate
            removed.update(run)
        else:
            memo[key] = None
    if not inserts:
        return gates
    out: list[Gate] = []
    for i, g in enumerate(gates):
        if i in inserts:
            out.extend(inserts[i])
        if i not in removed:
            out.append(g)
    return out


# every preset circuit and suffix window converges in two passes
_SIMPLIFY_MAX_PASSES = 60


def simplify(c: Circuit, memo: dict | None = None) -> Circuit:
    """Deterministic peephole cleanup; idempotent, count-nonincreasing.

    Whether a run is replaced depends on its gates alone, so its resynthesis
    is remembered by its gates' (kind, param) sequence (see
    ``_resynth_runs``), and a run one pass kept costs the next pass one
    lookup. Callers that compile many related circuits pass one ``memo`` to
    every call; without one, the call keeps its own. The memo changes only
    the speed: the result is a function of ``c``'s gates alone.
    """
    memo = {} if memo is None else memo
    gates = list(c.gates)
    for _ in range(_SIMPLIFY_MAX_PASSES):
        new = _resynth_runs(_cancel_cx_pairs(_float_rz(gates)), memo)
        if new == gates:
            break
        gates = new
    else:
        raise RuntimeError(f"simplify did not converge in {_SIMPLIFY_MAX_PASSES} passes")
    return Circuit._trusted(c.n_qubits, tuple(gates), dict(c.metadata))


def _suffix_window(gates: Sequence[Gate], wires: set[int]) -> int:
    """Start of the shortest tail of a ``simplify`` fixpoint that appending
    1-qubit gates on ``wires`` (and measurements) can change.

    The tail holds the trailing single-qubit run of every wire in ``wires``
    and every trailing Rz (the last gate on its wire: it is still floating,
    and a measurement may reorder it), and it cuts through no run. Every
    pass then leaves the head as it is, so ``simplify(head + tail + suffix)
    == head + simplify(tail + suffix)``.
    """
    run_start: list[int] = []      # gate index -> first index of its run
    open_run: dict[int, int] = {}  # wire -> first index of its trailing run
    last_kind: dict[int, str] = {}
    for i, g in enumerate(gates):
        if g.kind in SINGLE_QUBIT_KINDS:
            run_start.append(open_run.setdefault(g.qubits[0], i))
        else:
            run_start.append(i)
            for q in g.qubits:
                open_run.pop(q, None)
        for q in g.qubits:
            last_kind[q] = g.kind
    start = len(gates)
    for q, first in open_run.items():
        if q in wires or last_kind[q] == "rz":
            start = min(start, first)
    i = len(gates) - 1
    while i >= start:
        start = min(start, run_start[i])
        i -= 1
    return start


def transpile(
    c: Circuit,
    topology: Topology | None = None,
    layout: Layout | Sequence[int] | None = None,
) -> RoutedCircuit:
    """lower -> route (if a topology is given) -> simplify.

    Without a layout the circuit is routed from the identity, as by ``route``.
    """
    lowered = lower_to_basis(c)
    if topology is None:
        ident = tuple(range(c.n_qubits))
        return RoutedCircuit(simplify(lowered), ident, ident, ident)
    routed = route(lowered, topology, layout)
    return replace(routed, circuit=simplify(routed.circuit))


def place_suffix(suffix: Circuit, prefix: RoutedCircuit) -> Circuit:
    """A logical-qubit suffix of 1-qubit gates and measurements, lowered and placed
    through ``prefix.final_layout`` (without CNOTs it needs no routing)."""
    if any(g.kind == "cx" for g in suffix.gates):
        raise ValueError("a suffix with CNOTs needs routing; transpile the whole circuit")
    l2p = prefix.final_layout
    placed = tuple(
        Gate._trusted(g.kind, (l2p[g.qubits[0]],), g.param, g.cbit)
        for g in lower_to_basis(suffix).gates
    )
    return Circuit._trusted(prefix.circuit.n_qubits, placed, suffix.metadata)


def append_placed(base: Circuit, placed: Circuit, memo: dict | None = None) -> Circuit:
    """``simplify(base + placed)`` gate for gate, for a ``simplify`` output
    ``base`` (as ``transpile`` returns it) and a ``place_suffix`` result, but
    only the tail of ``base`` that the suffix can reach is simplified again
    (see ``_suffix_window``), so the prefix compiles once for many suffixes.
    Against ``transpile`` of the whole circuit it is equal as a unitary;
    gate for gate it may differ where summed Rz angles associate
    differently (Rz(pi) against Rz(-pi), say). ``memo`` is ``simplify``'s,
    and also keeps each simplified tail, keyed by the window's and the
    suffix's gates: a sweep's points share a few epsilon-free windows.
    """
    wires = {g.qubits[0] for g in placed.gates if g.kind != "measure"}
    if not wires or base.has_measurements:
        # every pass ends a run or a float at a measurement as it does at the
        # end of the circuit, so measurements after a fixpoint stay one; a
        # measured prefix takes no further gates, which Circuit reports
        return base + placed
    memo = {} if memo is None else memo
    cut = _suffix_window(base.gates, wires)
    window = (base.gates[cut:], placed.gates)
    if window not in memo:
        memo[window] = simplify(Circuit._trusted(base.n_qubits, window[0] + window[1], {}), memo).gates
    metadata = dict(base.metadata)
    metadata.update(placed.metadata)
    return Circuit._trusted(base.n_qubits, base.gates[:cut] + memo[window], metadata)
