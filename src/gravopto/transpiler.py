"""Lowering, routing and simplification to the device basis {X, SX, Rz, CNOT}.

Lowering rewrites each gate locally (diagonal gates become a single Rz; H is
the 3-gate Rz-SX-Rz form; a generic Rx uses the 5-gate Rz-SX-Rz-SX-Rz form).

Routing walks a SWAP (3 CNOTs) along a shortest path of ``Topology.reach``,
the one BFS (``hub_layout`` and ``device_layout`` read it too), whenever a
CNOT spans non-adjacent physical qubits. No swap-back is appended; the
final logical-to-physical permutation is reported instead.

Simplification iterates three deterministic passes to a fixpoint:

  1. rz floating: an Rz slides over any CNOT acting on its qubit as control
     and merges with later Rz gates on its wire. Quarter turns (within 1e-12
     of k * pi / 2) are counted apart: their sum is exactly 0 (dropped),
     pi / 2, pi or -pi / 2, and another angle a merged with k of them is
     ``turned(a, k)``.
  2. adjacent identical CNOT pairs cancel.
  3. a maximal run of >= 2 single-qubit gates on one wire is replaced by its
     canonical form when that is strictly shorter. Quarter turns only: one
     of the 24 single-qubit Cliffords, looked up by its action on X and Z
     (signed Paulis, as in ``PAULI_1Q``), as its shortest word over SX, X and
     quarter-turn Rz. One other rotation, an Rz: kept as a gate of its own,
     the quarter turns that commute with it merged in, each Clifford part
     beside it a shortest word. So a sweep's core slot compiles to
     ``turned(slot, k)``, whatever its size or sign. Any other run, such as
     one with two or more other rotations, is left as it is. A replacement
     is checked against its run in a distance linear in the angle error.

All three preserve the unitary up to global phase and never increase any
gate count, so simplify is idempotent gate for gate. A run's replacement
depends on its gates alone, so ``simplify``'s passes share a memo of them,
and on an angle only through whether it is a quarter turn, so a sweep
transpiles its evolution once, at generic core angles, and gives each
point's as a lane of angles (``experiment``).
``place_suffix`` lowers a suffix of 1-qubit gates and measurements and
places it through a routed circuit's final layout.

Gates and circuits re-emitted from checked ones are built with
``Gate._trusted`` and ``Circuit._trusted``, which skip re-validation.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Sequence

from .circuit import FIXED_MATRICES, PAULI_1Q, RZ_PAULI, SINGLE_QUBIT_KINDS, TURNS_OF, Circuit, Gate
from .errors import CapacityError, RoutingError

BASIS_KINDS = ("x", "sx", "rz", "cx", "measure")

_TWO_PI = 2.0 * math.pi
_ANGLE_TOL = 1e-12

# a Topology keeps a neighbour list per qubit, so more qubits are refused before any is built
MAX_TOPOLOGY_QUBITS = 2 ** 16

TOPOLOGY_PRESETS = {
    "belem-like": (5, ((0, 1), (1, 2), (1, 3), (3, 4))),
    "nairobi-like": (7, ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6))),
}


@dataclass(frozen=True)
class Topology:
    """Undirected coupling graph of a device."""

    n: int
    edges: frozenset = field(default_factory=frozenset)
    # each qubit's neighbours, ascending, so a BFS step scans no edge set
    _adjacency: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ends = [q for edge in self.edges for q in edge]
        if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in (self.n, *ends)):
            raise ValueError("the qubit count and the edge ends must be integers")
        if self.n > MAX_TOPOLOGY_QUBITS:
            raise CapacityError(f"n: {self.n} qubits exceed the limit of {MAX_TOPOLOGY_QUBITS}")
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
        return cls(n, frozenset(edges))

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        """``{"n": 5, "edges": [[0, 1], ...]}``, every number an integer."""
        data = json.loads(text)
        return cls(data["n"], frozenset(tuple(e) for e in data["edges"]))

    def reach(self, start: int) -> dict[int, int]:
        """Every qubit connected to ``start``, mapped to its BFS parent (``start``
        to itself), in visit order; neighbours are visited in ascending order."""
        parent = {start: start}
        queue = [start]
        for node in queue:
            for nb in self._adjacency[node]:
                if nb not in parent:
                    parent[nb] = node
                    queue.append(nb)
        return parent

    def shortest_path(self, start: int, goal: int) -> list[int] | None:
        """The BFS path from ``reach(start)``; None when ``goal`` is apart."""
        parent = self.reach(start)
        if goal not in parent:
            return None
        path = [goal]
        while path[-1] != start:
            path.append(parent[path[-1]])
        return path[::-1]


@dataclass(frozen=True)
class Layout:
    """Injective logical -> physical qubit assignment."""

    logical_to_physical: tuple[int, ...]

    def __post_init__(self):
        l2p = tuple(int(p) for p in self.logical_to_physical)
        if len(set(l2p)) != len(l2p):
            raise ValueError("layout is not injective")
        object.__setattr__(self, "logical_to_physical", l2p)

    def __iter__(self):
        return iter(self.logical_to_physical)


def hub_layout(topo: Topology, n_logical: int = 4) -> Layout:
    """Put logical 0 on the highest-degree physical qubit and the rest on the
    next qubits that ``reach`` visits from it.

    Ties on degree break toward the lowest physical index, so the layout is
    deterministic for a given topology.
    """
    hub = max(range(topo.n), key=lambda q: (len(topo._adjacency[q]), -q))
    order = list(topo.reach(hub))
    if len(order) < n_logical:
        raise RoutingError("topology is disconnected under the requested size")
    return Layout(tuple(order[:n_logical]))


def _wrap(angle: float) -> float:
    return math.remainder(angle, _TWO_PI)


_HALF_PI = math.pi / 2
# k quarter turns, k mod 4, as the one angle every compiled Rz of them has
_QUARTER_TURNS = (0.0, _HALF_PI, math.pi, -_HALF_PI)


def quarter_turns(angle: float) -> int | None:
    """k in 0..3 when ``angle`` is within 1e-12 of k * pi / 2 modulo 2 pi,
    else None."""
    if angle in TURNS_OF:  # every compiled quarter turn
        return TURNS_OF[angle]
    angle = _wrap(angle)
    k = round(angle / _HALF_PI)
    return k % 4 if abs(angle - k * _HALF_PI) < _ANGLE_TOL else None


def turned(angle: float, k: int) -> float:
    """A wrapped ``angle`` plus k quarter turns, wrapped."""
    return angle if k % 4 == 0 else _wrap(angle + _QUARTER_TURNS[k % 4])


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
    k = quarter_turns(gate.param)
    if k is not None:
        return [_fixed(kind, q) for kind in ((), ("sx",), ("x",), ("sx", "x"))[k]]
    return [_rz(q, _HALF_PI), _fixed("sx", q), _rz(q, gate.param + math.pi), _fixed("sx", q),
            _rz(q, _HALF_PI)]


def lower_to_basis(c: Circuit) -> Circuit:
    """Rewrite every gate into {x, sx, rz, cx, measure}, phase-equivalent."""
    out: list[Gate] = []
    for g in c.gates:
        q = g.qubits[0]
        if g.kind in BASIS_KINDS:
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
    return Circuit._trusted(c.n_qubits, tuple(out))


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
    routed = Circuit._trusted(topo.n, tuple(out))
    return RoutedCircuit(
        circuit=routed,
        initial_layout=l2p_logical,
        final_layout=tuple(l2p[: c.n_qubits]),
        full_final_layout=tuple(l2p),
    )


# ---------------------------------------------------------------------------
# simplification

def _float_rz(gates: list[Gate]) -> list[Gate]:
    """Slide Rz gates over CNOT controls and merge them along each wire,
    counting quarter turns apart from other angles."""
    out: list[Gate] = []
    pending: dict[int, list] = {}  # wire -> [other angles' sum, quarter turns, lone Rz]

    def flush(q: int):
        rotation, turns, lone = pending.pop(q)
        k = quarter_turns(rotation)
        if k is None:
            angle = turned(_wrap(rotation), turns)
        elif (turns + k) % 4:
            angle = _QUARTER_TURNS[(turns + k) % 4]
        else:
            return
        # a lone Rz whose angle is already in that form goes out as it came
        out.append(lone if lone is not None and lone.param == angle else _rz(q, angle))

    for g in gates:
        if g.kind == "rz":
            entry = pending.setdefault(g.qubits[0], [0.0, 0, g])
            entry[2] = g if entry[2] is g else None  # g, if it is the only Rz
            k = quarter_turns(g.param)
            if k is None:
                entry[0] += g.param
            else:
                entry[1] += k
            continue
        if g.kind == "cx":
            if g.qubits[1] in pending:
                flush(g.qubits[1])
            out.append(g)
            continue
        # measures are a suffix; park every floating rotation before the first
        for q in sorted(pending) if g.kind == "measure" else [q for q in g.qubits if q in pending]:
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


def _pauli_map(kind: str, param: float | None) -> tuple | None:
    """A gate's Clifford map U^dag P U for P = X, Y, Z, as ``PAULI_1Q`` has
    it; None for a rotation that is no quarter-turn Rz."""
    if kind in PAULI_1Q:
        return PAULI_1Q[kind]
    k = quarter_turns(param) if kind in ("rz", "u1") else None
    return None if k is None else RZ_PAULI[k]


def _clifford_key(run) -> tuple:
    """A run of Clifford (kind, param) gates as its images of X and Z."""
    maps = [_pauli_map(*g) for g in reversed(run)]
    key = []
    for index in (1, 3):
        sign = 1
        for m in maps:
            index, flip = m[index - 1]
            sign *= flip
        key.append((index, sign))
    return tuple(key)


def _clifford_tables() -> tuple[dict, dict, dict]:
    """By ``_clifford_key``, over words of SX, X and quarter-turn Rz, first
    found in order of length: an element's shortest word; for a part before
    a kept Rz, the shortest word w and k for w then k quarter turns; for a
    part after it, k and w."""
    letters = (("sx", None), ("x", None), ("rz", _HALF_PI), ("rz", -_HALF_PI), ("rz", math.pi))
    shortest: dict = {}
    for length in range(4):
        for word in itertools.product(letters, repeat=length):
            shortest.setdefault(_clifford_key(word), word)
    before, after = {}, {}
    for word in shortest.values():
        for k in (0, 1, 3, 2):
            turn = (("rz", _QUARTER_TURNS[k]),) if k else ()
            before.setdefault(_clifford_key(word + turn), (word, k))
            after.setdefault(_clifford_key(turn + word), (k, word))
    return shortest, before, after


_SHORTEST, _BEFORE, _AFTER = _clifford_tables()


def _product(run) -> tuple:
    """The 2x2 product of (kind, param) gates as rows of Python complex
    numbers, an Rz or U1 as diag(1, e^(i angle))."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for kind, param in run:
        if kind in ("rz", "u1"):
            z = complex(math.cos(param), math.sin(param))
            c, d = z * c, z * d
        else:
            (m, n), (o, p) = FIXED_MATRICES[kind].tolist()
            (a, b), (c, d) = (m * a + n * c, m * b + n * d), (o * a + p * c, o * b + p * d)
    return (a, b), (c, d)


def _candidate_distance(candidate, u) -> float:
    """The Frobenius norm of ``_product(candidate)`` minus 2x2 ``u`` at the
    phase that minimises it, entry by entry: linear in an angle error."""
    p = [z for row in _product(candidate) for z in row]
    v = [complex(z) for row in u for z in row]
    overlap = sum(x.conjugate() * y for x, y in zip(p, v))
    phase = overlap / abs(overlap) if overlap else 1.0
    return math.sqrt(sum(abs(x * phase - y) ** 2 for x, y in zip(p, v)))


def _resynthesis(run: tuple) -> tuple | None:
    """The canonical form of a single-qubit run of (kind, param) gates (see
    the module docstring) when it is shorter, else None."""
    rotations = [i for i, g in enumerate(run) if _pauli_map(*g) is None]
    if not rotations:
        candidate = _SHORTEST[_clifford_key(run)]
    elif len(rotations) == 1 and run[rotations[0]][0] in ("rz", "u1"):
        i = rotations[0]
        head, k_head = _BEFORE[_clifford_key(run[:i])]
        k_tail, tail = _AFTER[_clifford_key(run[i + 1:])]
        candidate = head + (("rz", turned(_wrap(run[i][1]), k_head + k_tail)),) + tail
    else:
        return None
    if len(candidate) >= len(run):
        return None
    # 1e-10 holds one Rz to about 1.4e-10 rad
    if _candidate_distance(candidate, _product(run)) > 1e-10:
        raise RuntimeError("single-qubit resynthesis drifted")
    return candidate


def _resynth_runs(gates: list[Gate], memo: dict) -> list[Gate]:
    """Replace maximal single-qubit runs by their ``_resynthesis``, which
    ``memo`` keeps by the run's (kind, param) sequence, whatever its wire."""
    runs: list[list[int]] = []
    open_runs: dict[int, list[int]] = {}
    for i, g in enumerate(gates):
        if g.kind in SINGLE_QUBIT_KINDS:
            open_runs.setdefault(g.qubits[0], []).append(i)
        else:
            runs.extend(open_runs.pop(q) for q in g.qubits if q in open_runs)
    runs.extend(open_runs.values())
    replaced: dict[int, list[Gate]] = {}  # gate index -> what stands in its place
    for run in runs:
        if len(run) < 2:
            continue
        key = tuple((gates[i].kind, gates[i].param) for i in run)
        if key not in memo:
            memo[key] = _resynthesis(key)
        if memo[key] is not None:
            q = gates[run[0]].qubits[0]
            replaced.update(dict.fromkeys(run, []))
            replaced[run[0]] = [Gate._trusted(kind, (q,), param) for kind, param in memo[key]]
    if not replaced:
        return gates
    return [h for i, g in enumerate(gates) for h in replaced.get(i, (g,))]


# every preset template converges in two passes
_SIMPLIFY_MAX_PASSES = 60


def simplify(c: Circuit) -> Circuit:
    """Deterministic peephole cleanup; idempotent, count-nonincreasing. Its
    passes share one memo of resyntheses (see ``_resynth_runs``)."""
    memo: dict = {}
    gates = list(c.gates)
    for _ in range(_SIMPLIFY_MAX_PASSES):
        new = _resynth_runs(_cancel_cx_pairs(_float_rz(gates)), memo)
        if new == gates:
            break
        gates = new
    else:
        raise RuntimeError(f"simplify did not converge in {_SIMPLIFY_MAX_PASSES} passes")
    return Circuit._trusted(c.n_qubits, tuple(gates))


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
    return Circuit._trusted(prefix.circuit.n_qubits, placed)
