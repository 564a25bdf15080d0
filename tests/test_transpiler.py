import dataclasses
import json
import math
import time

import numpy as np
import pytest

from gravopto.circuit import (
    SINGLE_QUBIT_KINDS,
    Circuit,
    Gate,
    cx,
    h,
    measure,
    rx,
    s,
    sdg,
    u1,
    x,
)
from gravopto.digitizer import build_evolution_circuit
from gravopto import experiment, transpiler
from gravopto.errors import RoutingError
from gravopto.experiment import (
    DEFAULT_EPSILONS,
    ExperimentConfig,
    compile_sweep,
    resolve_topology,
)
from gravopto.transpiler import (
    BASIS_KINDS,
    Layout,
    Topology,
    hub_layout,
    lower_to_basis,
    place_suffix,
    route,
    simplify,
    transpile,
)

from oracles import matrix_of, rz, sx, sxdg, unitary_of
from test_circuit import linear_distance, random_circuit


def random_connected_topology(rng, n):
    nodes = list(rng.permutation(n))
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add((int(nodes[j]), int(nodes[i])))
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(n, size=2, replace=False)
        edges.add((int(a), int(b)))
    return Topology(n, frozenset(edges))


def placement_matrix(positions, n):
    """Unitary moving virtual wire v onto physical qubit positions[v]."""
    dim = 2 ** n
    mat = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        dst = 0
        for v in range(n):
            bit = (src >> (n - 1 - v)) & 1
            dst |= bit << (n - 1 - positions[v])
        mat[dst, src] = 1.0
    return mat


def assert_routed_equivalent(original, routed):
    """Routed circuit == wire placement, original action, final placement."""
    n = routed.circuit.n_qubits
    embedded = Circuit(n, original.gates)
    init = list(routed.initial_layout)
    init += [p for p in range(n) if p not in init]
    s_init = placement_matrix(init, n)
    s_fin = placement_matrix(list(routed.full_final_layout), n)
    lhs = unitary_of(routed.circuit) @ s_init
    rhs = s_fin @ unitary_of(embedded)
    assert linear_distance(lhs, rhs) <= 1e-10


class TestTopology:
    def test_normalizes_edges(self):
        t = Topology(3, frozenset({(2, 0), (0, 2), (1, 2)}))
        assert t.edges == frozenset({(0, 2), (1, 2)})

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(0)
        with pytest.raises(ValueError):
            Topology(2, frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            Topology(2, frozenset({(0, 5)}))

    @pytest.mark.parametrize("n,edges", [
        (5, {(0, 1.7), (1, 2)}),
        (5, {(0, True), (1, 2)}),
        (5, {(0, 1.0)}),
        (5.0, {(0, 1)}),
        (True, set()),
    ], ids=["fractional-end", "bool-end", "float-end", "float-count", "bool-count"])
    def test_non_integers_are_refused_not_truncated(self, n, edges):
        with pytest.raises(ValueError, match="integers"):
            Topology(n, frozenset(edges))

    def test_presets(self):
        belem = Topology.preset("belem-like")
        assert belem.n == 5
        assert belem.edges == frozenset({(0, 1), (1, 2), (1, 3), (3, 4)})
        nairobi = Topology.preset("nairobi-like")
        assert nairobi.n == 7 and len(nairobi.edges) == 6
        with pytest.raises(ValueError):
            Topology.preset("osprey")

    def test_json_round_trip(self, tmp_path):
        t = Topology.preset("nairobi-like")
        text = json.dumps({"n": t.n, "edges": sorted(list(e) for e in t.edges)})
        # a preset is its graph: the same graph read from a file equals it
        assert Topology.from_json(text) == t
        path = tmp_path / "topo.json"
        path.write_text(text)
        assert resolve_topology(str(path)) == t

    def test_neighbors_sorted(self):
        # ``reach`` visits each qubit's neighbours in ascending order, level by level
        t = Topology.preset("nairobi-like")
        assert list(t.reach(5).items()) == [(5, 5), (3, 5), (4, 5), (6, 5), (1, 3), (0, 1), (2, 1)]
        assert list(t.reach(1)) == [1, 0, 2, 3, 5, 4, 6]
        assert t.reach(0)[1] == 0
        assert Topology(3, frozenset({(0, 1)})).reach(2) == {2: 2}

    def test_shortest_path(self):
        t = Topology.preset("belem-like")
        assert t.shortest_path(0, 4) == [0, 1, 3, 4]
        assert t.shortest_path(2, 2) == [2]
        assert t.shortest_path(0, 2) == [0, 1, 2]
        split = Topology(4, frozenset({(0, 1), (2, 3)}))
        assert split.shortest_path(0, 3) is None


def test_layout_rejects_repeats():
    with pytest.raises(ValueError):
        Layout((0, 1, 1, 2))


def test_hub_layout_presets():
    assert tuple(hub_layout(Topology.preset("belem-like"))) == (1, 0, 2, 3)
    # degree tie between qubits 1 and 5 breaks toward the lower index
    assert tuple(hub_layout(Topology.preset("nairobi-like"))) == (1, 0, 2, 3)


def oracle_neighbours(topo: Topology) -> list[list[int]]:
    """Each qubit's neighbours, ascending, read from the edge set alone."""
    return [sorted({b if a == q else a for a, b in topo.edges if q in (a, b)}) for q in range(topo.n)]


def frontier_shortest_path(topo: Topology, start: int, goal: int) -> list[int] | None:
    """The oracle for ``Topology.shortest_path``: the frontier BFS it ran
    before ``Topology.reach``, stopping at the goal."""
    if start == goal:
        return [start]
    neighbours = oracle_neighbours(topo)
    parent = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in neighbours[node]:
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


def frontier_hub_layout(topo: Topology, n_logical: int) -> Layout:
    """The oracle for ``hub_layout``: its frontier BFS from the hub before
    ``Topology.reach``, stopping once it has ``n_logical`` qubits."""
    neighbours = oracle_neighbours(topo)
    hub = max(range(topo.n), key=lambda q: (len(neighbours[q]), -q))
    order = [hub]
    seen = {hub}
    frontier = [hub]
    while frontier and len(order) < n_logical:
        nxt = []
        for node in frontier:
            for nb in neighbours[node]:
                if nb not in seen:
                    seen.add(nb)
                    order.append(nb)
                    nxt.append(nb)
        frontier = nxt
    if len(order) < n_logical:
        raise RoutingError("topology is disconnected under the requested size")
    return Layout(tuple(order[:n_logical]))


def test_reach_gives_the_frontier_bfs_paths_and_hub_layouts():
    """On 600 seeded random graphs of 1 to 12 qubits, connected or not,
    ``shortest_path`` for every ordered pair of qubits and ``hub_layout``
    for every size from 0 to n + 1 equal the frontier BFS oracles', a
    RoutingError where the oracle raises one. Bound: 20 s (about 0.8 s on
    a 2-core x86 box)."""
    start = time.perf_counter()
    rng = np.random.default_rng(83)
    split = 0
    for _ in range(600):
        n = int(rng.integers(1, 13))
        p = rng.uniform(0.0, 0.6)
        edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p)
        topo = Topology(n, edges)
        split += len(topo.reach(0)) < n
        for a in range(n):
            for b in range(n):
                assert topo.shortest_path(a, b) == frontier_shortest_path(topo, a, b), (edges, a, b)
        for k in range(n + 2):
            try:
                want = frontier_hub_layout(topo, k)
            except RoutingError:
                with pytest.raises(RoutingError):
                    hub_layout(topo, k)
            else:
                assert hub_layout(topo, k) == want, (edges, k)
    assert 100 <= split <= 500  # both kinds of graph are well represented
    assert time.perf_counter() - start < 20.0


def test_hub_layout_needs_enough_connected_qubits():
    with pytest.raises(RoutingError):
        hub_layout(Topology(3, frozenset({(0, 1), (0, 2), (1, 2)})), n_logical=4)
    split = Topology(5, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(RoutingError):
        hub_layout(split, n_logical=4)


class TestLowering:
    def test_only_basis_kinds_remain(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            c = random_circuit(rng, 3, 15)
            low = lower_to_basis(c)
            assert all(g.kind in BASIS_KINDS for g in low.gates)

    def test_preserves_unitary(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            c = random_circuit(rng, int(rng.integers(1, 4)), 12)
            d = linear_distance(unitary_of(lower_to_basis(c)), unitary_of(c))
            assert d <= 1e-10

    def test_keeps_measurements(self):
        c = Circuit(2, (h(0), measure(0, 0), measure(1, 1)))
        low = lower_to_basis(c)
        assert low.measurements == c.measurements

    @pytest.mark.parametrize(
        "angle,kinds",
        [
            (0.0, []),
            (math.pi / 2, ["sx"]),
            (math.pi, ["x"]),
            (-math.pi, ["x"]),
            (-math.pi / 2, ["sx", "x"]),
            (2 * math.pi, []),
            (5 * math.pi / 2, ["sx"]),
            (0.3, ["rz", "sx", "rz", "sx", "rz"]),
        ],
    )
    def test_rx_lowering_shapes(self, angle, kinds):
        low = lower_to_basis(Circuit(1, (rx(0, angle),)))
        assert [g.kind for g in low.gates] == kinds
        d = linear_distance(unitary_of(low), unitary_of(Circuit(1, (rx(0, angle),))))
        assert d <= 1e-12

    def test_diagonal_gates_become_single_rz(self):
        low = lower_to_basis(Circuit(1, (s(0), sdg(0), u1(0, 0.4), rz(0, 0.1))))
        assert [g.kind for g in low.gates] == ["rz"] * 4

    def test_sxdg_lowering(self):
        low = lower_to_basis(Circuit(1, (sxdg(0),)))
        assert [g.kind for g in low.gates] == ["sx", "x"]
        assert np.allclose(unitary_of(low), unitary_of(Circuit(1, (sxdg(0),))))


class TestRouting:
    def test_adjacent_cnots_only(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n_log = int(rng.integers(2, 5))
            topo = random_connected_topology(rng, int(rng.integers(n_log, 6)))
            c = lower_to_basis(random_circuit(rng, n_log, 10))
            routed = route(c, topo)
            for g in routed.circuit.gates:
                if g.kind == "cx":
                    assert tuple(sorted(g.qubits)) in topo.edges

    def test_permutation_equivalence(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n_log = int(rng.integers(2, 5))
            topo = random_connected_topology(rng, int(rng.integers(n_log, 6)))
            c = lower_to_basis(random_circuit(rng, n_log, 10))
            assert_routed_equivalent(c, route(c, topo))

    def test_identity_layout_default(self):
        topo = Topology.preset("belem-like")
        c = Circuit(3, (cx(0, 1), cx(1, 2)))
        routed = route(c, topo)
        assert routed.initial_layout == (0, 1, 2)
        assert routed.circuit.gates == (cx(0, 1), cx(1, 2))
        assert routed.final_layout == (0, 1, 2)

    def test_explicit_layout_applied(self):
        topo = Topology.preset("belem-like")
        c = Circuit(2, (cx(0, 1),))
        routed = route(c, topo, layout=(4, 3))
        assert routed.circuit.gates == (cx(4, 3),)

    def test_swap_updates_final_layout(self):
        topo = Topology.preset("belem-like")
        c = Circuit(2, (cx(0, 1),))
        routed = route(c, topo, layout=(0, 4))  # distance 3: two swaps
        cx_count = sum(1 for g in routed.circuit.gates if g.kind == "cx")
        assert cx_count == 7
        assert routed.initial_layout == (0, 4)
        assert routed.final_layout != routed.initial_layout
        assert_routed_equivalent(c, routed)

    def test_measures_follow_the_wire(self):
        topo = Topology.preset("belem-like")
        c = Circuit(2, (cx(0, 1), measure(0, 0), measure(1, 1)))
        routed = route(c, topo, layout=(0, 4))
        for q, cbit in routed.circuit.measurements:
            assert q == routed.final_layout[cbit]

    def test_disconnected_pair_raises(self):
        split = Topology(4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(RoutingError):
            route(Circuit(4, (cx(0, 2),)), split)

    def test_layout_validation(self):
        topo = Topology.preset("belem-like")
        with pytest.raises(ValueError):
            route(Circuit(2, (cx(0, 1),)), topo, layout=(0,))
        with pytest.raises(ValueError):
            route(Circuit(2, (cx(0, 1),)), topo, layout=(0, 7))


def basis_random_circuit(rng, n, depth):
    gates = []
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.35 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(cx(int(a), int(b)))
        elif roll < 0.55:
            gates.append(rz(int(rng.integers(n)), float(rng.uniform(-7, 7))))
        elif roll < 0.8:
            gates.append(sx(int(rng.integers(n))))
        else:
            gates.append(x(int(rng.integers(n))))
    return Circuit(n, tuple(gates))


class TestSimplify:
    def test_preserves_unitary(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            c = basis_random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 25)))
            d = linear_distance(unitary_of(simplify(c)), unitary_of(c))
            assert d <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            c = basis_random_circuit(rng, 3, 20)
            once = simplify(c)
            assert simplify(once).gates == once.gates

    def test_never_grows(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            c = basis_random_circuit(rng, 3, 20)
            s0, t0 = c.gate_counts()
            s1, t1 = simplify(c).gate_counts()
            assert s1 <= s0 and t1 <= t0

    def test_sx_powers(self):
        assert simplify(Circuit(1, (sx(0),) * 4)).gates == ()
        assert simplify(Circuit(1, (sx(0),) * 2)).gates == (x(0),)
        assert simplify(Circuit(1, (sx(0),) * 3)).gates == (sx(0), x(0))

    def test_rz_merge_and_wrap(self):
        c = Circuit(1, (rz(0, math.pi), rz(0, math.pi)))
        assert simplify(c).gates == ()
        c = Circuit(1, (rz(0, 0.2), rz(0, 0.3)))
        (g,) = simplify(c).gates
        assert g.kind == "rz" and g.param == pytest.approx(0.5)

    def test_lone_rz_in_range_is_kept_as_is(self):
        lone, far, first, second = rz(0, 0.3), rz(1, 4.0), rz(2, 0.2), rz(2, 0.3)
        c = Circuit(3, (lone, sx(0), far, cx(1, 2), first, second, sx(2)))
        out = transpiler._float_rz(list(c.gates))
        assert out[0] is lone
        # out of range, or merged with another Rz: a new gate with the wrapped sum
        (wrapped,) = [g for g in out if g.kind == "rz" and g.qubits == (1,)]
        assert wrapped is not far and wrapped == rz(1, math.remainder(4.0, 2 * math.pi))
        (merged,) = [g for g in out if g.kind == "rz" and g.qubits == (2,)]
        assert merged == rz(2, 0.2 + 0.3)
        assert simplify(Circuit(1, (lone, sx(0)))).gates[0] is lone

    def test_cx_pair_cancels(self):
        c = Circuit(2, (cx(0, 1), cx(0, 1)))
        assert simplify(c).gates == ()
        # rz on the control floats out of the way first
        c = Circuit(2, (cx(0, 1), rz(0, 0.4), cx(0, 1)))
        (g,) = simplify(c).gates
        assert g == rz(0, 0.4)

    def test_a_shared_memo_keys_runs_by_their_angles(self, monkeypatch):
        """Runs that differ in one Rz angle only: x rz x is kept (a rotation
        keeps its sign), and sx rz sx is kept unless the angle is pi, a
        Clifford run that shrinks to its shortest word. Side by side in one
        circuit, whose passes share one memo, each comes out as it does
        alone, and no run is resynthesised twice."""
        circuits = [
            Circuit(2, (x(0), rz(0, 0.3), x(0), cx(0, 1), sx(1), rz(1, 0.3), sx(1))),
            Circuit(2, (x(0), rz(0, 0.5), x(0), cx(0, 1), sx(1), rz(1, math.pi), sx(1))),
        ]
        alone = [simplify(c).gates for c in circuits]
        assert alone[0] != alone[1]

        def shifted(gates, by):
            return tuple(Gate(g.kind, tuple(q + by for q in g.qubits), g.param) for g in gates)

        calls = []
        original = transpiler._resynthesis
        monkeypatch.setattr(transpiler, "_resynthesis", lambda run: calls.append(run) or original(run))
        both = simplify(Circuit(4, circuits[0].gates + shifted(circuits[1].gates, 2))).gates
        assert tuple(g for g in both if g.qubits[0] < 2) == alone[0]
        assert shifted(tuple(g for g in both if g.qubits[0] >= 2), -2) == alone[1]
        assert len(calls) == len(set(calls)) == 4

    def test_non_convergence_raises(self, monkeypatch):
        # a pass that reverses the gate list never reaches a fixpoint
        monkeypatch.setattr(transpiler, "_resynth_runs", lambda gates, memo: gates[::-1])
        with pytest.raises(RuntimeError, match="did not converge"):
            simplify(Circuit(2, (cx(0, 1), cx(1, 0))))

    def test_reversed_cx_pair_stays(self):
        c = Circuit(2, (cx(0, 1), cx(1, 0)))
        assert len(simplify(c).gates) == 2

    def test_rz_blocked_by_target(self):
        # an rz on the target wire must not cross the cnot
        c = Circuit(2, (rz(1, 0.7), cx(0, 1)))
        gates = simplify(c).gates
        assert gates == (rz(1, 0.7), cx(0, 1))

    def test_small_rotations_survive(self):
        """Rotations of 1e-7 rad are not quarter turns: a run with two of
        them is left as it is, and one with one keeps it as a gate of its
        own. Neither comes out a bare SX."""
        two = Circuit(1, (rz(0, 1e-7), sx(0), rz(0, 1e-7)))
        assert simplify(two).gates == two.gates
        one = Circuit(1, (x(0), sx(0), rz(0, 1e-7), sx(0), sx(0)))
        assert simplify(one).gates == (sx(0), x(0), rz(0, 1e-7), x(0))

    def test_clifford_runs_compile_to_exact_quarter_turns(self):
        """A run of quarter turns (here H S H S, with the S off by rounding
        as a summed angle may be) is looked up by its action on X and Z and
        comes out as its shortest word, every Rz angle exactly k * pi / 2."""
        c = lower_to_basis(Circuit(1, (h(0), s(0), h(0), s(0))))
        c = Circuit(1, tuple(rz(0, g.param + 3e-16) if g.kind == "rz" else g for g in c.gates))
        out = simplify(c)
        assert len(out.gates) < len(c.gates)
        assert all(g.param in (math.pi / 2, math.pi, -math.pi / 2) for g in out.gates if g.kind == "rz")
        assert linear_distance(unitary_of(out), unitary_of(c)) <= 1e-15

    def test_measured_circuit_keeps_suffix_rule(self):
        c = Circuit(2, (rz(0, 0.3), h(1), measure(1, 0), measure(0, 1)))
        out = simplify(lower_to_basis(c))
        kinds = [g.kind for g in out.gates]
        assert kinds.index("measure") == len(kinds) - 2
        assert out.measurements == c.measurements


class TestFullPipeline:
    def test_no_topology_keeps_width(self):
        c = build_evolution_circuit(0.1)
        result = transpile(c)
        assert result.circuit.n_qubits == 4
        assert result.initial_layout == (0, 1, 2, 3)
        d = linear_distance(unitary_of(result.circuit), unitary_of(c))
        assert d <= 1e-10

    def test_suffix_places_gates_and_refuses_cnots(self):
        prefix = transpile(build_evolution_circuit(0.1), Topology.preset("belem-like"))
        tail = Circuit(4, (h(2), measure(2, 0)))
        out = simplify(Circuit(5, prefix.circuit.gates + place_suffix(tail, prefix).gates))
        assert out.measurements == ((prefix.final_layout[2], 0),)
        with pytest.raises(ValueError, match="routing"):
            place_suffix(Circuit(4, (cx(0, 1),)), prefix)

    def test_hub_layout_avoids_swaps_on_belem(self):
        c = build_evolution_circuit(0.1, prepend_ground_prep=True)
        topo = Topology.preset("belem-like")
        result = transpile(c, topo, hub_layout(topo))
        single, two = result.circuit.gate_counts()
        assert two == 24
        assert single <= 40
        assert result.final_layout == result.initial_layout == (1, 0, 2, 3)

    def test_routed_pipeline_equivalence(self):
        c = build_evolution_circuit(0.2, prepend_ground_prep=True)
        topo = Topology.preset("belem-like")
        lowered = lower_to_basis(c)
        routed = route(lowered, topo, hub_layout(topo))
        simplified = simplify(routed.circuit)
        d = linear_distance(unitary_of(simplified), unitary_of(routed.circuit))
        assert d <= 1e-10
        assert_routed_equivalent(lowered, routed)

    def test_transpile_random_circuits_end_to_end(self):
        rng = np.random.default_rng(67)
        topo = Topology.preset("belem-like")
        for _ in range(15):
            c = random_circuit(rng, 4, 12)
            result = transpile(c, topo)
            assert all(g.kind in BASIS_KINDS for g in result.circuit.gates)
            for g in result.circuit.gates:
                if g.kind == "cx":
                    assert tuple(sorted(g.qubits)) in topo.edges


SUFFIX_EDGE_ANGLES = (math.pi, -math.pi, 0.0, 1e-13)


def trailing_run(circuit, wire):
    """Indices of the single-qubit gates on ``wire`` after its last CNOT."""
    run = []
    for i in reversed(range(len(circuit.gates))):
        if wire in circuit.gates[i].qubits:
            if circuit.gates[i].kind == "cx":
                break
            run.insert(0, i)
    return run


INVERSE_KIND = {"x": "x", "sx": "sxdg", "rz": "rz"}


def undo_on(circuit, run, logical):
    """The inverse of ``circuit``'s basis gates at ``run``, on logical wire ``logical``."""
    return [Gate(INVERSE_KIND[g.kind], (logical,), param=None if g.param is None else -g.param)
            for g in reversed([circuit.gates[i] for i in run])]


def random_suffix(rng, prefix):
    """1-8 single-qubit gates of every kind and 0-4 measurements on the four
    logical wires; one time in four the gates first undo the prefix's
    trailing run on a wire."""
    gates = []
    if rng.random() < 0.25:
        logical = int(rng.integers(4))
        run = trailing_run(prefix.circuit, prefix.final_layout[logical])
        gates += undo_on(prefix.circuit, run, logical)
    for _ in range(int(rng.integers(1, 9))):
        kind = SINGLE_QUBIT_KINDS[int(rng.integers(len(SINGLE_QUBIT_KINDS)))]
        param = None
        if kind in ("rx", "rz", "u1"):
            if rng.random() < 0.5:
                param = SUFFIX_EDGE_ANGLES[int(rng.integers(len(SUFFIX_EDGE_ANGLES)))]
            else:
                param = float(rng.uniform(-4.0, 4.0))
        gates.append(Gate(kind, (int(rng.integers(4)),), param=param))
    measured = rng.permutation(4)[: int(rng.integers(0, 5))]
    gates += [measure(int(q), cbit) for cbit, q in enumerate(measured)]
    return Circuit(4, tuple(gates))


def stacked_unitary(c):
    """unitary_of by row-bit reshapes and CNOT row permutations (fast enough
    for 7-qubit circuits); measurements are skipped."""
    n, dim = c.n_qubits, 2 ** c.n_qubits
    rows = np.arange(dim)
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        if g.kind == "measure":
            continue
        if g.kind == "cx":
            control, target = (n - 1 - q for q in g.qubits)
            u = u[rows ^ (((rows >> control) & 1) << target)]
        else:
            u = (matrix_of(g) @ u.reshape(2 ** g.qubits[0], 2, -1)).reshape(dim, dim)
    return u


def test_stacked_unitary_is_unitary_of():
    rng = np.random.default_rng(73)
    for _ in range(10):
        c = random_circuit(rng, 4, 15)
        assert np.allclose(stacked_unitary(c), unitary_of(c), atol=1e-12)


class TestSuffixWindow:
    """A sweep's settings templates are its compiled evolution with each
    placed suffix appended, simplified again: ``place_suffix`` places the
    suffix through the final layout, and simplifying the joined circuit
    gives the whole circuit's ``transpile`` exactly."""

    @pytest.mark.parametrize(
        "topology,layout",
        [(None, None), ("belem-like", None), ("nairobi-like", (0, 2, 4, 6))],
    )
    def test_equals_simplify_of_the_joined_circuit(self, topology, layout):
        rng = np.random.default_rng(71)
        topo = resolve_topology(topology)
        epsilons = DEFAULT_EPSILONS + tuple(float(e) for e in rng.uniform(-0.9, 0.9, 4))
        for eps in epsilons:
            base = build_evolution_circuit(eps, prepend_ground_prep=True)
            prefix = transpile(base, topo, layout)
            for trial in range(10):
                suffix = random_suffix(rng, prefix)
                placed = tuple(
                    Gate(g.kind, (prefix.final_layout[g.qubits[0]],), param=g.param, cbit=g.cbit)
                    for g in lower_to_basis(suffix).gates
                )
                assert place_suffix(suffix, prefix).gates == placed
                joined = Circuit(prefix.circuit.n_qubits, prefix.circuit.gates + placed)
                got = simplify(joined)
                full = transpile(Circuit(4, base.gates + suffix.gates), topo, layout).circuit
                assert got.gates == full.gates, (eps, suffix.gates)
                if trial < 2:
                    d = linear_distance(stacked_unitary(got), stacked_unitary(joined))
                    assert d <= 1e-10, (eps, suffix.gates)
                    assert got.measurements == full.measurements

    def test_suffix_undoing_the_trailing_run_removes_it(self):
        prefix = transpile(build_evolution_circuit(0.1, prepend_ground_prep=True),
                           Topology.preset("belem-like"))
        logical, run = next((logical, trailing_run(prefix.circuit, wire))
                            for logical, wire in enumerate(prefix.final_layout)
                            if trailing_run(prefix.circuit, wire))
        suffix = Circuit(4, tuple(undo_on(prefix.circuit, run, logical)))
        kept = tuple(g for i, g in enumerate(prefix.circuit.gates) if i not in run)
        assert simplify(Circuit(5, prefix.circuit.gates + place_suffix(suffix, prefix).gates)).gates == kept


def test_resynthesis_count_guard(monkeypatch):
    """Compiling the 13 default belem-like points one by one re-synthesises
    at most 260 single-qubit runs. Each point is a one-point sweep of three
    ``simplify`` calls, each with a memo of its own, so it makes 195: 15
    runs a point. An earlier compile took 520: every simplify re-synthesised
    every run twice, and the two rotated settings re-simplified the whole
    prefix."""
    calls = []
    original = transpiler._resynthesis

    def counted(run):
        calls.append(run)
        return original(run)

    monkeypatch.setattr(transpiler, "_resynthesis", counted)
    cfg = ExperimentConfig(topology="belem-like")
    for eps in DEFAULT_EPSILONS:
        compile_sweep(dataclasses.replace(cfg, epsilon_values=(eps,)))
    assert len(calls) <= 260


def test_a_sweep_resynthesises_each_distinct_run_once(monkeypatch):
    """Each of ``compile_sweep``'s three ``simplify`` calls resynthesises
    each distinct run once, whatever the number of points: the default
    belem-like sweep makes 15 calls. A memo lives for one ``simplify`` call,
    so a second sweep makes as many calls again."""
    calls = []
    original = transpiler._resynthesis

    def counted(run):
        calls.append(run)
        return original(run)

    monkeypatch.setattr(transpiler, "_resynthesis", counted)
    cfg = ExperimentConfig(topology="belem-like")
    compile_sweep(cfg)
    first = len(calls)
    compile_sweep(cfg)
    assert first <= 60
    assert len(calls) == 2 * first


def test_a_sweep_simplifies_as_many_circuits_as_one_point(monkeypatch):
    """A sweep simplifies one template per circuit a point runs, and each
    point's angles are lanes of them: the evolution, and the XY and YX
    settings circuits. (ZZ, IZ and ZI share the evolution's template with
    measurements after it, still a fixpoint.) So the 13 default belem-like
    points make as many ``simplify`` calls as one point. Nothing outlives a
    sweep, so a second sweep simplifies them again."""
    calls = []
    original = transpiler.simplify

    def counted(c):
        calls.append(c)
        return original(c)

    for module in (experiment, transpiler):
        monkeypatch.setattr(module, "simplify", counted)
    cfg = ExperimentConfig(topology="belem-like")
    compile_sweep(cfg)
    assert len(calls) == 3
    assert sum(c.has_measurements for c in calls) == 2
    compile_sweep(dataclasses.replace(cfg, epsilon_values=(0.01,)))
    assert len(calls) == 6


def _restart_cancel_cx_pairs(gates):
    """The oracle: cancel the first CNOT whose next gate on either of its
    wires is an identical CNOT, then start again from the first gate."""
    gates = list(gates)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(gates):
            if g.kind != "cx":
                continue
            for j in range(i + 1, len(gates)):
                if set(g.qubits) & set(gates[j].qubits):
                    if gates[j].kind == "cx" and gates[j].qubits == g.qubits:
                        del gates[j], gates[i]
                        changed = True
                    break
            if changed:
                break
    return gates


def test_cancel_cx_pairs_equals_the_restart_scan():
    """On seeded random CNOT-heavy circuits, half of them followed by their
    own reverse so that cancellations cascade, the one-scan cancellation
    keeps exactly the gates the restart scan keeps, in the same order."""
    rng = np.random.default_rng(83)
    removed = 0
    for trial in range(1500):
        n = int(rng.integers(2, 5))
        gates = []
        for _ in range(int(rng.integers(0, 14))):
            roll = rng.random()
            if roll < 0.7:
                gates.append(cx(*(int(q) for q in rng.choice(n, 2, replace=False))))
            elif roll < 0.85:
                gates.append(sx(int(rng.integers(n))))
            else:
                gates.append(rz(int(rng.integers(n)), 0.3))
        if trial % 2:
            gates += gates[::-1]
        want = _restart_cancel_cx_pairs(gates)
        assert transpiler._cancel_cx_pairs(gates) == want, gates
        removed += len(gates) - len(want)
    assert removed > 2500


def test_candidate_distance_is_linear_distance():
    """The drift guard's distance, from the scalar product of Rz, SX and X
    gates to a 2x2 unitary, is ``linear_distance`` of their ``matrix_of``
    product, to rounding, and on equal matrices up to phase it reads the
    rounding itself."""
    rng = np.random.default_rng(89)
    for trial in range(400):
        candidate = [("rz", float(rng.uniform(-4, 4))) if kind == "rz" else (str(kind), None)
                     for kind in rng.choice(["rz", "sx", "x"], int(rng.integers(0, 7)))]
        product = np.eye(2, dtype=complex)
        for kind, param in candidate:
            product = matrix_of(Gate(kind, (0,), param)) @ product
        if trial % 2:
            u = product * np.exp(1j * rng.uniform(0, 2 * math.pi))
            assert transpiler._candidate_distance(candidate, u) <= 1e-14
        else:
            u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        got = transpiler._candidate_distance(candidate, u)
        assert abs(got - linear_distance(product, u)) <= 1e-15


@pytest.mark.parametrize("error,drifts", [(1e-9, True), (1e-11, False)])
def test_the_drift_guard_refuses_a_wrong_resynthesis(monkeypatch, error, drifts):
    """A resynthesis whose kept Rz is off by ``error`` rad is error / sqrt(2)
    from the run in the guard's linear distance: 7.1e-10 is refused and
    7.1e-12 is let through, so the guard's 1e-10 bound holds a resynthesis
    to about 1.4e-10 rad. (Under the quadratic distance the same bound let
    3e-5 rad through, and the test used errors of 1e-4 and 1e-5 rad.)"""
    run = (("sx", None), ("rz", 0.7), ("sx", None), ("sx", None), ("x", None))
    assert transpiler._resynthesis(run) == (("sx", None), ("rz", 0.7))
    original = transpiler.turned

    def off(angle, k):
        return original(angle, k) + error

    # the one-rotation path keeps its Rz at ``turned(angle, k)``
    monkeypatch.setattr(transpiler, "turned", off)
    if drifts:
        with pytest.raises(RuntimeError, match="resynthesis drifted"):
            transpiler._resynthesis(run)
    else:
        assert transpiler._resynthesis(run) == (("sx", None), ("rz", 0.7 + error))


def test_a_run_of_several_rotations_is_left_as_it_is():
    """Only a run of quarter turns, or of quarter turns and one other Rz, has
    a canonical form; three other rotations keep their six gates."""
    run = Circuit(1, (rz(0, 0.3), sx(0), rz(0, 0.7), sx(0), rz(0, 1.1), sx(0)))
    assert transpiler._resynthesis(tuple((g.kind, g.param) for g in run.gates)) is None
    assert simplify(run).gate_counts() == (6, 0)


EDGE_ANGLES = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1e-13, -1e-13, 1e-7, -1e-7)


def test_simplify_keeps_the_unitary_and_never_grows():
    """On seeded random basis circuits whose Rz angles are often 0, +-pi/2,
    pi, 1e-13 or 1e-7, ``simplify`` keeps the unitary within 1e-10 in the
    linear distance and the measurements, never adds a gate of either kind,
    and is its own fixpoint. It shrinks more than 1000 of the 2000."""
    rng = np.random.default_rng(97)
    shrank = 0
    for trial in range(2000):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(int(rng.integers(1, 22))):
            roll = rng.random()
            q = int(rng.integers(n))
            if roll < 0.3 and n >= 2:
                gates.append(cx(*(int(p) for p in rng.choice(n, 2, replace=False))))
            elif roll < 0.6:
                angle = float(rng.uniform(-7, 7))
                if rng.random() < 0.6:
                    angle = EDGE_ANGLES[int(rng.integers(len(EDGE_ANGLES)))]
                gates.append(rz(q, angle))
            else:
                gates.append(sx(q) if roll < 0.85 else x(q))
        if trial % 4 == 0:
            gates += [measure(q, q) for q in range(n)]
        c = Circuit(n, tuple(gates))
        out = simplify(c)
        assert simplify(out).gates == out.gates, (trial, gates)
        assert all(new <= old for new, old in zip(out.gate_counts(), c.gate_counts())), (trial, gates)
        assert out.measurements == c.measurements
        assert linear_distance(stacked_unitary(out), stacked_unitary(c)) <= 1e-10, (trial, gates)
        shrank += len(out.gates) < len(gates)
    assert shrank > 1000
