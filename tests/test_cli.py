import argparse
import csv
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from gravopto import simulator, transpiler
from gravopto.cli import _build_parser, main
from gravopto.digitizer import build_evolution_circuit
from gravopto.experiment import RESULT_COLUMNS, ExperimentConfig
from gravopto.qasm import emit as qasm_emit
from gravopto.qasm import parse as qasm_parse
from gravopto.simulator import NoiseModel
from gravopto.tomography import calibrate_confusion
from gravopto.transpiler import Topology, transpile

from oracles import unitary_of
from test_circuit import linear_distance


def test_sweep_writes_outputs(tmp_path, capsys):
    rc = main([
        "sweep", "--epsilon", "0.001,0.01", "--analytic", "--shots", "50",
        "--no-transpile", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote " in out
    assert "2 points, mean fidelity 1.0000" in out
    header = open(tmp_path / "results.csv", newline="").readline().rstrip("\r\n")
    assert header == ",".join(RESULT_COLUMNS)
    report = json.load(open(tmp_path / "report.json"))
    assert [r["epsilon"] for r in report["results"]] == [0.001, 0.01]


def test_sweep_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epsilon_values": [0.01],
        "shots": 20,
        "analytic_mode": True,
        "transpile": False,
    }))
    rc = main([
        "sweep", "--config", str(cfg), "--shots", "30", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = json.load(open(tmp_path / "report.json"))
    assert report["results"][0]["shots"] == 30
    assert report["config"]["shots"] == 30


def test_run_flags_store_onto_their_fields(tmp_path, capsys):
    rc = main([
        "sweep", "--epsilon", "0.01,0.02", "--shots", "7", "--seed", "5",
        "--noise-preset", "nairobi-like", "--topology", "belem-like", "--no-mitigation",
        "--no-postselect", "--no-transpile", "--analytic", "--out-dir", str(tmp_path),
        "--export-qasm",
    ])
    assert rc == 0
    cfg = json.load(open(tmp_path / "report.json"))["config"]
    assert cfg == {
        "epsilon_values": [0.01, 0.02], "shots": 7, "seed": 5, "readout": 0.0306,
        "sq_depol": 3.28e-4, "cx_depol": 0.01492, "topology": "belem-like", "layout": None,
        "mitigation": False, "postselection": False, "transpile": False, "analytic_mode": True,
        "out_dir": str(tmp_path), "export_qasm": True,
    }


def test_layout_flag_stores_onto_the_layout_field(tmp_path, capsys):
    run = ["sweep", "--epsilon", "0.01", "--analytic", "--topology", "nairobi-like",
           "--out-dir", str(tmp_path)]
    assert main(run + ["--layout", "0,2,4,6"]) == 0
    assert json.load(open(tmp_path / "report.json"))["config"]["layout"] == [0, 2, 4, 6]
    capsys.readouterr()
    assert main(run + ["--layout", "0,x,4,6"]) == 2
    assert capsys.readouterr().err.startswith("config error: layout: '0,x,4,6'")

@pytest.mark.parametrize("command", ["sweep", "tomography"])
def test_every_run_flag_is_stored_under_a_config_field(command):
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"config", "noise_preset"}
    dests = {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}
    assert dests <= allowed


def test_sweep_export_qasm(tmp_path, capsys):
    rc = main([
        "sweep", "--epsilon", "0.01", "--analytic", "--shots", "10",
        "--out-dir", str(tmp_path), "--export-qasm",
    ])
    assert rc == 0
    circ = qasm_parse(open(tmp_path / "circuit_00.qasm").read())
    assert circ.n_qubits == 4


def test_sweep_export_qasm_is_the_transpiled_evolution(tmp_path, capsys):
    epsilons, layout = (1e-3, 0.3), (0, 2, 4, 6)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epsilon_values": list(epsilons), "topology": "nairobi-like", "layout": list(layout),
    }))
    rc = main([
        "sweep", "--config", str(cfg), "--analytic", "--shots", "10",
        "--out-dir", str(tmp_path), "--export-qasm",
    ])
    assert rc == 0
    topo = Topology.preset("nairobi-like")
    for i, eps in enumerate(epsilons):
        evolution = build_evolution_circuit(eps, prepend_ground_prep=True)
        want = qasm_emit(transpile(evolution, topo, layout).circuit)
        assert (tmp_path / f"circuit_{i:02d}.qasm").read_bytes() == want.encode("utf-8")


def test_a_routed_export_transpiles_back_unchanged(tmp_path, capsys):
    """A SWAP-routed sweep's QASM export is placed on all 7 device qubits.
    ``transpile`` takes a circuit as wide as the device as already placed
    (it routes it from the identity), so each point reads back with the
    CNOT count of its row, and no SWAP. Placed again by the hub layout it
    would take 138 CNOTs instead of 81."""
    rc = main(["sweep", "--analytic", "--topology", "nairobi-like", "--layout", "0,2,4,6",
               "--export-qasm", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = list(csv.DictReader(open(tmp_path / "results.csv")))
    assert len(rows) == 13
    capsys.readouterr()
    for i, row in enumerate(rows):
        path = tmp_path / f"circuit_{i:02d}.qasm"
        assert main(["transpile", str(path), "--topology", "nairobi-like"]) == 0
        captured = capsys.readouterr()
        assert f"cnot_gates={row['cnot_gates']}" in captured.err
        assert qasm_parse(captured.out).gate_counts()[1] == int(row["cnot_gates"]) == 81


def test_sweep_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"shotz": 5}')
    rc = main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: config:")
    assert not os.path.exists(tmp_path / "results.csv")


@pytest.mark.parametrize("text", [
    '{"n": 5}', "not json", '{"n": 3, "edges": [[0, 0]]}',
    '{"n": 5.9, "edges": [[0, 1.7], [1, 2], [1, 3], [3, 4]]}', '{"n": true, "edges": []}',
    '{"n": 1000000000, "edges": [[0, 1], [1, 2], [2, 3]]}',
], ids=["no-edges", "not-json", "self-loop", "fractional", "bool-size", "over-the-limit"])
@pytest.mark.parametrize("command", [
    ["sweep", "--epsilon", "0.01", "--analytic", "--shots", "10"],
    ["tomography", "--epsilon", "0.01", "--analytic", "--shots", "10"],
    ["circuit", "--transpile"],
    ["transpile"],
], ids=["sweep", "tomography", "circuit", "transpile"])
def test_malformed_topology_file_is_a_config_error(command, text, tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(text)
    if command == ["transpile"]:
        src = tmp_path / "in.qasm"
        src.write_text(qasm_emit(build_evolution_circuit(0.1)))
        command = command + [str(src)]
    out = tmp_path / "out"
    rc = main(command + ["--topology", str(topo)]
              + (["--out-dir", str(out)] if command[0] == "sweep" else []))
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: topology: {str(topo)!r}")
    assert captured.out == ""
    assert not os.path.exists(out)


def test_a_topology_over_the_qubit_limit_is_worded_as_the_limit(tmp_path, capsys):
    """A well-formed file whose qubit count only exceeds the limit is a
    config error about its size, not a malformed file."""
    topo = tmp_path / "huge.json"
    topo.write_text('{"n": 1000000000, "edges": [[0, 1], [1, 2], [2, 3]]}')
    rc = main(["sweep", "--analytic", "--epsilon", "0.01", "--topology", str(topo),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"config error: topology: {str(topo)!r} is too large "
                   "(n: 1000000000 qubits exceed the limit of 65536)\n")
    assert "is not a topology file" not in err


def test_sweep_rejects_malformed_epsilon(capsys):
    rc = main(["sweep", "--epsilon", "abc", "--analytic"])
    assert rc == 2
    assert "epsilon_values" in capsys.readouterr().err


def test_tomography_prints_one_row(capsys):
    rc = main([
        "tomography", "--epsilon", "0.01", "--analytic", "--shots", "10",
        "--no-transpile",
    ])
    assert rc == 0
    row = json.loads(capsys.readouterr().out)
    assert set(row) == set(RESULT_COLUMNS)
    assert row["epsilon"] == 0.01
    assert row["fidelity"] == pytest.approx(1.0, abs=1e-6)


def test_tomography_rejects_several_epsilons(capsys):
    rc = main([
        "tomography", "--epsilon", "0.01,0.002", "--analytic", "--shots", "10",
        "--no-transpile",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert "epsilon_values" in captured.err
    assert captured.out == ""


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    rc = main([
        "sweep", "--epsilon", "0.01", "--analytic", "--shots", "10", "--seed", "-1",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "results.csv")


@pytest.mark.parametrize("command", [["sweep"], ["tomography", "--epsilon", "0.01"]])
def test_more_shots_than_the_multinomial_draws_is_a_config_error(command, tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--shots", "100000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: shots: 100000000000000000000 is not ")
    assert captured.out == "" and os.listdir(tmp_path) == []


def test_the_largest_shot_count_is_drawn(capsys):
    assert main(["calibrate", "--n-bits", "1", "--shots", str(2**63 - 1), "--seed", "3"]) == 0
    matrix = np.array(json.loads(capsys.readouterr().out)["matrix"])
    assert abs(matrix.sum(axis=0) - 1).max() <= 1e-12


def test_postselection_keeping_nothing_is_a_config_error(tmp_path, capsys):
    # at this seed the one mitigated shot of ZZ has no weight in the physical
    # subspace; Philox draws it alike on every platform
    flags = ["sweep", "--noise-preset", "nairobi-like", "--shots", "1", "--seed", "1",
             "--epsilon=0.001", "--out-dir", str(tmp_path)]
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: shots: 1 ")
    for part in ("ZZ", "epsilon 0.001", "--no-postselect"):
        assert part in err
    assert not os.path.exists(tmp_path / "results.csv")
    assert main(flags + ["--no-postselect"]) == 0


@pytest.mark.parametrize("config,field", [
    ({"topology": "belem-like", "layout": 5}, "layout"),
    ({"topology": "belem-like", "layout": [0, 1, "x", 3]}, "layout"),
    ({"epsilon_values": 0.1}, "epsilon_values"),
    ({"epsilon_values": [False, 0.01]}, "epsilon_values"),
    ({"epsilon_values": ["0.01"]}, "epsilon_values"),
    ({"shots": "many"}, "shots"),
    ({"topology": ["belem-like"]}, "topology"),
    ({"mitigation": "no", "readout": 0.02}, "mitigation"),
    ({"postselection": 0}, "postselection"),
    ({"transpile": "false"}, "transpile"),
    ({"export_qasm": None}, "export_qasm"),
    ({"out_dir": 5}, "out_dir"),
    ({"out_dir": ["a"]}, "out_dir"),
    ({"topology": "belem-like", "layout": [1, 0.9, 2, 3.99]}, "layout"),
    ({"topology": "belem-like", "layout": [0, True, 2, 3]}, "layout"),
], ids=["layout-not-a-list", "layout-not-a-qubit", "epsilons-not-a-list", "epsilon-a-bool",
        "epsilon-a-string", "shots-not-a-number",
        "topology-not-a-name", "mitigation-a-string", "postselection-a-number",
        "transpile-a-string", "export-qasm-null", "out-dir-a-number", "out-dir-a-list",
        "layout-fractional", "layout-a-bool"])
def test_config_of_the_wrong_type_is_a_config_error(config, field, tmp_path, capsys, monkeypatch):
    # no --out-dir, which would override the config's: outputs go to the cwd
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["sweep", "--config", str(cfg), "--analytic"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")
    assert not os.path.exists(tmp_path / "results.csv")


def test_string_mitigation_is_not_read_as_true(tmp_path, capsys):
    # any non-empty string is truthy, so "no" used to run with mitigation on
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mitigation": "no", "readout": 0.02}')
    rc = main(["sweep", "--config", str(cfg), "--analytic", "--epsilon", "0.01",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: mitigation:")
    assert not os.path.exists(tmp_path / "results.csv")


def test_layout_off_the_topology_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"topology": "belem-like", "layout": [0, 1, 2, 9]}')
    rc = main([
        "sweep", "--config", str(cfg), "--epsilon", "0.01", "--shots", "10",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "layout" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "results.csv")


# device graphs no 4-qubit circuit can run on, each with the field named:
# too few qubits, a hub whose component is too small, a layout over two
# components (``circuit`` takes no layout, so it has only the first two)
BAD_GRAPHS = {
    "three-qubits": ({"n": 3, "edges": [[0, 1], [1, 2]]}, None, "topology"),
    "split-hub": ({"n": 6, "edges": [[0, 1], [1, 2], [3, 4], [4, 5]]}, None, "topology"),
    "split-layout": ({"n": 8, "edges": [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [6, 7]]},
                     [0, 1, 4, 5], "layout"),
}


@pytest.mark.parametrize("command,graph", [
    (command, graph) for command in ("sweep", "tomography", "circuit", "transpile")
    for graph in BAD_GRAPHS if not (command == "circuit" and BAD_GRAPHS[graph][1])
])
def test_bad_device_graph_is_a_config_error_before_compiling(command, graph, tmp_path,
                                                             capsys, monkeypatch):
    edges, layout, field = BAD_GRAPHS[graph]
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps(edges))
    out = tmp_path / "out"
    if command in ("sweep", "tomography"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topology": str(topo), "layout": layout}))
        args = [command, "--config", str(cfg), "--epsilon", "0.01", "--analytic"]
        args += ["--out-dir", str(out)] if command == "sweep" else []
    elif command == "circuit":
        args = ["circuit", "--transpile", "--topology", str(topo)]
    else:
        src = tmp_path / "in.qasm"
        src.write_text(qasm_emit(build_evolution_circuit(0.1)))
        args = ["transpile", str(src), "--topology", str(topo)]
        args += ["--layout", ",".join(map(str, layout))] if layout else []

    def refuse(*args, **kwargs):
        pytest.fail("a circuit was compiled for a device graph that cannot run it")

    monkeypatch.setattr(transpiler, "lower_to_basis", refuse)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {field}:")
    assert captured.out == ""
    assert not os.path.exists(out)


# a sweep checks its device whether or not it transpiles: a missing topology
# file, a layout off the device and a hub component of 3 qubits are config
# errors under --no-transpile too
UNCOMPILED_DEVICES = {
    "missing-file": ({"topology": "missing.json"}, "topology"),
    "layout-off-device": ({"topology": "belem-like", "layout": [0, 1, 2, 7]}, "layout"),
    "three-qubits": ({"topology": "three.json"}, "topology"),
}


@pytest.mark.parametrize("case", UNCOMPILED_DEVICES)
@pytest.mark.parametrize("command", ["sweep", "tomography"])
def test_a_device_is_checked_without_transpiling(command, case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "three.json").write_text(json.dumps(BAD_GRAPHS["three-qubits"][0]))
    fields, field = UNCOMPILED_DEVICES[case]
    (tmp_path / "cfg.json").write_text(json.dumps(fields))
    args = [command, "--config", "cfg.json", "--epsilon", "0.01", "--analytic", "--no-transpile"]
    assert main(args + (["--out-dir", "out"] if command == "sweep" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {field}:")
    assert captured.out == ""
    assert not list(tmp_path.rglob("results.csv"))


def test_a_pass_above_the_dense_limit_exits_3_before_allocation(tmp_path, monkeypatch, capsys):
    topo = tmp_path / "line20.json"
    topo.write_text(json.dumps({"n": 20, "edges": [[i, i + 1] for i in range(19)]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"topology": str(topo), "layout": [0, 6, 12, 19], "cx_depol": 0.01}))

    def refuse(*args, **kwargs):
        pytest.fail("a pass over 20 touched qubits was started")

    monkeypatch.setattr(simulator, "_Kernel", refuse)
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    assert "20 touched qubits" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_tomography_requires_epsilon(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["tomography"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["sweep", "tomography", "calibrate"])
def test_an_unknown_noise_preset_exits_2(command, capsys):
    # the command line is the one place a preset's rates are merged
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--noise-preset", "sycamore-like"])
    assert excinfo.value.code == 2
    assert "'sycamore-like'" in capsys.readouterr().err


class TestCircuitCommand:
    def test_stdout_round_trip(self, capsys):
        assert main(["circuit", "--epsilon", "0.05"]) == 0
        circ = qasm_parse(capsys.readouterr().out)
        want = unitary_of(build_evolution_circuit(0.05, prepend_ground_prep=True))
        assert linear_distance(unitary_of(circ), want) <= 1e-10

    def test_no_ground_prep(self, capsys):
        assert main(["circuit", "--epsilon", "0.05", "--no-ground-prep"]) == 0
        circ = qasm_parse(capsys.readouterr().out)
        want = unitary_of(build_evolution_circuit(0.05))
        assert linear_distance(unitary_of(circ), want) <= 1e-10

    def test_transpiled_onto_preset(self, capsys):
        rc = main([
            "circuit", "--epsilon", "0.1", "--transpile", "--topology", "belem-like",
        ])
        assert rc == 0
        circ = qasm_parse(capsys.readouterr().out)
        assert circ.n_qubits == 5
        single, cnots = circ.gate_counts()
        assert cnots == 24
        assert single <= 40
        topo = Topology.preset("belem-like")
        for g in circ.gates:
            if g.kind == "cx":
                assert tuple(sorted(g.qubits)) in topo.edges

    def test_topology_needs_transpile(self, capsys):
        rc = main(["circuit", "--topology", "belem-like"])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_epsilon_out_of_range_is_a_config_error(self, capsys):
        assert main(["circuit", "--epsilon", "1.5"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "evo.qasm"
        assert main(["circuit", "--epsilon", "0.2", "--out", str(dest)]) == 0
        assert qasm_parse(dest.read_text()).n_qubits == 4


class TestTranspileCommand:
    @staticmethod
    def write_input(tmp_path):
        src = tmp_path / "in.qasm"
        src.write_text(qasm_emit(build_evolution_circuit(0.1, prepend_ground_prep=True)))
        return src

    def test_round_trip_and_summary(self, tmp_path, capsys):
        src = self.write_input(tmp_path)
        assert main(["transpile", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("single_qubit_gates=")
        assert "cnot_gates=24" in captured.err
        circ = qasm_parse(captured.out)
        want = unitary_of(build_evolution_circuit(0.1, prepend_ground_prep=True))
        assert linear_distance(unitary_of(circ), want) <= 1e-10

    def test_out_file_puts_summary_on_stdout(self, tmp_path, capsys):
        src = self.write_input(tmp_path)
        dest = tmp_path / "out.qasm"
        assert main(["transpile", str(src), "--out", str(dest)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("single_qubit_gates=")
        assert dest.exists()

    def test_topology_and_layout(self, tmp_path, capsys):
        src = self.write_input(tmp_path)
        rc = main([
            "transpile", str(src), "--topology", "belem-like", "--layout", "1,0,2,3",
        ])
        assert rc == 0
        circ = qasm_parse(capsys.readouterr().out)
        assert circ.n_qubits == 5
        topo = Topology.preset("belem-like")
        for g in circ.gates:
            if g.kind == "cx":
                assert tuple(sorted(g.qubits)) in topo.edges

    @pytest.mark.parametrize("layout", ["0,1,1,2", "0,1,2,9", "0,1,2", "a,b,c,d", "1,0.9,2,3"])
    def test_bad_layout_is_a_config_error(self, layout, tmp_path, capsys):
        src = self.write_input(tmp_path)
        rc = main(["transpile", str(src), "--topology", "belem-like", "--layout", layout])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: layout:")
        assert captured.out == ""

    def test_layout_without_topology(self, tmp_path, capsys):
        src = self.write_input(tmp_path)
        assert main(["transpile", str(src), "--layout", "0,1,2,3"]) == 2

    def test_missing_input_exits_2(self, tmp_path, capsys):
        # bad input, as a missing --config is: a missing file, then a directory
        for path in (tmp_path / "nope.qasm", tmp_path):
            assert main(["transpile", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: input: [Errno")
            assert captured.out == ""

    @pytest.mark.parametrize("statement", [b"rz(nan) q[0]", b"rz(inf) q[0]", b"rx(-inf) q[0]",
                                           b"u1(nan) q[0]", b"ccx q[0],q[1],q[2]", b"rz(\xff) q[0]",
                                           b"cx q[0]"])
    def test_a_file_it_cannot_parse_is_a_config_error(self, statement, tmp_path, capsys):
        src = tmp_path / "bad.qasm"
        src.write_bytes(b"OPENQASM 2.0;\nqreg q[3];\n" + statement + b";\nsx q[0];\n")
        assert main(["transpile", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: input:")
        assert captured.out == ""
        if statement.isascii():  # text that decodes: the refusal quotes its statement
            assert repr(statement.decode()) in captured.err


class TestCalibrateCommand:
    def test_analytic_matrix(self, capsys):
        rc = main(["calibrate", "--n-bits", "2", "--readout", "0.1", "--shots", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_bits"] == 2
        assert payload["readout"] == 0.1
        assert payload["shots"] == 0
        m = np.array(payload["matrix"])
        single = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert np.allclose(m, np.kron(single, single), atol=1e-12)

    def test_default_preset_rate(self, capsys):
        assert main(["calibrate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["readout"] == 0.0211
        assert len(payload["matrix"]) == 16

    def test_sampled_is_seeded(self, capsys):
        args = ["calibrate", "--n-bits", "2", "--readout", "0.1",
                "--shots", "500", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        m = np.array(json.loads(first)["matrix"])
        assert np.allclose(m.sum(axis=0), 1.0)

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "cm.json"
        rc = main(["calibrate", "--n-bits", "1", "--out", str(dest)])
        assert rc == 0
        payload = json.loads(dest.read_text())
        assert len(payload["matrix"]) == 2

    def test_dense_matrix_is_written_one_row_per_line(self, tmp_path, capsys):
        """At 10 bits the exact matrix goes out as 2**10 row lines plus 7 (the
        braces, the matrix's brackets and the three other fields), and reads
        back as the matrix itself, entry for entry."""
        dest = tmp_path / "cal10.json"
        assert main(["calibrate", "--n-bits", "10", "--shots", "0", "--out", str(dest)]) == 0
        text = dest.read_text()
        assert len(text.splitlines()) <= 2 ** 10 + 7
        payload = json.loads(text)
        want = calibrate_confusion(10, NoiseModel(readout=0.0211))
        assert payload["matrix"] == want.tolist()
        assert (payload["n_bits"], payload["readout"], payload["shots"]) == (10, 0.0211, 0)

    @staticmethod
    def joined(n_bits: int, rate: float, shots: int, seed: int) -> str:
        """The calibrate output as the whole matrix's Python floats joined
        into one string, each distinct entry's repr made once."""
        confusion = calibrate_confusion(n_bits, NoiseModel(readout=rate), shots=shots or None, seed=seed)
        cells: dict = {}
        rows = ",\n".join(
            "    [" + ", ".join([cells.get(v) or cells.setdefault(v, repr(v)) for v in row]) + "]"
            for row in confusion.tolist())
        rest = json.dumps({"n_bits": n_bits, "readout": rate, "shots": shots}, indent=2, sort_keys=True)
        return '{\n  "matrix": [\n' + rows + "\n  ]," + rest[1:] + "\n"

    @pytest.mark.parametrize("shots", [0, 200])
    def test_streamed_rows_are_the_joined_output(self, tmp_path, capsys, shots):
        """Written row by row, the output has the bytes of the matrix joined
        at once, for 1 to 8 bits, exact and sampled, to a file and to stdout."""
        for n_bits in range(1, 9):
            dest = tmp_path / f"cal{n_bits}.json"
            args = ["calibrate", "--n-bits", str(n_bits), "--shots", str(shots), "--seed", str(n_bits)]
            assert main(args + ["--out", str(dest)]) == 0
            want = self.joined(n_bits, 0.0211, shots, n_bits)
            assert dest.read_bytes() == want.encode()
        assert main(args) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("shots", ["0", "100"])
    def test_a_10_bit_calibration_peaks_below_twice_its_matrix(self, tmp_path, shots):
        """The 8 MiB matrix of 2**10 x 2**10 floats is written a row at a time:
        Python allocations peak below 2 x 8 MiB (about 10.3 MiB measured, where
        the whole matrix as Python floats joined into one string peaked at
        77.5 MiB exact and 46 MiB sampled)."""
        tracemalloc.start()
        try:
            assert main(["calibrate", "--n-bits", "10", "--shots", shots, "--seed", "1",
                         "--out", str(tmp_path / "cal10.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 2 ** 20

    @pytest.mark.parametrize(
        "flags,field", [(["--n-bits", "0"], "n_bits"), (["--shots", "-5"], "shots"),
                        (["--readout", "0.7"], "readout"), (["--readout", "-0.1"], "readout"),
                        # the seed and a sampled shot count by the config's rules
                        (["--shots", "10", "--seed", "-1"], "seed"), (["--seed", "-1"], "seed"),
                        (["--shots", str(2**63)], "shots")]
    )
    def test_bad_input_is_a_config_error(self, flags, field, capsys):
        assert main(["calibrate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {field}: ")
        assert captured.out == ""

    def test_dense_limit_exits_3_before_allocation(self, monkeypatch, capsys):
        def refuse(*args):
            pytest.fail("a 2**40-dimensional confusion matrix was requested")

        # the matrix is a Kronecker product of one 2x2 flip per bit, sampled or not
        monkeypatch.setattr(np, "kron", refuse)
        for shots in ("0", "5"):
            assert main(["calibrate", "--n-bits", "40", "--shots", shots]) == 3
            assert "n_bits" in capsys.readouterr().err
