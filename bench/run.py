"""gravopto benchmark: in-process CLI sweeps, one process, one thread.

Run one workload (the last stdout line is a JSON result)::

    python3 bench/run.py --workload readout-belem --seed 11 --seconds 20 --trace 0

Run every workload and print a table (exits non-zero on any failed check)::

    python3 bench/run.py --all --seed 11

See bench/README.md for the workloads, the metrics and what each measures.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks  # bench/ is sys.path[0] when run as a script
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = sorted(p.stem for p in (BENCH / "workloads").glob("*.json"))

# BLAS pools are sized when numpy loads, so these are set before that
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"sweep_per_probe": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_SWEEPS = 2          # an untraced run times at least this many sweeps
MIN_TRACED = 1          # a traced run makes at least this many sweep pairs
SETUP_RUNS = 5          # fresh interpreters per run for setup_s
# shots per setting in a setup_s process. With a single shot, post-selection
# drops every shot of a Z-type setting on 1 to 2% of seeds, and the sweep
# then has no weight left to average and exits non-zero. 32 shots keep that
# chance negligible (about 0.14**32 per setting on noisy-belem) and still
# take the mitigation fallback, so the lazy scipy import stays in setup_s.
SETUP_SHOTS = 32
RUN_BUDGET_S = 120.0    # no new sweep starts once this much time has passed
PROBE_GATES = 100       # size of the speed probe's work, about 5 ms
PROBE_INTERVAL_S = 0.125  # wall time between speed probes
SETUP_TIMEOUT_S = 30.0  # a setup process slower than this counts as failed
WORKLOAD_TIMEOUT_S = 300.0  # per workload under --all


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken program)."""


def load_program():
    """Import gravopto from this checkout's src/, never from site-packages."""
    if not (SRC / "gravopto" / "__init__.py").is_file():
        raise BenchError(f"no gravopto sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gravopto
    import gravopto.cli
    import gravopto.experiment
    import gravopto.qasm
    import gravopto.transpiler

    origin = Path(gravopto.__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"gravopto imported from {origin}, not from {SRC}")
    return gravopto


def routed_swaps(gravopto, cfg: dict) -> int:
    """SWAPs the router inserts into the evolution circuit for cfg's layout."""
    if not cfg.get("layout"):
        return 0
    from gravopto.digitizer import build_evolution_circuit
    from gravopto.experiment import resolve_topology
    from gravopto.transpiler import Layout, lower_to_basis, route

    # the gate sequence, unlike the angles, does not depend on epsilon
    lowered = lower_to_basis(build_evolution_circuit(1e-3, prepend_ground_prep=True))
    routed = route(lowered, resolve_topology(cfg["topology"]), Layout(tuple(cfg["layout"])))
    cx_in = sum(1 for g in lowered.gates if g.kind == "cx")
    cx_out = sum(1 for g in routed.circuit.gates if g.kind == "cx")
    return (cx_out - cx_in) // 3


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        sha = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
        "src_lines": src_lines,
    }


class Workload:
    """One workload's configs and the sweeps run on them."""

    def __init__(self, name: str, seed: int, run_dir: Path, gravopto):
        self.name = name
        self.run_dir = run_dir
        base = json.loads((BENCH / "workloads" / f"{name}.json").read_text(encoding="utf-8"))
        base["seed"] = seed
        one_point = [gravopto.experiment.DEFAULT_EPSILONS[-1]]
        self.configs = {
            "sweep": base,
            # the warm-up runs every code path once, at the real shot count
            "warmup": dict(base, epsilon_values=one_point),
            # setup_s: one point, few shots, so start-up costs dominate
            "setup": dict(base, epsilon_values=one_point, shots=SETUP_SHOTS),
        }
        for key, cfg in self.configs.items():
            write_json(self.config_path(key), cfg)
        self.program = SimpleNamespace(
            epsilons=list(gravopto.experiment.DEFAULT_EPSILONS),
            qasm_parse=gravopto.qasm.parse,
            swaps=routed_swaps(gravopto, base),
        )
        self.csv_reference: bytes | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def config_path(self, key: str) -> Path:
        return self.run_dir / f"config-{key}.json"

    def out_dir(self, key: str) -> Path:
        return self.run_dir / f"out-{key}"

    def sweep(self, cli_main, key: str = "sweep", probe=None) -> tuple[int, float]:
        """One closed-loop ``gravopto sweep`` call; returns (exit code, wall s).

        The wall time leaves out the time ``probe`` (a SpeedProbe) took.
        """
        out = self.out_dir(key)
        shutil.rmtree(out, ignore_errors=True)
        argv = ["sweep", "--config", str(self.config_path(key)), "--out-dir", str(out)]
        sink = io.StringIO()
        probed = probe.spent if probe is not None else 0.0
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli_main(argv)
            wall = time.perf_counter() - start
        if probe is not None:
            wall -= probe.spent - probed
        if code != 0:
            self.problems.append(f"{key}: exit {code}: {sink.getvalue().strip()[-300:]}")
        return code, wall

    def check(self, code: int, key: str = "sweep", label: str = "") -> None:
        """Count the points of the sweep just run and the ones that failed."""
        cfg = self.configs[key]
        points = checks.check_sweep(self.name, cfg, str(self.out_dir(key)), self.program,
                                    whole_grid=key == "sweep")
        if code != 0:
            points = [f"exit code {code}"] * len(points)
        self.attempted += len(points)
        bad = [p for p in points if p is not None]
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{label or key}: {len(bad)} points failed, first: {bad[0]}")
        if key != "sweep":
            return
        csv_path = self.out_dir(key) / "results.csv"
        data = csv_path.read_bytes() if csv_path.exists() else b""
        if self.csv_reference is None:
            self.csv_reference = data
        elif data != self.csv_reference:
            self.problems.append(f"{label or key}: results.csv differs from the first sweep")

    def setup_times(self) -> list[float]:
        """Wall times of fresh ``python -m gravopto.cli sweep`` processes."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        argv = [sys.executable, "-m", "gravopto.cli", "sweep",
                "--config", str(self.config_path("setup")),
                "--out-dir", str(self.out_dir("setup"))]
        times = []
        for _ in range(SETUP_RUNS):
            shutil.rmtree(self.out_dir("setup"), ignore_errors=True)
            start = time.perf_counter()
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                      timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                times.append(time.perf_counter() - start)
                self.problems.append(f"setup: no exit within {SETUP_TIMEOUT_S} s")
                self.attempted += 1
                self.failed += 1
                break
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                self.problems.append(f"setup: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            self.check(proc.returncode, "setup")
        return times


def keep_going(started: float, seconds: float, walls: list[float], minimum: int) -> bool:
    """Whether to start another sweep: until ``seconds`` and ``minimum`` are met."""
    elapsed = time.perf_counter() - started
    if not walls:
        return True
    if elapsed + statistics.median(walls) > RUN_BUDGET_S:
        return False
    return len(walls) < minimum or elapsed < seconds


class SpeedProbe:
    """Times a small fixed piece of work every PROBE_INTERVAL_S of wall time.

    The host's speed drifts by tens of percent over seconds to minutes. A
    SIGALRM timer runs the probe at even intervals while sweeps run, so its
    samples see the same mix of fast and slow spells as the sweeps do. The
    work is 2x2 gates applied to a 5-qubit state by ``tensordot``, small
    matrix-vector products and a dict loop, about 5 ms on a 2-core x86 box.
    Over 8-s windows its time moves in proportion to each workload's sweep
    time; passes over large arrays and gather loads moved less, so they are
    left out. The probe calls no gravopto code and draws from its own
    generator, so a change to the program leaves it as it is. ``spent`` is
    the wall time the probes took, which ``Workload.sweep`` subtracts.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._gate = rng.standard_normal((2, 2)) + 0j
        self._state = np.exp(1j * rng.standard_normal((2,) * 5))
        self._mat, self._vec = rng.standard_normal((16, 16)), rng.standard_normal(16)
        self.samples: list[float] = []
        self.spent = 0.0
        self._work()  # first-call costs

    def _work(self) -> float:
        np = self._np
        state = self._state
        table: dict[int, int] = {}
        acc = 0.0
        start = time.perf_counter()
        for k in range(PROBE_GATES):
            axis = k % 5
            state = np.moveaxis(np.tensordot(self._gate, state, axes=([1], [axis])), 0, axis)
        for _ in range(PROBE_GATES * 6):
            acc += float((self._mat @ self._vec)[0])
        for i in range(PROBE_GATES * 40):
            table[i & 255] = table.get(i & 255, 0) + i
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._work())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def measure_end_to_end(wl: Workload, gravopto, seconds: float) -> tuple[dict, dict]:
    """Closed-loop sweeps with the speed probe running beside them."""
    cli_main = gravopto.cli.main
    setup = wl.setup_times()
    walls: list[float] = []
    with SpeedProbe() as probe:
        started = time.perf_counter()
        while keep_going(started, seconds, walls, MIN_SWEEPS):
            code, wall = wl.sweep(cli_main, probe=probe)
            walls.append(wall)
            wl.check(code, label=f"sweep {len(walls)}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        # both means are time integrals over the same fast and slow spells
        "sweep_per_probe": statistics.mean(walls) / statistics.mean(probe.samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    details = {"sweep_s": statistics.median(walls), "sweep_s_samples": walls,
               "probe_s_samples": probe.samples, "setup_s_samples": setup}
    return metrics, details


def measure_per_layer(wl: Workload, gravopto, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced sweeps; per-layer medians over traced ones."""
    plain: list[float] = []
    traced: list[dict] = []
    spans: list[dict] = []
    absent: set[str] = set()
    started = time.perf_counter()
    while keep_going(started, seconds, plain, MIN_TRACED):
        code, wall = wl.sweep(gravopto.cli.main)
        plain.append(wall)
        wl.check(code, label=f"untraced sweep {len(plain)}")
        with tracer.Tracer(trace_id=len(traced)) as tr:
            # the attribute lookup happens here, so it finds the wrapper
            code, wall = wl.sweep(gravopto.cli.main)
        absent.update(tr.absent)
        traced.append(tracer.layer_metrics(tr.spans, wall))
        spans.extend(tracer.span_dicts(tr.spans))
        wl.check(code, label=f"traced sweep {len(traced)}")
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - statistics.median(plain)
    write_json(wl.run_dir / "spans.json", spans)
    details = {"untraced_sweep_s_samples": plain,
               "traced_sweep_s_samples": [m["trace.sweep_s"] for m in traced],
               "absent_layers": sorted(absent)}
    return metrics, details


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The run's result line and its metadata."""
    gravopto = load_program()
    run_dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = Workload(name, seed, run_dir, gravopto)

    # first calls, lazy imports and caches settle before anything is timed
    code, _ = wl.sweep(gravopto.cli.main, "warmup")
    wl.check(code, "warmup")
    if trace:
        metrics, details = measure_per_layer(wl, gravopto, seconds)
        units = tracer.LAYER_UNITS
    else:
        metrics, details = measure_end_to_end(wl, gravopto, seconds)
        units = END_TO_END_UNITS

    meta = run_metadata(seed)
    meta.update(details)
    meta.update(workload=name, trace=trace, seconds=seconds,
                attempted_points=wl.attempted, failed_points=wl.failed,
                error_rate=wl.failed / wl.attempted, problems=wl.problems)
    write_json(run_dir / "meta.json", meta)
    write_json(run_dir / "metrics.json", metrics)
    result = {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, meta


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; print a table; 1 if any check failed."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {WORKLOAD_TIMEOUT_S} s")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        error_rate = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} "
              f"error_rate={error_rate:.4g} ratio ({result['failed']}/{result['attempted']} points)")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
        if not result["correct"]:
            print("\n".join(f"  {line}" for line in lines if line.startswith("problem:")))
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result, meta = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for problem in meta["problems"]:
        print(f"problem: {problem}")
    print("meta: " + json.dumps({k: v for k, v in meta.items() if not k.endswith("_samples")},
                                sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
