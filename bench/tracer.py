"""Outside-in tracing of gravopto's layers.

The tracer wraps public functions of the package in every ``gravopto.*``
module namespace that holds them, so both ``from .x import f`` callers and
callers inside the defining module go through the wrapper. Nothing under
``src/`` is edited. ``scipy.optimize.minimize`` is wrapped as well, to see the
readout-mitigation fallback.

Spans are kept in memory as ``Span`` records with parent links and turned
into per-layer metrics (``layer_metrics``) and a JSON dump (``span_dicts``)
after the traced sweep returns.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import asdict, dataclass, field

# span name -> (module that defines the function, attribute name)
TRACED = {
    "cli.main": ("gravopto.cli", "main"),
    "experiment.run_sweep": ("gravopto.experiment", "run_sweep"),
    "experiment.run_point": ("gravopto.experiment", "run_point"),
    "experiment.emit_outputs": ("gravopto.experiment", "emit_outputs"),
    "digitizer.build_evolution_circuit": ("gravopto.digitizer", "build_evolution_circuit"),
    "tomography.measurement_circuits": ("gravopto.tomography", "measurement_circuits"),
    "tomography.calibrate_confusion": ("gravopto.tomography", "calibrate_confusion"),
    "tomography.mitigate": ("gravopto.tomography", "mitigate"),
    "tomography.postselect": ("gravopto.tomography", "postselect"),
    "tomography.estimate_traces": ("gravopto.tomography", "estimate_traces"),
    "transpiler.lower_to_basis": ("gravopto.transpiler", "lower_to_basis"),
    "transpiler.route": ("gravopto.transpiler", "route"),
    "transpiler.simplify": ("gravopto.transpiler", "simplify"),
    "transpiler.transpile": ("gravopto.transpiler", "transpile"),
    "simulator.run_noisy": ("gravopto.simulator", "run_noisy"),
    "simulator.born_probabilities": ("gravopto.simulator", "born_probabilities"),
    "qasm.emit": ("gravopto.qasm", "emit"),
    "scipy.optimize.minimize": ("scipy.optimize", "minimize"),
}


def _cx_count(circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind == "cx")


def _route_counts(args: dict, result) -> dict:
    cx_in, cx_out = _cx_count(args["c"]), _cx_count(result.circuit)
    return {"cx_in": cx_in, "cx_out": cx_out, "swaps": (cx_out - cx_in) / 3}


def _simplify_counts(args: dict, result) -> dict:
    return {"gates_in": len(args["c"].gates), "gates_out": len(result.gates)}


def _run_noisy_counts(args: dict, result) -> dict:
    gates = sum(1 for g in args["c"].gates if g.kind != "measure")
    return {"shots": int(args["shots"]), "gates": gates}


def _postselect_counts(args: dict, result) -> dict:
    return {
        "setting": args["setting"].label,
        "attempted": float(args["hist"].total()),
        "retained": float(result[1]),
    }


# counters read at the span boundary from the call's arguments and result
COUNTERS = {
    "transpiler.route": _route_counts,
    "transpiler.simplify": _simplify_counts,
    "simulator.run_noisy": _run_noisy_counts,
    "tomography.postselect": _postselect_counts,
}


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    trace_id: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit.

    Usage::

        with Tracer(trace_id=0) as tr:
            gravopto.cli.main([...])
        tr.spans  # every span of the call, in start order
    """

    def __init__(self, trace_id: int = 0):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, (module_name, attr) in TRACED.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            holders = [module] + [
                m for key, m in list(sys.modules.items())
                if m is not None and m is not module
                and (key == "gravopto" or key.startswith("gravopto."))
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, trace_id = self.spans, self._stack, self.trace_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                len(spans), stack[-1].span_id if stack else None, name, trace_id,
                time.perf_counter(),
            )
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    # the layer's interface changed; report its counts as absent
                    span.counts = {"counter_error": repr(exc)}
            return result

        return traced


def span_dicts(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


# per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "cli.self_s": "s",
    "experiment.run_sweep_self_s": "s",
    "experiment.run_point_self_s": "s",
    "experiment.emit_outputs_s": "s",
    "digitizer.build_s": "s",
    "digitizer.build_calls": "count",
    "tomography.measurement_circuits_s": "s",
    "transpiler.lower_s": "s",
    "transpiler.route_s": "s",
    "transpiler.simplify_s": "s",
    "transpiler.compile_calls": "count",
    "transpiler.swaps": "count",
    "transpiler.simplify_kept": "ratio",
    "simulator.run_noisy_s": "s",
    "simulator.run_noisy_calls": "count",
    "simulator.shots": "count",
    "simulator.gates_simulated": "count",
    "simulator.born_s": "s",
    "simulator.born_calls": "count",
    "tomography.calibrate_s": "s",
    "tomography.mitigate_s": "s",
    "tomography.mitigate_calls": "count",
    "tomography.mitigate_fallback_s": "s",
    "tomography.mitigate_fallback_calls": "count",
    "tomography.postselect_s": "s",
    "tomography.estimate_s": "s",
    "tomography.retained_fraction_zz": "ratio",
    "qasm.emit_s": "s",
    "trace.sweep_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(spans: list[Span], sweep_wall: float) -> dict:
    """Per-layer metrics of one traced sweep whose call took ``sweep_wall`` s.

    ``trace.overhead_s`` needs an untraced time and is filled in by the caller.
    A layer with no span reads 0; so does a ratio with no attempts.
    """
    by_id = {s.span_id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    def named(name: str) -> list[Span]:
        # outermost spans only, so a recursive call is not counted twice
        return [
            s for s in spans
            if s.name == name and all(a.name != name for a in ancestors(s))
        ]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def self_time(name: str) -> float:
        return sum(s.duration - child_time.get(s.span_id, 0.0) for s in named(name))

    def counted(name: str, key: str) -> list:
        return [s.counts[key] for s in spans if s.name == name and key in s.counts]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fallback = [
        s for s in named("scipy.optimize.minimize")
        if any(a.name == "tomography.mitigate" for a in ancestors(s))
    ]
    swaps = counted("transpiler.route", "swaps")
    kept_in = sum(counted("transpiler.simplify", "gates_in"))
    kept_out = sum(counted("transpiler.simplify", "gates_out"))
    zz = [
        s.counts for s in spans
        if s.name == "tomography.postselect" and s.counts.get("setting") == "ZZ"
    ]
    roots = [s for s in spans if s.parent is None]

    return {
        "cli.self_s": self_time("cli.main"),
        "experiment.run_sweep_self_s": self_time("experiment.run_sweep"),
        "experiment.run_point_self_s": self_time("experiment.run_point"),
        "experiment.emit_outputs_s": total("experiment.emit_outputs"),
        "digitizer.build_s": total("digitizer.build_evolution_circuit"),
        "digitizer.build_calls": len(named("digitizer.build_evolution_circuit")),
        "tomography.measurement_circuits_s": total("tomography.measurement_circuits"),
        "transpiler.lower_s": total("transpiler.lower_to_basis"),
        "transpiler.route_s": total("transpiler.route"),
        "transpiler.simplify_s": total("transpiler.simplify"),
        "transpiler.compile_calls": len(named("transpiler.simplify")),
        "transpiler.swaps": ratio(sum(swaps), len(swaps)),
        "transpiler.simplify_kept": ratio(kept_out, kept_in),
        "simulator.run_noisy_s": total("simulator.run_noisy"),
        "simulator.run_noisy_calls": len(named("simulator.run_noisy")),
        "simulator.shots": sum(counted("simulator.run_noisy", "shots")),
        "simulator.gates_simulated": sum(counted("simulator.run_noisy", "gates")),
        "simulator.born_s": total("simulator.born_probabilities"),
        "simulator.born_calls": len(named("simulator.born_probabilities")),
        "tomography.calibrate_s": total("tomography.calibrate_confusion"),
        "tomography.mitigate_s": total("tomography.mitigate"),
        "tomography.mitigate_calls": len(named("tomography.mitigate")),
        "tomography.mitigate_fallback_s": sum(s.duration for s in fallback),
        "tomography.mitigate_fallback_calls": len(fallback),
        "tomography.postselect_s": total("tomography.postselect"),
        "tomography.estimate_s": total("tomography.estimate_traces"),
        "tomography.retained_fraction_zz": ratio(
            sum(c["retained"] * c["attempted"] for c in zz),
            sum(c["attempted"] for c in zz),
        ),
        "qasm.emit_s": total("qasm.emit"),
        "trace.sweep_s": sweep_wall,
        "trace.unattributed_s": sweep_wall - sum(s.duration for s in roots),
    }
