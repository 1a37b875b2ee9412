"""Alias-complete call tracer for the poolgame package, driven from outside it.

The package modules import each other's functions by name (``from .payoff
import payoff_pair`` in ``ars``, ``engine``, ``equilibrium`` and ``cli``), so
patching only the defining module would miss most calls. While a ``Tracer``
is active, every attribute of every poolgame module that *is* one of the
layers' public functions is rebound to a timing wrapper; on exit each
attribute gets its original function object back.

Spans are kept in memory as ``[label, parent_index, start, end, note]`` and
reduced to per-layer metrics by :func:`layer_metrics`. A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

LAYERS = ("payoff", "ars", "equilibrium", "engine", "cli", "model", "detection")

# label of the spans around each call into the objective given to golden_max;
# they keep the objective's time out of golden_max's self time
OBJECTIVE = "equilibrium.golden_max.fn"


def public_functions(package) -> dict[str, object]:
    """``{"<layer>.<name>": function}`` for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[f"{layer}.{name}"] = obj
    return found


def _bound_argument(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


class Tracer:
    """Context manager that records a span for every call into a layer."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        functions = public_functions(self.package)
        wrappers = {id(fn): (fn, self._wrap(label, fn)) for label, fn in functions.items()}
        modules = [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{layer}") for layer in LAYERS
        ]
        try:
            for module in modules:
                for name, obj in list(vars(module).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(module, name, hit[1])
                        self._patched.append((module, name, obj))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        note = self._note_maker(label, fn)
        counts_objective = label == "equilibrium.golden_max"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_objective:
                args = (self._objective(args[0]),) + args[1:]
            span = [label, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def _objective(self, fn):
        spans, stack = self.spans, self._stack

        def objective(*args, **kwargs):
            span = [OBJECTIVE, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return objective

    @staticmethod
    def _note_maker(label, fn):
        """Per-call detail some metrics need, computed after the call returns."""
        if label == "payoff.payoff_pair_raw":
            import numpy as np

            names = ("f_i", "b_i", "f_j", "b_j")
            getters = [_bound_argument(fn, name) for name in names]

            def elements(args, kwargs, result):
                # 0 marks a scalar call, otherwise the broadcast element count
                if len(args) >= 6:
                    parts = args[2:6]
                else:
                    parts = [get(args, kwargs) for get in getters]
                arrays = [np.asarray(a) for a in parts]
                if all(a.ndim == 0 for a in arrays):
                    return 0
                return int(np.broadcast(*arrays).size)

            return elements
        if label == "ars.retaliate":
            return lambda args, kwargs, action: (
                "zero" if action.is_zero else action.kind.value
            )
        if label in ("engine.npool_stage_payoffs_mc", "payoff.simulate_rounds"):
            rounds = _bound_argument(fn, "rounds")
            return lambda args, kwargs, result: int(rounds(args, kwargs))
        return None


def summarize(spans) -> dict[str, dict]:
    """Per label: call count, total and self seconds, and the call notes.

    An objective span's self time is credited to the caller of its
    golden_max, the function that defined the objective.
    """
    child = [0.0] * len(spans)
    for label, parent, start, end, note in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}

    def entry(label):
        return out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []})

    for i, (label, parent, start, end, note) in enumerate(spans):
        own = end - start - child[i]
        s = entry(label)
        s["calls"] += 1
        s["total_s"] += end - start
        if label == OBJECTIVE and spans[parent][1] >= 0:
            entry(spans[spans[parent][1]][0])["self_s"] += own
        else:
            s["self_s"] += own
        if note is not None:
            s["notes"].append((note, own))
    return out


# (name, unit, better): the per-layer metrics of one traced sample
LAYER_METRICS = (
    ("payoff.payoff_pair.calls", "count", "lower"),
    ("payoff.payoff_pair.self_s", "s", "lower"),
    ("payoff.payoff_pair_raw.scalar_calls", "count", "lower"),
    ("payoff.payoff_pair_raw.self_s", "s", "lower"),
    ("payoff.payoff_pair_raw.batched_calls", "count", "lower"),
    ("payoff.payoff_pair_raw.elements", "count", "lower"),
    ("payoff.payoff_pair_raw.ns_per_element", "ns", "lower"),
    ("payoff.one_sided.calls", "count", "lower"),
    ("payoff.one_sided.self_s", "s", "lower"),
    ("payoff.simulate_rounds.rounds", "count", "higher"),
    ("payoff.simulate_rounds.self_s", "s", "lower"),
    ("ars.retaliate.calls", "count", "lower"),
    ("ars.retaliate.self_s", "s", "lower"),
    ("ars.retaliate.faw", "count", "lower"),
    ("ars.retaliate.bwh", "count", "lower"),
    ("ars.retaliate.zero", "count", "lower"),
    ("ars.ars_step.calls", "count", "lower"),
    ("ars.ars_step.self_s", "s", "lower"),
    ("equilibrium.golden_max.calls", "count", "lower"),
    ("equilibrium.golden_max.evals", "count", "lower"),
    ("equilibrium.golden_max.self_s", "s", "lower"),
    ("equilibrium.audit_ipbwh_nonempty.self_s", "s", "lower"),
    ("engine.npool_stage_payoffs.calls", "count", "lower"),
    ("engine.npool_stage_payoffs.us_per_call", "us", "lower"),
    ("engine.npool_stage_payoffs_mc.rounds", "count", "higher"),
    ("engine.npool_stage_payoffs_mc.rounds_per_s", "1/s", "higher"),
    ("engine.optimal_simultaneous_attack.self_s", "s", "lower"),
    ("engine.run_npool.self_s", "s", "lower"),
    ("engine.two_stage_sweep.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("model.calls", "count", "lower"),
    ("model.self_s", "s", "lower"),
)


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """Reduce one traced sample's summary to the LAYER_METRICS values.

    A ratio whose denominator is zero (the layer did no such work) reads 0.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []}

    def get(label):
        return summary.get(label, empty)

    def layer(prefix, key):
        return sum(s[key] for label, s in summary.items() if label.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    raw = get("payoff.payoff_pair_raw")
    batched = [(n, t) for n, t in raw["notes"] if n > 0]
    elements = sum(n for n, _ in batched)
    one_sided = [get("payoff.one_sided_attacker"), get("payoff.one_sided_victim")]
    outcomes = [n for n, _ in get("ars.retaliate")["notes"]]
    npool = get("engine.npool_stage_payoffs")
    mc = get("engine.npool_stage_payoffs_mc")
    mc_rounds = sum(n for n, _ in mc["notes"])
    sim = get("payoff.simulate_rounds")
    return {
        "payoff.payoff_pair.calls": get("payoff.payoff_pair")["calls"],
        "payoff.payoff_pair.self_s": get("payoff.payoff_pair")["self_s"],
        "payoff.payoff_pair_raw.scalar_calls": raw["calls"] - len(batched),
        "payoff.payoff_pair_raw.self_s": raw["self_s"],
        "payoff.payoff_pair_raw.batched_calls": len(batched),
        "payoff.payoff_pair_raw.elements": elements,
        "payoff.payoff_pair_raw.ns_per_element":
            1e9 * ratio(sum(t for _, t in batched), elements),
        "payoff.one_sided.calls": sum(s["calls"] for s in one_sided),
        "payoff.one_sided.self_s": sum(s["self_s"] for s in one_sided),
        "payoff.simulate_rounds.rounds": sum(n for n, _ in sim["notes"]),
        "payoff.simulate_rounds.self_s": sim["self_s"],
        "ars.retaliate.calls": get("ars.retaliate")["calls"],
        "ars.retaliate.self_s": get("ars.retaliate")["self_s"],
        "ars.retaliate.faw": outcomes.count("faw"),
        "ars.retaliate.bwh": outcomes.count("bwh"),
        "ars.retaliate.zero": outcomes.count("zero"),
        "ars.ars_step.calls": get("ars.ars_step")["calls"],
        "ars.ars_step.self_s": get("ars.ars_step")["self_s"],
        "equilibrium.golden_max.calls": get("equilibrium.golden_max")["calls"],
        "equilibrium.golden_max.evals": get(OBJECTIVE)["calls"],
        "equilibrium.golden_max.self_s": get("equilibrium.golden_max")["self_s"],
        "equilibrium.audit_ipbwh_nonempty.self_s":
            get("equilibrium.audit_ipbwh_nonempty")["self_s"],
        "engine.npool_stage_payoffs.calls": npool["calls"],
        "engine.npool_stage_payoffs.us_per_call": 1e6 * ratio(npool["total_s"], npool["calls"]),
        "engine.npool_stage_payoffs_mc.rounds": mc_rounds,
        "engine.npool_stage_payoffs_mc.rounds_per_s": ratio(mc_rounds, mc["total_s"]),
        "engine.optimal_simultaneous_attack.self_s":
            get("engine.optimal_simultaneous_attack")["self_s"],
        "engine.run_npool.self_s": get("engine.run_npool")["self_s"],
        "engine.two_stage_sweep.self_s": get("engine.two_stage_sweep")["self_s"],
        "cli.self_s": layer("cli", "self_s"),
        "model.calls": layer("model", "calls"),
        "model.self_s": layer("model", "self_s"),
    }


def is_count(name: str) -> bool:
    return next(unit for n, unit, _ in LAYER_METRICS if n == name) == "count"


def combine(samples: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced sample, medians of everything else."""
    return {
        name: samples[0][name] if is_count(name)
        else statistics.median(s[name] for s in samples)
        for name, _, _ in LAYER_METRICS
    }
