"""Span tracing of circleclone from outside the package.

The tracer replaces each public function with a wrapper at every module-level
name its callers look up (``from ... import`` copies a function into the
importing module, so one function can have several bindings), records one
span per call in memory and puts every original back on ``restore``.  Code
inside the package is never edited: the evaluation closure inside
``feasibility`` and the ``np.linalg.eigvalsh`` calls it makes stay unwrapped,
and their cost is derived afterwards as time per solver evaluation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import time
from collections import defaultdict

# Public functions per layer, by home module.  Every binding of the same
# function object in the package's modules is wrapped with one wrapper.
TRACED = {
    "linalg": ("partial_trace", "hermitian_eigenvalues", "is_psd", "kron"),
    "pauli": ("pauli_decompose", "density_to_bloch"),
    "cloner": ("clone", "reduced_clones", "clone_report", "isotropy_scan", "covariance_check_machine"),
    "nosignalling": ("max_radius", "feasibility", "machine_witness_tensor", "positivity_matrix_up",
                     "build_joint_output", "minimize"),
    "verify": ("run_verification", "reference_partial_trace"),
    "cli": ("main",),
}
MODULES = ("cli", "verify", "nosignalling", "cloner", "linalg", "pauli")

# verify checks that run the positivity search; every other check is "non-search".
SEARCH_CHECKS = ("circle_recovery", "on_circle_feasibility")


class Tracer:
    """Records spans (id, name, start, end, parent, pass id, self seconds) in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.observations: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        self.pass_id = 0
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, observe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, name, start, end, parent, self.pass_id, duration - frame[1]))
            if observe is not None:
                observe(self.observations[self.pass_id], fn, args, kwargs, result, duration)
            return result

        return wrapper

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{self.package.__name__}.{name}") for name in MODULES}
        for home, names in TRACED.items():
            for attr in names:
                original = getattr(modules[home], attr)
                wrapper = self._wrap(f"{home}.{attr}", original, OBSERVERS.get(f"{home}.{attr}"))
                for module in modules.values():
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, bound_name, wrapper)
        verify = modules["verify"]
        checks = tuple(self._wrap("verify." + check.__name__.removeprefix("check_"), check)
                       for check in verify.CHECKS)
        self._patch(verify, "CHECKS", checks)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_s\tend_s\tparent\tpass\tself_s\n")
            for span_id, name, start, end, parent, pass_id, self_s in sorted(self.spans):
                handle.write(f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{pass_id}\t{self_s:.9f}\n")


def _observe_feasibility(store, fn, args, kwargs, report, seconds):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    store["feasibility"].append((report.feasible, report.evaluations, bound.arguments["budget"], seconds))


def _observe_max_radius(store, fn, args, kwargs, radius, seconds):
    store["max_radius_dev"].append(abs(radius - 1.0))


def _observe_run_verification(store, fn, args, kwargs, results, seconds):
    store["checks_failed"].append(sum(not result.passed for result in results))


OBSERVERS = {
    "nosignalling.feasibility": _observe_feasibility,
    "nosignalling.max_radius": _observe_max_radius,
    "verify.run_verification": _observe_run_verification,
}

# Metrics that count work; they must repeat exactly between passes with the same inputs.
COUNT_METRICS = (
    "verify.reference_partial_trace.calls",
    "verify.checks_failed",
    "nosignalling.max_radius.calls",
    "nosignalling.feasibility.feasible_calls",
    "nosignalling.feasibility.infeasible_calls",
    "nosignalling.feasibility.evaluations",
    "nosignalling.minimize.calls",
    "nosignalling.machine_witness_tensor.calls",
    "nosignalling.positivity_matrix_up.calls",
    "nosignalling.build_joint_output.calls",
    "cloner.isotropy_scan.calls",
    "cloner.clone_report.calls",
    "cloner.reduced_clones.calls",
    "cloner.clone.calls",
    "cloner.covariance_check_machine.calls",
    "linalg.partial_trace.calls",
    "linalg.hermitian_eigenvalues.calls",
    "linalg.is_psd.calls",
    "linalg.kron.calls",
    "pauli.pauli_decompose.calls",
    "pauli.density_to_bloch.calls",
)

# Mean inclusive time per call, in microseconds.
PER_CALL_US = (
    "cloner.clone_report",
    "cloner.reduced_clones",
    "linalg.partial_trace",
    "linalg.hermitian_eigenvalues",
    "pauli.pauli_decompose",
    "pauli.density_to_bloch",
)

# Total inclusive time per pass, in seconds.
TOTAL_S = (
    "cli.main",
    "verify.circle_recovery",
    "verify.isotropy_on_circle",
    "verify.separability_ppt",
    "verify.reference_partial_trace",
    "nosignalling.max_radius",
    "nosignalling.minimize",
    "cloner.isotropy_scan",
)


def pass_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (counts, seconds, derived ratios)."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for _, name, start, end, _, span_pass, self_s in tracer.spans:
        if span_pass == pass_id:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += self_s
    observed = tracer.observations[pass_id]

    metrics: dict[str, float] = {}
    for name in COUNT_METRICS:
        if name.endswith(".calls"):
            metrics[name] = calls[name.removesuffix(".calls")]
    for name in TOTAL_S:
        metrics[f"{name}_s"] = total[name]
    for name in PER_CALL_US:
        metrics[f"{name}_us"] = 1e6 * total[name] / calls[name] if calls[name] else 0.0

    metrics["cli.self_s"] = self_time["cli.main"]
    check_names = {name for name in calls if name.startswith("verify.") and name.removeprefix("verify.")
                   not in SEARCH_CHECKS + ("run_verification", "reference_partial_trace")}
    metrics["verify.non_search_s"] = sum(total[name] for name in check_names)
    metrics["verify.checks_failed"] = sum(observed["checks_failed"])
    metrics["nosignalling.max_radius_dev"] = max(observed["max_radius_dev"], default=0.0)

    verdicts = observed["feasibility"]
    feasible = [v for v in verdicts if v[0]]
    infeasible = [v for v in verdicts if not v[0]]
    evaluations = sum(v[1] for v in verdicts)
    feasibility_s = sum(v[3] for v in verdicts)
    metrics["nosignalling.feasibility.feasible_calls"] = len(feasible)
    metrics["nosignalling.feasibility.infeasible_calls"] = len(infeasible)
    metrics["nosignalling.feasibility.feasible_s"] = sum(v[3] for v in feasible)
    metrics["nosignalling.feasibility.infeasible_s"] = sum(v[3] for v in infeasible)
    metrics["nosignalling.feasibility.evaluations"] = evaluations
    metrics["nosignalling.feasibility.evals_per_infeasible"] = (
        sum(v[1] for v in infeasible) / len(infeasible) if infeasible else 0.0)
    metrics["nosignalling.feasibility.budget_exhausted_ratio"] = (
        sum(v[1] >= v[2] for v in verdicts) / len(verdicts) if verdicts else 0.0)
    metrics["nosignalling.eval_us"] = 1e6 * feasibility_s / evaluations if evaluations else 0.0
    return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of every metric; counts, checked equal separately, from the first pass."""
    return {name: per_pass[0][name] if name in COUNT_METRICS else statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]}


def count_mismatches(per_pass: list[dict[str, float]]) -> list[str]:
    """Count metrics that differ between passes run on the same inputs."""
    return [name for name in COUNT_METRICS if len({metrics[name] for metrics in per_pass}) > 1]
