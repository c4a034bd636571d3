"""Spans around the library's public functions, wrapped from outside.

Each layer function is replaced, in every module namespace that calls it,
by a wrapper that appends ``(name, parent, op, start, end)`` to an
in-memory list.  Nothing inside ``src/`` changes.  A target that a later
refactor removed is listed in ``absent`` instead of failing the run.

A span's self time is its duration minus the durations of its direct
children; the library is single-threaded here, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time

# (namespace module, attribute, span name): the public function of each
# layer, in each namespace whose calls must go through the wrapper
TARGETS = (
    ("meanfield", "effective_field", "model.effective_field"),
    ("correlation", "effective_field", "model.effective_field"),
    ("meanfield", "build_quadratic_form", "fermion.build_quadratic_form"),
    ("fermion", "build_quadratic_form", "fermion.build_quadratic_form"),
    ("meanfield", "quasiparticle_energies", "fermion.quasiparticle_energies"),
    ("fermion", "solve_quasiparticles", "fermion.solve_quasiparticles"),
    ("correlation", "ground_sector", "fermion.ground_sector"),
    ("correlation", "correlation_report", "correlation.correlation_report"),
    ("meanfield", "correlation_report", "correlation.correlation_report"),
    ("phases", "correlation_report", "correlation.correlation_report"),
    ("correlation", "yy_correlation", "correlation.yy_correlation"),
    ("correlation", "yy_table", "correlation.yy_table"),
    ("meanfield", "minimize_phi", "meanfield.minimize_phi"),
    ("phases", "minimize_phi", "meanfield.minimize_phi"),
    ("phases", "stationary_points", "meanfield.stationary_points"),
    ("meanfield", "energy_per_particle", "meanfield.energy_per_particle"),
    ("phases", "sweep", "phases.sweep"),
    ("phases", "critical_coupling", "phases.critical_coupling"),
    ("phases", "classify_transition_order", "phases.classify_transition_order"),
    ("phases", "phase_diagram", "phases.phase_diagram"),
)


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, op index, start, end)
        self.absent = []
        self.op = -1  # index of the op in flight, shared by its spans
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"cavising.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, self.op, start, end)

        return traced


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    own = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans):
    """The per-layer counts and self times of one pass over the input set.

    The ``phases`` ratios are per column, that is per ``sweep`` call.
    """
    own = self_times(spans)
    calls, self_s = {}, {}
    for (name, *_), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t

    def n(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    def children(child, parents):
        return sum(1 for c, p, *_ in spans if c == child and p >= 0 and spans[p][0] in parents)

    phase_layer = {
        "phases.sweep", "phases.critical_coupling",
        "phases.classify_transition_order", "phases.phase_diagram",
    }
    evals_in_minimize = children("meanfield.energy_per_particle", {"meanfield.minimize_phi"})
    dets_in_report = children("correlation.yy_correlation", {"correlation.correlation_report"})
    minimize_in_phases = children("meanfield.minimize_phi", phase_layer)
    stationary_in_phases = children("meanfield.stationary_points", phase_layer)
    return {
        "fermion.energy_calls": n("fermion.quasiparticle_energies"),
        "fermion.energy_self_s": s("fermion.quasiparticle_energies"),
        "fermion.form_calls": n("fermion.build_quadratic_form"),
        "fermion.form_self_s": s("fermion.build_quadratic_form"),
        "fermion.full_calls": n("fermion.solve_quasiparticles"),
        "fermion.full_self_s": s("fermion.solve_quasiparticles", "fermion.ground_sector"),
        "model.field_self_s": s("model.effective_field"),
        "meanfield.minimize_calls": n("meanfield.minimize_phi"),
        "meanfield.stationary_calls": n("meanfield.stationary_points"),
        "meanfield.evals_per_minimize": _ratio(evals_in_minimize, n("meanfield.minimize_phi")),
        "meanfield.search_self_s": s(
            "meanfield.minimize_phi", "meanfield.stationary_points",
            "meanfield.energy_per_particle",
        ),
        "correlation.report_calls": n("correlation.correlation_report"),
        "correlation.det_calls": n("correlation.yy_correlation"),
        "correlation.dets_per_report": _ratio(dets_in_report, n("correlation.correlation_report")),
        "correlation.det_self_s": s("correlation.yy_correlation"),
        "correlation.report_self_s": s("correlation.correlation_report", "correlation.yy_table"),
        "phases.minimize_per_column": _ratio(minimize_in_phases, n("phases.sweep")),
        "phases.stationary_per_column": _ratio(stationary_in_phases, n("phases.sweep")),
        "phases.self_s": s(*phase_layer),
    }


def minimize_sources(spans):
    """How many ``minimize_phi`` calls each phases function made."""
    out = {}
    for name, parent, *_ in spans:
        if name == "meanfield.minimize_phi" and parent >= 0:
            caller = spans[parent][0]
            out[caller] = out.get(caller, 0) + 1
    return out


def _ratio(a, b):
    return a / b if b else 0.0
