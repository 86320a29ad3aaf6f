"""Span and counter recording around the investlearn layers, from outside.

While a Tracer is installed it replaces each public function a layer's
caller uses (the name the caller looks up at call time, for example
`investlearn.cli.solve_boundary`, since cli imports it by name) with a
wrapper that records a span: name, start, end, parent span and iteration.
Hot inner functions (the boundary ODE right-hand side, gamma and its
derivatives, G, the ladder value) get counting wrappers without a span, so
their per-call cost stays small.  Uninstalling restores every original, so
untraced iterations run the program unmodified.

Spans stay in memory and are written once at the end of the run.  A span's
self time is its duration minus the durations of its direct children; calls
are single-threaded, so children never overlap.
"""

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import investlearn.boundary
import investlearn.cli
import investlearn.config
import investlearn.discrete
import investlearn.model
import investlearn.simulate
import investlearn.value

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
# Names ending in _s are span self times in seconds; the rest are counts.
LAYER_METRICS = [
    ("config.load_config_s", "s"),
    ("model.check_conditions_s", "s"),
    ("model.gamma_derivs_calls", "count"),
    ("model.gamma_derivs_points", "count"),
    ("boundary.solve_boundary_s", "s"),
    ("boundary.rhs_evals", "count"),
    ("boundary.save_curve_s", "s"),
    ("boundary.load_curve_s", "s"),
    ("boundary.csv_bytes", "bytes"),
    ("value.verify_surface_s", "s"),
    ("value.pde_residual_sweep_s", "s"),
    ("value.smooth_fit_s", "s"),
    ("value.c1_pasting_s", "s"),
    ("value.gradient_bound_s", "s"),
    ("value.learning_premium_s", "s"),
    ("value.surface_value_s", "s"),
    ("value.fundamental_G_points", "count"),
    ("simulate.reflecting_s", "s"),
    ("simulate.stop_at_c_s", "s"),
    ("simulate.full_now_s", "s"),
    ("simulate.trajectory_s", "s"),
    ("simulate.rho_s", "s"),
    ("simulate.reflecting_path_steps", "count"),
    ("simulate.h_at_rows", "count"),
    ("discrete.solve_ladder_s", "s"),
    ("discrete.verification_suite_s", "s"),
    ("discrete.oracle_s", "s"),
    ("discrete.ladder_value_points", "count"),
    ("plots.plot_boundary_s", "s"),
    ("plots.plot_trajectory_s", "s"),
    ("plots.plot_ladder_s", "s"),
    ("plots.svg_bytes", "bytes"),
    ("cli.solve.self_s", "s"),
    ("cli.verify.self_s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.discrete.self_s", "s"),
    ("cli.compare.self_s", "s"),
    ("cli.plot.self_s", "s"),
    ("cli.checks_false", "count"),
]

# (module, attribute, span name) for every wrapped function that gets a span.
# The span name may depend on the call's arguments (see _span_name).
_SPANNED = [
    (investlearn.cli, "load_config", "config.load_config"),
    (investlearn.config, "load_config", "config.load_config"),
    (investlearn.boundary, "check_conditions", "model.check_conditions"),
    (investlearn.cli, "stopping_threshold_c", "model.stopping_threshold_c"),
    (investlearn.cli, "zero_level_B", "model.zero_level_B"),
    (investlearn.cli, "solve_boundary", "boundary.solve_boundary"),
    (investlearn.cli, "save_curve", "boundary.save_curve"),
    (investlearn.cli, "load_curve", "boundary.load_curve"),
    (investlearn.cli, "verify_surface", "value.verify_surface"),
    (investlearn.value, "pde_residual_sweep", "value.pde_residual_sweep"),
    (investlearn.value, "smooth_fit_residuals", "value.smooth_fit"),
    (investlearn.value, "c1_pasting_gap", "value.c1_pasting"),
    (investlearn.value, "gradient_bound_check", "value.gradient_bound"),
    (investlearn.value, "learning_premium_check", "value.learning_premium"),
    (investlearn.value.ValueSurface, "value", "value.surface_value"),
    (investlearn.cli, "simulate_reflecting", "simulate.reflecting"),
    (investlearn.cli, "simulate_baseline", "simulate.<kind>"),
    (investlearn.cli, "stop_at_c_reference", "simulate.reference"),
    (investlearn.cli, "sample_trajectory", "simulate.trajectory"),
    (investlearn.cli, "save_trajectory", "simulate.save_trajectory"),
    (investlearn.simulate, "rho", "simulate.rho"),
    (investlearn.cli, "solve_ladder", "discrete.solve_ladder"),
    (investlearn.discrete, "solve_ladder", "discrete.solve_ladder"),
    (investlearn.cli, "save_ladder", "discrete.save_ladder"),
    (investlearn.cli, "discrete_verification_suite", "discrete.verification_suite"),
    (investlearn.discrete, "value_iteration_oracle", "discrete.oracle"),
    (investlearn.cli, "plot_boundary", "plots.plot_boundary"),
    (investlearn.cli, "plot_trajectory", "plots.plot_trajectory"),
    (investlearn.cli, "plot_ladder", "plots.plot_ladder"),
]


def _span_name(template, args):
    # cli calls simulate_baseline(curve, sim, kind) positionally
    return f"simulate.{args[2]}" if template == "simulate.<kind>" else template


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, iteration, start, end)
        self.counts = defaultdict(int)  # (iteration, name) -> total
        self._stack = []
        self._saved = []
        self.iteration = -1

    # -- recording --------------------------------------------------------

    def _count(self, name, amount):
        self.counts[(self.iteration, name)] += amount

    def _innermost(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name; returns fn's result."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, parent, self.iteration, 0.0, 0.0))
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, self.iteration, t0, t1)

    def _spanned(self, template, fn):
        def wrapper(*args, **kwargs):
            name = _span_name(template, args)
            result = self.call(name, fn, *args, **kwargs)
            self._after(name, args)
            return result
        return wrapper

    def _after(self, name, args):
        """Counts taken at a span boundary once the call has returned."""
        if name == "boundary.save_curve":
            self._count("boundary.csv_bytes", Path(args[1]).stat().st_size)
        elif name.startswith("plots."):
            self._count("plots.svg_bytes", Path(args[-1]).stat().st_size)
        elif name == "simulate.rho" and self._innermost() == "simulate.reflecting":
            self._count("simulate.reflecting_path_steps", np.size(args[2]))

    def _counted(self, fn, calls, points=None, size=None):
        """Count calls of fn under `calls`, and size(args) under `points`."""
        # called hundreds of thousands of times per iteration: keep it lean
        counts = self.counts
        calls = (self.iteration, calls)
        if points is None:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return wrapper
        points = (self.iteration, points)

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            counts[points] += size(args)
            return fn(*args, **kwargs)
        return wrapper

    def _h_at(self, fn):
        def wrapper(curve, pi):
            if self._innermost().startswith("simulate."):
                self._count("simulate.h_at_rows", np.size(pi))
            return fn(curve, pi)
        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, iteration: int) -> None:
        self.iteration = iteration
        for owner, attr, template in _SPANNED:
            self._patch(owner, attr, self._spanned(template, getattr(owner, attr)))
        for cls in vars(investlearn.model).values():
            if isinstance(cls, type) and "gamma_derivs" in cls.__dict__:
                self._patch(cls, "gamma_derivs", self._counted(
                    cls.__dict__["gamma_derivs"], "model.gamma_derivs_calls",
                    "model.gamma_derivs_points", lambda a: getattr(a[1], "size", 1)))
        self._patch(investlearn.boundary, "boundary_rhs", self._counted(
            investlearn.boundary.boundary_rhs, "boundary.rhs_evals"))
        self._patch(investlearn.value, "fundamental_G", self._counted(
            investlearn.value.fundamental_G, "value.fundamental_G_calls",
            "value.fundamental_G_points", lambda a: np.broadcast(a[2], a[3]).size))
        self._patch(investlearn.discrete.DiscreteLadder, "value", self._counted(
            investlearn.discrete.DiscreteLadder.value, "discrete.ladder_value_calls",
            "discrete.ladder_value_points", lambda a: np.size(a[2])))
        self._patch(investlearn.boundary.BoundaryCurve, "h_at",
                    self._h_at(investlearn.boundary.BoundaryCurve.h_at))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def self_times(self):
        """{iteration: {span name: (self seconds, inclusive seconds, calls)}}."""
        child = [0.0] * len(self.spans)
        for name, parent, it, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for sid, (name, parent, it, t0, t1) in enumerate(self.spans):
            rec = out[it][name]
            rec[0] += (t1 - t0) - child[sid]
            rec[1] += t1 - t0
            rec[2] += 1
        return out

    def layer_metrics(self, times: dict, iteration: int, checks_false: int) -> dict:
        """Values of LAYER_METRICS for one traced iteration.

        times is that iteration's entry of self_times().
        """
        values = {}
        for name, unit in LAYER_METRICS:
            if name == "cli.checks_false":
                values[name] = checks_false
            elif name.endswith(".self_s"):
                values[name] = times.get(name[:-len(".self_s")], [0.0])[0]
            elif unit == "s":
                values[name] = times.get(name[:-2], [0.0])[0]
            else:
                values[name] = self.counts.get((iteration, name), 0)
        return values

    def write(self, path, meta: dict) -> None:
        """All spans and counts of the run as one JSON document."""
        doc = {
            "meta": meta,
            "spans": [list(s) for s in self.spans],
            "counts": [[it, name, v] for (it, name), v in sorted(self.counts.items())],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
