"""Per-layer spans for the traced run, recorded from the benchmark's side.

The program is not changed: ``install`` replaces public functions at
their module (or class) attributes with timing wrappers.  The modules
call each other through those attributes (``mt.fdp_values``), so every
call is seen.  A name that does not exist is skipped and reported as
absent; nothing in ``_kernels`` and no private name is wrapped.

Each span belongs to a layer, the module of the wrapped name.  A layer's
self time is its outermost spans' time minus the spans of other layers
they enclose.  Groups sum the outermost spans of a set of names.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, groups, hook): hook is "samples" (count len(result.t)),
# "grid" (wrap the returned grid function) or None.  Names with no group
# still open a span, so their time leaves their caller's self time.
TARGETS = [
    ("expr", "ScalarField.__call__", ("expr.field",), None),
    ("metric", "metric_from_strings", (), None),
    ("metric", "fdp_values", ("metric.fdp",), None),
    ("metric", "coeff_values", ("metric.coeff",), None),
    ("metric", "metric_scale", (), None),
    ("metric", "eval_F", (), None),
    ("metric", "denom_poly", ("metric.slope_poly",), None),
    ("metric", "numer_poly", ("metric.slope_poly",), None),
    ("metric", "disc_metric", (), None),
    ("metric", "disc_denom", (), None),
    ("metric", "isotropic_directions", (), None),
    ("metric", "classify_point", ("metric.classify",), None),
    ("metric", "accel_determinants", (), None),
    ("poly", "RealPolynomial.real_roots", ("poly.roots",), None),
    ("poly", "resultant", ("poly.resultant",), None),
    ("poly", "resultant_grid", (), None),
    ("flow", "field_at", (), None),
    ("flow", "integrate", ("flow.integrate",), "samples"),
    ("flow", "tm_integrate", ("flow.tm",), "samples"),
    ("flow", "isotropic_trace", ("flow.isotropic",), None),
    ("flow", "shoot_boundary_family", ("flow.family",), None),
    ("flow", "check_transversality", (), None),
    ("flow", "arclength_reparam", (), None),
    ("singular", "singular_curves", ("singular.curves",), None),
    ("singular", "trace_implicit_curve", ("singular.trace",), None),
    ("singular", "resultant_at", ("singular.scalar",), None),
    ("singular", "resultant_grid_fn", (), "grid"),
    ("singular", "disc_grid_fn", (), "grid"),
    ("singular", "jacobian_at", (), None),
    ("singular", "lift_to_slope", (), None),
    ("singular", "classify_singular", ("singular.classify",), None),
    ("singular", "tangency_report", ("singular.tangency",), None),
    ("singular", "find_tangency_failures", ("singular.tangency",), None),
    ("puiseux", "solve_geodesic_series", ("puiseux.solve",), None),
    ("puiseux", "evaluate_expr_series", ("puiseux.expr_series",), None),
    ("puiseux", "series_to_curve", (), None),
    ("puiseux", "series_point", (), None),
    ("berwald_moor", "induced_metric", (), None),
    ("berwald_moor", "full_metric", (), None),
    ("berwald_moor", "adapted_from_immersion", (), None),
    ("berwald_moor", "bm_family_shoot", ("berwald_moor.shoot",), None),
    ("berwald_moor", "blowup_spectrum", ("berwald_moor.spectrum",), None),
    ("berwald_moor", "blowup_field_at", (), None),
    ("cli", "main", ("cli.command",), None),
    ("cli", "load_config", ("cli.config",), None),
]


class Tracer:
    """Span stack and counters; ``reset`` starts a new pass."""

    def __init__(self):
        self.stack: list[list] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.reset()

    def reset(self):
        # group -> [calls, outermost calls, time, self time]
        self.groups: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0.0])
        self.layer_self: dict[str, float] = defaultdict(float)
        self.samples = 0
        self.grid_points = 0

    def wrap(self, fn, layer: str, groups: tuple, hook: str | None):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack, depth = tracer.stack, tracer.depth
            # frame: [layer, time in child spans, time in other layers' spans]
            frame = [layer, 0.0, 0.0]
            outer = []
            for g in groups:
                outer.append(depth[g] == 0)
                depth[g] += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stack.pop()
                for g, first in zip(groups, outer):
                    depth[g] -= 1
                    st = tracer.groups[g]
                    st[0] += 1
                    if first:
                        st[1] += 1
                        st[2] += d
                        st[3] += d - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += d
                    if parent[0] == layer:
                        parent[2] += frame[2]
                    else:
                        parent[2] += d
                        tracer.layer_self[layer] += d - frame[2]
                else:
                    tracer.layer_self[layer] += d - frame[2]
            if hook == "samples":
                tracer.samples += len(result.t)
            elif hook == "grid":
                result = tracer.wrap_grid(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_grid(self, grid_fn):
        inner = self.wrap(grid_fn, "singular", ("singular.grid",), None)

        def counted(X, Y):
            self.grid_points += int(np.size(X))
            return inner(X, Y)

        return counted

    def install(self) -> None:
        for module, attr, groups, hook in TARGETS:
            owner = importlib.import_module(f"finslerflow.{module}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(owner, name, self.wrap(fn, module, groups, hook))

    # -- per-layer metrics of one pass ---------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        g = self.groups

        def calls(name):
            return float(g[name][0])

        def seconds(name):
            return g[name][2]

        def us_per_call(name):
            return 1e6 * g[name][2] / g[name][1] if g[name][1] else 0.0

        grid_s = g["singular.grid"][2]
        return {
            "expr.field_calls": (calls("expr.field"), "count"),
            "expr.field_us": (us_per_call("expr.field"), "us/call"),
            "metric.fdp_calls": (calls("metric.fdp"), "count"),
            "metric.fdp_us": (us_per_call("metric.fdp"), "us/call"),
            "metric.coeff_calls": (calls("metric.coeff"), "count"),
            "metric.coeff_us": (us_per_call("metric.coeff"), "us/call"),
            "metric.slope_poly_calls": (calls("metric.slope_poly"), "count"),
            "metric.classify_calls": (calls("metric.classify"), "count"),
            "metric.classify_us": (us_per_call("metric.classify"), "us/call"),
            "poly.roots_calls": (calls("poly.roots"), "count"),
            "poly.roots_us": (us_per_call("poly.roots"), "us/call"),
            "poly.resultant_calls": (calls("poly.resultant"), "count"),
            "poly.resultant_us": (us_per_call("poly.resultant"), "us/call"),
            "flow.integrate_calls": (calls("flow.integrate"), "count"),
            "flow.integrate_s": (seconds("flow.integrate"), "s"),
            "flow.tm_s": (seconds("flow.tm"), "s"),
            "flow.isotropic_s": (seconds("flow.isotropic"), "s"),
            "flow.family_s": (seconds("flow.family"), "s"),
            "flow.self_s": (self.layer_self["flow"], "s"),
            "flow.samples": (float(self.samples), "count"),
            "singular.curves_s": (seconds("singular.curves"), "s"),
            "singular.grid_points": (float(self.grid_points), "count"),
            "singular.grid_ns_per_point": (
                1e9 * grid_s / self.grid_points if self.grid_points else 0.0, "ns/point"),
            "singular.scalar_calls": (calls("singular.scalar"), "count"),
            "singular.trace_self_s": (g["singular.trace"][3], "s"),
            "singular.classify_s": (seconds("singular.classify"), "s"),
            "singular.tangency_s": (seconds("singular.tangency"), "s"),
            "puiseux.solve_calls": (calls("puiseux.solve"), "count"),
            "puiseux.solve_s": (seconds("puiseux.solve"), "s"),
            "puiseux.expr_series_evals": (float(g["puiseux.expr_series"][1]), "count"),
            "berwald_moor.shoot_s": (seconds("berwald_moor.shoot"), "s"),
            "berwald_moor.spectrum_s": (seconds("berwald_moor.spectrum"), "s"),
            "cli.self_s": (self.layer_self["cli"], "s"),
        }
