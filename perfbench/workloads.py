"""The four workloads: their set-up and their operations.

An operation is one CLI command run through ``cli.main`` or one public
library call.  Every pass of a workload runs the same operations in the
same order; ``inputs`` (made by inputs.py from the seed) supplies the
generated metrics, seeds and parameter values.

Library calls go through module attributes (``flow.integrate``, not
``finslerflow.integrate``) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from finslerflow import berwald_moor, cli, flow, metric, puiseux

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Point at which set-up evaluates every derived layer once.
_PROBE = (0.31, 0.47, 0.29)

# max_steps for the Berwald-Moor integrate: its traces creep along x = 0
# at the max_step cap and the default of 20000 steps takes minutes.
BM_MAX_STEPS = 50

TANGENCY_IMMERSIONS = {
    3: ("x", "y", "y - 2*x^2"),
    4: ("x", "y", "y - 2*x^2", "x + y"),
}
PRODUCT_METRIC = ("0", "-4*x", "1", "0")  # F = p (p - 4x)
HALFPLANE_METRIC = ("-x", "0", "1", "0")  # F = p^2 - x
FAMILY_ALPHAS = (-1.0, 0.5)
HALFPLANE_ISO_SEEDS = ([0.3, 0.0, 0.5], [0.6, 0.2, 0.77], [0.1, -0.3, 0.31])
PARABOLA_ISO_SEEDS = ([1.0, 0.6, 0.8],)


@dataclass(frozen=True)
class Fault:
    """A known fault of the program and the problem it causes.

    ``pattern`` is a regular expression for the checker's problem that
    the fault explains.  Any other problem of the operation is not
    explained by it.
    """

    reason: str
    pattern: str

    def explains(self, problem: str) -> bool:
        return re.search(self.pattern, problem) is not None


@dataclass
class Op:
    """One operation: ``run(outdir)`` returns what the checker needs.

    ``check`` names a checker in checks.py and ``spec`` is everything it
    reads besides the output.  ``fault`` is a known fault of the program:
    the operation is expected to fail with the fault's problem only, and
    is counted as failed.
    """

    name: str
    run: Callable[[Path], object]
    check: str
    spec: dict = field(default_factory=dict)
    fault: Fault | None = None


@dataclass
class Workload:
    ops: list[Op]
    config_s: float
    build_s: float


def run_cli(command: str, config: str, outdir: Path, overrides=()) -> dict:
    argv = [command, "--config", str(CONFIGS / config), "--out", str(outdir)]
    for ov in overrides:
        argv += ["--seed", ov]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stderr": err.getvalue()}


def cli_op(command: str, config: str, check: str, *overrides, name=None, **spec) -> Op:
    return Op(
        name=name or f"{command}:{config.removesuffix('.cfg')}",
        run=lambda outdir: run_cli(command, config, outdir, overrides),
        check=check,
        spec={"config": config, "overrides": list(overrides), **spec},
    )


class _Setup:
    """Times config loading and metric building during set-up."""

    def __init__(self):
        self.config_s = 0.0
        self.build_s = 0.0

    def config(self, name: str):
        t0 = time.perf_counter()
        cfg = cli.load_config(str(CONFIGS / name))
        self.config_s += time.perf_counter() - t0
        return cfg

    def build(self, make: Callable):
        t0 = time.perf_counter()
        obj = make()
        self.build_s += time.perf_counter() - t0
        return obj

    def metric(self, make: Callable[[], metric.PseudoFinslerMetric]):
        """Build a metric and evaluate each derived layer once."""

        def build_and_touch():
            m = make()
            x, y, p = _PROBE
            metric.fdp_values(m, x, y, p)
            metric.accel_determinants(m, x, y, 1.0, p)
            metric.fdp_values(m.dual(), y, x, p)
            return m

        return self.build(build_and_touch)


def _box(center, r):
    return (center[0] - r, center[0] + r, center[1] - r, center[1] + r)


def spread_among(middle: list[Op], rest: list[Op]) -> list[Op]:
    """Place ``middle`` evenly among ``rest``.

    ``middle`` are the operations of about median cost.  Spread over the
    pass, they sample the machine's speed at many moments rather than in
    one stretch, which steadies ``op_p50_ms``.
    """
    slots = [((i + 0.5) / len(rest), 1, op) for i, op in enumerate(rest)]
    slots += [((j + 0.5) / len(middle), 0, op) for j, op in enumerate(middle)]
    return [op for _, _, op in sorted(slots, key=lambda s: s[:2])]


def bm_integrate_op() -> Op:
    return Op(
        name="integrate:berwald_moor_tangency",
        run=lambda outdir: run_cli(
            "integrate", "berwald_moor_tangency.cfg", outdir,
            (f"max_steps={BM_MAX_STEPS}",),
        ),
        check="cli_integrate",
        spec={"config": "berwald_moor_tangency.cfg",
              "coeffs": list(PRODUCT_METRIC)},
        fault=Fault("a trace that stops at max_steps carries no event saying why",
                    r"^trace \d+: trace end at sample \d+ carries no stop event$"),
    )


def geodesics(inputs: dict, su: _Setup) -> list[Op]:
    ops, middle = [], []
    for name in ("halfplane.cfg", "parabola.cfg", "parabola_neg.cfg"):
        cfg = su.config(name)
        su.metric(cfg.metric_obj)
        ops.append(cli_op("integrate", name, "cli_integrate", c=cfg.coeffs[0]))
    cfg = su.config("berwald_moor_tangency.cfg")
    su.metric(cfg.metric_obj)
    ops.append(bm_integrate_op())

    boxed = [{"degree": 3, "coeffs": list(HALFPLANE_METRIC), "seed": [0.45, 0.1, 0.35],
              "radius": 0.05, "tag": "halfplane"}]
    for rm in inputs["random_metrics"] + boxed:
        n, texts, seed, r = rm["degree"], rm["coeffs"], rm["seed"], rm["radius"]
        tag = rm.get("tag", f"random{n}")
        m = su.metric(lambda: metric.metric_from_strings(n, texts))
        cfg = flow.IntegratorConfig(box=_box(seed, r))
        spec = {"coeffs": texts, "seed": seed, "box": cfg.box}

        def integrate(outdir, m=m, seed=seed, cfg=cfg):
            return flow.integrate(m, flow.PTMPoint(*seed), cfg)

        def tm(outdir, m=m, seed=seed, cfg=cfg):
            return flow.tm_integrate(m, seed[0], seed[1], 1.0, seed[2], cfg)

        ops.append(Op(f"flow.integrate:{tag}", integrate, "random_integrate", spec))
        if "tag" not in rm:
            ops.append(Op(f"flow.tm_integrate:{tag}", tm, "random_tm", spec))

    # Isotropic traces on the halfplane run along the whole isotropic line
    # across the box and cost the same (about 0.3 s) from any of these
    # points.  They are the operations of median cost, so op_p50_ms follows
    # the flow layer rather than the draw of the random metrics.
    ri = inputs["isotropic_random"]
    iso = {
        "halfplane": (list(HALFPLANE_METRIC), (-1.0, 1.0, -1.0, 1.0), HALFPLANE_ISO_SEEDS),
        "parabola": (["y^2 - x", "0", "1", "0"], (-1.5, 1.5, 0.05, 1.5), PARABOLA_ISO_SEEDS),
        "random3": (ri["coeffs"], _box(ri["seed"], ri["radius"]), [ri["seed"]]),
    }
    for tag, (texts, box, points) in iso.items():
        m = su.metric(lambda texts=texts: metric.metric_from_strings(len(texts) - 1, texts))
        cfg = flow.IntegratorConfig(box=box)
        for k, seed in enumerate(points):
            def iso_run(outdir, m=m, seed=seed, cfg=cfg):
                return flow.isotropic_trace(m, flow.PTMPoint(*seed), cfg)

            middle.append(Op(f"flow.isotropic_trace:{tag}{k if len(points) > 1 else ''}",
                             iso_run, "isotropic", {"coeffs": texts, "seed": seed, "box": box}))

    m = su.metric(lambda: metric.metric_from_strings(3, list(HALFPLANE_METRIC)))
    alphas = FAMILY_ALPHAS
    cfg = flow.IntegratorConfig(box=(-0.5, 0.5, -0.5, 0.5))

    def family(outdir, m=m, cfg=cfg):
        return flow.shoot_boundary_family(m, 0.0, 0.0, 0.0, alphas, cfg)

    ops.append(Op("flow.shoot_boundary_family:halfplane", family, "boundary_family",
                  {"alphas": alphas}))
    return spread_among(middle, ops)


def portrait(inputs: dict, su: _Setup) -> list[Op]:
    ops = []
    for name in ("halfplane.cfg", "parabola.cfg"):
        cfg = su.config(name)
        su.metric(cfg.metric_obj)
        ops.append(cli_op("portrait", name, "portrait", c=cfg.coeffs[0]))
    return ops


def singular_op(config: str, c: str, alpha: float | None) -> Op:
    """``singular`` on a config with c = alpha y^2 - x, or c = -x (alpha None)."""
    op = cli_op("singular", config, "singular", c=c, alpha=alpha)
    if alpha is not None:
        op.fault = Fault("the one singular curve comes out as several components",
                         r"^\d+ singular components, expected 1$")
    return op


def locus(inputs: dict, su: _Setup) -> list[Op]:
    ops = []
    alphas = {"halfplane.cfg": None, "parabola.cfg": 1.0, "parabola_neg.cfg": -1.0}
    for name, alpha in alphas.items():
        cfg = su.config(name)
        su.metric(cfg.metric_obj)
        ops.append(singular_op(name, cfg.coeffs[0], alpha))
        ops.append(cli_op("classify", name, "classify", c=cfg.coeffs[0]))
    return ops


def series(inputs: dict, su: _Setup) -> list[Op]:
    su.metric(su.config("berwald_moor_tangency.cfg").metric_obj)
    ops = [cli_op("puiseux", "berwald_moor_tangency.cfg", "cli_puiseux",
                  coeffs=list(PRODUCT_METRIC))]
    frees = [None] + [Fraction(v) for v in inputs["free_values"]]

    def solve_op(tag, m, s, seed, order, free, check_spec):
        def run(outdir):
            return puiseux.solve_geodesic_series(m, s, seed, order, free=free)

        spec = {"s": s, "order": order, "free": {k: str(v) for k, v in (free or {}).items()},
                **check_spec}
        return Op(f"puiseux.solve:{tag}:o{order}:{'free' if free else 'none'}", run,
                  "series", spec)

    # The median operation falls in the middle of the eleven product
    # solves, which cost about the same: six spectra lie below them and
    # the puiseux command and the four adapted solves above.
    m = su.metric(lambda: metric.metric_from_strings(3, list(PRODUCT_METRIC)))
    product = {"coeffs": list(PRODUCT_METRIC), "product": True}
    middle = []
    for k, v in enumerate(frees):
        free = None if v is None else {4: v}
        middle.append(solve_op(f"product{k}", m, 3, {3: 2}, 12, free, product))

    for n, comps in TANGENCY_IMMERSIONS.items():
        alm = su.build(lambda comps=comps: berwald_moor.adapted_from_immersion(
            berwald_moor.SurfaceImmersion(comps), 2, 1))
        m = su.metric(lambda alm=alm: berwald_moor.full_metric(alm))
        u1 = berwald_moor.admissible_u(alm)[1]
        spec = {"immersion": list(comps), "product": n == 3}
        for order, free in ((12, frees[1]), (14, frees[2])):
            ops.append(solve_op(f"adapted{n}", m, n, {n: u1}, order, {2 * n - 2: free}, spec))
        for which in (0, 1, 2):
            def spectrum(outdir, alm=alm, which=which):
                return berwald_moor.blowup_spectrum(alm, which=which)

            ops.append(Op(f"berwald_moor.blowup_spectrum:n{n}:u{which}", spectrum,
                          "spectrum", {"n": n, "which": which}))
    return spread_among(middle, ops)


WORKLOADS = {
    "geodesics": geodesics,
    "portrait": portrait,
    "locus": locus,
    "series": series,
}


def build(name: str, inputs: dict) -> Workload:
    """Set the workload up and list its operations."""
    su = _Setup()
    ops = WORKLOADS[name](inputs, su)
    return Workload(ops=ops, config_s=su.config_s, build_s=su.build_s)
