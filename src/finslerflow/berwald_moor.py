"""Metrics induced on surfaces immersed in a Berwald-Moor product space.

An n-dimensional ambient space carrying the n-fold product form assigns to
a velocity the product of its coordinate components.  A surface immersed
through components (f_1, ..., f_n) of two parameters inherits the metric
function

    F(x, y; p) = prod_i (f_ix(x, y) + f_iy(x, y) * p),

a polynomial of degree at most n in the slope p whose isotropic directions
are the kernels of the differentials df_i.  Where two factors become
proportional, two isotropic directions collide into a double one.  In an
adapted chart that places the collision line at x = 0 the metric takes the
local shape

    F = p * (a(x, y) * x + b(x, y) * p) * G(x, y; p),

with a, b, G nonvanishing at the origin.  The slope substitution p = x*u
then resolves the flow: after rescaling, the plane x = 0 is invariant and
carries rest points only at three admissible u values (0, -a/2b, -a/b)
whose spectra are constant along the rest lines and decide the local
geodesic picture, including a tongue of geodesics squeezed between the two
isotropic curves through the collision point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex
from . import metric as mt
from .codegen import LayerTable
from .flow import FamilyMember, IntegratorConfig, PTMPoint, _integrate_outward
from .metric import PseudoFinslerMetric
from .singular import CurveSamples, trace_implicit_curve

__all__ = [
    "SurfaceImmersion",
    "AdaptedLocalMetric",
    "induced_metric",
    "double_direction_locus",
    "adapted_from_immersion",
    "full_metric",
    "admissible_u",
    "blowup_field_at",
    "blowup_spectrum",
    "bm_family_shoot",
]

# Probe grid half-width used to certify that each component has a
# nondegenerate differential near the working region.
_PROBE_HALF = 1.0
_PROBE_SIDE = 7
_DEGEN_TOL = 1e-10


def _expand_factors(factors) -> list[ex.Expr]:
    """Slope-polynomial coefficients of prod (cx + cy * p)."""
    coeffs: list[ex.Expr] = [ex.ONE]
    for cx, cy in factors:
        new = [ex.ZERO] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k] = ex.sadd(new[k], ex.smul(c, cx))
            new[k + 1] = ex.sadd(new[k + 1], ex.smul(c, cy))
        coeffs = new
    return coeffs


@dataclass(frozen=True)
class SurfaceImmersion:
    """Surface in the n-dimensional product space, componentwise.

    Components may be given as Expr, text or numbers.  Construction
    probes a grid around the origin and refuses, with a ValueError,
    components whose differential degenerates there or has a pole on it
    (is not finite).
    """

    components: tuple[ex.Expr, ...] = field(default_factory=tuple)

    def __post_init__(self):
        comps = tuple(ex.as_expr(c) for c in self.components)
        if len(comps) < 3:
            raise ValueError("need at least three components")
        ticks = np.linspace(-_PROBE_HALF, _PROBE_HALF, _PROBE_SIDE)
        xs, ys = np.meshgrid(ticks, ticks, indexing="ij")
        partials = LayerTable([ex.diff(f, v) for f in comps for v in "xy"])
        d = partials.values_on_grid(xs, ys).reshape(len(comps), 2, -1)
        size = np.abs(d).sum(axis=1)
        bad = ~np.isfinite(size) | (size <= _DEGEN_TOL)
        if bad.any():
            # the first failure by component, then x, then y
            idx, k = divmod(int(np.argmax(bad)), size.shape[1])
            where = f"({xs.flat[k]:.3g}, {ys.flat[k]:.3g})"
            if np.isfinite(size[idx, k]):
                raise ValueError(
                    f"component {idx} has a degenerate differential near {where}"
                )
            raise ValueError(
                f"component {idx} has a pole at {where}: its differential "
                "is not finite"
            )
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)


def induced_metric(imm: SurfaceImmersion) -> PseudoFinslerMetric:
    """Expand prod (f_ix + f_iy p) into polynomial metric coefficients."""
    factors = [
        (ex.diff(f, "x"), ex.diff(f, "y")) for f in imm.components
    ]
    return PseudoFinslerMetric(imm.n, _expand_factors(factors))


def double_direction_locus(
    imm: SurfaceImmersion,
    i: int,
    j: int,
    box: tuple[float, float, float, float],
    resolution: int = 220,
) -> list[CurveSamples]:
    """Zero set of the (i, j) factor Jacobian f_ix*f_jy - f_iy*f_jx.

    Indices are zero-based.  On the returned curves the two isotropic
    directions of the chosen factor pair coincide.  The Jacobian seeds
    the grid and each sample takes gradient-Newton steps onto its zero
    set, with the gradient from ``expr.diff`` (trace_implicit_curve).
    """
    if i == j:
        raise ValueError("need two distinct component indices")
    fi, fj = imm.components[i], imm.components[j]
    jac = ex.sub(
        ex.mul(ex.diff(fi, "x"), ex.diff(fj, "y")),
        ex.mul(ex.diff(fi, "y"), ex.diff(fj, "x")),
    )
    table = LayerTable([jac, ex.diff(jac, "x"), ex.diff(jac, "y")])

    def equations(P):
        v, *grad = table.values_on_grid(*P)
        return v[None], np.array([grad])

    return trace_implicit_curve(lambda X, Y: table.values_on_grid(X, Y)[0], equations,
                                box, resolution, "double-direction")


@dataclass(frozen=True)
class AdaptedLocalMetric:
    """Local data (a, b, extra factors) of the shape p*(a*x + b*p)*G.

    ``extra`` holds the velocity-linear factors of G as (gx, gy) pairs;
    the slope polynomial of G is prod (gx + gy * p).  The total velocity
    degree is 2 + len(extra).  Fields may be given as Expr, text or
    numbers; instances compare by their expression trees.
    """

    a: ex.Expr
    b: ex.Expr
    extra: tuple[tuple[ex.Expr, ex.Expr], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a", ex.as_expr(self.a))
        object.__setattr__(self, "b", ex.as_expr(self.b))
        object.__setattr__(
            self,
            "extra",
            tuple((ex.as_expr(gx), ex.as_expr(gy)) for gx, gy in self.extra),
        )
        av, bv, *gxs = self.values(0.0, 0.0)
        if abs(av) <= _DEGEN_TOL:
            raise ValueError("field a vanishes at the origin (tangency too flat)")
        if abs(bv) <= _DEGEN_TOL:
            raise ValueError("field b vanishes at the origin")
        for k, gx in enumerate(gxs):
            if abs(gx) <= _DEGEN_TOL:
                raise ValueError(
                    f"extra factor {k} is vertical at the origin; only one "
                    "double direction is supported"
                )

    @property
    def n(self) -> int:
        return 2 + len(self.extra)

    @cached_property
    def _table(self) -> LayerTable:
        return LayerTable((self.a, self.b) + tuple(gx for gx, _ in self.extra))

    def values(self, x: float, y: float) -> list[float]:
        """a, b and the gx of each extra factor at (x, y); a value that
        is not finite (a pole) is a ValueError."""
        got = self._table.values_at(x, y)
        if not np.all(np.isfinite(got)):
            raise ValueError(
                f"an adapted field has a pole at ({x!r}, {y!r}): "
                f"(a, b, gx...) = {got.tolist()}"
            )
        return got.tolist()


@lru_cache(maxsize=16)
def full_metric(alm: AdaptedLocalMetric) -> PseudoFinslerMetric:
    """Expand p*(a*x + b*p)*G into a polynomial metric.

    Adapted metrics with equal coefficient trees compare equal and so
    share one result, and its generated evaluators.
    """
    factors = [(ex.ZERO, ex.ONE), (ex.smul(alm.a, ex.X), alm.b)]
    factors.extend(alm.extra)
    return PseudoFinslerMetric(alm.n, _expand_factors(factors))


def admissible_u(alm: AdaptedLocalMetric, x: float = 0.0, y: float = 0.0):
    """The three rest values of the blown-up slope: 0, -a/2b, -a/b."""
    av, bv = alm.values(x, y)[:2]
    if abs(bv) <= _DEGEN_TOL * (1.0 + abs(av)):
        raise ValueError("field b vanishes here; no finite admissible slopes")
    return (0.0, -av / (2.0 * bv), -av / bv)


def _ambient_guard(n: int, av: float, bv: float) -> None:
    d = n * (2 - n) * (av * bv) * (av * bv)  # inf, not OverflowError, past 1e308
    if d >= -1e-12:
        raise ValueError(
            "a*b vanishes here: the double isotropic direction degenerates "
            "and the blow-up chart does not apply"
        )


def _rest_line_terms(n: int, av: float, bv: float, u: float):
    """P(u), P'(u) and A(u) of the blown-up slope component on x = 0,
    which is P(u) / A(u) with P(u) = u (n - 2) (2 b**2 u**2 + 3 a b u + a**2)
    and A(u) = (1 - n) a**2 + 2 (2 - n) (a b u + (b u)**2); a vanishing
    A(u) is a ValueError."""
    amb = (1 - n) * av * av + 2.0 * (2 - n) * (av * bv * u + (bv * u) ** 2)
    mag = av * av + (bv * u) ** 2 + abs(av * bv * u)
    if abs(amb) <= 1e-10 * max(mag, 1.0):
        raise ValueError(
            "blow-up denominator vanishes at this slope; shrink the "
            "neighborhood"
        )
    slope = u * (n - 2) * (2.0 * (bv * u) ** 2 + 3.0 * av * bv * u + av * av)
    dslope = (n - 2) * (6.0 * (bv * u) ** 2 + 6.0 * av * bv * u + av * av)
    return slope, dslope, amb


def blowup_field_at(alm: AdaptedLocalMetric, x: float, y: float, u: float):
    """Orbit-equivalent rescaled flow in blown-up coordinates (x, y, u).

    The substitution p = x*u turns the projectivized geodesic field into
    (x, x**2*u, (numer - u*denom)/denom); the last component extends
    continuously to x = 0 where it becomes an explicit rational function
    of u built from a, b and the degree.  Rescaling divides by a scalar
    that may change sign, so orbits are preserved but not their time
    orientation.
    """
    n = alm.n
    av, bv = alm.values(x, y)[:2]
    _ambient_guard(n, av, bv)
    if abs(x) < 1e-12:
        slope, _, amb = _rest_line_terms(n, av, bv, u)
        return (0.0, 0.0, slope / amb)
    m = full_metric(alm)
    p = x * u
    dv = m.table("denom").poly_value(x, y, p)
    nv = m.table("numer").poly_value(x, y, p)
    if abs(dv) <= 1e-14 * max(1.0, abs(nv)):
        raise ValueError("slope-degeneracy polynomial vanishes here")
    return (x, x * x * u, (nv - u * dv) / dv)


def blowup_spectrum(alm: AdaptedLocalMetric, y0: float = 0.0, which: int = 1):
    """Normalized eigenvalues (1, lam, 0) at rest point (0, y0, u_which).

    In closed form: at x = 0 the Jacobian of the blown-up field is lower
    triangular with diagonal (1, 0, g), where g = P'(u0) / A(u0) is the
    u-derivative of the slope component P / A at its zero u0.  The
    spectrum is sorted by magnitude and normalized by the largest, so it
    is (1, g, 0) when |g| <= 1 and (1, 1/g, 0) otherwise.
    """
    u0 = admissible_u(alm, 0.0, y0)[int(which)]
    av, bv = alm.values(0.0, y0)[:2]
    _ambient_guard(alm.n, av, bv)
    _, dslope, amb = _rest_line_terms(alm.n, av, bv, u0)
    g = dslope / amb
    return (1.0, g if abs(g) <= 1.0 else 1.0 / g, 0.0)


def adapted_from_immersion(
    imm: SurfaceImmersion, tangent_index: int, vertical_index: int
) -> AdaptedLocalMetric:
    """Best-effort adapted data for an immersion already in position.

    Expects polynomial components with the double-direction pair meeting
    on the line x = 0 and the base point at the origin: the vertical
    component must not depend on x, and the tangent component's x-partial
    must be divisible by x.  Apply your own affine change first if the
    immersion is not in this position.  The reconstruction is validated
    against the directly induced metric on random probes.
    """
    if tangent_index == vertical_index:
        raise ValueError("need two distinct component indices")
    comps = imm.components
    fi = comps[tangent_index]
    fj = comps[vertical_index]

    cjx = ex.expr_to_poly2d(ex.diff(fj, "x"))
    if np.max(np.abs(cjx)) > 1e-12:
        raise ValueError(
            "not in adapted position: the vertical component depends on x"
        )
    fjy = ex.diff(fj, "y")

    cix = ex.expr_to_poly2d(ex.diff(fi, "x"))
    scale = max(float(np.max(np.abs(cix))), 1.0)
    if np.max(np.abs(cix[0, :])) > 1e-12 * scale:
        raise ValueError(
            "not in adapted position: the tangent component's x-partial "
            "is not divisible by x"
        )
    a_expr = ex.poly2d_to_expr(cix[1:, :]) if cix.shape[0] > 1 else ex.ZERO
    b_expr = ex.diff(fi, "y")

    # Fold the vertical factor's scalar weight into (a, b); the shape and
    # all blow-up invariants are unchanged by a common rescaling.
    a_expr = ex.smul(a_expr, fjy)
    b_expr = ex.smul(b_expr, fjy)

    extra = [
        (ex.diff(comps[k], "x"), ex.diff(comps[k], "y"))
        for k in range(len(comps))
        if k not in (tangent_index, vertical_index)
    ]
    alm = AdaptedLocalMetric(a_expr, b_expr, tuple(extra))

    want = induced_metric(imm)
    got = full_metric(alm)
    rng = np.random.default_rng(20260814)
    for _ in range(25):
        xv, yv = rng.uniform(-0.8, 0.8, 2)
        cw = mt.coeff_values(want, xv, yv)
        cg = mt.coeff_values(got, xv, yv)
        if not np.allclose(cg, cw, atol=1e-9 * max(1.0, float(np.max(np.abs(cw))))):
            raise ValueError("adapted reconstruction failed validation")
    return alm


def bm_family_shoot(
    alm: AdaptedLocalMetric,
    alphas,
    t0: float = 0.2,
    y0: float = 0.0,
    order: int = 14,
    cfg: IntegratorConfig | None = None,
) -> list[FamilyMember]:
    """Shoot the geodesic family squeezed between the isotropic curves.

    Each alpha parametrizes one member of the family through the double
    direction point (0, y0).  Seeds come from a fractional-power series
    with x = t**n whose first free coefficient carries alpha; each member
    is integrated outward on both sides.  Requires first-order tangency
    (a nonvanishing at the base point).
    """
    from .puiseux import series_point, solve_geodesic_series

    n = alm.n
    av, bv = alm.values(0.0, y0)[:2]
    _ambient_guard(n, av, bv)
    if abs(av) <= _DEGEN_TOL:
        raise ValueError("tangency order is not one (field a vanishes)")
    u1 = -av / (2.0 * bv)
    m = full_metric(alm)
    cfg = cfg or IntegratorConfig()

    members: list[FamilyMember] = []
    for alpha in alphas:
        sol = solve_geodesic_series(
            m,
            s=n,
            seed={n: u1},
            order=order,
            free={2 * n - 2: float(alpha)},
            y0=y0,
        )
        for tsign in (1, -1):
            xv, yv, pv = series_point(sol, tsign * t0)
            trace = _integrate_outward(
                m, PTMPoint(xv, yv, pv), (0.0, y0, 0.0), cfg
            )
            members.append(FamilyMember(alpha=float(alpha), eta_sign=tsign, trace=trace))
    return members
