"""Planar pseudo-Finsler metrics with polynomial velocity dependence.

A metric of degree n is F(x, y; p) = sum_i a_i(x, y) p^i where p is the
slope dy/dx of a direction.  Everything the geodesic field needs reduces
to two derived polynomials in p, the ``denom`` and ``numer`` layers of
the metric's tables (``m.table(name).values_at(x, y)`` is the ascending
coefficient row at a point; ``fdp_function`` gives F, denom and numer at
a slope):

* denom  -- the coefficient of d/dx in the direction field; it is
  proportional to the velocity Hessian determinant of the homogeneous
  metric on the tangent bundle, and its zeros are the directions where
  the second-order geodesic system degenerates;
* numer  -- the forcing of the slope equation dp/dx, so that away
  from zeros of denom the geodesics satisfy dp/dx = numer / denom.

Both are assembled coefficient-by-coefficient with integer weights so
that the leading cancellations hold exactly: denom has degree at most
2n-4 and numer at most 2n-1.

accel_determinants computes the same data independently on the tangent
bundle (Cramer determinants of the acceleration system of the
homogeneous metric) and serves as the cross-check oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from . import poly
from .codegen import (
    LayerTable, _ipow, horner_function, on_arrays, p_derivative, slope_rows_function,
)

DISC_BAND_REL = 1e-10
DEGREE_TRIM_REL = 1e-12


class Stratum(str, enum.Enum):
    MPlus = "MPlus"
    MMinus = "MMinus"
    M01 = "M01"
    M00 = "M00"


# the stratum names in sorted order; strata_on_grid gives codes into it
STRATA = tuple(sorted(s.name for s in Stratum))


@dataclass(frozen=True)
class ProjectiveRoot:
    """A direction p with F(x, y; p) = 0; infinite means the vertical one."""

    value: float
    multiplicity: int
    at_infinity: bool = False


class DegeneratePointError(ValueError):
    """All metric coefficients vanish at the requested point, or one of
    them is not finite there (a pole)."""


_PROBES = [(0.37, -0.84), (-1.2, 0.55), (2.1, 1.7), (0.0, 0.0), (-0.31, -0.27)]


class PseudoFinslerMetric:
    """Immutable-by-convention container; derived data is cached lazily."""

    def __init__(self, degree: int, coeffs):
        if degree < 2:
            raise ValueError(f"degree must be >= 2, got {degree}")
        if len(coeffs) != degree + 1:
            raise ValueError(
                f"need {degree + 1} coefficients a_0..a_{degree}, got {len(coeffs)}"
            )
        self._setup(int(degree), tuple(ex.as_expr(c) for c in coeffs))
        self._check_not_identically_zero()

    def _setup(self, degree: int, coeffs: tuple[ex.Expr, ...]) -> None:
        self.degree = degree
        self.coeffs = coeffs
        self._exprs: dict[str, list[ex.Expr]] = {}
        self._tables: dict[str, LayerTable] = {}
        self._slope_rows_functions: dict[tuple[str, ...], object] = {}
        self._series_plan = None  # puiseux's residual plan, built on the first series solve
        self._dual: PseudoFinslerMetric | None = None

    def _check_not_identically_zero(self) -> None:
        # a non-finite value (a pole at a probe) counts as nonzero
        for px, py in _PROBES:
            if not np.all(np.abs(self.table("F").values_at(px, py)) <= 1e-14):
                return
        raise ValueError("metric coefficients vanish on all probe points")

    # -- symbolic layers ----------------------------------------------------

    def coeff_exprs(self) -> list[ex.Expr]:
        return list(self.coeffs)

    def _expr_layer(self, name: str) -> list[ex.Expr]:
        got = self._exprs.get(name)
        if got is not None:
            return got
        if name == "F":
            out = self.coeff_exprs()
        elif name == "denom":
            out = _denom_exprs(self)
        elif name == "numer":
            out = _numer_exprs(self)
        elif name.endswith(("_x", "_y")):
            base, var = name[:-2], name[-1]
            out = [ex.diff(e, var) for e in self._expr_layer(base)]
        else:
            raise KeyError(name)
        self._exprs[name] = out
        return out

    def table(self, name: str) -> LayerTable:
        got = self._tables.get(name)
        if got is None:
            got = LayerTable(self._expr_layer(name))
            self._tables[name] = got
        return got

    @cached_property
    def fdp_function(self):
        """The generated (x, y, p) -> (F, denom, numer) at slope p, on floats
        or elementwise on arrays (fdp_many), compiled on first use; a caller
        that evaluates it many times (the geodesic step, codegen.chart_step)
        fetches it once."""
        return horner_function(
            [self._expr_layer(name) for name in ("F", "denom", "numer")]
        )

    def slope_rows_function(self, names: tuple[str, ...]):
        """The generated (x, y, p) -> (C, C_x, C_y, C_p) of each slope
        polynomial C named, flat (codegen.slope_rows_function); a name is a
        layer or, with the suffix "_p", its p-derivative ("F_p").  Compiled
        on first use for each tuple of names."""
        got = self._slope_rows_functions.get(names)
        if got is None:
            polys = []
            for name in names:
                base = name.removesuffix("_p")
                rows = [self._expr_layer(base + s) for s in ("", "_x", "_y")]
                polys.append(rows if base == name else [p_derivative(r) for r in rows])
            got = self._slope_rows_functions[names] = slope_rows_function(polys)
        return got

    def fdp_many(self, xs, ys, ps) -> np.ndarray:
        """fdp_function at 1-d arrays of points, as the rows (F, denom,
        numer) of one array; run elementwise, with the same bits."""
        return on_arrays(3, self.fdp_function, xs, ys, ps)

    def dual(self) -> "PseudoFinslerMetric":
        """Metric seen from the chart with the roles of x and y exchanged.

        Coefficients are reversed (the slope becomes q = dx/dy) and each
        coefficient field gets its arguments swapped.  The dual skips the
        zero-coefficient probe: it is identically zero only if this metric
        is, and this one passed the probe.
        """
        if self._dual is None:
            swapped = tuple(ex.swap_xy(c) for c in reversed(self.coeffs))
            self._dual = PseudoFinslerMetric.__new__(PseudoFinslerMetric)
            self._dual._setup(self.degree, swapped)
            self._dual._dual = self
        return self._dual

    def __repr__(self) -> str:
        parts = ", ".join(ex.to_string(c) for c in self.coeffs)
        return f"PseudoFinslerMetric(n={self.degree}, [{parts}])"


def metric_from_strings(degree: int, coeff_texts) -> PseudoFinslerMetric:
    return PseudoFinslerMetric(degree, list(coeff_texts))


# ---------------------------------------------------------------------------
# weight-built derived polynomials


def _denom_exprs(m: PseudoFinslerMetric) -> list[ex.Expr]:
    n = m.degree
    a = m.coeff_exprs()
    out = [ex.ZERO] * max(2 * n - 3, 1)
    for i in range(n + 1):
        for j in range(i, n + 1):
            k = i + j - 2
            if k < 0 or k >= len(out):
                continue
            if i == j:
                w = i * (i - n)
            else:
                w = n * (j * j - j + i * i - i) - 2 * (n - 1) * i * j
            out[k] = ex.sadd(out[k], ex.smul(ex.const(w), ex.smul(a[i], a[j])))
    return out


def _numer_exprs(m: PseudoFinslerMetric) -> list[ex.Expr]:
    n = m.degree
    a = m.coeff_exprs()
    ax = [ex.diff(e, "x") for e in a]
    ay = [ex.diff(e, "y") for e in a]
    out = [ex.ZERO] * (2 * n)
    for i in range(n + 1):
        for j in range(n + 1):
            wx = (n - 1) * i - n * j
            wy = n * (1 - j) + (n - 1) * i
            # wx vanishes at i + j = 0 and wy at i + j = 2n, out of range
            if i + j > 0:
                term = ex.smul(ex.const(wx), ex.smul(a[i], ax[j]))
                out[i + j - 1] = ex.sadd(out[i + j - 1], term)
            if i + j < 2 * n:
                term = ex.smul(ex.const(wy), ex.smul(a[i], ay[j]))
                out[i + j] = ex.sadd(out[i + j], term)
    return out


# ---------------------------------------------------------------------------
# pointwise evaluation


def coeff_values(m: PseudoFinslerMetric, x: float, y: float) -> np.ndarray:
    return m.table("F").values_at(x, y)


def metric_scale(m: PseudoFinslerMetric, x: float, y: float) -> float:
    """max |a_i(x, y)|, nan if any coefficient is nan (as np.max gives)."""
    return coeff_scale(m.table("F").point_function(float(x), float(y)))


def coeff_scale(coeffs) -> float:
    """metric_scale from the coefficient values at a point (floats), for a
    caller that holds F's point function."""
    a = list(map(abs, coeffs))
    # a sum of non-negative terms is nan only where one of them is
    return math.nan if math.isnan(sum(a)) else max(a)


def metric_scale_many(m: PseudoFinslerMetric, xs, ys) -> np.ndarray:
    """metric_scale at 1-d arrays of points: nan wherever a coefficient is."""
    return np.max(np.abs(m.table("F").values_on_grid(xs, ys)), axis=0)


def fdp_values(
    m: PseudoFinslerMetric, x: float, y: float, p: float
) -> tuple[float, float, float]:
    """(F, denom, numer) at one projectivized point; the field hot path."""
    return m.fdp_function(float(x), float(y), float(p))


def disc_from_coeffs(m: PseudoFinslerMetric, c):
    """Discriminant of F in p from its coefficients c[0..n], floats or
    arrays of one shape; the same bits either way (degrees 2 and 3 only)."""
    if m.degree == 2:
        return poly.disc_quadratic(c)
    if m.degree == 3:
        return poly.disc_cubic(c)
    raise ValueError("discriminant implemented for degrees 2 and 3 only")


def disc_metric(m: PseudoFinslerMetric, x: float, y: float) -> float:
    """Discriminant of F in p (degrees 2 and 3 only)."""
    return float(disc_from_coeffs(m, coeff_values(m, x, y).tolist()))


def disc_denom(m: PseudoFinslerMetric, x: float, y: float) -> float:
    """Discriminant in p of the denom layer's row at (x, y) (degree-3
    metrics only)."""
    if m.degree != 3:
        raise ValueError("denominator discriminant requires degree 3")
    c = np.zeros(3)
    v = m.table("denom").values_at(x, y)
    c[: v.size] = v
    return float(poly.disc_quadratic(c.tolist()))


def _checked_coeffs(m: PseudoFinslerMetric, x: float, y: float):
    """The coefficients at (x, y) and their largest magnitude; a
    DegeneratePointError where they all vanish or one is not finite."""
    c = coeff_values(m, x, y)
    if not np.all(np.isfinite(c)):
        raise DegeneratePointError(
            f"a coefficient is not finite at ({x}, {y}): {c.tolist()}"
        )
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise DegeneratePointError(f"all coefficients vanish at ({x}, {y})")
    return c, scale


def isotropic_directions(
    m: PseudoFinslerMetric, x: float, y: float
) -> list[ProjectiveRoot]:
    """Real directions (including the vertical one) with F = 0; a
    DegeneratePointError where the coefficients all vanish or one is not
    finite."""
    c, scale = _checked_coeffs(m, x, y)
    eff = c.copy()
    eff[np.abs(eff) <= DEGREE_TRIM_REL * scale] = 0.0
    out = [
        ProjectiveRoot(value=r, multiplicity=k)
        for r, k in poly.real_roots_many([eff])[0]
    ]
    nz = np.flatnonzero(eff)
    inf_mult = m.degree - (int(nz[-1]) if nz.size else 0)
    if inf_mult > 0:
        out.append(
            ProjectiveRoot(value=float("nan"), multiplicity=inf_mult, at_infinity=True)
        )
    return out


def classify_point(m: PseudoFinslerMetric, x: float, y: float) -> Stratum:
    """Stratify a base point of a degree-3 metric by its discriminant.

    MPlus / MMinus are the open strata with three / one real isotropic
    direction; inside the band |disc| < 1e-10 * scale^4 the multiple-root
    structure decides between the generic boundary (M01, a double
    direction) and the degenerate one (M00, a triple direction).  Where
    the coefficients all vanish, one is not finite or the band overflows
    there is no stratum: that is a DegeneratePointError.
    """
    if m.degree != 3:
        raise ValueError("classification requires a degree-3 metric")
    c, scale = _checked_coeffs(m, x, y)
    d = poly.disc_cubic(c.tolist())
    band = _disc_band(scale)
    if not math.isfinite(band):
        raise DegeneratePointError(
            f"the discriminant band is not finite at ({x}, {y}): "
            f"the coefficients reach {scale!r}"
        )
    if d > band:
        return Stratum.MPlus
    if d < -band:
        return Stratum.MMinus
    # Inside the band the multiple-root structure decides.  Numeric root
    # clustering cannot resolve a triple root (the extracted cluster has
    # a cube-root-of-epsilon spread), but the Hessian of the binary
    # cubic form vanishes identically exactly at a projective triple
    # root, including one sitting at infinity.
    a0, a1, a2, a3 = (float(v) for v in c)
    hess = (
        a2 * a2 - 3.0 * a3 * a1,
        a2 * a1 - 9.0 * a3 * a0,
        a1 * a1 - 3.0 * a2 * a0,
    )
    if max(abs(h) for h in hess) <= DISC_BAND_REL * (scale * scale):
        return Stratum.M00
    return Stratum.M01


def _disc_band(scale):
    """Half-width of the band around disc = 0, for floats or arrays."""
    return DISC_BAND_REL * ((scale * scale) * (scale * scale))


def strata_on_grid(m: PseudoFinslerMetric, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """classify_point and disc_metric at arrays of points.

    Returns (strata, disc) in the shape of X, strata holding the codes
    of the Stratum members into STRATA.  The open strata are decided on
    the raveled arrays a block at a time (on_arrays); only a point in the
    band, or one with a non-finite value, goes through classify_point, so
    a degenerate point, a pole or a band that overflows on the grid is a
    DegeneratePointError.
    """
    if m.degree != 3:
        raise ValueError("classification requires a degree-3 metric")
    table = m.table("F")

    def block(x, y):
        # the disc and its side of the band: 1 above, -1 below, 0 in it
        c = table.values_on_grid(x, y)
        disc = poly.disc_cubic(c)
        band = _disc_band(np.max(np.abs(c), axis=0))
        return disc, (disc > band) - (disc < -band).astype(np.float64)

    disc, side = on_arrays(2, block, X.ravel(), Y.ravel())
    strata = np.where(side > 0, STRATA.index("MPlus"), STRATA.index("MMinus"))
    for k in np.flatnonzero(side == 0):
        strata[k] = STRATA.index(classify_point(m, X.flat[k], Y.flat[k]).name)
    return strata.reshape(X.shape), disc.reshape(X.shape)


# ---------------------------------------------------------------------------
# tangent-bundle oracle


def accel_determinants(
    m: PseudoFinslerMetric, x: float, y: float, xdot: float, ydot: float
) -> tuple[float, float, float]:
    """Cramer determinants (H, H1, H2) of the acceleration system.

    The homogeneous metric Fbar(x, y, xdot, ydot) = sum a_i xdot^(n-i)
    ydot^i defines second-order geodesic equations; their linear system
    for the accelerations has matrix [[F11, F12], [F12, F22]] (velocity
    second partials) and right-hand side (G1, G2).  H is the matrix
    determinant, H1/H2 the Cramer numerators.  This route never touches
    the weight-built slope polynomials, which it cross-checks.
    """
    n = m.degree
    # Python floats: an overflow gives inf and inf * 0 gives nan, silently
    x, y = float(x), float(y)
    a = m.table("F").point_function(x, y)
    axv = m.table("F_x").point_function(x, y)
    ayv = m.table("F_y").point_function(x, y)
    f11 = f12 = f22 = 0.0
    fx = fy = f1x = f1y = f2x = f2y = 0.0
    for i in range(n + 1):
        ni = n - i
        xe = _ipow(xdot, ni)
        ye = _ipow(ydot, i)
        fx += axv[i] * xe * ye
        fy += ayv[i] * xe * ye
        if ni >= 1:
            xm1 = _ipow(xdot, ni - 1)
            f1x += axv[i] * ni * xm1 * ye
            f1y += ayv[i] * ni * xm1 * ye
            if ni >= 2:
                f11 += a[i] * ni * (ni - 1) * _ipow(xdot, ni - 2) * ye
        if i >= 1:
            ym1 = _ipow(ydot, i - 1)
            f2x += axv[i] * i * xe * ym1
            f2y += ayv[i] * i * xe * ym1
            if i >= 2:
                f22 += a[i] * i * (i - 1) * xe * _ipow(ydot, i - 2)
            if ni >= 1:
                f12 += a[i] * ni * i * _ipow(xdot, ni - 1) * ym1
    g1 = fx - xdot * f1x - ydot * f1y
    g2 = fy - xdot * f2x - ydot * f2y
    h = f11 * f22 - f12 * f12
    h1 = g1 * f22 - g2 * f12
    h2 = f11 * g2 - f12 * g1
    return h, h1, h2
