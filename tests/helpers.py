"""Shared builders, planar polyline utilities, the guarded tree walk
that checks the generated evaluators, a loop reference for the generated
Dormand-Prince step, a point-by-point reference for the SVG paths,
cell-by-cell references for the grid paths, a point-by-point reference
for the projection onto the loci, the degree of a coefficient row, the
homogeneous metric, the one-polynomial-at-a-time root pipeline, the
pairwise-difference expansion of the degeneracy combination, Sylvester
determinants for the singular locus, exact polynomial trees in sympy,
and a tree-walk reference, on dual numbers, for the exact series
solve."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import sympy
from numpy.polynomial import polynomial as npoly

from finslerflow import expr as ex
from finslerflow import metric as mt
from finslerflow import poly
from finslerflow import puiseux as pz
from finslerflow.cli import _fmt
from finslerflow.codegen import DOPRI_A, DOPRI_E, _ipow


class EvalDomainError(ZeroDivisionError):
    """Raised when evaluate divides by a vanishing denominator."""

    def __init__(self, where: str, x: float, y: float):
        super().__init__(
            f"denominator '{where}' vanishes at (x, y) = ({x!r}, {y!r})"
        )
        self.where = where
        self.point = (x, y)


def evaluate(e: ex.Expr, x: float, y: float) -> float:
    """Reference: evaluate a tree by a recursive walk that refuses
    denominators below ex.DIV_TOL and takes integer powers from libm
    ``pow`` (x**2 and x*x differ by one ulp on about 0.08% of inputs)."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return x if e.name == "x" else y
    if isinstance(e, ex.Add):
        return evaluate(e.a, x, y) + evaluate(e.b, x, y)
    if isinstance(e, ex.Mul):
        return evaluate(e.a, x, y) * evaluate(e.b, x, y)
    if isinstance(e, ex.Div):
        den = evaluate(e.b, x, y)
        if abs(den) < ex.DIV_TOL:
            raise EvalDomainError(ex.to_string(e.b), x, y)
        return evaluate(e.a, x, y) / den
    if isinstance(e, ex.Neg):
        return -evaluate(e.a, x, y)
    if isinstance(e, ex.Pow):
        base = evaluate(e.base, x, y)
        if e.exponent < 0 and abs(base) < ex.DIV_TOL:
            raise EvalDomainError(ex.to_string(e), x, y)
        try:
            return float(base) ** e.exponent
        except OverflowError:
            return math.copysign(math.inf, base) if e.exponent % 2 else math.inf
    raise TypeError(f"not an expression node: {e!r}")


def lifted_field_reference(c, cx, cy, p: float) -> list[float]:
    """(C_p, p C_p, -(C_x + p C_y)) at one point from the coefficients of
    C, C_x and C_y, each Horner sum starting from its top coefficient."""

    def horner(coeffs):
        acc = 0.0
        for k, a in enumerate(reversed(coeffs)):
            acc = a if k == 0 else acc * p + a
        return acc

    dcdp = horner([i * c[i] for i in range(1, len(c))])
    return [dcdp, p * dcdp, -(horner(cx) + p * horner(cy))]


def dopri_step_reference(rhs, u, fu, h, rel_tol, abs_tol):
    """One embedded Dormand-Prince 5(4) step by loops over the tableau;
    returns (unew, fnew, err_norm).  Each coefficient sum is added left to
    right from 0.0, as sum() does on Python 3.11 (later versions
    compensate), so the result does not depend on the Python version."""

    def combo(coeffs, ks, i):
        acc = 0.0
        for c, k in zip(coeffs, ks):
            acc = acc + c * k[i]
        return acc

    d = len(u)
    ks = [fu]
    for row in DOPRI_A[1:]:
        arg = tuple(u[i] + h * combo(row, ks, i) for i in range(d))
        ks.append(rhs(arg))
    unew = arg  # the last stage argument is the 5th-order solution
    err = 0.0
    for i in range(d):
        e = h * combo(DOPRI_E, ks, i)
        sc = abs_tol + rel_tol * max(abs(u[i]), abs(unew[i]))
        err = err + _ipow(e / sc, 2)
    return unew, ks[6], math.sqrt(err / d)


def halfplane_metric() -> mt.PseudoFinslerMetric:
    """F = p**2 - x: strata split by the vertical axis."""
    return mt.metric_from_strings(3, ["-x", "0", "1", "0"])


def parabola_metric(alpha: float = 1.0) -> mt.PseudoFinslerMetric:
    """F = p**2 + alpha*y**2 - x: parabolic boundary stratum."""
    return mt.metric_from_strings(3, [f"{alpha}*y^2 - x", "0", "1", "0"])


def quartic_product_metric() -> mt.PseudoFinslerMetric:
    """F = p*(p - 4*x): the induced tangency example, written directly."""
    return mt.metric_from_strings(3, ["0", "-4*x", "1", "0"])


def random_poly_text(rng, degree: int = 2) -> str:
    """A random polynomial in x and y with coefficients in [-2, 2]."""
    parts = []
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = float(rng.uniform(-2.0, 2.0))
            if abs(c) < 0.15:
                continue
            term = f"{c:.6f}"
            if i:
                term += f"*x^{i}" if i > 1 else "*x"
            if j:
                term += f"*y^{j}" if j > 1 else "*y"
            parts.append(term)
    if not parts:
        parts = ["0.5"]
    return " + ".join(parts)


def random_metric(rng, degree: int) -> mt.PseudoFinslerMetric:
    """Random polynomial metric with a safely nonvanishing top coefficient."""
    texts = [random_poly_text(rng) for _ in range(degree)]
    lead = float(rng.uniform(0.6, 1.8) * rng.choice([-1.0, 1.0]))
    texts.append(f"{lead:.6f}")
    return mt.metric_from_strings(degree, texts)


def nondegenerate_state(m, rng, box=(-1.0, 1.0, -1.0, 1.0), min_field=1e-3):
    """A random (x, y, p) where the projectivized field is well scaled."""
    for _ in range(200):
        x = float(rng.uniform(box[0], box[1]))
        y = float(rng.uniform(box[2], box[3]))
        p = float(rng.uniform(-1.5, 1.5))
        dv = m.table("denom").poly_value(x, y, p)
        sc = 1.0 + mt.metric_scale(m, x, y)
        if abs(dv) > min_field * sc:
            return x, y, p
    raise AssertionError("no well-scaled state found")


def max_ode_residual(m, trace, stride: int = 7, event_margin: int = 21) -> float:
    """Spot-check dy/dx = slope and d(slope)/dx = P/Delta along a trace.

    Differentiates a quartic fitted through five consecutive p-chart
    samples, so the check's own error is fourth order in the sample
    spacing.  Windows near recorded events are skipped: there the curve
    folds or degenerates and no finite-difference stencil is meaningful.
    """
    event_ix = np.array([e.index for e in trace.events], dtype=int)
    worst = 0.0
    checked = 0
    for k in range(stride, len(trace.t) - stride, stride):
        if event_ix.size and np.min(np.abs(event_ix - k)) <= event_margin:
            continue
        lo, hi = k - 2, k + 3
        if any(trace.chart[j] != "p" for j in range(lo, hi)):
            continue
        xs = trace.x[lo:hi]
        d = np.diff(xs)
        if not (np.all(d > 0) or np.all(d < 0)) or np.abs(d).min() < 1e-12:
            continue
        x, y, p = trace.x[k], trace.y[k], trace.slope[k]
        dv = m.table("denom").poly_value(x, y, p)
        nv = m.table("numer").poly_value(x, y, p)
        sc = 1.0 + mt.metric_scale(m, x, y)
        if abs(dv) < 1e-3 * sc**2:
            continue
        u = xs - x
        s = np.abs(u).max()
        dy = np.polyfit(u / s, trace.y[lo:hi], 4)[3] / s
        dp = np.polyfit(u / s, trace.slope[lo:hi], 4)[3] / s
        worst = max(worst, abs(dy - p) / (1.0 + abs(p)))
        worst = max(worst, abs(dp - nv / dv) / (1.0 + abs(nv / dv)))
        checked += 1
    assert checked > 0, "residual check found no usable interior samples"
    return worst


# ---------------------------------------------------------------------------
# planar polylines


def _point_segment_dist(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points (N, 2) to one segment a-b."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.hypot(*(pts - a).T)
    t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.hypot(*(pts - proj).T)


def directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """max over points of a of the distance to polyline b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(b) == 1:
        return float(np.max(np.hypot(*(a - b[0]).T)))
    best = np.full(len(a), np.inf)
    for i in range(len(b) - 1):
        d = _point_segment_dist(a, b[i], b[i + 1])
        np.minimum(best, d, out=best)
    return float(np.max(best))


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def svg_polyline_paths(canvas, pts, style: str) -> list[tuple[str, str]]:
    """Reference: the (style, d) paths ``canvas.polyline`` adds, found by a
    walk over the points and formatted one point at a time through
    ``canvas._map``."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        return []
    box = canvas.box
    inside = (
        (pts[:, 0] >= box[0])
        & (pts[:, 0] <= box[1])
        & (pts[:, 1] >= box[2])
        & (pts[:, 1] <= box[3])
        & np.isfinite(pts[:, 0])
        & np.isfinite(pts[:, 1])
    )
    paths = []
    start = 0
    for k in range(pts.shape[0] + 1):
        if k == pts.shape[0] or not inside[k]:
            if k - start >= 2:
                coords = [canvas._map(x, y) for x, y in pts[start:k]]
                d = "M " + " L ".join(f"{px:.3f} {py:.3f}" for px, py in coords)
                paths.append((style, d))
            start = k + 1
    return paths


def _boundary_point(a, b, c, radius):
    """Point on segment a-b at distance radius from c (a inside, b outside)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.hypot(*(a + mid * (b - a) - c)) <= radius:
            lo = mid
        else:
            hi = mid
    return a + lo * (b - a)


def crop_to_ball(points: np.ndarray, center, radius: float) -> np.ndarray:
    """Arc of a polyline inside a disc, boundary points interpolated.

    Keeps the contiguous run of samples through the one closest to the
    center and extends it to the first exit on each side, so branches that
    re-enter the disc elsewhere are ignored; the result is comparable
    across integrators with different parametrizations.
    """
    pts = np.asarray(points, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64)
    d = np.hypot(*(pts - c).T)
    i0 = int(np.argmin(d))
    if d[i0] > radius:
        return pts[:0]
    lo = i0
    while lo - 1 >= 0 and d[lo - 1] <= radius:
        lo -= 1
    hi = i0
    while hi + 1 < len(pts) and d[hi + 1] <= radius:
        hi += 1
    out = list(pts[lo : hi + 1])
    if lo - 1 >= 0:
        out.insert(0, _boundary_point(pts[lo], pts[lo - 1], c, radius))
    if hi + 1 < len(pts):
        out.append(_boundary_point(pts[hi], pts[hi + 1], c, radius))
    return np.asarray(out)



# ---------------------------------------------------------------------------
# cell-by-cell and point-by-point references for the grid paths

# corner order (i, j), (i+1, j), (i+1, j+1), (i, j+1); edges 0 bottom,
# 1 right, 2 top, 3 left; None marks the saddles
_CELL_SEGMENTS = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
    5: None, 10: None,
}


def _edge_point(edge, x0, y0, dx, dy, v):
    def lerp(va, vb):
        d = vb - va
        return 0.5 if d == 0 else min(max(-va / d, 0.0), 1.0)

    if edge == 0:
        return (x0 + lerp(v[0], v[1]) * dx, y0)
    if edge == 1:
        return (x0 + dx, y0 + lerp(v[1], v[2]) * dy)
    if edge == 2:
        return (x0 + lerp(v[3], v[2]) * dx, y0 + dy)
    return (x0, y0 + lerp(v[0], v[3]) * dy)


def cell_marching_squares(vals, xs, ys) -> np.ndarray:
    """Reference: marching squares one cell at a time, as (segment, end,
    xy); a saddle is resolved by the mean of its corners."""
    segs = []
    ni, nj = vals.shape
    for i in range(ni - 1):
        for j in range(nj - 1):
            v = (vals[i, j], vals[i + 1, j], vals[i + 1, j + 1], vals[i, j + 1])
            if not all(np.isfinite(v)):
                continue
            idx = sum(1 << k for k, vk in enumerate(v) if vk < 0)
            entry = _CELL_SEGMENTS[idx]
            if entry is None:
                center = 0.25 * sum(v)
                if idx == 5:
                    entry = [(3, 2), (0, 1)] if center < 0 else [(3, 0), (1, 2)]
                else:
                    entry = [(0, 1), (2, 3)] if center < 0 else [(0, 3), (1, 2)]
            x0, y0 = xs[i], ys[j]
            dx, dy = xs[i + 1] - xs[i], ys[j + 1] - ys[j]
            for ea, eb in entry:
                segs.append((
                    _edge_point(ea, x0, y0, dx, dy, v),
                    _edge_point(eb, x0, y0, dx, dy, v),
                ))
    return np.array(segs, dtype=np.float64).reshape(-1, 2, 2)


def _point_horner(c, p: float) -> float:
    """sum_i c[i] p^i by the operations of poly._horner."""
    acc = c[-1] + p * 0
    for a in c[-2::-1]:
        acc = a + acc * p
    return acc


def _point_deriv(c):
    return [0.0] if len(c) == 1 else [a * float(i) for i, a in enumerate(c) if i]


def slope_residual(m, names):
    """Reference: (x, y, theta) -> (r, J) of singular._slope_equations at
    one point, from ``values_at`` and Python floats."""

    def residual(u):
        x, y, theta = u
        p = float(np.tan(np.array([theta]))[0])
        r, J = [], []
        for name in names:
            base = name.removesuffix("_p")
            c, cx, cy = (m.table(base + s).values_at(x, y).tolist() for s in ("", "_x", "_y"))
            if base != name:
                c, cx, cy = _point_deriv(c), _point_deriv(cx), _point_deriv(cy)
            r.append(_point_horner(c, p))
            cp = _point_horner(_point_deriv(c), p) * (1.0 + p * p)
            J.append([_point_horner(cx, p), _point_horner(cy, p), cp])
        return r, J

    return residual


def point_project(residual, pts) -> np.ndarray:
    """Reference: minimum-norm Gauss-Newton steps d = -J^T (J J^T)^-1 r
    onto residual(u) = (r, J) = 0, one point (a row of pts) at a time in
    Python floats, with the stop rules of singular._project."""
    out = []
    for u in np.asarray(pts, dtype=np.float64).tolist():
        for _ in range(20):
            r, J = residual(u)
            gram = [[_dot(a, b) for b in J] for a in J]
            if len(r) == 1:
                w, det = r, gram[0][0]
            else:
                (g00, g01), (g10, g11) = gram
                det = g00 * g11 - g01 * g10
                w = [g11 * r[0] - g01 * r[1], g00 * r[1] - g10 * r[0]]
            if not (max(abs(v) for v in r) > 0 and det != 0 and math.isfinite(det)):
                break
            d = [_dot([Ji[k] for Ji in J], w) / det for k in range(len(u))]
            u = [a - b for a, b in zip(u, d)]
            size = 1.0 + _dot([abs(a) for a in u], [1.0] * len(u))
            step = d[0]
            for dk in d[1:]:
                step = float(np.hypot(step, dk))
            if step < 1e-14 * size:
                break
        out.append(u)
    return np.array(out, dtype=np.float64)


def _dot(a, b) -> float:
    """sum_k a[k] b[k], left to right from the first product."""
    acc = a[0] * b[0]
    for ak, bk in zip(a[1:], b[1:]):
        acc = acc + ak * bk
    return acc


def cell_strata_rows(m, xs, ys) -> list[tuple]:
    """Reference: the rows of the classify CSV, one classify_point and one
    disc_metric call per cell, x running fastest."""
    rows = []
    for y in ys:
        for x in xs:
            st = mt.classify_point(m, float(x), float(y))
            d = mt.disc_metric(m, float(x), float(y))
            rows.append((_fmt(x), _fmt(y), st.name, _fmt(d)))
    return rows


# ---------------------------------------------------------------------------
# the degree of a coefficient row and the homogeneous metric


def degree(coeffs) -> int:
    """Degree of a coefficient row; -1 for the zero polynomial."""
    nz = np.flatnonzero(coeffs)
    return int(nz[-1]) if nz.size else -1


def fbar(m, x: float, y: float, xdot: float, ydot: float) -> float:
    """Reference: the homogeneous metric sum_i a_i xdot^(n-i) ydot^i on
    the tangent bundle, with the library's integer powers."""
    a = mt.coeff_values(m, x, y).tolist()
    n = m.degree
    return float(
        sum(a[i] * _ipow(xdot, n - i) * _ipow(ydot, i) for i in range(n + 1))
    )


# ---------------------------------------------------------------------------
# an independent expansion of the degeneracy combination


def pairwise_expansion(roots, leading: float = 1.0) -> np.ndarray:
    """Reference: for phi = leading * prod(p - r_i) over n real roots,

        n*phi*phi'' - (n-1)*phi'**2
            = -leading**2 * sum_{i<j} (r_i - r_j)**2 * prod_{k != i,j} (p - r_k)**2,

    expanded pair by pair without forming phi or its derivatives."""
    r = np.asarray(roots, dtype=np.float64)
    n = r.size
    acc = np.zeros(max(2 * n - 3, 1))
    for i in range(n):
        for j in range(i + 1, n):
            cof = npoly.polyfromroots(np.delete(r, [i, j]))
            term = (r[i] - r[j]) ** 2 * npoly.polymul(cof, cof)
            acc = npoly.polyadd(acc, term)
    return -(leading**2) * acc


# ---------------------------------------------------------------------------
# one-polynomial-at-a-time reference for the stacked root solve


def real_roots_reference(coeffs) -> list[tuple[float, int]]:
    """Reference: real roots with multiplicities of one polynomial, from
    npoly.polyroots, the relative cutoff on imaginary parts, one Newton
    step by npoly.polyval and clustering by np.mean, root by root.  A
    non-finite coefficient of degree 2 or more is a LinAlgError."""
    c = np.asarray(coeffs, dtype=np.float64)[: degree(coeffs) + 1]
    if c.size <= 1:
        return []
    roots = npoly.polyroots(c)
    radius = float(np.max(np.abs(roots))) if roots.size else 0.0
    cutoff = poly.IMAG_CUTOFF_REL * radius
    reals = [float(r.real) for r in roots if abs(r.imag) <= cutoff]
    if not reals:
        return []
    dp = npoly.polyder(c)
    cscale = float(np.max(np.abs(c)))
    polished = []
    for r in reals:
        d = npoly.polyval(r, dp)
        if abs(d) > 1e-12 * max(cscale, 1.0):
            r = r - float(npoly.polyval(r, c)) / float(d)
        polished.append(r)
    polished.sort()
    clusters: list[tuple[float, int]] = []
    group = [polished[0]]
    for r in polished[1:]:
        if r - group[-1] <= poly.CLUSTER_RADIUS:
            group.append(r)
        else:
            clusters.append((float(np.mean(group)), len(group)))
            group = [r]
    clusters.append((float(np.mean(group)), len(group)))
    return clusters


# ---------------------------------------------------------------------------
# point-by-point references for the singular locus


def sylvester(f, g, deg_f: int | None = None, deg_g: int | None = None):
    """Sylvester matrix of two polynomials given by ascending coefficients,
    at the nominal degrees (the array lengths less one) by default."""
    f = np.atleast_1d(np.asarray(f, dtype=np.float64))
    g = np.atleast_1d(np.asarray(g, dtype=np.float64))
    m = deg_f if deg_f is not None else f.size - 1
    n = deg_g if deg_g is not None else g.size - 1
    mat = np.zeros((m + n, m + n))
    for i in range(n):
        mat[i, i : i + m + 1] = f[: m + 1][::-1]
    for i in range(m):
        mat[n + i, i : i + n + 1] = g[: n + 1][::-1]
    return mat


def resultant(f, g, deg_f: int | None = None, deg_g: int | None = None) -> float:
    return float(np.linalg.det(sylvester(f, g, deg_f, deg_g)))


def quadratic_resultant(dc, nc) -> float:
    """Reference: the resultant of a quadratic (nominal degree 2) and a
    polynomial of nominal degree len(nc) - 1, in Python floats by the
    operations of poly.resultant_grid's closed form, in its order."""
    d0, d1, d2 = (float(v) for v in dc)
    nc = [float(v) for v in nc]
    k = len(nc) - 1
    e = d0 * d2
    s = [None, -d1, d1 * d1 - (e + e)]
    for j in range(3, k + 1):
        s.append(s[1] * s[j - 1] - e * s[j - 2])
    power, a = 1, [nc[0]]
    for c in nc[1:]:
        power = power * d0
        a.append(c * power)
    res = nc[0] * a[0]
    for j in range(1, k + 1):
        inner = a[j]
        for i in range(j):
            inner = inner + a[i] * s[j - i]
        res = res * d2 + nc[j] * inner
    return res


def resultant_at(m, x, y) -> float:
    """Reference: the resultant in p of denom and numer at one point, from
    the point coefficients: the closed form where denom's nominal degree
    is 2 (degree 3), otherwise one Sylvester determinant."""
    n = m.degree
    dc = np.zeros(max(2 * n - 3, 2))
    v = m.table("denom").values_at(x, y)
    dc[: v.size] = v
    nc = np.zeros(2 * n)
    v = m.table("numer").values_at(x, y)
    nc[: v.size] = v
    if dc.size == 3:
        return quadratic_resultant(dc, nc)
    return resultant(dc, nc, deg_f=max(2 * n - 4, 1), deg_g=2 * n - 1)


def singular_at(m, x, y) -> float:
    """Reference: resultant_at over disc_metric, divided as IEEE floats."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(resultant_at(m, x, y)) / mt.disc_metric(m, x, y))


def disc_gradient_at(m, x, y, h=1e-6) -> tuple[float, float]:
    """Reference: central differences of disc_metric at one point."""
    return (
        (mt.disc_metric(m, x + h, y) - mt.disc_metric(m, x - h, y)) / (2 * h),
        (mt.disc_metric(m, x, y + h) - mt.disc_metric(m, x, y - h)) / (2 * h),
    )


# ---------------------------------------------------------------------------
# tree-walk reference for the exact series solve

def to_sympy(e: ex.Expr, x, y):
    """An expression tree with exact rational constants, x and y
    substituted by the sympy expressions given."""
    if isinstance(e, ex.Const):
        return sympy.Rational(Fraction(e.value))
    if isinstance(e, ex.Var):
        return x if e.name == "x" else y
    if isinstance(e, ex.Add):
        return to_sympy(e.a, x, y) + to_sympy(e.b, x, y)
    if isinstance(e, ex.Mul):
        return to_sympy(e.a, x, y) * to_sympy(e.b, x, y)
    if isinstance(e, ex.Neg):
        return -to_sympy(e.a, x, y)
    if isinstance(e, ex.Pow):
        return to_sympy(e.base, x, y) ** e.exponent
    raise TypeError(f"not a polynomial node: {e!r}")


class Jet:
    """val + eps * d with d**2 = 0: exact value plus first derivative.

    tree_geodesic_series linearizes the residual in one unknown
    coefficient with it, so the extracted linear coefficient is exact and
    untouched by terms of higher degree in the unknown.
    """

    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0):
        self.val = pz._frac(val)
        self.eps = pz._frac(eps)

    def _lift(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, np.integer, float, Fraction)):
            return Jet(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.val + o.val, self.eps + o.eps)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.eps)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.val - o.val, self.eps - o.eps)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(o.val - self.val, o.eps - self.eps)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.val * o.val, self.val * o.eps + self.eps * o.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("jet division by a zero-value jet")
        return Jet(
            self.val / o.val, (self.eps * o.val - self.val * o.eps) / (o.val**2)
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.val == o.val and self.eps == o.eps

    def __repr__(self) -> str:
        return f"Jet({self.val}, {self.eps})"




def tree_expr_series(e, xs, ys):
    """Reference: substitute series for x and y by a recursive walk that
    evaluates every subtree wherever it occurs."""
    order = min(xs.order, ys.order)
    if isinstance(e, ex.Const):
        return pz.TruncatedSeries.constant(e.value, order)
    if isinstance(e, ex.Var):
        return xs if e.name == "x" else ys
    if isinstance(e, ex.Add):
        return tree_expr_series(e.a, xs, ys) + tree_expr_series(e.b, xs, ys)
    if isinstance(e, ex.Mul):
        return tree_expr_series(e.a, xs, ys) * tree_expr_series(e.b, xs, ys)
    if isinstance(e, ex.Div):
        return tree_expr_series(e.a, xs, ys) / tree_expr_series(e.b, xs, ys)
    if isinstance(e, ex.Neg):
        return -tree_expr_series(e.a, xs, ys)
    if isinstance(e, ex.Pow):
        return tree_expr_series(e.base, xs, ys) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


def tree_geodesic_series(m, s, seed, order, free=None, y0=0.0):
    """Reference: solve_geodesic_series with every residual evaluating
    every denom and numer tree again through tree_expr_series (dict
    seeds only)."""
    TS = pz.TruncatedSeries
    seed_map = {int(k): pz._frac(v) for k, v in dict(seed).items()}
    free_map = {int(k): pz._frac(v) for k, v in (free or {}).items()}
    y0f = pz._frac(y0)
    denom_exprs = m._expr_layer("denom")
    numer_exprs = m._expr_layer("numer")
    zero, base_y = TS.constant(0, 0), TS.constant(y0f, 0)
    norm = Fraction(0)
    for e in denom_exprs:
        v = tree_expr_series(e, zero, base_y).c[0]
        if v != 0:
            norm = v
    unknowns = [k for k in range(1, order + 1) if k not in seed_map]

    def residual(values, n_trunc):
        coeffs = [Fraction(0)] * (n_trunc + 1)
        for i, v in values.items():
            if i <= n_trunc:
                coeffs[i] = v
        p = TS(coeffs)
        x, y = pz._curve_series(s, y0f, p)
        dpoly = TS.constant(0, n_trunc)
        for e in reversed(denom_exprs):
            dpoly = dpoly * p + tree_expr_series(e, x, y)
        npoly = TS.constant(0, n_trunc)
        for e in reversed(numer_exprs):
            npoly = npoly * p + tree_expr_series(e, x, y)
        r = dpoly * p.deriv() - npoly * x.deriv()
        vals = [v.val if isinstance(v, Jet) else v for v in r.c]
        eps = [v.eps if isinstance(v, Jet) else Fraction(0) for v in r.c]
        return vals, eps

    def first_nonzero(seq):
        return next((i for i, v in enumerate(seq) if v != 0), None)

    k0 = unknowns[0]
    _, re = residual({**seed_map, k0: Jet(0, 1)}, order + 3 * s + 4)
    mk = first_nonzero(re)
    offset = mk - k0
    n_trunc = max(order + offset + 2, mk + 1)
    values = dict(seed_map)
    rows = []
    obstructed, obstruction_order = False, None
    for k in unknowns:
        slot = k + offset
        rv, re = residual({**values, k: Jet(0, 1)}, n_trunc)
        j = first_nonzero(rv)
        if j is not None and j < slot:
            obstructed, obstruction_order = True, j
            rows.append(pz.SeriesOrderRow(k, j, Fraction(0), rv[j] / norm,
                                          Fraction(0), "OBSTRUCTED"))
            break
        forcing, lin = rv[slot] / norm, re[slot] / norm
        if lin != 0:
            value, status = -forcing / lin, "FORCED"
        elif forcing != 0:
            obstructed, obstruction_order = True, slot
            rows.append(pz.SeriesOrderRow(k, slot, lin, forcing, Fraction(0),
                                          "OBSTRUCTED"))
            break
        else:
            value, status = free_map.get(k, Fraction(0)), "FREE"
        values[k] = value
        rows.append(pz.SeriesOrderRow(k, slot, lin, forcing, value, status))
    residual_order = None
    if not obstructed:
        residual_order = first_nonzero(residual(values, n_trunc)[0])
    return pz.GeodesicSeries(
        s=s, y0=float(y0), order=order, coeffs=values, rows=tuple(rows),
        offset=offset, norm=norm, obstructed=obstructed,
        obstruction_order=obstruction_order, residual_order=residual_order,
    )
