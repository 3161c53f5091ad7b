"""Singular points of the geodesic direction field.

A singular point of the projectivized field (D, p D, N), D = denom and
N = numer, is a triple (x, y, p) with D = N = 0.  Row 2 of the
linearization J is p * row 1 + (0, 0, D), so J has the eigenvalue 0 and
sigma_2(J) = -T - D N_y with T = D_p (N_x + p N_y) - N_p (D_x + p D_y).
On the singular curve tr J = D_x + p D_y + N_p vanishes and the other
two eigenvalues satisfy lambda^2 = T:

* RealPair      -- T > 0, opposite real eigenvalues (saddle-like passage),
* ImaginaryPair -- T < 0, conjugate imaginary pair (spiralling approach),
* Resonant32    -- real spectrum in ratio 3:2, the generic boundary
                   point with a double isotropic direction,
* Degenerate    -- everything else (including a fully zero spectrum).

T is (1, p) x t for the projected tangent t = (D_y N_p - D_p N_y,
D_p N_x - D_x N_p) of the lifted curve, so T = 0 is exactly a tangency.

The singular set over the plane projects to curves: the zero set of the
resultant of the two polynomials in p over its simple factor disc_F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metric as mt
from . import poly
from .codegen import lifted_field_function
from .metric import PseudoFinslerMetric, Stratum

REAL_PAIR = "RealPair"
IMAGINARY_PAIR = "ImaginaryPair"
RESONANT_32 = "Resonant32"
DEGENERATE = "Degenerate"


class StratumError(ValueError):
    """Operation requested on the wrong stratum."""


@dataclass
class SingularPoint:
    x: float
    y: float
    p: float
    eigenvalues: np.ndarray
    kind: str
    transversal: bool | None = None


@dataclass
class CurveSamples:
    points: np.ndarray
    label: str = ""

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class TangencyReport:
    x: float
    y: float
    p: float
    tangent: tuple[float, float]
    direction_dot: float
    transversal: bool
    eigenvalues: np.ndarray
    eigenvalues_nonzero: bool
    consistent: bool


def singular_directions(m: PseudoFinslerMetric, x: float, y: float) -> tuple[float, float]:
    """The two real zeros of the denominator at a point of MMinus."""
    if m.degree != 3:
        raise StratumError("singular directions are defined for degree 3")
    stratum = mt.classify_point(m, x, y)
    if stratum != Stratum.MMinus:
        raise StratumError(
            f"point ({x}, {y}) lies in {stratum.value}, not MMinus"
        )
    roots = mt.denom_poly(m, x, y).real_roots()
    flat = [r for r, k in roots for _ in range(k)]
    if len(flat) != 2:
        raise StratumError(
            f"expected two real denominator roots at ({x}, {y}), got {flat}"
        )
    return flat[0], flat[1]


def jacobian_at(m: PseudoFinslerMetric, x: float, y: float, p: float) -> np.ndarray:
    """Exact Jacobian of the field (denom, p*denom, numer) at (x, y, p).

    Coefficient partials come from symbolic differentiation; the slope
    partial is the polynomial derivative.
    """
    d = mt.denom_poly(m, x, y)
    dv = d(p)
    dp_ = d.deriv()(p)
    dx_ = m.table("denom_x").poly_value(x, y, p)
    dy_ = m.table("denom_y").poly_value(x, y, p)
    npoly_ = mt.numer_poly(m, x, y)
    px_ = m.table("numer_x").poly_value(x, y, p)
    py_ = m.table("numer_y").poly_value(x, y, p)
    pp_ = npoly_.deriv()(p)
    return np.array(
        [
            [dx_, dy_, dp_],
            [p * dx_, p * dy_, dv + p * dp_],
            [px_, py_, pp_],
        ]
    )


def _invariant_t(J: np.ndarray, p: float) -> float:
    """T = D_p (N_x + p N_y) - N_p (D_x + p D_y) from rows 1 and 3 of J."""
    (dx_, dy_, dp_), _, (nx_, ny_, np_) = J.tolist()
    return dp_ * (nx_ + p * ny_) - np_ * (dx_ + p * dy_)


def classify_singular(
    m: PseudoFinslerMetric, x: float, y: float, p: float
) -> SingularPoint:
    """Classify a singular point by the spectrum of the linearization J;
    where tr J vanishes against |J|, by the sign of T."""
    sc = mt._ipow(1.0 + mt.metric_scale(m, x, y), 2)
    dv = mt.denom_poly(m, x, y)(p)
    pv = mt.numer_poly(m, x, y)(p)
    if max(abs(dv), abs(pv)) > 1e-4 * sc:
        raise ValueError(
            f"({x}, {y}, {p}) is not singular: |denom|={abs(dv):.3g}, "
            f"|numer|={abs(pv):.3g}"
        )
    J = jacobian_at(m, x, y, p)
    eigs = np.linalg.eigvals(J)
    norm = float(np.linalg.norm(J))
    eigs = eigs[np.argsort(-np.abs(eigs))]
    if np.abs(eigs[0]) < 1e-7 * max(norm, 1e-30):
        return SingularPoint(x, y, p, eigs, DEGENERATE)
    l1, l2 = eigs[0], eigs[1]
    kind, transversal = DEGENERATE, None
    if abs(np.trace(J)) <= 1e-6 * norm:
        t = _invariant_t(J, p)
        if t > 0:
            kind = REAL_PAIR
        elif t < 0:
            kind = IMAGINARY_PAIR
    elif (
        abs(l1.imag) < 1e-6 * abs(l1)
        and abs(l2.imag) < 1e-6 * abs(l2)
        and abs(l2.real) > 0
        and abs(abs(l1 / l2) - 1.5) < 1e-4
        and l1.real * l2.real > 0
    ):
        kind = RESONANT_32
        from .flow import TransversalityError, check_transversality

        try:
            check_transversality(m, x, y, p)
            transversal = True
        except TransversalityError:
            transversal = False
    return SingularPoint(x, y, p, eigs, kind, transversal)


# ---------------------------------------------------------------------------
# the singular locus and its tracing


def resultant_grid_fn(m: PseudoFinslerMetric):
    """Vectorized (X, Y) -> resultant in p of denom and numer."""
    n = m.degree

    def fn(X, Y):
        X = np.asarray(X, dtype=np.float64)
        dc = m.table("denom").values_on_grid(X, Y)
        nc = m.table("numer").values_on_grid(X, Y)
        dfull = np.zeros((max(2 * n - 3, 2),) + X.shape)
        dfull[: dc.shape[0]] = dc
        with np.errstate(invalid="ignore"):
            return poly.resultant_grid(dfull, nc)

    return fn


def singular_grid_fn(m: PseudoFinslerMetric):
    """Vectorized (X, Y) -> resultant / disc_F, whose zeros are the
    singular curves: disc_F divides the resultant exactly once, so the
    boundary disc_F = 0 drops out (not finite where disc_F is 0 exactly).
    Degrees 2 and 3; disc_grid_fn raises ValueError otherwise."""
    res, disc = resultant_grid_fn(m), disc_grid_fn(m)

    def fn(X, Y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return res(X, Y) / disc(X, Y)

    return fn


def disc_grid_fn(m: PseudoFinslerMetric):
    """Vectorized (X, Y) -> discriminant of F (degrees 2 and 3)."""
    if m.degree not in (2, 3):
        raise ValueError("discriminant grid requires degree 2 or 3")

    def fn(X, Y):
        c = m.table("F").values_on_grid(X, Y)
        with np.errstate(over="ignore", invalid="ignore"):
            return mt.disc_from_coeffs(m, c)

    return fn


# Marching squares: corner order (i, j), (i+1, j), (i+1, j+1), (i, j+1),
# corner k below zero sets bit k of the case; cell edges 0 bottom, 1 right,
# 2 top, 3 left.  A segment is a pair of edges; a saddle (case 5 or 10)
# has two, chosen by the sign of the mean of the corners.
_MS_SEGMENTS = {
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
}
# saddle case -> (segments when the mean is >= 0, segments when it is < 0)
_MS_SADDLES = {
    5: ([(3, 0), (1, 2)], [(3, 2), (0, 1)]),
    10: ([(0, 3), (1, 2)], [(0, 1), (2, 3)]),
}


def _ms_table() -> np.ndarray:
    """_MS[case, mean < 0, slot] = (edge a, edge b), -1 where no segment."""
    table = np.full((16, 2, 2, 2), -1, dtype=np.int8)
    for case, segs in _MS_SEGMENTS.items():
        table[case, :, : len(segs)] = segs
    for case, by_mean in _MS_SADDLES.items():
        table[case] = by_mean
    return table


_MS = _ms_table()


def _lerp(va, vb):
    """Where the line through (0, va), (1, vb) crosses zero, clipped to
    [0, 1]; 0.5 where va == vb.  np.where keeps what min and max give."""
    d = vb - va
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -va / d
    t = np.where(0.0 > t, 0.0, t)
    t = np.where(1.0 < t, 1.0, t)
    return np.where(d == 0, 0.5, t)


def _marching_squares(vals, xs, ys) -> np.ndarray:
    """Segments of the zero contour of vals[i, j] = g(xs[i], ys[j]).

    Returns an array (segment, end, xy).  Cells come in C order (i outer)
    and a saddle's two segments in table order.  Cells with a non-finite
    corner give none.
    """
    v = (vals[:-1, :-1], vals[1:, :-1], vals[1:, 1:], vals[:-1, 1:])
    case = sum((vk < 0).astype(np.int8) << k for k, vk in enumerate(v))
    # cases 0 and 15 have no crossing
    i, j = np.nonzero((case % 15 != 0) & np.all(np.isfinite(v), axis=0))
    va, vb, vc, vd = (vk[i, j] for vk in v)
    with np.errstate(over="ignore"):
        mean_neg = 0.25 * (((va + vb) + vc) + vd) < 0
    edges = _MS[case[i, j], mean_neg.astype(np.int8)]
    cell, slot = np.nonzero(edges[:, :, 0] >= 0)
    ends = edges[cell, slot]
    i, j = i[cell], j[cell]
    va, vb, vc, vd = va[cell], vb[cell], vc[cell], vd[cell]
    x0, y0 = xs[i], ys[j]
    dx, dy = xs[i + 1] - x0, ys[j + 1] - y0
    # the crossing on each of the four edges of every listed cell
    px = np.array([x0 + _lerp(va, vb) * dx, x0 + dx, x0 + _lerp(vd, vc) * dx, x0])
    py = np.array([y0, y0 + _lerp(vb, vc) * dy, y0 + dy, y0 + _lerp(va, vd) * dy])
    k = np.arange(len(cell))[:, None]
    return np.stack([px[ends, k], py[ends, k]], axis=-1)


def _stitch(segs, snap):
    """Join segments into polylines by endpoint proximity."""
    def key(pt):
        return (round(pt[0] / snap), round(pt[1] / snap))

    adj: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segs):
        adj.setdefault(key(a), []).append(idx)
        adj.setdefault(key(b), []).append(idx)
    used = [False] * len(segs)
    lines = []
    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        a, b = segs[start]
        chain = [a, b]
        for head in (1, 0):
            while True:
                pt = chain[-1] if head else chain[0]
                nxt = None
                for cand in adj.get(key(pt), []):
                    if not used[cand]:
                        nxt = cand
                        break
                if nxt is None:
                    break
                used[nxt] = True
                ca, cb = segs[nxt]
                far = cb if key(ca) == key(pt) else ca
                if head:
                    chain.append(far)
                else:
                    chain.insert(0, far)
        lines.append(np.asarray(chain))
    return lines


def trace_implicit_curve(
    g,
    box: tuple[float, float, float, float],
    resolution: int = 200,
    label: str = "",
    polish: bool = True,
) -> list[CurveSamples]:
    """Zero set of g over a box as polished polylines.

    g(x, y) acts on arrays.  Samples found by marching squares get
    Newton steps along the gradient; the target residual is 1e-12 of the
    value scale on the grid.  Returns [] when no crossings exist.
    """
    x0, x1, y0, y1 = box
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    Xg, Yg = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(g(Xg, Yg), dtype=np.float64)
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return []
    gscale = float(np.max(np.abs(finite))) or 1.0
    segs = _marching_squares(vals, xs, ys)
    if not len(segs):
        return []
    cell = max((x1 - x0) / (resolution - 1), (y1 - y0) / (resolution - 1))
    lines = _stitch(segs.tolist(), snap=1e-6 * cell)
    out = []
    for line in lines:
        if polish:
            line = _polish_onto(g, line, cell, 1e-12 * gscale)
        if len(line) >= 2:
            out.append(CurveSamples(points=line, label=label))
    out.sort(key=lambda c: (-len(c.points), c.points[0, 0], c.points[0, 1]))
    return out


def singular_curves(
    m: PseudoFinslerMetric,
    box: tuple[float, float, float, float],
    resolution: int = 220,
) -> list[CurveSamples]:
    """Traced components of the planar singular locus, labeled.

    The slope-carrying singular curves (label "singular") are the zero
    set of singular_grid_fn; the rest of the locus is the metric
    boundary, traced from the discriminant zero set (label "boundary").

    For degree 2, denom is -disc_F, constant in p, so no singular point
    lies off the boundary and the boundary is the whole locus.  Degrees
    above 3 raise ValueError.
    """
    if m.degree == 2:
        return boundary_curves(m, box, resolution)
    sing = trace_implicit_curve(singular_grid_fn(m), box, resolution, label="singular")
    return sing + boundary_curves(m, box, resolution)


def boundary_curves(
    m: PseudoFinslerMetric,
    box: tuple[float, float, float, float],
    resolution: int = 220,
) -> list[CurveSamples]:
    """Traced components of the metric boundary (disc_F = 0), labeled
    "boundary"."""
    return trace_implicit_curve(
        disc_grid_fn(m), box, resolution, label="boundary"
    )


def _polish_onto(g, pts, cell, target):
    """Newton steps along the central-difference gradient of g, up to 20
    per point, all points at once.

    A point stops once |g| <= target, where the gradient vanishes or is
    not finite, or after a step below 1e-14 of its size.
    """
    h = 1e-6 * cell
    x, y = np.array(pts, dtype=np.float64).T
    live = np.arange(len(x))
    for _ in range(20):
        if not live.size:
            break
        xl, yl = x[live], y[live]
        v = np.asarray(g(xl, yl), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xs = np.concatenate([xl + h, xl - h, xl, xl])
            ys = np.concatenate([yl, yl, yl + h, yl - h])
            xp, xm, yp, ym = np.split(g(xs, ys), 4)
            gx, gy = (xp - xm) / (2 * h), (yp - ym) / (2 * h)
            g2 = gx * gx + gy * gy
            step = ~(np.abs(v) <= target) & (g2 != 0) & np.isfinite(g2)
            live, v, gx, gy, g2 = live[step], v[step], gx[step], gy[step], g2[step]
            dx, dy = v * gx / g2, v * gy / g2
        x[live] -= dx
        y[live] -= dy
        small = np.hypot(dx, dy) < 1e-14 * (1.0 + np.abs(x[live]) + np.abs(y[live]))
        live = live[~small]
    return np.column_stack([x, y])


# ---------------------------------------------------------------------------
# lifting the locus to the slope and the tangency test


def lift_to_slopes(m: PseudoFinslerMetric, xs, ys) -> np.ndarray:
    """At each point, the denominator root at which the numerator is
    smallest in magnitude (the first such root, ascending); nan where the
    denominator has no real root.

    The layers come from one ``values_on_grid`` call each and the roots
    from one ``poly.real_roots_many`` call.  |numer| is compared as
    ``min`` compares: a nan at the first root keeps that root, a later
    nan never wins.
    """
    dc = m.table("denom").values_on_grid(xs, ys)
    nc = m.table("numer").values_on_grid(xs, ys)
    rows = poly.real_roots_many(dc.T)
    roots = np.full((len(rows), max([1, *map(len, rows)])), math.nan)
    for k, rk in enumerate(rows):
        roots[k, : len(rk)] = [r for r, _ in rk]
    with np.errstate(all="ignore"):
        # Horner as npoly.polyval runs it, from the highest coefficient
        acc = nc[-1][:, None] + roots * 0
        for c in nc[-2::-1]:
            acc = c[:, None] + acc * roots
    size = np.abs(acc)
    size[np.isnan(size)] = math.inf
    pick = np.where(np.isnan(acc[:, 0]), 0, np.argmin(size, axis=1))
    return roots[np.arange(len(rows)), pick]


def lift_to_slope(m: PseudoFinslerMetric, x: float, y: float) -> float:
    """Denominator root at which the numerator is smallest in magnitude;
    a StratumError where there is none (see lift_to_slopes)."""
    p = float(lift_to_slopes(m, [x], [y])[0])
    if math.isnan(p):
        raise StratumError(f"denominator has no real roots at ({x}, {y})")
    return p


def tangency_report(m: PseudoFinslerMetric, x: float, y: float) -> TangencyReport:
    """Transversality of the singular direction against its own curve.

    The tangent of the curve is the (x, y) part of grad D x grad N, from
    rows 1 and 3 of the linearization J.  direction_dot is the cosine
    between the field direction (1, p) and the curve normal: T over the
    norms of the tangent and of (1, p).  The point is transversal when
    the direction is not tangent; this must agree with the two dominant
    eigenvalues of J being away from zero.
    """
    p = lift_to_slope(m, x, y)
    J = jacobian_at(m, x, y, p)
    tx, ty, _ = np.cross(J[0], J[2]).tolist()
    tnorm = math.hypot(tx, ty)
    tangent = (tx / tnorm, ty / tnorm) if tnorm > 0 else (0.0, 0.0)
    dot = _invariant_t(J, p) / (tnorm * math.hypot(1.0, p)) if tnorm > 0 else 0.0
    transversal = abs(dot) > 1e-6
    eigs = np.linalg.eigvals(J)
    eigs = eigs[np.argsort(-np.abs(eigs))]
    jn = float(np.linalg.norm(J))
    nonzero = abs(eigs[1]) > 1e-6 * max(jn, 1e-30)
    return TangencyReport(
        x=x, y=y, p=p, tangent=tangent, direction_dot=dot,
        transversal=transversal, eigenvalues=eigs,
        eigenvalues_nonzero=nonzero, consistent=(transversal == nonzero),
    )


def find_tangency_failures(
    m: PseudoFinslerMetric, curve: CurveSamples
) -> list[tuple[float, float]]:
    """Points along a traced singular curve where transversality fails.

    Scans T for sign changes over all samples at once, from the lifted
    fields (C_p, p C_p, -(C_x + p C_y)) of C = D and C = N, and refines
    each by bisection on the pointwise T (with Newton re-projection onto
    the curve at every probe).
    """
    grid_fn = singular_grid_fn(m)
    pts = curve.points
    # the traced component may end at the metric boundary, where the lift
    # loses its real root (nan); such samples cannot carry a tangency
    ps = lift_to_slopes(m, pts[:, 0], pts[:, 1])

    def lifted(layer):
        field = lifted_field_function(
            *(m.table(name).exprs for name in (layer, layer + "_x", layer + "_y"))
        )
        return field(pts[:, 0], pts[:, 1], ps, np.empty((3, len(pts))))

    with np.errstate(all="ignore"):
        ld, ln = lifted("denom"), lifted("numer")
        vals = (ln[0] * ld[2] - ld[0] * ln[2]).tolist()
    cell = max(
        float(np.max(np.abs(np.diff(pts[:, 0])))),
        float(np.max(np.abs(np.diff(pts[:, 1])))),
    )
    found = []
    for i in range(len(pts) - 1):
        va, vb = vals[i], vals[i + 1]
        if not (np.isfinite(va) and np.isfinite(vb)) or va * vb > 0:
            continue
        a, b = pts[i], pts[i + 1]
        for _ in range(60):
            mid = 0.5 * (a + b)
            mid = _polish_onto(grid_fn, mid[None, :], cell, 0.0)[0]
            p = float(lift_to_slopes(m, mid[:1], mid[1:])[0])
            vm = _invariant_t(jacobian_at(m, *mid, p), p)
            if not np.isfinite(vm):
                break
            if (vm > 0) == (va > 0):
                a = mid
            else:
                b = mid
            if np.hypot(*(b - a)) < 1e-9:
                break
        found.append((float(mid[0]), float(mid[1])))
    return found


# ---------------------------------------------------------------------------
# admissible directions for quadratic metrics


def admissible_directions(m: PseudoFinslerMetric, x: float, y: float) -> list[float]:
    """Real zeros of the numerator at a degenerate point of a quadratic
    metric: the directions a geodesic may leave the discriminant curve."""
    if m.degree != 2:
        raise StratumError("admissible directions are defined for degree 2")
    sc = mt.metric_scale(m, x, y)
    if abs(mt.disc_metric(m, x, y)) > 1e-8 * mt._ipow(max(sc, 1e-30), 2):
        raise StratumError(
            f"({x}, {y}) is not on the discriminant curve of the metric"
        )
    roots = mt.numer_poly(m, x, y).real_roots()
    return [r for r, _ in roots]
