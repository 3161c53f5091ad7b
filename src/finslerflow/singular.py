"""Singular points of the geodesic direction field.

A singular point of the projectivized field (D, p D, N), D = denom and
N = numer, is a triple (x, y, p) with D = N = 0.  Row 2 of the
linearization J is p * row 1 + (0, 0, D), so J has the eigenvalue 0 and
sigma_2(J) = -T - D N_y with T = D_p (N_x + p N_y) - N_p (D_x + p D_y);
the spectrum is 0 and the roots of lambda^2 - (tr J) lambda + sigma_2.
On the singular curve tr J = D_x + p D_y + N_p vanishes and the other
two eigenvalues satisfy lambda^2 = T:

* RealPair      -- T > 0, opposite real eigenvalues (saddle-like passage),
* ImaginaryPair -- T < 0, conjugate imaginary pair (spiralling approach),
* Resonant32    -- real spectrum in ratio 3:2, the generic boundary
                   point with a double isotropic direction,
* Degenerate    -- everything else (including a fully zero spectrum).

T is (1, p) x t for the projected tangent t = (D_y N_p - D_p N_y,
D_p N_x - D_x N_p) of the lifted curve, so T = 0 is exactly a tangency.

The singular curves {D = N = 0} and the boundary {F = F_p = 0} are
traced in (x, y, p), seeded by their planar shadows (the zero sets of
Res_p(D, N) / disc_F and of disc_F, from one disc_F grid that becomes
the quotient in place) and projected onto them by minimum-norm
Gauss-Newton steps with exact Jacobian rows.  The segments of the
shadows are joined at integer node ids, and every residual and Jacobian
row, at many points or at one, comes from one generated function of the
metric (PseudoFinslerMetric.slope_rows_function).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import metric as mt
from . import poly
from .codegen import on_arrays
from .metric import PseudoFinslerMetric

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
    """A traced polyline; ``slopes`` holds the p of each point where the
    curve was traced in (x, y, p)."""

    points: np.ndarray
    label: str = ""
    slopes: np.ndarray | None = None

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


def jacobian_at(m: PseudoFinslerMetric, x: float, y: float, p: float) -> np.ndarray:
    """Exact Jacobian of the field (denom, p*denom, numer) at (x, y, p),
    from the rows (D_x, D_y, D_p) and (N_x, N_y, N_p) (_linearization)."""
    return _linearization(m, x, y, p)[0]


def _linearization(m: PseudoFinslerMetric, x: float, y: float, p: float):
    """(J, D, N) at (x, y, p) from one call of the metric's generated slope
    rows on floats, with the bits of _slope_rows at that point; row 2 of J
    is p * row 1 + (0, 0, D)."""
    p = float(p)
    d, dx, dy, dp, n, nx, ny, np_ = m.slope_rows_function(("denom", "numer"))(
        float(x), float(y), p
    )
    J = np.array([[dx, dy, dp], [p * dx + 0.0, p * dy + 0.0, p * dp + d], [nx, ny, np_]])
    return J, d, n


def _invariant_t(J, p):
    """T = D_p (N_x + p N_y) - N_p (D_x + p D_y) from the rows (D_x, D_y,
    D_p) and (N_x, N_y, N_p), rows 1 and 3 of J; floats or arrays."""
    (dx_, dy_, dp_), (nx_, ny_, np_) = J[0], J[-1]
    return dp_ * (nx_ + p * ny_) - np_ * (dx_ + p * dy_)


def _spectrum(J: np.ndarray, p: float, dv: float) -> np.ndarray:
    """The roots of lambda^2 - (tr J) lambda + sigma_2, sigma_2 = -T - D N_y
    with D = dv, the one with the sign of tr J (the larger) first, then 0."""
    tr, s2 = float(np.trace(J)), -_invariant_t(J.tolist(), p) - dv * float(J[2, 1])
    root = cmath.sqrt(tr * tr - 4.0 * s2)
    big = 0.5 * (tr + root if tr >= 0 else tr - root)
    small = big.conjugate() if root.imag else s2 / big if big else 0.0
    # + 0.0 turns the signed zeros of the complex arithmetic into 0.0
    return np.array([big, small, 0.0], dtype=np.complex128) + 0.0


def classify_singular(
    m: PseudoFinslerMetric, x: float, y: float, p: float
) -> SingularPoint:
    """Classify a singular point by the spectrum of the linearization J;
    where tr J vanishes against |J|, by the sign of T."""
    sc = mt._ipow(1.0 + mt.metric_scale(m, x, y), 2)
    J, dv, pv = _linearization(m, x, y, p)
    if max(abs(dv), abs(pv)) > 1e-4 * sc:
        raise ValueError(
            f"({x}, {y}, {p}) is not singular: |denom|={abs(dv):.3g}, "
            f"|numer|={abs(pv):.3g}"
        )
    eigs = _spectrum(J, p, dv)
    norm = float(np.linalg.norm(J))
    if np.abs(eigs[0]) < 1e-7 * max(norm, 1e-30):
        return SingularPoint(x, y, p, eigs, DEGENERATE)
    l1, l2 = eigs[0], eigs[1]
    kind, transversal = DEGENERATE, None
    if abs(np.trace(J)) <= 1e-6 * norm:
        t = _invariant_t(J.tolist(), p)
        if t > 0:
            kind = REAL_PAIR
        elif t < 0:
            kind = IMAGINARY_PAIR
    # a conjugate pair has |l1 / l2| = 1, so the 3:2 test keeps real pairs
    elif abs(l2) > 0 and abs(abs(l1 / l2) - 1.5) < 1e-4 and l1.real * l2.real > 0:
        kind = RESONANT_32
        from .flow import TransversalityError, check_transversality

        try:
            check_transversality(m, x, y, p)
            transversal = True
        except TransversalityError:
            transversal = False
    return SingularPoint(x, y, p, eigs, kind, transversal)


# ---------------------------------------------------------------------------
# the planar seeds of the loci


def resultant_grid_fn(m: PseudoFinslerMetric):
    """Vectorized (X, Y) -> resultant in p of denom and numer."""
    n = m.degree

    def fn(X, Y):
        X = np.asarray(X, dtype=np.float64)
        dc = m.table("denom").values_on_grid(X, Y)
        nc = m.table("numer").values_on_grid(X, Y)
        dfull = np.zeros((max(2 * n - 3, 2),) + X.shape)
        dfull[: dc.shape[0]] = dc
        return poly.resultant_grid(dfull, nc)

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
    """Join segments (segment, end, xy) into polylines by endpoint
    proximity: endpoints whose coordinates round to the same multiples of
    snap are one node.  Each polyline starts at the first segment not yet
    used and grows at its end, then at its start, each time by the first
    unused segment, in segment order, at its end node."""
    ends = np.asarray(segs, dtype=np.float64).reshape(-1, 2)
    # np.rint rounds half to even, as round does, to an integral float
    # (-0.0 == 0.0), so equal keys are the equal ints of round
    with np.errstate(all="ignore"):
        keys = np.rint(ends / snap)
    # lexsort is stable: the endpoints of a node come in segment order
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    new = np.ones(len(order), dtype=bool)
    new[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    node = np.empty(len(order), dtype=np.intp)
    node[order] = np.cumsum(new) - 1
    # the segments at node k are at[first[k]:stop[k]]; first[k] moves
    # past the used ones
    at, bounds = (order // 2).tolist(), np.flatnonzero(new).tolist() + [len(order)]
    first, stop, node = bounds[:-1], bounds[1:], node.tolist()
    used = [False] * (len(node) // 2)
    lines = []
    for start in range(len(used)):
        if used[start]:
            continue
        used[start] = True
        tail, head = [2 * start + 1], [2 * start]
        for chain in (tail, head):
            cur = node[chain[0]]
            while True:
                k = first[cur]
                while k < stop[cur] and used[at[k]]:
                    k += 1
                first[cur] = k
                if k == stop[cur]:
                    break
                nxt = at[k]
                used[nxt] = True
                end = 2 * nxt + 1 if node[2 * nxt] == cur else 2 * nxt
                chain.append(end)
                cur = node[end]
        lines.append(ends[head[::-1] + tail])
    return lines


# ---------------------------------------------------------------------------
# projection onto a locus and tracing


def _project(equations, P: np.ndarray) -> np.ndarray:
    """Minimum-norm Gauss-Newton steps d = -J^T (J J^T)^-1 r, up to 20,
    from each column of P onto the zero set of equations, all at once.

    equations(P) gives the residuals r (one or two rows) and the exact
    Jacobian rows J (equation, coordinate, point); (J J^T)^-1 r is
    adj(J J^T) r / det(J J^T), so one equation takes the gradient-Newton
    step -r grad / |grad|^2.  A point stops where r = 0, where det(J J^T)
    vanishes or is not finite, or after a step below 1e-14 of 1 + the sum
    of its |coordinates|.
    """
    P = np.array(P, dtype=np.float64)
    live = np.arange(P.shape[1])
    for _ in range(20):
        if not live.size:
            break
        r, J = equations(P[:, live])
        with np.errstate(all="ignore"):
            gram = [[np.sum(a * b, axis=0) for b in J] for a in J]
            if len(r) == 1:
                w, det = r, gram[0][0]
            else:
                (g00, g01), (g10, g11) = gram
                det = g00 * g11 - g01 * g10
                w = [g11 * r[0] - g01 * r[1], g00 * r[1] - g10 * r[0]]
            step = (np.abs(r).max(axis=0) > 0) & (det != 0) & np.isfinite(det)
            live, det = live[step], det[step]
            d = sum(Ji[:, step] * wi[step] for Ji, wi in zip(J, w)) / det
            P[:, live] -= d
            size = 1.0 + np.abs(P[:, live]).sum(axis=0)
            live = live[~(np.hypot.reduce(d, axis=0) < 1e-14 * size)]
    return P


def _axes(box, resolution: int):
    x0, x1, y0, y1 = box
    return np.linspace(x0, x1, resolution), np.linspace(y0, y1, resolution)


def _grid_values(g, xs, ys, vals=None) -> np.ndarray:
    """vals[i, j] = g(xs[i], ys[j]): g runs on 1-d blocks of the raveled
    grid (codegen.on_arrays), so it must be elementwise.  Given the grid
    vals, g(x, y, v) also gets each block v of it and its result replaces
    that block, in place."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    if vals is None:
        return on_arrays(1, lambda x, y: (g(x, y),), X.ravel(), Y.ravel())[0].reshape(X.shape)
    flat = vals.reshape(1, -1)
    on_arrays(1, lambda x, y, v: (g(x, y, v),), X.ravel(), Y.ravel(), flat[0], out=flat)
    return vals


def trace_implicit_curve(
    g, equations, box, resolution: int = 200, label: str = "", lift=None
) -> list[CurveSamples]:
    """The zero set of equations over a box as projected polylines.

    Marching squares finds the zero contour of g on a grid.  g(xs, ys)
    runs on 1-d blocks of the grid's points (_grid_values), so it must be
    elementwise.  Each polyline is lifted by lift(xs, ys) to rows x, y
    and, for a curve in (x, y, p), the slope angle arctan p (default: the
    planar points) and projected (_project).  A polyline splits at each
    segment whose midpoint the projection moves by more than half the
    segment's length, as it moves one that joins two branches, and at
    each point that does not lift or project or that the projection
    moves out of the box.
    """
    return _trace_grid(_grid_values(g, *_axes(box, resolution)), equations, box, label, lift)


def _trace_grid(vals, equations, box, label, lift) -> list[CurveSamples]:
    """trace_implicit_curve from the grid vals[i, j] = g(xs[i], ys[j])."""
    x0, x1, y0, y1 = box
    resolution = len(vals)
    xs, ys = _axes(box, resolution)
    segs = _marching_squares(vals, xs, ys)
    cell = max((x1 - x0) / (resolution - 1), (y1 - y0) / (resolution - 1))
    out = []
    for line in _stitch(segs, snap=1e-6 * cell):
        P = _project(equations, line.T if lift is None else lift(*line.T))
        P[:, (P[0] < x0) | (P[0] > x1) | (P[1] < y0) | (P[1] > y1)] = np.nan
        with np.errstate(all="ignore"):
            mid = 0.5 * (P[:, :-1] + P[:, 1:])
            moved = np.hypot.reduce(_project(equations, mid) - mid, axis=0)
            length = np.hypot.reduce(np.diff(P, axis=1), axis=0)
            cuts = np.flatnonzero(~((moved <= 0.5 * length) | (length == 0)))
        for piece in np.split(P, cuts + 1, axis=1):
            if piece.shape[1] >= 2:
                slopes = np.tan(piece[2]) if len(piece) > 2 else None
                out.append(CurveSamples(piece[:2].T, label, slopes))
    out.sort(key=lambda c: (-len(c.points), c.points[0, 0], c.points[0, 1]))
    return out


def _slope_rows(m: PseudoFinslerMetric, names: tuple[str, ...], P):
    """(r, J) of the slope polynomials C named by layers ("F_p" is the
    p-derivative of F) at the columns (x, y, p) of P: r = C and the exact
    rows J = (C_x, C_y, C_p), from one ``on_arrays`` call of the metric's
    generated slope rows (PseudoFinslerMetric.slope_rows_function)."""
    fn = m.slope_rows_function(names)
    rows = on_arrays(4 * len(names), fn, *P).reshape(len(names), 4, -1)
    return rows[:, 0], rows[:, 1:]


def _slope_equations(m: PseudoFinslerMetric, names):
    """The equations of _slope_rows on columns (x, y, theta), p = tan theta:
    the column of theta is C_p (1 + p^2).  In the angle, the minimum-norm
    step does not trade a large change of a steep slope for a planar move."""

    def equations(P):
        with np.errstate(all="ignore"):
            p = np.tan(P[2])
            r, J = _slope_rows(m, names, np.array([P[0], P[1], p]))
            J[:, 2] *= 1.0 + p * p
        return r, J

    return equations


def _lift(lead: np.ndarray, other: np.ndarray) -> np.ndarray:
    """At each column, the real root r of the polynomial with rows lead
    (one ``poly.real_roots_many`` call) at which the polynomial other is
    smallest against its terms, |sum c_i r^i| / sum |c_i| |r|^i: the first
    such root, ascending, as ``min`` picks (a nan ratio at the first root
    keeps it, a later one never wins); nan where there is no real root."""
    rows = poly.real_roots_many(lead.T)
    roots = np.full((len(rows), max([1, *map(len, rows)])), math.nan)
    for k, rk in enumerate(rows):
        roots[k, : len(rk)] = [r for r, _ in rk]
    c = other[:, :, None]  # column k's coefficients against its roots
    with np.errstate(all="ignore"):
        acc = npoly.polyval(roots, c, tensor=False)
        size = np.abs(acc) / npoly.polyval(np.abs(roots), np.abs(c), tensor=False)
    size[np.isnan(size)] = math.inf
    pick = np.where(np.isnan(acc[:, 0]), 0, np.argmin(size, axis=1))
    return roots[np.arange(len(rows)), pick]


def singular_curves(
    m: PseudoFinslerMetric, box: tuple[float, float, float, float], resolution: int = 220
) -> list[CurveSamples]:
    """Traced components of the singular locus, labeled: the singular
    curves {D = N = 0} in (x, y, p) (label "singular"), seeded by the zero
    set of resultant / disc_F (resultant_grid_fn over disc_grid_fn; disc_F
    divides the resultant exactly once, so the boundary drops out) and
    lifted by lift_to_slopes, and the metric boundary (boundary_curves).
    Each carries its slopes.

    disc_F is evaluated over the grid once: the boundary is traced from
    that grid, which then becomes the resultant / disc_F grid in place.
    For degree 2, denom is -disc_F, constant in p, so no singular point
    lies off the boundary and the boundary is the whole locus.  Degrees
    above 3 raise ValueError.
    """
    if m.degree == 2:
        return boundary_curves(m, box, resolution)
    xs, ys = _axes(box, resolution)
    vals = _grid_values(disc_grid_fn(m), xs, ys)
    boundary = _boundary_from_grid(m, vals, box)
    res = resultant_grid_fn(m)
    # resultant / disc_F, written over disc_F block by block
    _grid_values(lambda x, y, disc: res(x, y) / disc, xs, ys, vals)
    return _trace_grid(
        vals, _slope_equations(m, ("denom", "numer")), box, "singular",
        lambda xs, ys: np.array([xs, ys, np.arctan(lift_to_slopes(m, xs, ys))]),
    ) + boundary


def boundary_curves(
    m: PseudoFinslerMetric, box: tuple[float, float, float, float], resolution: int = 220
) -> list[CurveSamples]:
    """Traced components of the metric boundary {F = F_p = 0} in (x, y, p),
    labeled "boundary": seeded by the zero set of disc_F and lifted to the
    root of F_p at which F is smallest (_lift)."""
    return _boundary_from_grid(m, _grid_values(disc_grid_fn(m), *_axes(box, resolution)), box)


def _boundary_from_grid(m: PseudoFinslerMetric, vals, box) -> list[CurveSamples]:
    """boundary_curves from the grid of disc_F (_trace_grid)."""

    def lift(xs, ys):
        c = m.table("F").values_on_grid(xs, ys)
        return np.array([xs, ys, np.arctan(_lift(npoly.polyder(c), c))])

    return _trace_grid(vals, _slope_equations(m, ("F", "F_p")), box, "boundary", lift)


# ---------------------------------------------------------------------------
# lifting the locus to the slope and the tangency test


def lift_to_slopes(m: PseudoFinslerMetric, xs, ys) -> np.ndarray:
    """At each point, the denominator root at which the numerator is
    smallest against its terms (_lift); nan where the denominator has no
    real root.  The layers come from one ``values_on_grid`` call each."""
    return _lift(*(m.table(name).values_on_grid(xs, ys) for name in ("denom", "numer")))


def lift_to_slope(m: PseudoFinslerMetric, x: float, y: float) -> float:
    """Denominator root at which the numerator is smallest relative to
    its terms; a StratumError where there is none (see lift_to_slopes)."""
    p = float(lift_to_slopes(m, [x], [y])[0])
    if math.isnan(p):
        raise StratumError(f"denominator has no real roots at ({x}, {y})")
    return p


def tangency_report(m: PseudoFinslerMetric, x: float, y: float, p: float) -> TangencyReport:
    """Transversality of the singular direction p at (x, y) against its
    own curve.

    The tangent of the curve is the (x, y) part of grad D x grad N, from
    rows 1 and 3 of the linearization J.  direction_dot is the cosine
    between the field direction (1, p) and the curve normal: T over the
    norms of the tangent and of (1, p).  The point is transversal when
    the direction is not tangent, where the pair lambda^2 = T of the
    spectrum is away from zero.
    """
    J, dv, _ = _linearization(m, x, y, p)
    tx, ty, _ = np.cross(J[0], J[2]).tolist()
    tnorm = math.hypot(tx, ty)
    tangent = (tx / tnorm, ty / tnorm) if tnorm > 0 else (0.0, 0.0)
    dot = _invariant_t(J.tolist(), p) / (tnorm * math.hypot(1.0, p)) if tnorm > 0 else 0.0
    return TangencyReport(
        x=x, y=y, p=p, tangent=tangent, direction_dot=dot,
        transversal=abs(dot) > 1e-6,
        eigenvalues=_spectrum(J, p, dv),
    )


def find_tangency_failures(
    m: PseudoFinslerMetric, curve: CurveSamples
) -> list[tuple[float, float, float]]:
    """Points (x, y, p) along a traced singular curve where transversality
    fails: each sign change of T between two samples, with T from the
    Jacobian rows of the projection, refined by up to 12 regula falsi
    probes (the Illinois variant) on the chord in
    (x, y, arctan p), each projected onto the curve."""
    equations = _slope_equations(m, ("denom", "numer"))

    def t_at(P):  # T (1 + p^2), which has the sign of T
        with np.errstate(all="ignore"):
            return _invariant_t(equations(P)[1], np.tan(P[2]))

    P = np.vstack([curve.points.T, np.arctan(curve.slopes)])
    vals = t_at(P).tolist()
    found = []
    for i in range(P.shape[1] - 1):
        a, b, ta, tb = P[:, i], P[:, i + 1], vals[i], vals[i + 1]
        if not (math.isfinite(ta) and math.isfinite(tb)) or ta * tb > 0:
            continue
        c, tc, kept = a, ta, 0
        for _ in range(12):
            if tc == 0 or ta == tb:
                break
            c = _project(equations, (a + ta / (ta - tb) * (b - a))[:, None])[:, 0]
            tc = float(t_at(c[:, None])[0])
            if not math.isfinite(tc):
                break
            # Illinois: halve the value at an end kept twice running
            if (tc > 0) == (ta > 0):
                a, ta, tb, kept = c, tc, tb * (0.5 if kept < 0 else 1.0), -1
            else:
                b, tb, ta, kept = c, tc, ta * (0.5 if kept > 0 else 1.0), 1
        found.append((float(c[0]), float(c[1]), math.tan(c[2])))
    return found
