"""Shared builders, planar polyline utilities (the exact deviation of two
polylines among them), fixed-step RK4 lanes as the reference for the
direction nets, the singular grid function, the guarded tree walk
that checks the generated evaluators, a loop reference for the generated
Dormand-Prince step and a generator reference for its step-size
controller, the field of each chart that the generated chart steps write
into their stages, a point-by-point reference for the SVG
paths, cell-by-cell references for the grid paths, the dict-keyed
stitching of the locus segments, the slope rows from the layer grids, a
point-by-point reference for the projection onto the loci, the degree
of a coefficient row, the homogeneous metric, the
one-polynomial-at-a-time root pipeline, the pairwise-difference
expansion of the degeneracy combination,
Sylvester determinants and the singular directions of a point for the
singular locus, exact polynomial trees in sympy, a tree-walk reference,
on dual numbers, for the exact series solve, the series plan on any
tree, per-sample references for the traces (dense output, isotropic
projection), and row-by-row references for the CSV files."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import sympy
from numpy.polynomial import polynomial as npoly

from finslerflow import codegen
from finslerflow import expr as ex
from finslerflow import flow
from finslerflow import metric as mt
from finslerflow import nets
from finslerflow import poly
from finslerflow import puiseux as pz
from finslerflow import singular as sg
from finslerflow.codegen import DOPRI_A, DOPRI_E, _div, _ipow


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


def dopri_steps_reference(step, u, fu, cfg):
    """Adaptive Dormand-Prince steps from u at t = 0, where the field is fu:
    the controller as a generator, the reference for the one that
    codegen writes into each generated step.

    step(u, fu, h, rel_tol, abs_tol) is one embedded step returning
    (unew, fnew, err), dopri_step_reference with its rhs bound.  Yields
    each accepted step as (t, h, u0, f0) followed by the results of
    step: it starts at time t, has length h and goes from u0 to u1 =
    unew, with f the field at both ends.  A caller that switches the
    field sends the (step, u, f) to go on with instead of (step, u1, f1).
    A step that leaves the floats is retried at a quarter of its length
    and a rejected one at the controller's length; every attempt counts
    against cfg.max_steps.  Returns the stop reason (STEP_UNDERFLOW or
    MAX_STEPS) and the time reached.
    """
    rel_tol, abs_tol = float(cfg.rel_tol), float(cfg.abs_tol)
    max_step = float(cfg.max_step)
    t = 0.0
    h = flow.INITIAL_STEP
    for _ in range(cfg.max_steps):
        h = min(h, max_step)
        res = step(u, fu, h, rel_tol, abs_tol)
        unew, err = res[0], res[2]
        if not math.isfinite(err) or not all(map(math.isfinite, unew)):
            h *= 0.25
            if h < 1e-14:
                return flow.STEP_UNDERFLOW, t
            continue
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                return flow.STEP_UNDERFLOW, t
            continue
        restart = yield (t, h, u, fu) + res
        t += h
        if restart:
            step, u, fu = restart
        else:
            u, fu = unew, res[1]
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return flow.MAX_STEPS, t


def halfplane_metric() -> mt.PseudoFinslerMetric:
    """F = p**2 - x: strata split by the vertical axis."""
    return mt.metric_from_strings(3, ["-x", "0", "1", "0"])


def parabola_metric(alpha: float = 1.0) -> mt.PseudoFinslerMetric:
    """F = p**2 + alpha*y**2 - x: parabolic boundary stratum."""
    return mt.metric_from_strings(3, [f"{alpha}*y^2 - x", "0", "1", "0"])


def quartic_product_metric() -> mt.PseudoFinslerMetric:
    """F = p*(p - 4*x): the induced tangency example, written directly."""
    return mt.metric_from_strings(3, ["0", "-4*x", "1", "0"])


def heavier_cubic_metric() -> mt.PseudoFinslerMetric:
    """A cubic with heavy derived layers (numer has 149 value-numbered
    lines); its box is HEAVIER_CUBIC_BOX."""
    return mt.metric_from_strings(3, [
        "-1.8*x^2*y^2 + 0.9 + 0.4*x^3*y - 1.1*y^3",
        "0.9 - 0.7*x*y^2 + 0.3*y/(1 + x^2)",
        "-0.3*x^3*y + 2.7 - 1.2*x*y",
        "1 + 0.2*x^2 - 0.5*y^2*x",
    ])


HEAVIER_CUBIC_BOX = (-1.2, 1.2, -1.1, 1.3)


def unrenamed_lines(code) -> list[str]:
    """Reference: codegen._Code.scalar_lines with every value number kept
    as its own name, so every temporary lives to the return."""
    out = []
    for t, op, a, b in code.lines:
        if op == "-":
            out.append(f"{t} = -{codegen._atom(a)}")
        elif op == "/":
            out.append(f"{t} = _div({codegen._atom(a)}, {codegen._atom(b)})")
        else:
            out.append(f"{t} = {codegen._atom(a)} {op} {codegen._atom(b)}")
    return out


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
        _, dv, _ = m.fdp_function(x, y, p)
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
        _, dv, nv = mt.fdp_values(m, x, y, p)
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


def _polyline_distance(pts: np.ndarray, line: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Distance from each point (N, 2) to the polyline through the rows
    of ``line``, the least distance to any of its segments, found exactly;
    ``near`` holds a point of the line for each point.

    The segments are taken in runs of about sqrt(their count / 4), each in a
    circle about the mean of its vertices.  The distance to the near point
    bounds a point's distance from above, and a run whose circle is
    farther than that bound is not measured.
    """
    if len(line) == 1:
        return np.hypot(*(pts - line[0]).T)
    n_seg = len(line) - 1
    run = max(1, math.isqrt(n_seg // 4))
    n_run = -(-n_seg // run)
    # the vertices of each run, the last repeated to fill the final one
    verts = line[np.minimum(np.arange(n_run)[:, None] * run + np.arange(run + 1), n_seg)]
    center = verts.mean(axis=1)
    radius = np.hypot(*(verts - center[:, None]).transpose(2, 0, 1)).max(axis=1)
    best = np.hypot(*(pts - near).T)
    reach = best[:, None] + radius
    to_center = (pts[:, 0, None] - center[:, 0]) ** 2 + (pts[:, 1, None] - center[:, 1]) ** 2
    i, k = np.nonzero(to_center <= reach * reach * (1.0 + 1e-9))
    i = np.repeat(i, run)
    j = (k[:, None] * run + np.arange(run)).ravel()
    keep = j < n_seg
    i, j = i[keep], j[keep]
    ab = line[j + 1] - line[j]
    d = pts[i] - line[j]
    denom = np.einsum("ij,ij->i", ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(np.einsum("ij,ij->i", d, ab) / denom, 0.0, 1.0)
    # an empty segment is its point
    t[denom == 0.0] = 0.0
    off = d - t[:, None] * ab
    np.minimum.at(best, i, np.hypot(off[:, 0], off[:, 1]))
    return best


def polyline_deviation(a, b) -> float:
    """Largest distance between two polylines that start at one point,
    over the span they share.

    The span is the shorter of the two lengths, measured along each line
    from the start.  Each vertex of a line within the span is taken to
    the nearest point of the other line, found exactly over all of its
    segments: the segments at the nearest vertex do not show it where a
    line turns back on itself, as at a cusp.  The longer line is followed
    past the span as far as its vertex nearest the shorter line's end, as
    the length of a line that zigzags overstates how far it got.
    """
    lines = [np.asarray(line, dtype=np.float64) for line in (a, b)]
    lengths = [
        np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(line, axis=0).T))])
        for line in lines
    ]
    short = int(lengths[1][-1] < lengths[0][-1])
    span = lengths[short][-1]
    longer, end = lines[1 - short], lines[short][-1]
    past = np.searchsorted(lengths[1 - short], span)
    cut = list(lines)
    cut[1 - short] = longer[: past + np.argmin(np.hypot(*(longer[past:] - end).T)) + 1]
    worst = 0.0
    for k in (0, 1):
        pts, target = lines[k][lengths[k] <= span], cut[1 - k]
        # the target's vertex at the same length from the start
        at = np.searchsorted(lengths[1 - k], lengths[k][: len(pts)])
        near = target[np.minimum(at, len(target) - 1)]
        worst = max(worst, float(_polyline_distance(pts, target, near).max()))
    return worst


def directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """max over points of a of the distance to polyline b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(_polyline_distance(a, b, np.broadcast_to(b[0], a.shape)).max())


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def net_lanes_rk4_reference(fields, blocks, start, sign, ds, lo, hi, steps):
    """Reference for the direction nets: the lanes of ``nets._trace_lanes``
    traced with fixed RK4 steps of length ``ds`` in (x, y, p), as the
    nets were traced before their steps were error-controlled.

    Lanes ``blocks[j]`` to ``blocks[j + 1] - 1`` run along ``fields[j]``.
    A lane stops when the field's norm is below 1e-12, when a step moves
    it less than 1e-10 in the plane, or when its new state leaves the box
    ``lo``, ``hi`` or has |p| > NET_PMAX (its last step then dropped), or
    after ``steps`` steps.  Returns the accepted points (n, 2) of each
    lane, start states not included.
    """
    lane_ids, points = [], []
    for field, first, last in zip(fields, blocks[:-1], blocks[1:]):
        lane = np.arange(first, last)
        s, sds = start[:, first:last].copy(), sign[first:last] * ds

        def lifted(u):
            return np.array(np.broadcast_arrays(*field(u[0], u[1], u[2])))

        with np.errstate(all="ignore"):
            for _ in range(steps):
                if not lane.size:
                    break
                k1 = lifted(s)
                nrm = np.sqrt(np.einsum("ij,ij->j", k1, k1))
                h = sds / nrm
                k2 = lifted(s + 0.5 * h * k1)
                k3 = lifted(s + 0.5 * h * k2)
                k4 = lifted(s + h * k3)
                step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                s = s + step
                go = ~(nrm < 1e-12) & ~(np.hypot(step[0], step[1]) < 1e-10)
                go &= (lo[0] <= s[0]) & (s[0] <= hi[0]) & (lo[1] <= s[1]) & (s[1] <= hi[1])
                go &= np.abs(s[2]) <= nets.NET_PMAX
                lane, s, sds = lane[go], s[:, go], sds[go]
                lane_ids.append(lane)
                points.append(s[:2].T)
    lane_ids = np.concatenate(lane_ids) if lane_ids else np.zeros(0, dtype=int)
    points = np.concatenate(points) if points else np.zeros((0, 2))
    # the steps of each lane come in step order
    order = np.argsort(lane_ids, kind="stable")
    bounds = np.searchsorted(lane_ids[order], np.arange(blocks[-1] + 1))
    return np.split(points[order], bounds[1:-1])


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


def stitch_reference(segs, snap):
    """Reference: singular._stitch with a dict keyed by the endpoints'
    (round(x / snap), round(y / snap)), each endpoint rounded at each
    lookup."""
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
        chain = list(segs[start])
        for head in (1, 0):
            while True:
                pt = chain[-1] if head else chain[0]
                nxt = next((c for c in adj.get(key(pt), []) if not used[c]), None)
                if nxt is None:
                    break
                used[nxt] = True
                ca, cb = segs[nxt]
                chain.insert(len(chain) if head else 0, cb if key(ca) == key(pt) else ca)
        lines.append(np.asarray(chain))
    return lines


def _rows_deriv(c: np.ndarray) -> np.ndarray:
    """The rows of the p-derivative; one zero row for a constant."""
    return c[1:] * np.arange(1.0, len(c))[:, None] if len(c) > 1 else np.zeros_like(c)


def _rows_horner(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_i c[i] p^i at each point by npoly.polyval; c[i] is a row."""
    with np.errstate(all="ignore"):
        return npoly.polyval(p, c, tensor=False)


def slope_rows_reference(m, names, P):
    """Reference: singular._slope_rows from three ``values_on_grid`` calls
    per layer, the derivative rows i * c[i] and numpy Horner sums."""
    x, y, p = P
    r, J, layers = [], [], {}
    for name in names:
        base = name.removesuffix("_p")
        if base not in layers:
            layers[base] = [m.table(base + s).values_on_grid(x, y) for s in ("", "_x", "_y")]
        c, cx, cy = layers[base] if base == name else map(_rows_deriv, layers[base])
        r.append(_rows_horner(c, p))
        J.append([_rows_horner(cx, p), _rows_horner(cy, p), _rows_horner(_rows_deriv(c), p)])
    return np.array(r), np.array(J)


def _point_horner(c, p: float) -> float:
    """sum_i c[i] p^i by the operations of npoly.polyval."""
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


def strata_on_whole_grid(m, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Reference: metric.strata_on_grid with each array operation run on
    the whole grid at once."""
    c = m.table("F").values_on_grid(X, Y)
    with np.errstate(over="ignore", invalid="ignore"):
        disc = poly.disc_cubic(c)
        band = mt._disc_band(np.max(np.abs(c), axis=0))
    plus = disc > band
    strata = np.where(plus, mt.STRATA.index("MPlus"), mt.STRATA.index("MMinus"))
    for k in np.flatnonzero(~(plus | (disc < -band))):
        strata.flat[k] = mt.STRATA.index(mt.classify_point(m, X.flat[k], Y.flat[k]).name)
    return strata, disc


def cell_strata_rows(m, xs, ys) -> list[tuple]:
    """Reference: the rows of the classify CSV, one classify_point and one
    disc_metric call per cell, x running fastest."""
    rows = []
    for y in ys:
        for x in xs:
            st = mt.classify_point(m, float(x), float(y))
            d = mt.disc_metric(m, float(x), float(y))
            rows.append((fmt(x), fmt(y), st.name, fmt(d)))
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


def singular_grid_fn(m: mt.PseudoFinslerMetric):
    """Vectorized (X, Y) -> resultant / disc_F, whose zeros are the planar
    shadows of the singular curves: disc_F divides the resultant exactly
    once, so the boundary disc_F = 0 drops out (not finite where disc_F
    is 0 exactly).  The grid that ``singular.singular_curves`` traces,
    made from the library's two grid functions; degrees 2 and 3."""
    res, disc = sg.resultant_grid_fn(m), sg.disc_grid_fn(m)

    def fn(X, Y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return res(X, Y) / disc(X, Y)

    return fn


def singular_at(m, x, y) -> float:
    """Reference: resultant_at over disc_metric, divided as IEEE floats."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(resultant_at(m, x, y)) / mt.disc_metric(m, x, y))


def singular_directions(m, x: float, y: float) -> tuple[float, float]:
    """The two real zeros of the denominator at a point of MMinus."""
    if m.degree != 3:
        raise sg.StratumError("singular directions are defined for degree 3")
    stratum = mt.classify_point(m, x, y)
    if stratum != mt.Stratum.MMinus:
        raise sg.StratumError(f"point ({x}, {y}) lies in {stratum.value}, not MMinus")
    roots = poly.real_roots_many([m.table("denom").values_at(x, y)])[0]
    flat = [r for r, k in roots for _ in range(k)]
    if len(flat) != 2:
        raise sg.StratumError(
            f"expected two real denominator roots at ({x}, {y}), got {flat}"
        )
    return flat[0], flat[1]


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


class Series:
    """Reference power series in t, truncated at a fixed order, with the
    naive whole-series arithmetic: + - * / ** of series (a quotient
    through the inverse), ``invert``, ``deriv`` and ``integrate``.
    Binary operations truncate to the smaller order.  Coefficients are
    rationals (numbers are read as the library reads them, through
    puiseux._frac) or Jets, so tree_geodesic_series can linearize a
    residual in one unknown; the library's puiseux.TruncatedSeries only
    holds results.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs, order: int | None = None):
        vals = [_coefficient(v) for v in coeffs]
        if order is not None:
            vals = vals[: order + 1] + [Fraction(0)] * (order + 1 - len(vals))
        self.c = vals or [Fraction(0)]

    @classmethod
    def constant(cls, v, order: int) -> "Series":
        return cls([v], order)

    @classmethod
    def monomial(cls, power: int, v, order: int) -> "Series":
        return cls([0] * power + [v], order)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([self.c[i] + other.c[i] for i in range(n + 1)])

    def __neg__(self) -> "Series":
        return Series([-v for v in self.c])

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.c[: n + 1]):
            if a != 0:
                for j, b in enumerate(other.c[: n - i + 1]):
                    if b != 0:
                        out[i + j] += a * b
        return Series(out)

    def invert(self) -> "Series":
        if self.c[0] == 0:
            raise ZeroDivisionError("series division needs a nonzero constant term")
        out = [1 / self.c[0]]
        for k in range(1, self.order + 1):
            acc = sum((self.c[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
            out.append(-acc / self.c[0])
        return Series(out)

    def __truediv__(self, other: "Series") -> "Series":
        return self * other.invert()

    def __pow__(self, k: int) -> "Series":
        base = self.invert() if k < 0 else self
        out = Series.constant(1, self.order)
        for _ in range(abs(k)):
            out = out * base
        return out

    def deriv(self) -> "Series":
        return Series([i * v for i, v in enumerate(self.c)][1:])

    def integrate(self) -> "Series":
        return Series([0] + [v / (i + 1) for i, v in enumerate(self.c)])


def _coefficient(v):
    return v if isinstance(v, Jet) else pz._frac(v)


def tree_expr_series(e, xs, ys):
    """Reference: substitute Series for x and y by a recursive walk that
    evaluates every subtree wherever it occurs."""
    order = min(xs.order, ys.order)
    if isinstance(e, ex.Const):
        return Series.constant(e.value, order)
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


def plan_expr_series(e, xs, ys):
    """Substitute series for x and y in an expression tree, exactly,
    through the value-numbered plan of the series solve
    (puiseux._SeriesPlan run by puiseux._SeriesRun), so that the plan can
    be checked on any tree against tree_expr_series."""
    plan = pz._SeriesPlan([e])
    src = {"x": xs.c, "y": ys.c}
    run = pz._SeriesRun(plan, lambda op, j: src[op][j])
    # constants are kept through the smaller of the two orders and each
    # operation (b**0 too) through its operands' smaller one, so the
    # result holds the smallest order among the tree's leaves; the plan
    # may hold fewer, since the numbering drops the base of b**0 and the
    # constant of v * 1.0
    orders = {"x": xs.order, "y": ys.order, "c": min(xs.order, ys.order)}
    run.extend(min(orders[leaf] for leaf in _leaf_kinds(e)))
    return pz.TruncatedSeries(run.vals[plan.roots[0]])


def _leaf_kinds(e) -> set[str]:
    """The kinds of leaf in a tree: variable names, and "c" for a
    constant; a shared subtree is visited once."""
    out, seen, todo = set(), set(), [e]
    while todo:
        e = todo.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, ex.Const):
            out.add("c")
        elif isinstance(e, ex.Var):
            out.add(e.name)
        elif isinstance(e, ex.Pow):
            todo.append(e.base)
        else:
            todo += [e.a] if isinstance(e, ex.Neg) else [e.a, e.b]
    return out


def integrated_curve(s, y0, p):
    """(x, y) = (t**s, y0 + integral of p dx) from a slope series p, by
    multiplying p by dx/dt and integrating termwise: a route independent
    of the y_j = s p_(j-s) / j of puiseux._curve_series."""
    n = p.order
    x = Series.monomial(s, 1, n + s)
    padded = Series(p.c, order=n + s - 1)
    return x, Series.constant(y0, n + s) + (padded * x.deriv()).integrate()


def tree_geodesic_series(m, s, seed, order, free=None, y0=0.0):
    """Reference: solve_geodesic_series with every residual evaluating
    every denom and numer tree again through tree_expr_series (dict
    seeds only)."""
    seed_map = {int(k): pz._frac(v) for k, v in dict(seed).items()}
    free_map = {int(k): pz._frac(v) for k, v in (free or {}).items()}
    y0f = pz._frac(y0)
    denom_exprs = m._expr_layer("denom")
    numer_exprs = m._expr_layer("numer")
    zero, base_y = Series.constant(0, 0), Series.constant(y0f, 0)
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
        p = Series(coeffs)
        x, y = integrated_curve(s, y0f, p)
        dpoly = Series.constant(0, n_trunc)
        for e in reversed(denom_exprs):
            dpoly = dpoly * p + tree_expr_series(e, x, y)
        npoly = Series.constant(0, n_trunc)
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


# ---------------------------------------------------------------------------
# per-sample references for the traces, which flow computes array-at-a-time


def chart_rhs(m, chart: str, sign: float):
    """The direction field of one chart times sign, as a function of the
    state (x, y, slope): (F, denom, numer) from metric.fdp_values (in the
    q chart on the dual metric at (y, x)), then the components in the
    chart's order.  The field that codegen.chart_step writes into its
    stages."""

    def rhs(v):
        x, y, s = v
        if chart == "p":
            _, d, n = mt.fdp_values(m, x, y, s)
            return (sign * d, sign * (s * d), sign * n)
        _, d, n = mt.fdp_values(m.dual(), y, x, s)
        return (sign * (s * d), sign * d, sign * n)

    return rhs


def _run_direction_reference(m, seed, cfg, sign0):
    """One time direction of flow.integrate with each interpolated sample
    computed as it is emitted: the Hermite interpolant on floats and the
    field from the scalar fdp, one sample after another.  The steps are
    dopri_step_reference driven by chart_rhs under dopri_steps_reference,
    and each step's end values are computed again from the scalar fdp."""
    x0, x1, y0, y1 = cfg.box
    state_chart = seed.chart
    u = (seed.x, seed.y, seed.slope)

    def step_of(chart, sign):
        return functools.partial(dopri_step_reference, chart_rhs(m, chart, sign))

    def vals_at(v):
        return flow._chart_vals(m, v[0], v[1], v[2], state_chart)

    def inside(v):
        return x0 <= v[0] <= x1 and y0 <= v[1] <= y1

    def scale_at(v):
        return _ipow(1.0 + mt.metric_scale(m, v[0], v[1]), 2)

    cols = {k: [] for k in ("t", "x", "y", "slope", "chart", "F", "denom", "numer")}
    events = []

    def push(t, v, vals):
        for k, val in zip(cols, (t, *v, state_chart, *vals)):
            cols[k].append(val)
        return len(cols["t"]) - 1

    def done():
        return {k: np.asarray(v) for k, v in cols.items()}, events

    fu = chart_rhs(m, state_chart, sign0)(u)
    vals = vals_at(u)
    push(0.0, u, vals)
    if max(abs(vals[1]), abs(vals[2])) < flow.SINGULAR_TOL * scale_at(u):
        events.append(flow.TraceEvent(0, flow.SINGULAR_APPROACH, 0.0))
        return done()

    steps = dopri_steps_reference(step_of(state_chart, sign0), u, fu, cfg)
    restart = None
    while True:
        try:
            t, h, u0, f0, unew, fnew, _ = steps.send(restart)
        except StopIteration as stop:
            kind, t = stop.value
            events.append(flow.TraceEvent(len(cols["t"]) - 1, kind, t))
            return done()
        restart = None
        vals_new = vals_at(unew)

        def interp(theta):
            return flow._hermite(u0, f0, unew, fnew, h, theta)

        def chart_vals_at(theta):
            v = interp(theta)
            return v, flow._chart_vals(m, v[0], v[1], v[2], state_chart)

        candidates = []
        if vals[1] * vals_new[1] < 0.0:
            th = flow._bisect_theta(lambda s: chart_vals_at(s)[1][1], 0.0, 1.0, vals[1], h)
            candidates.append((th, "denom"))
        if vals[0] * vals_new[0] < 0.0:
            th = flow._bisect_theta(lambda s: chart_vals_at(s)[1][0], 0.0, 1.0, vals[0], h)
            candidates.append((th, "F"))

        exit_theta = None
        if not inside(unew):
            lo, hi = 0.0, 1.0
            for _ in range(80):
                if hi - lo <= flow._T_LOCATE / max(h, 1e-300):
                    break
                mid = 0.5 * (lo + hi)
                if inside(interp(mid)):
                    lo = mid
                else:
                    hi = mid
            exit_theta = lo

        marks = []
        terminal = end_at = None
        end_theta = 1.0
        if exit_theta is not None:
            end_theta, terminal = exit_theta, flow.DOMAIN_EXIT
        candidates.sort()
        for th, what in candidates:
            if th > end_theta:
                continue
            v_ev, vals_ev = chart_vals_at(th)
            if what == "denom":
                sc = scale_at(v_ev)
                if max(abs(vals_ev[1]), abs(vals_ev[2])) < flow.SINGULAR_TOL * sc:
                    end_theta, terminal = th, flow.SINGULAR_APPROACH
                    end_at = (v_ev, vals_ev)
                    marks = [mk for mk in marks if mk[0] < th]
                    break
                if abs(vals_ev[2]) > flow.EVENT_TOL * sc:
                    marks.append((th, flow.CUSP, (v_ev, vals_ev)))
            else:
                marks.append((th, flow.ISOTROPIC_CROSS, None))

        chord = math.hypot(unew[0] - u0[0], unew[1] - u0[1]) * end_theta
        nsub = flow._subdivisions(chord, cfg.max_ds)
        fill = [(end_theta * k / nsub, None, None) for k in range(1, nsub)]
        last_th = -1.0
        for th, kind, at in sorted(marks + fill, key=lambda mk: mk[0]):
            if kind is None and (th - last_th < 1e-9 or end_theta - th < 1e-9):
                continue
            v_ev, vals_ev = at or chart_vals_at(th)
            idx = push(t + th * h, v_ev, vals_ev)
            if kind is not None:
                events.append(flow.TraceEvent(idx, kind, t + th * h))
            last_th = th

        if terminal is not None:
            v_end, vals_end = end_at or chart_vals_at(end_theta)
            idx = push(t + end_theta * h, v_end, vals_end)
            events.append(flow.TraceEvent(idx, terminal, t + end_theta * h))
            return done()

        t += h
        u, vals = unew, vals_new
        idx = push(t, u, vals)
        if max(abs(vals[1]), abs(vals[2])) < flow.SINGULAR_TOL * scale_at(u):
            events.append(flow.TraceEvent(idx, flow.SINGULAR_APPROACH, t))
            return done()

        if abs(u[2]) > flow.CHART_THRESHOLD:
            state_chart = "q" if state_chart == "p" else "p"
            sign = 1.0
            u = (u[0], u[1], 1.0 / u[2])
            f = chart_rhs(m, state_chart, sign)(u)
            vals = vals_at(u)
            dot = f[0] * fnew[0] + f[1] * fnew[1]
            if not (dot > 0.0 or (dot == 0.0 and -f[2] * fnew[2] >= 0.0)):
                sign = -1.0
                f = (-f[0], -f[1], -f[2])
            idx = push(t, u, vals)
            events.append(flow.TraceEvent(idx, flow.CHART_SWITCH, t))
            restart = (step_of(state_chart, sign), u, f)


def integrate_reference(m, seed, cfg, direction: int = 0):
    """flow.integrate with the per-sample emission of
    _run_direction_reference."""
    if abs(seed.slope) > flow.CHART_THRESHOLD:
        seed = flow.PTMPoint(seed.x, seed.y, 1.0 / seed.slope, "q" if seed.chart == "p" else "p")
    cols, events, stops = flow._join_sides(
        lambda sign: _run_direction_reference(m, seed, cfg, sign), direction
    )
    return flow.GeodesicTrace(**cols, events=events, stops=stops)


def tm_integrate_reference(m, x, y, xdot, ydot, cfg, direction: int = 0):
    """flow.tm_integrate with each interpolated sample computed as it is
    emitted, the Hermite interpolant on floats, and the steps of
    dopri_step_reference under dopri_steps_reference; the H ~ 0 test at
    a step's end computes its determinants again."""
    x0, x1, y0, y1 = cfg.box
    n = m.degree

    def rhs(u):
        h, h1, h2 = mt.accel_determinants(m, u[0], u[1], u[2], u[3])
        return (u[2], u[3], _div(h1, h), _div(h2, h))

    def h_small(u):
        speed = max(abs(u[2]), abs(u[3]), 1e-12)
        ref = _ipow(1.0 + mt.metric_scale(m, u[0], u[1]), 2) * _ipow(speed, 2 * n - 4)
        return abs(mt.accel_determinants(m, *u)[0]) < 1e-10 * ref

    def run(sign):
        u = (x, y, sign * xdot, sign * ydot)
        ts, rows = [0.0], [u]

        def stop(kind, t):
            cols = {"t": np.asarray(ts), "u": np.asarray(rows, dtype=np.float64)}
            return cols, [flow.TraceEvent(len(ts) - 1, kind, t)]

        steps = dopri_steps_reference(
            functools.partial(dopri_step_reference, rhs), u, rhs(u), cfg
        )
        while True:
            try:
                t, h, u0, f0, u1, f1, _ = next(steps)
            except StopIteration as end:
                return stop(*end.value)
            if h_small(u1):
                return stop(flow.SINGULAR_APPROACH, t)
            nsub = flow._subdivisions(math.hypot(u1[0] - u0[0], u1[1] - u0[1]), cfg.max_ds)
            for k in range(1, nsub):
                ts.append(t + k / nsub * h)
                rows.append(flow._hermite(u0, f0, u1, f1, h, k / nsub))
            ts.append(t + h)
            rows.append(u1)
            if not (x0 <= u1[0] <= x1 and y0 <= u1[1] <= y1):
                return stop(flow.DOMAIN_EXIT, t + h)

    cols, _, stops = flow._join_sides(run, direction)
    xs, ys, xdots, ydots = cols["u"].T
    return flow.TMTrace(cols["t"], xs, ys, xdots, ydots, stops)


def project_isotropic_reference(m, x, y, s, chart, tol_abs, max_iter=8):
    """Newton steps in the slope driving the chart's F to zero, at one
    sample; returns the slope and whether |F| <= tol_abs there."""
    mm = m if chart == "p" else m.dual()
    xx, yy = (x, y) if chart == "p" else (y, x)
    row = mm.table("F").values_at(xx, yy)
    drow, scale = npoly.polyder(row), float(np.max(np.abs(row)))
    # numpy scalars warn where Python floats would not
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            f = mt.fdp_values(mm, xx, yy, s)[0]
            if abs(f) <= tol_abs:
                return s, True
            d = npoly.polyval(s, drow)
            if abs(d) < 1e-9 * max(1.0, scale):
                return s, False
            s = s - f / d
    return s, abs(mt.fdp_values(mm, xx, yy, s)[0]) <= tol_abs


def isotropic_trace_reference(m, seed, cfg, tol: float = 1e-9):
    """flow.isotropic_trace with the seed and then each drifting sample
    projected one at a time."""
    sc = mt.metric_scale(m, seed.x, seed.y) + 1.0
    s, ok = project_isotropic_reference(m, seed.x, seed.y, seed.slope, seed.chart, tol * sc)
    assert ok
    trace = integrate_reference(m, flow.PTMPoint(seed.x, seed.y, s, seed.chart), cfg)
    trace.events = [e for e in trace.events if e.kind != flow.ISOTROPIC_CROSS]
    for i in range(len(trace)):
        sc = mt.metric_scale(m, trace.x[i], trace.y[i]) + 1.0
        if abs(trace.F[i]) > tol * sc:
            chart = str(trace.chart[i])
            s, ok = project_isotropic_reference(
                m, trace.x[i], trace.y[i], trace.slope[i], chart, tol * sc
            )
            if ok:
                trace.slope[i] = s
                vals = flow._chart_vals(m, trace.x[i], trace.y[i], s, chart)
                trace.F[i], trace.denom[i], trace.numer[i] = vals
    return trace


# ---------------------------------------------------------------------------
# row-by-row references for the CSV files, which the CLI writes a column
# at a time


def fmt(v) -> str:
    """A number as every CSV of the CLI writes it."""
    return "%.12g" % float(v)


def csv_bytes(header, lines) -> bytes:
    """A CSV file of the header and the lines, every line ended by CRLF."""
    return "\r\n".join([",".join(header), *lines, ""]).encode("utf-8")


def strata_lines(xs, ys, strata, disc) -> list[str]:
    """The lines of a classify CSV: one per grid cell, x running fastest;
    strata holds codes into metric.STRATA."""
    return [
        f"{fmt(x)},{fmt(y)},{mt.STRATA[strata[j][i]]},{fmt(disc[j][i])}"
        for j, y in enumerate(ys) for i, x in enumerate(xs)
    ]


def trace_lines(trace) -> list[str]:
    """The lines of a trace CSV: the samples, and the kinds of the events
    at each, joined by "+"."""
    marks: dict[int, str] = {}
    for ev in trace.events:
        marks[ev.index] = marks[ev.index] + "+" + ev.kind if ev.index in marks else ev.kind
    cols = (trace.t, trace.x, trace.y, trace.slope, trace.chart, trace.F,
            trace.denom, trace.numer)
    return [
        ",".join([fmt(t), fmt(x), fmt(y), fmt(s), str(c), fmt(f), fmt(d), fmt(n),
                  marks.get(k, "")])
        for k, (t, x, y, s, c, f, d, n) in enumerate(zip(*cols))
    ]


def family_lines(member) -> list[str]:
    """The lines of a family CSV: alpha and the approach sign, then the
    trace."""
    return [f"{fmt(member.alpha)},{member.eta_sign},{line}"
            for line in trace_lines(member.trace)]


def locus_lines(points) -> list[str]:
    """The lines of a locus CSV, one per point."""
    return [f"{fmt(x)},{fmt(y)}" for x, y in points]


def point_line(x, y, p, kind, eigenvalues, transversal) -> str:
    """One line of the singular-points CSV."""
    e = np.sort_complex(eigenvalues)
    return ",".join([
        fmt(x), fmt(y), fmt(p), kind, *(fmt(v) for z in e for v in (z.real, z.imag)),
        "" if transversal is None else str(transversal),
    ])


def series_lines(sol) -> list[str]:
    """The lines of a series CSV."""
    def text(v):
        return "" if v is None else str(v)

    return [
        f"{r.index},{r.slot},{text(r.linear_coeff)},{text(r.forcing)},"
        f"{text(r.value)},{r.status}"
        for r in sol.rows
    ]
