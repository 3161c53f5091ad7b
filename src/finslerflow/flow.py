"""Geodesic traces on the projectivized tangent bundle.

A point carries (x, y, slope, chart).  In the default chart the slope is
p = dy/dx and the direction field is

    (dx, dy, dp) = (denom, p * denom, numer)

evaluated on the metric.  Where |p| exceeds the chart threshold the
integration switches to the dual chart with slope q = dx/dy and the same
formulas built from the dual metric (reversed coefficients, swapped
arguments).  The two fields agree projectively, so traces glue as
non-parametrized curves; orientation across a switch is fixed by matching
the planar velocity.

One stepper serves two fields: the adaptive embedded Dormand-Prince 5(4)
step integrates this projectivized field (integrate) and the
second-order system on the tangent bundle (tm_integrate), and the two
join their time directions the same way.  The step is straight-line code
generated from one tableau, its step-size controller included: each call
makes attempts until one is accepted or the trace must stop.  Here it is
one step per chart (codegen.chart_step), whose stages call the metric's
generated fdp directly and whose last stage gives (F, denom, numer) at
the step's end, as Dormand-Prince 5(4) is first-same-as-last; on the
tangent bundle the step for 4 floats (codegen.dopri_step) around the
Cramer field.  Each tracer calls its step once per accepted step and
keeps only what it does with it.  Here events (sign changes of the
denominator or of F, singular proximity, domain exit) are localized by
bisection on a cubic Hermite interpolant of the step.

Most samples of a trace are dense output: points of that interpolant
between step ends, max_ds apart in the plane.  The loop records each
step end as one row and counts the rows of a step's samples; each side
lays out its columns at its end, the samples in one array pass
(_dense_output).  The interpolant and the generated field function
(metric.fdp_function) run on floats, as the bisection calls them, or
elementwise on arrays with the same bits, so a sample is the same either
way.  The isotropic projection likewise runs on all samples at once.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import metric as mt
from . import singular as sg
from .codegen import MAX_STEPS, STEP_UNDERFLOW, _div, _ipow, chart_step, dopri_step
from .metric import PseudoFinslerMetric

CUSP = "Cusp"
SINGULAR_APPROACH = "SingularApproach"
CHART_SWITCH = "ChartSwitch"
ISOTROPIC_CROSS = "IsotropicCross"
DOMAIN_EXIT = "DomainExit"

EVENT_KINDS = (
    CUSP,
    SINGULAR_APPROACH,
    CHART_SWITCH,
    ISOTROPIC_CROSS,
    DOMAIN_EXIT,
    STEP_UNDERFLOW,
    MAX_STEPS,
)

_T_LOCATE = 1e-10
INITIAL_STEP = 1e-4  # first step of each trace
CHART_THRESHOLD = 2.0  # |slope| beyond which a trace changes chart
EVENT_TOL = 1e-6  # relative |numer| above which a denom zero is a cusp
SINGULAR_TOL = 1e-8  # relative |denom|, |numer| below which a trace ends


class TransversalityError(ValueError):
    """The double direction is tangent to the discriminant curve."""


@dataclass(frozen=True)
class PTMPoint:
    x: float
    y: float
    slope: float
    chart: str = "p"

    def __post_init__(self):
        if self.chart not in ("p", "q"):
            raise ValueError(f"chart must be 'p' or 'q', got {self.chart!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.05
    max_steps: int = 20000
    box: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    max_ds: float = 0.002

    def __post_init__(self):
        # a step setting that is not > 0 (nan included) cannot advance;
        # an infinite max_step means no cap
        for name in ("rel_tol", "abs_tol", "max_step"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")


@dataclass
class TraceEvent:
    index: int
    kind: str
    t: float


@dataclass
class GeodesicTrace:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    slope: np.ndarray
    chart: np.ndarray
    F: np.ndarray
    denom: np.ndarray
    numer: np.ndarray
    events: list[TraceEvent] = field(default_factory=list)
    # each side's stop reason, backward first; an event at the seed row
    # keeps only one side's reason, this keeps both
    stops: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.t)

    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])


# ---------------------------------------------------------------------------
# the direction field


def _chart_vals(m: PseudoFinslerMetric, x, y, s, chart):
    """(F, denom, numer) in the given chart at physical (x, y)."""
    if chart == "p":
        return mt.fdp_values(m, x, y, s)
    return mt.fdp_values(m.dual(), y, x, s)


def _chart_vals_many(m: PseudoFinslerMetric, x, y, s, q) -> np.ndarray:
    """_chart_vals at arrays of samples, as rows (F, denom, numer); q marks
    the samples in the q chart.  One fdp_many call per chart present."""
    out = np.empty((3, len(s)))
    p = ~q
    if p.any():
        out[:, p] = m.fdp_many(x[p], y[p], s[p])
    if q.any():
        out[:, q] = m.dual().fdp_many(y[q], x[q], s[q])
    return out


def _chart_field(vals, s: float, chart: str, sign: float):
    """The direction field at slope s from (F, denom, numer) in a chart,
    times sign, as the stages of codegen.chart_step form it."""
    _, d, n = vals
    if chart == "p":
        return (sign * d, sign * (s * d), sign * n)
    return (sign * (s * d), sign * d, sign * n)


def field_at(m: PseudoFinslerMetric, pt: PTMPoint) -> tuple[float, float, float]:
    """Direction-field components (dx, dy, dslope) in the point's chart."""
    vals = _chart_vals(m, pt.x, pt.y, pt.slope, pt.chart)
    return _chart_field(vals, pt.slope, pt.chart, 1.0)


# ---------------------------------------------------------------------------
# dense output and event location


def _hermite(u0, f0, u1, f1, h, theta):
    """The cubic Hermite interpolant of a step at theta, one entry per
    component: on floats, or elementwise on arrays whose rows are the
    components, with h and theta one per column."""
    t = theta
    return tuple(
        (1 - t) * a
        + t * b
        + t * (t - 1) * ((1 - 2 * t) * (b - a) + (t - 1) * h * da + t * h * db)
        for a, b, da, db in zip(u0, u1, f0, f1)
    )


def _bisect_theta(g, lo, hi, glo, h):
    """Root of g on [lo, hi] (sign change assumed) to _T_LOCATE in t."""
    tol = _T_LOCATE / max(h, 1e-300)
    for _ in range(80):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0) == (glo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _subdivisions(chord: float, max_ds: float) -> int:
    """The number of equal parts of a step that keep the planar sample
    spacing under max_ds: the samples are theta = end_theta * k / nsub,
    k = 1 .. nsub - 1."""
    if not (chord > max_ds) or max_ds <= 0.0:
        return 1
    return min(int(chord / max_ds) + 1, 400)


def _merge_marks(marks, end_theta: float, nsub: int) -> list:
    """The samples of a step that holds event marks: its fill thetas
    end_theta * k / nsub and the marks (theta, kind), in theta order, a
    mark first at a tie.  A fill sample within 1e-9 of the sample before
    it or of end_theta is dropped; a fill sample's kind is None.  A step
    with no mark ending at theta 1 drops none, since nsub <= 400."""
    fill = [(end_theta * k / nsub, None) for k in range(1, nsub)]
    emit, last_th = [], -1.0
    for th, kind in sorted(marks + fill, key=lambda mk: mk[0]):
        if kind is None and (th - last_th < 1e-9 or end_theta - th < 1e-9):
            continue
        emit.append((th, kind))
        last_th = th
    return emit


def _dense_output(steps, spans, points):
    """The interpolated samples of one side, all in one array pass.

    steps[b] is (t, h, *u0, *f0, *u1, *f1) of a step that has samples.
    spans lists (b, row, nsub): the samples theta = k / nsub,
    k = 1 .. nsub - 1, of step b go to rows row, row + 1, ...; points
    lists (b, row, theta), one sample each.  Returns the rows, the step of
    each, the times t + theta * h and the states (_hermite).
    """
    sb, first, nsub = np.array(spans, dtype=np.int64).reshape(-1, 3).T
    count = nsub - 1
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + 1
    block, rows = np.repeat(sb, count), np.repeat(first, count) + k - 1
    theta = k / np.repeat(nsub, count)
    if points:
        pb, prow, pth = zip(*points)
        block = np.concatenate((block, pb))
        rows = np.concatenate((rows, prow))
        theta = np.concatenate((theta, pth))
    s = np.array(steps)[block].T
    t, h, d = s[0], s[1], (len(s) - 2) // 4
    u0, f0, u1, f1 = (s[2 + j * d : 2 + (j + 1) * d] for j in range(4))
    with np.errstate(invalid="ignore", over="ignore"):
        return rows, block, t + theta * h, _hermite(u0, f0, u1, f1, h, theta)


def _controls(cfg: IntegratorConfig) -> tuple[float, float, float]:
    """(rel_tol, abs_tol, max_step) as floats: on a numpy scalar the
    generated step would warn where it divides by zero."""
    return float(cfg.rel_tol), float(cfg.abs_tol), float(cfg.max_step)


def _join_sides(run, direction: int):
    """One or both time directions of a trace through a seed.

    run(sign) integrates the direction of sign and returns its sample
    arrays keyed by name, the time under "t" and the seed first, and its
    events, its stop last.  The backward side has its time negated; with
    direction 0 it is reversed and joined to the forward side at their
    common seed row.  Returns the columns, the events and each side's
    stop reason, backward first.
    """
    if direction > 0:
        cols, events = run(1.0)
        return cols, events, (events[-1].kind,)
    back, bev = run(-1.0)
    back["t"] = -back["t"]
    bev = [TraceEvent(e.index, e.kind, -e.t) for e in bev]
    if direction < 0:
        return back, bev, (bev[-1].kind,)
    fwd, fev = run(1.0)
    seed = len(back["t"]) - 1
    cols = {k: np.concatenate((back[k][::-1], fwd[k][1:])) for k in fwd}
    # an event of the forward side at the seed is the backward side's
    events = [TraceEvent(seed - e.index, e.kind, e.t) for e in reversed(bev)]
    events += [TraceEvent(seed + e.index, e.kind, e.t) for e in fev if e.index > 0]
    events.sort(key=lambda e: e.index)
    return cols, events, (bev[-1].kind, fev[-1].kind)


# ---------------------------------------------------------------------------
# the geodesic integrator


def _scale_sq(a) -> float:
    """(1 + metric_scale)^2 from the coefficients a of F at a point; inf
    where the square overflows."""
    return _ipow(1.0 + mt.coeff_scale(a), 2)


def _near_singular(vals, a) -> bool:
    """max(|denom|, |numer|) < SINGULAR_TOL * _scale_sq(a), from (F, denom,
    numer) and F's coefficients a at a point: the test that ends a trace.
    metric_scale's nan test runs only where the test on max |a_i| passes."""
    d, n = abs(vals[1]), abs(vals[2])
    return ((n if n > d else d) < SINGULAR_TOL * _ipow(1.0 + max(map(abs, a)), 2)
            and not math.isnan(sum(map(abs, a))))


def _step_events(m, chart: str, box, h, u0, f0, u1, f1, vals0, vals1):
    """The events inside an accepted step of the given chart that has a
    sign change of denom or of F between its ends (vals0, vals1) or ends
    outside the box.

    The sign changes and the exit are located by bisection on the step's
    cubic Hermite interpolant.  Returns the marks (theta, kind), the theta
    where the step ends and the terminal event there (None where it runs
    to 1): a denom zero where numer is small too is a singular approach
    and ends the step, one where it is not is a cusp.
    """
    x0, x1, y0, y1 = box
    F_at = m.table("F").point_function

    def interp(theta):
        return _hermite(u0, f0, u1, f1, h, theta)

    def chart_vals_at(theta):
        v = interp(theta)
        return v, _chart_vals(m, v[0], v[1], v[2], chart)

    # candidate interior events: denominator and F sign changes
    candidates = []
    if vals0[1] * vals1[1] < 0.0:
        th = _bisect_theta(lambda s: chart_vals_at(s)[1][1], 0.0, 1.0, vals0[1], h)
        candidates.append((th, "denom"))
    if vals0[0] * vals1[0] < 0.0:
        th = _bisect_theta(lambda s: chart_vals_at(s)[1][0], 0.0, 1.0, vals0[0], h)
        candidates.append((th, "F"))

    marks, end_theta, terminal = [], 1.0, None
    if not (x0 <= u1[0] <= x1 and y0 <= u1[1] <= y1):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            if hi - lo <= _T_LOCATE / max(h, 1e-300):
                break
            mid = 0.5 * (lo + hi)
            v = interp(mid)
            if x0 <= v[0] <= x1 and y0 <= v[1] <= y1:
                lo = mid
            else:
                hi = mid
        end_theta, terminal = lo, DOMAIN_EXIT

    # classify interior candidates; a singular approach truncates the step
    candidates.sort()
    for th, what in candidates:
        if th > end_theta:
            continue
        if what == "denom":
            v_ev, vals_ev = chart_vals_at(th)
            a = F_at(v_ev[0], v_ev[1])
            if _near_singular(vals_ev, a):
                marks = [mk for mk in marks if mk[0] < th]
                return marks, th, SINGULAR_APPROACH
            if abs(vals_ev[2]) > EVENT_TOL * _scale_sq(a):
                marks.append((th, CUSP))
        else:
            marks.append((th, ISOTROPIC_CROSS))
    return marks, end_theta, terminal


def _trace_columns(m, nrows: int, ends, steps, step_q, spans, points):
    """The columns of one side's nrows rows, laid out in one pass.

    ends holds the rows that are step ends, the seed and chart switches,
    flat, as (row, t, x, y, slope, F, denom, numer, in the q chart).  Every
    other row is an interpolated sample of steps (_dense_output), whose
    field comes from one fdp_many call per chart; step_q marks the steps
    in the q chart.
    """
    e = np.frombuffer(ends).reshape(-1, 9)
    rows = e[:, 0].astype(np.int64)
    out = np.empty((7, nrows))
    out[:, rows] = e[:, 1:8].T
    q = np.empty(nrows, dtype=bool)
    q[rows] = e[:, 8] != 0.0
    if steps:
        at, block, ts, (xs, ys, ss) = _dense_output(steps, spans, points)
        q[at] = np.array(step_q)[block]
        out[0, at], out[1, at], out[2, at], out[3, at] = ts, xs, ys, ss
        out[4:, at] = _chart_vals_many(m, xs, ys, ss, q[at])
    t, x, y, s, F, d, n = out
    return {"t": t, "x": x, "y": y, "slope": s, "chart": np.where(q, "q", "p"),
            "F": F, "denom": d, "numer": n}


def _run_direction(m, seed: PTMPoint, cfg: IntegratorConfig, sign0: float):
    """Integrate one time direction; returns sample arrays and events.

    Each call of the chart's generated step (codegen.chart_step) gives
    one accepted step and (F, denom, numer) at its end, or the stop.  A
    step end is recorded as one row in a flat array; an accepted step's
    interpolated samples are counted in the running row count, and every
    column is laid out after the loop (_trace_columns).
    """
    x0, x1, y0, y1 = cfg.box
    chart = seed.chart
    u = (float(seed.x), float(seed.y), float(seed.slope))
    # a nan slope is no direction, an infinite one is (integrate turns the
    # vertical p = inf into q = 0)
    if not (math.isfinite(u[0]) and math.isfinite(u[1])) or math.isnan(u[2]):
        raise ValueError("seed (x, y, slope) is not finite")
    if not (x0 <= u[0] <= x1 and y0 <= u[1] <= y1):
        raise ValueError(f"seed {(seed.x, seed.y)} outside the domain box {cfg.box}")
    F_at = m.table("F").point_function
    vals = _chart_vals(m, u[0], u[1], u[2], chart)
    # the step ends as rows (row, t, *state, *vals, in q) and the row count
    ends, nrows = array("d", (0, 0.0, *u, *vals, chart == "q")), 1
    events: list[TraceEvent] = []
    # the steps with interpolated samples, whether each is in the q chart,
    # and where their samples go (_dense_output)
    steps, step_q, spans, points = [], [], [], []

    def columns():
        return _trace_columns(m, nrows, ends, steps, step_q, spans, points)

    if _near_singular(vals, F_at(u[0], u[1])):
        events.append(TraceEvent(0, SINGULAR_APPROACH, 0.0))
        return columns(), events

    controls = _controls(cfg)

    def step_in(c, sign):
        # chart c's generated step on the fdp of that chart's metric
        fdp = (m if c == "p" else m.dual()).fdp_function
        return partial(chart_step(c), fdp, sign, *controls)

    step, fu = step_in(chart, sign0), _chart_field(vals, u[2], chart, sign0)
    t, h_next, left = 0.0, INITIAL_STEP, cfg.max_steps
    while True:
        stop, h, h_next, left, unew, fnew, vals_new = step(u, fu, t, h_next, left)
        if stop is not None:
            events.append(TraceEvent(nrows - 1, stop, t))
            break

        if (vals[1] * vals_new[1] < 0.0 or vals[0] * vals_new[0] < 0.0
                or not (x0 <= unew[0] <= x1 and y0 <= unew[1] <= y1)):
            marks, end_theta, terminal = _step_events(
                m, chart, cfg.box, h, u, fu, unew, fnew, vals, vals_new
            )
        else:
            marks, end_theta, terminal = [], 1.0, None

        # dense output: cap the planar spacing of emitted samples
        chord = math.hypot(unew[0] - u[0], unew[1] - u[1]) * end_theta
        nsub = _subdivisions(chord, cfg.max_ds)
        if marks or terminal is not None or nsub > 1:
            steps.append((t, h, *u, *fu, *unew, *fnew))
            step_q.append(chart == "q")
        if marks or terminal is not None:
            emit = _merge_marks(marks, end_theta, nsub)
            if terminal is not None:
                emit.append((end_theta, terminal))
            for th, kind in emit:
                points.append((len(steps) - 1, nrows, th))
                if kind is not None:
                    events.append(TraceEvent(nrows, kind, t + th * h))
                nrows += 1
            if terminal is not None:
                break
        elif nsub > 1:
            spans.append((len(steps) - 1, nrows, nsub))
            nrows += nsub - 1

        t += h
        u, fu, vals = unew, fnew, vals_new
        ends.extend((nrows, t, *u, *vals, chart == "q"))
        nrows += 1

        if _near_singular(vals, F_at(u[0], u[1])):
            events.append(TraceEvent(nrows - 1, SINGULAR_APPROACH, t))
            break

        if abs(u[2]) > CHART_THRESHOLD:
            chart = "q" if chart == "p" else "p"
            u = (u[0], u[1], 1.0 / u[2])
            vals = _chart_vals(m, u[0], u[1], u[2], chart)
            f = _chart_field(vals, u[2], chart, 1.0)
            sign = 1.0
            # keep the planar velocity's direction; where it vanishes,
            # the slope derivative's, through dq = -dp / p^2 (the chart
            # map reverses the slope direction)
            dot = f[0] * fnew[0] + f[1] * fnew[1]
            if not (dot > 0.0 or (dot == 0.0 and -f[2] * fnew[2] >= 0.0)):
                sign = -1.0
                f = (-f[0], -f[1], -f[2])
            ends.extend((nrows, t, *u, *vals, chart == "q"))
            events.append(TraceEvent(nrows, CHART_SWITCH, t))
            nrows += 1
            step, fu = step_in(chart, sign), f

    return columns(), events


def integrate(
    m: PseudoFinslerMetric,
    seed: PTMPoint,
    cfg: IntegratorConfig | None = None,
    direction: int = 0,
) -> GeodesicTrace:
    """Integrate the direction field through one projectivized point.

    direction 0 integrates both time directions and merges them (the
    parameter of the backward half is negative); +1/-1 keep one side.  A
    seed whose |slope| exceeds CHART_THRESHOLD starts in the other chart,
    at the reciprocal slope, in either chart.
    """
    cfg = cfg or IntegratorConfig()
    if abs(seed.slope) > CHART_THRESHOLD:
        seed = PTMPoint(seed.x, seed.y, 1.0 / seed.slope, "q" if seed.chart == "p" else "p")
    cols, events, stops = _join_sides(
        lambda sign: _run_direction(m, seed, cfg, sign), direction
    )
    return GeodesicTrace(
        **{k: np.asarray(v) for k, v in cols.items()}, events=events, stops=stops
    )


# ---------------------------------------------------------------------------
# isotropic traces


def _project_isotropic(m, x, y, s, q, tol_abs, max_iter=8):
    """Newton steps in the slope driving the chart's F to zero, at arrays of
    samples (q marks those in the q chart) with tolerances tol_abs.

    Returns the slopes and whether each reached |F| <= tol_abs.  A sample
    stops at the first slope that meets its tolerance.  It is refused,
    keeping the slope it has, where |F_p| < 1e-9 max(1, max |coefficient|)
    (a nan maximum counts as 1, as Python's max(1.0, nan) gives).  After
    max_iter steps it is ok where its last slope meets the tolerance.
    """
    s, ok = np.array(s, dtype=np.float64), np.zeros(len(s), dtype=bool)
    tol_abs = np.broadcast_to(tol_abs, s.shape)
    for sel, a, b in ((~q, x, y), (q, y, x)):
        if sel.any():
            row = (m.dual() if sel is q else m).table("F").values_on_grid(a[sel], b[sel])
            s[sel], ok[sel] = _newton_F(row, s[sel], tol_abs[sel], max_iter)
    return s, ok


def _newton_F(row, s, tol_abs, max_iter):
    """The masked Newton iteration of _project_isotropic in one chart, on
    the rows of F's coefficients at the samples."""
    drow = npoly.polyder(row)
    floor = 1e-9 * np.fmax(1.0, np.max(np.abs(row), axis=0))
    ok, live = np.zeros(len(s), dtype=bool), np.ones(len(s), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            f = npoly.polyval(s, row, tensor=False)
            met = live & (np.abs(f) <= tol_abs)
            ok |= met
            d = npoly.polyval(s, drow, tensor=False)
            live &= ~met & ~(np.abs(d) < floor)
            if not live.any():
                return s, ok
            s = np.where(live, s - f / d, s)
        ok |= live & (np.abs(npoly.polyval(s, row, tensor=False)) <= tol_abs)
    return s, ok


def isotropic_trace(
    m: PseudoFinslerMetric,
    seed: PTMPoint,
    cfg: IntegratorConfig | None = None,
    tol: float = 1e-9,
) -> GeodesicTrace:
    """Geodesic trace constrained to the isotropic surface F = 0.

    The seed slope is first projected onto the surface; the direction
    field is tangent to F = 0, so drift is only round-off and is removed
    by a Newton projection wherever it exceeds ``tol`` (scaled locally),
    at all drifting samples at once.
    """
    cfg = cfg or IntegratorConfig()
    sc = mt.metric_scale(m, seed.x, seed.y) + 1.0
    s, ok = _project_isotropic(
        m, np.array([seed.x]), np.array([seed.y]), [seed.slope],
        np.array([seed.chart == "q"]), tol * sc,
    )
    if not ok[0]:
        raise ValueError(
            "seed cannot be projected onto the isotropic surface "
            f"(F' vanishes near slope {seed.slope})"
        )
    seed = replace(seed, slope=float(s[0]))
    trace = integrate(m, seed, cfg)
    # F hovers at zero along the whole trace, so sign-change events on F
    # are round-off artifacts here; drop them
    trace.events = [e for e in trace.events if e.kind != ISOTROPIC_CROSS]
    # projection pass: fix the residual drift of all samples at once
    tol_abs = tol * (mt.metric_scale_many(m, trace.x, trace.y) + 1.0)
    drift = np.flatnonzero(np.abs(trace.F) > tol_abs)
    if drift.size:
        x, y, q = trace.x[drift], trace.y[drift], trace.chart[drift] == "q"
        s, ok = _project_isotropic(m, x, y, trace.slope[drift], q, tol_abs[drift])
        fixed = drift[ok]
        trace.slope[fixed] = s[ok]
        fdn = _chart_vals_many(m, x[ok], y[ok], s[ok], q[ok])
        trace.F[fixed], trace.denom[fixed], trace.numer[fixed] = fdn
    return trace


# ---------------------------------------------------------------------------
# tangent-bundle oracle integration


@dataclass
class TMTrace:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    xdot: np.ndarray
    ydot: np.ndarray
    stops: tuple[str, ...] = ()

    @property
    def truncated(self) -> bool:
        """Whether a side stopped short: at H near 0 or on a step underflow."""
        return any(s in (SINGULAR_APPROACH, STEP_UNDERFLOW) for s in self.stops)

    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])


def tm_integrate(
    m: PseudoFinslerMetric,
    x: float, y: float, xdot: float, ydot: float,
    cfg: IntegratorConfig | None = None,
    direction: int = 0,
) -> TMTrace:
    """Integrate the second-order system on the tangent bundle.

    Accelerations come from the Cramer determinants (accel_determinants),
    which never touch the slope polynomials of the projectivized field,
    so this trace is its oracle.  The oracle is independent in its field
    only: it runs on the same Dormand-Prince stepper and dense output.
    Each side stops with SINGULAR_APPROACH when the system degenerates
    (H near 0), DOMAIN_EXIT past the box, or the stepper's own reason;
    ``stops`` lists them, backward side first.
    """
    cfg = cfg or IntegratorConfig()
    x0, x1, y0b, y1b = cfg.box
    n = m.degree
    F_at = m.table("F").point_function

    # the last state and its determinants: the H ~ 0 test of a step's end
    # point reuses those of the stage that ended there
    last = [None, None]

    def dets(u):
        if u is not last[0]:
            last[:] = u, mt.accel_determinants(m, u[0], u[1], u[2], u[3])
        return last[1]

    def rhs(u):
        h, h1, h2 = dets(u)
        return (u[2], u[3], _div(h1, h), _div(h2, h))

    def h_small(u):
        speed = max(abs(u[2]), abs(u[3]), 1e-12)
        ref = _scale_sq(F_at(u[0], u[1])) * _ipow(speed, 2 * n - 4)
        return abs(dets(u)[0]) < 1e-10 * ref

    step = partial(dopri_step(4), rhs, *_controls(cfg))

    def run(sign):
        u = (float(x), float(y), sign * float(xdot), sign * float(ydot))
        if h_small(u):
            raise ValueError("seed is on or too close to the degeneracy H = 0")
        # the samples, the steps with interpolated ones and where those go
        ts, rows, steps, spans = [0.0], [u], [], []

        def stop(kind, t):
            cols = {"t": np.array(ts), "u": np.array(rows, dtype=np.float64)}
            if steps:
                at, _, tt, states = _dense_output(steps, spans, ())
                cols["t"][at] = tt
                cols["u"][at] = np.transpose(states)
            return cols, [TraceEvent(len(ts) - 1, kind, t)]

        fu, t, h_next, left = rhs(u), 0.0, INITIAL_STEP, cfg.max_steps
        while True:
            kind, h, h_next, left, u1, f1 = step(u, fu, t, h_next, left)
            if kind is not None:
                return stop(kind, t)
            if h_small(u1):
                return stop(SINGULAR_APPROACH, t)
            nsub = _subdivisions(math.hypot(u1[0] - u[0], u1[1] - u[1]), cfg.max_ds)
            if nsub > 1:
                spans.append((len(steps), len(ts), nsub))
                steps.append((t, h, *u, *fu, *u1, *f1))
                ts.extend([0.0] * (nsub - 1))
                rows.extend([u1] * (nsub - 1))
            t += h
            ts.append(t)
            rows.append(u1)
            if not (x0 <= u1[0] <= x1 and y0b <= u1[1] <= y1b):
                return stop(DOMAIN_EXIT, t)
            u, fu = u1, f1

    cols, _, stops = _join_sides(run, direction)
    xs, ys, xdots, ydots = cols["u"].T
    return TMTrace(cols["t"], xs, ys, xdots, ydots, stops)


# ---------------------------------------------------------------------------
# the boundary family at a generic double direction


@dataclass
class FamilyMember:
    alpha: float
    eta_sign: int
    trace: GeodesicTrace


def check_transversality(m: PseudoFinslerMetric, x: float, y: float, p0: float) -> float:
    """F_x + p0 F_y at a double root p0 of F; grad disc_F . (1, p0) is a
    nonzero multiple of it.  Raises TransversalityError, the direction
    being tangent to the boundary, when it is at most
    1e-6 |(F_x, F_y)| |(1, p0)|."""
    _, fx, fy, _ = m.slope_rows_function(("F",))(float(x), float(y), float(p0))
    dot = fx + p0 * fy
    norm = math.hypot(fx, fy) * math.hypot(1.0, p0)
    if abs(dot) <= 1e-6 * max(norm, 1e-30):
        raise TransversalityError(
            f"double direction p={p0} tangent to the discriminant curve at ({x}, {y})"
        )
    return dot


def _strong_eigvec(m, x, y, p0):
    J = sg.jacobian_at(m, x, y, p0)
    w, v = np.linalg.eig(J)
    order = np.argsort(-np.abs(w))
    vec = np.real(v[:, order[0]])
    nrm = float(np.linalg.norm(vec))
    return vec / nrm


def shoot_boundary_family(
    m: PseudoFinslerMetric,
    x: float,
    y: float,
    p0: float,
    alphas,
    cfg: IntegratorConfig | None = None,
    eps: float = 1e-3,
) -> list[FamilyMember]:
    """Shoot the one-parameter family of geodesics ending at a generic
    boundary point with double direction p0.

    Each member has, in the parameter eta = p - p0, the jet

        x - x0 = alpha |eta|^(3/2) + B eta^2 + o(eta^2)
        y - y0 = p0 (x - x0) + (3/5) alpha eta |eta|^(3/2) + (2/3) B eta^3 + ...

    where B is the curvature scale of the isotropic member (alpha = 0);
    B is fitted by Newton-projecting one point onto F = 0.  alpha = inf
    requests the transversal smooth geodesic through the point instead
    (seeded along the strongest eigen-direction of the linearization).
    """
    cfg = cfg or IntegratorConfig()
    fdir = check_transversality(m, x, y, p0)
    rows_F = m.slope_rows_function(("F",))

    fpp = npoly.polyval(p0, npoly.polyder(m.table("F").values_at(x, y), 2))
    b_lead = -fpp / (2.0 * fdir)

    def fit_B(eta):
        """Newton in xi on F(x0 + xi, y0 + p0 xi, p0 + eta) = 0."""
        xi = b_lead * eta * eta
        for _ in range(12):
            fv, fx, fy, _ = rows_F(float(x + xi), float(y + p0 * xi), float(p0 + eta))
            dv = fx + p0 * fy
            if abs(dv) < 1e-14:
                break
            step = fv / dv
            xi -= step
            if abs(step) < 1e-18 + 1e-12 * abs(xi):
                break
        return xi / (eta * eta)

    members: list[FamilyMember] = []
    for alpha in alphas:
        if math.isinf(alpha):
            vec = _strong_eigvec(m, x, y, p0)
            for sgn in (+1, -1):
                seed = PTMPoint(
                    x + sgn * eps * vec[0],
                    y + sgn * eps * vec[1],
                    p0 + sgn * eps * vec[2],
                )
                tr = _integrate_outward(m, seed, (x, y, p0), cfg)
                members.append(FamilyMember(alpha, sgn, tr))
            continue
        for sgn in (+1, -1):
            eta = sgn * eps
            B = fit_B(eta)
            ae = abs(eta) ** 1.5
            dx = alpha * ae + B * eta * eta
            dy = p0 * dx + 0.6 * alpha * eta * ae + (2.0 / 3.0) * B * eta**3
            seed = PTMPoint(x + dx, y + dy, p0 + eta)
            tr = _integrate_outward(m, seed, (x, y, p0), cfg)
            members.append(FamilyMember(alpha, sgn, tr))
    return members


def _integrate_outward(m, seed: PTMPoint, origin, cfg) -> GeodesicTrace:
    """One-sided trace moving away from the marked point."""
    ox, oy, op = origin
    v = field_at(m, seed)
    radial = (
        (seed.x - ox) * v[0] + (seed.y - oy) * v[1] + (seed.slope - op) * v[2]
    )
    direction = 1 if radial > 0 else -1
    return integrate(m, seed, cfg, direction=direction)
