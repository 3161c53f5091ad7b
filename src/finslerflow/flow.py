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
loop of _dopri_steps integrates this projectivized field (integrate) and
the second-order system on the tangent bundle (tm_integrate), and the two
join their time directions the same way.  Its step is straight-line code
generated for the dimension of the state (codegen.dopri_step): 3 here, 4
on the tangent bundle.  Each tracer keeps only what it does with an
accepted step.  Here events (sign changes of the denominator
or of F, singular proximity, domain exit) are localized by bisection on a
cubic Hermite interpolant of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metric as mt
from .codegen import _div, dopri_step
from .metric import PseudoFinslerMetric
from .poly import RealPolynomial

CUSP = "Cusp"
SINGULAR_APPROACH = "SingularApproach"
CHART_SWITCH = "ChartSwitch"
ISOTROPIC_CROSS = "IsotropicCross"
DOMAIN_EXIT = "DomainExit"
STEP_UNDERFLOW = "StepUnderflow"
MAX_STEPS = "MaxSteps"

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


class IsotropicSegmentError(ValueError):
    """Arclength requested on a trace that is isotropic throughout."""


@dataclass(frozen=True)
class PTMPoint:
    x: float
    y: float
    slope: float
    chart: str = "p"

    def __post_init__(self):
        if self.chart not in ("p", "q"):
            raise ValueError(f"chart must be 'p' or 'q', got {self.chart!r}")

    def p_value(self) -> float:
        """Slope dy/dx, infinite for the vertical direction."""
        if self.chart == "p":
            return self.slope
        return math.inf if self.slope == 0.0 else 1.0 / self.slope


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.05
    max_steps: int = 20000
    box: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    max_ds: float = 0.002

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


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

    def event_kinds(self) -> set[str]:
        return {e.kind for e in self.events}


# ---------------------------------------------------------------------------
# the direction field


def _chart_vals(m: PseudoFinslerMetric, x, y, s, chart):
    """(F, denom, numer) in the given chart at physical (x, y)."""
    if chart == "p":
        return mt.fdp_values(m, x, y, s)
    return mt.fdp_values(m.dual(), y, x, s)


def _chart_field(x, y, s, chart, vals):
    f, d, p = vals
    if chart == "p":
        return (d, s * d, p)
    return (s * d, d, p)


def field_at(m: PseudoFinslerMetric, pt: PTMPoint) -> tuple[float, float, float]:
    """Direction-field components (dx, dy, dslope) in the point's chart."""
    vals = _chart_vals(m, pt.x, pt.y, pt.slope, pt.chart)
    return _chart_field(pt.x, pt.y, pt.slope, pt.chart, vals)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) on float tuples


def _hermite(u0, f0, u1, f1, h, theta):
    out = []
    for i in range(len(u0)):
        a, b = u0[i], u1[i]
        da, db = f0[i], f1[i]
        t = theta
        out.append(
            (1 - t) * a
            + t * b
            + t * (t - 1) * ((1 - 2 * t) * (b - a) + (t - 1) * h * da + t * h * db)
        )
    return tuple(out)


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


def _subdivision_thetas(chord: float, end_theta: float, max_ds: float) -> list[float]:
    """Uniform interior thetas keeping planar sample spacing under max_ds."""
    if not (chord > max_ds) or max_ds <= 0.0:
        return []
    nsub = min(int(chord / max_ds) + 1, 400)
    return [end_theta * k / nsub for k in range(1, nsub)]


def _dopri_steps(rhs, u, cfg: IntegratorConfig):
    """Adaptive Dormand-Prince steps of du/dt = rhs(u) from u at t = 0.

    Yields each accepted step as (t, h, u0, f0, u1, f1): it starts at
    time t, has length h and goes from u0 to u1, with f = rhs(u) at both
    ends.  A caller that switches the field sends the (u, f) to go on
    from instead of (u1, f1).  A step that leaves the floats is retried
    at a quarter of its length and a rejected one at the controller's
    length; every attempt counts against cfg.max_steps.  Returns the
    stop reason (STEP_UNDERFLOW or MAX_STEPS) and the time reached.
    """
    step = dopri_step(len(u))
    rel_tol, abs_tol, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
    fu = rhs(u)
    t = 0.0
    h = INITIAL_STEP
    for _ in range(cfg.max_steps):
        h = min(h, max_step)
        unew, fnew, err = step(rhs, u, fu, h, rel_tol, abs_tol)
        if not math.isfinite(err) or not all(map(math.isfinite, unew)):
            h *= 0.25
            if h < 1e-14:
                return STEP_UNDERFLOW, t
            continue
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                return STEP_UNDERFLOW, t
            continue
        restart = yield t, h, u, fu, unew, fnew
        t += h
        u, fu = restart or (unew, fnew)
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return MAX_STEPS, t


def _join_sides(run, direction: int):
    """One or both time directions of a trace through a seed.

    run(sign) integrates the direction of sign and returns its sample
    lists keyed by name, the time under "t" and the seed first, and its
    events, its stop last.  The backward side has its time negated; with
    direction 0 it is reversed and joined to the forward side at their
    common seed row.  Returns the columns, the events and each side's
    stop reason, backward first.
    """
    if direction > 0:
        cols, events = run(1.0)
        return cols, events, (events[-1].kind,)
    back, bev = run(-1.0)
    back["t"] = [-v for v in back["t"]]
    bev = [TraceEvent(e.index, e.kind, -e.t) for e in bev]
    if direction < 0:
        return back, bev, (bev[-1].kind,)
    fwd, fev = run(1.0)
    seed = len(back["t"]) - 1
    cols = {k: back[k][::-1] + fwd[k][1:] for k in fwd}
    # an event of the forward side at the seed is the backward side's
    events = [TraceEvent(seed - e.index, e.kind, e.t) for e in reversed(bev)]
    events += [TraceEvent(seed + e.index, e.kind, e.t) for e in fev if e.index > 0]
    events.sort(key=lambda e: e.index)
    return cols, events, (bev[-1].kind, fev[-1].kind)


# ---------------------------------------------------------------------------
# the geodesic integrator


def _sign_for_continuation(old_vec_xy, old_dslope, x, y, s_new, chart_new, m):
    vals = _chart_vals(m, x, y, s_new, chart_new)
    v = _chart_field(x, y, s_new, chart_new, vals)
    dot = v[0] * old_vec_xy[0] + v[1] * old_vec_xy[1]
    if dot != 0.0:
        return (1.0 if dot > 0 else -1.0), vals
    # planar velocity vanished: match the slope derivative through
    # dq = -dp / p^2 (the chart map reverses the slope direction)
    dot2 = -v[2] * old_dslope
    return (1.0 if dot2 >= 0 else -1.0), vals


def _run_direction(m, seed: PTMPoint, cfg: IntegratorConfig, sign0: float):
    """Integrate one time direction; returns sample lists and events."""
    x0, x1, y0, y1 = cfg.box

    state_chart = seed.chart
    state_sign = sign0
    u = (seed.x, seed.y, seed.slope)

    # the state of rhs's last call and its (F, denom, numer)
    last_v = last_vals = None

    def rhs(v):
        # _chart_vals and _chart_field with the sign, in one call
        nonlocal last_v, last_vals
        x, y, s = v
        if state_chart == "p":
            last_v, last_vals = v, mt.fdp_values(m, x, y, s)
            _, d, n = last_vals
            return (state_sign * d, state_sign * (s * d), state_sign * n)
        last_v, last_vals = v, mt.fdp_values(m.dual(), y, x, s)
        _, d, n = last_vals
        return (state_sign * (s * d), state_sign * d, state_sign * n)

    def inside(v):
        return x0 <= v[0] <= x1 and y0 <= v[1] <= y1

    def scale_at(v):
        return mt._ipow(1.0 + mt.metric_scale(m, v[0], v[1]), 2)

    cols = {k: [] for k in ("t", "x", "y", "slope", "chart", "F", "denom", "numer")}
    events: list[TraceEvent] = []

    def push(t, v, vals):
        cols["t"].append(t)
        cols["x"].append(v[0])
        cols["y"].append(v[1])
        cols["slope"].append(v[2])
        cols["chart"].append(state_chart)
        cols["F"].append(vals[0])
        cols["denom"].append(vals[1])
        cols["numer"].append(vals[2])
        return len(cols["t"]) - 1

    vals = _chart_vals(m, u[0], u[1], u[2], state_chart)
    if not inside(u):
        raise ValueError(f"seed {u[:2]} outside the domain box {cfg.box}")
    push(0.0, u, vals)

    sc = scale_at(u)
    if max(abs(vals[1]), abs(vals[2])) < SINGULAR_TOL * sc:
        events.append(TraceEvent(0, SINGULAR_APPROACH, 0.0))
        return cols, events

    steps = _dopri_steps(rhs, u, cfg)
    restart = None
    while True:
        try:
            t, h, u0, f0, unew, fnew = steps.send(restart)
        except StopIteration as stop:
            kind, t = stop.value
            events.append(TraceEvent(len(cols["t"]) - 1, kind, t))
            return cols, events
        restart = None
        # the step's last stage is rhs(unew), with unew that very tuple
        assert unew is last_v
        vals_new = last_vals

        def interp(theta):
            return _hermite(u0, f0, unew, fnew, h, theta)

        def chart_vals_at(theta):
            v = interp(theta)
            return v, _chart_vals(m, v[0], v[1], v[2], state_chart)

        # candidate interior events: denominator and F sign changes
        candidates = []
        d_prev, d_new = vals[1], vals_new[1]
        if d_prev * d_new < 0.0:
            th = _bisect_theta(
                lambda s: chart_vals_at(s)[1][1], 0.0, 1.0, d_prev, h
            )
            candidates.append((th, "denom"))
        f_prev, f_new = vals[0], vals_new[0]
        if f_prev * f_new < 0.0:
            th = _bisect_theta(
                lambda s: chart_vals_at(s)[1][0], 0.0, 1.0, f_prev, h
            )
            candidates.append((th, "F"))

        exit_theta = None
        if not inside(unew):
            lo, hi = 0.0, 1.0
            for _ in range(80):
                if hi - lo <= _T_LOCATE / max(h, 1e-300):
                    break
                mid = 0.5 * (lo + hi)
                if inside(interp(mid)):
                    lo = mid
                else:
                    hi = mid
            exit_theta = lo

        # classify interior candidates; a singular approach truncates the step
        marks = []
        terminal = None
        end_theta = 1.0
        if exit_theta is not None:
            end_theta, terminal = exit_theta, DOMAIN_EXIT
        candidates.sort()
        for th, what in candidates:
            if th > end_theta:
                continue
            v_ev, vals_ev = chart_vals_at(th)
            if what == "denom":
                sc = scale_at(v_ev)
                if max(abs(vals_ev[1]), abs(vals_ev[2])) < SINGULAR_TOL * sc:
                    end_theta, terminal = th, SINGULAR_APPROACH
                    marks = [mk for mk in marks if mk[0] < th]
                    break
                if abs(vals_ev[2]) > EVENT_TOL * sc:
                    marks.append((th, CUSP))
            else:
                marks.append((th, ISOTROPIC_CROSS))

        # dense output: cap the planar spacing of emitted samples
        chord = math.hypot(unew[0] - u0[0], unew[1] - u0[1]) * end_theta
        fill = _subdivision_thetas(chord, end_theta, cfg.max_ds)
        emit = sorted(
            marks + [(th, None) for th in fill], key=lambda mk: mk[0]
        )
        last_th = -1.0
        for th, kind in emit:
            if kind is None and (th - last_th < 1e-9 or end_theta - th < 1e-9):
                continue
            v_ev, vals_ev = chart_vals_at(th)
            t_ev = t + th * h
            idx = push(t_ev, v_ev, vals_ev)
            if kind is not None:
                events.append(TraceEvent(idx, kind, t_ev))
            last_th = th

        if terminal is not None:
            v_end = interp(end_theta)
            vals_end = _chart_vals(m, v_end[0], v_end[1], v_end[2], state_chart)
            t_end = t + end_theta * h
            idx = push(t_end, v_end, vals_end)
            events.append(TraceEvent(idx, terminal, t_end))
            return cols, events

        t += h
        u, vals = unew, vals_new
        idx = push(t, u, vals)

        sc = scale_at(u)
        if max(abs(vals[1]), abs(vals[2])) < SINGULAR_TOL * sc:
            events.append(TraceEvent(idx, SINGULAR_APPROACH, t))
            return cols, events

        if abs(u[2]) > CHART_THRESHOLD:
            old_field = fnew
            new_chart = "q" if state_chart == "p" else "p"
            s_new = 1.0 / u[2]
            new_sign, vals = _sign_for_continuation(
                (old_field[0], old_field[1]), old_field[2],
                u[0], u[1], s_new, new_chart, m,
            )
            state_chart = new_chart
            state_sign = new_sign
            u = (u[0], u[1], s_new)
            idx = push(t, u, vals)
            events.append(TraceEvent(idx, CHART_SWITCH, t))
            restart = (u, rhs(u))


def integrate(
    m: PseudoFinslerMetric,
    seed: PTMPoint,
    cfg: IntegratorConfig | None = None,
    direction: int = 0,
) -> GeodesicTrace:
    """Integrate the direction field through one projectivized point.

    direction 0 integrates both time directions and merges them (the
    parameter of the backward half is negative); +1/-1 keep one side.
    """
    cfg = cfg or IntegratorConfig()
    if seed.chart == "p" and abs(seed.slope) > CHART_THRESHOLD:
        seed = PTMPoint(seed.x, seed.y, 1.0 / seed.slope, "q")
    cols, events, stops = _join_sides(
        lambda sign: _run_direction(m, seed, cfg, sign), direction
    )
    return GeodesicTrace(
        **{k: np.asarray(v) for k, v in cols.items()}, events=events, stops=stops
    )


# ---------------------------------------------------------------------------
# isotropic traces


def _project_isotropic(m, x, y, s, chart, tol_abs, max_iter=8):
    """Newton steps in the slope driving the chart's F to zero."""
    mm = m if chart == "p" else m.dual()
    xx, yy = (x, y) if chart == "p" else (y, x)
    for _ in range(max_iter):
        fpoly = RealPolynomial(mm.table("F").values_at(xx, yy))
        f = fpoly(s)
        if abs(f) <= tol_abs:
            return s, True
        d = fpoly.deriv()(s)
        if abs(d) < 1e-9 * max(1.0, fpoly.scale()):
            return s, False
        s = s - f / d
    fpoly = RealPolynomial(mm.table("F").values_at(xx, yy))
    return s, abs(fpoly(s)) <= tol_abs


def isotropic_trace(
    m: PseudoFinslerMetric,
    seed: PTMPoint,
    cfg: IntegratorConfig | None = None,
    tol: float = 1e-9,
) -> GeodesicTrace:
    """Geodesic trace constrained to the isotropic surface F = 0.

    The seed slope is first projected onto the surface; the direction
    field is tangent to F = 0, so drift is only round-off and is removed
    by a Newton projection whenever it exceeds ``tol`` (scaled locally).
    """
    cfg = cfg or IntegratorConfig()
    sc = mt.metric_scale(m, seed.x, seed.y) + 1.0
    s, ok = _project_isotropic(m, seed.x, seed.y, seed.slope, seed.chart, tol * sc)
    if not ok:
        raise ValueError(
            "seed cannot be projected onto the isotropic surface "
            f"(F' vanishes near slope {seed.slope})"
        )
    seed = replace(seed, slope=s)
    trace = integrate(m, seed, cfg)
    # F hovers at zero along the whole trace, so sign-change events on F
    # are round-off artifacts here; drop them
    trace.events = [e for e in trace.events if e.kind != ISOTROPIC_CROSS]
    # projection pass: fix residual drift sample by sample
    for i in range(len(trace)):
        sc = mt.metric_scale(m, trace.x[i], trace.y[i]) + 1.0
        if abs(trace.F[i]) > tol * sc:
            s, ok = _project_isotropic(
                m, trace.x[i], trace.y[i], trace.slope[i], str(trace.chart[i]),
                tol * sc,
            )
            if ok:
                trace.slope[i] = s
                vals = _chart_vals(m, trace.x[i], trace.y[i], s, str(trace.chart[i]))
                trace.F[i], trace.denom[i], trace.numer[i] = vals
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
        ref = mt._ipow(1.0 + mt.metric_scale(m, u[0], u[1]), 2)
        ref *= mt._ipow(speed, 2 * n - 4)
        return abs(dets(u)[0]) < 1e-10 * ref

    def run(sign):
        u = (x, y, sign * xdot, sign * ydot)
        if h_small(u):
            raise ValueError("seed is on or too close to the degeneracy H = 0")
        ts, rows = [0.0], [u]

        def stop(kind, t):
            return {"t": ts, "u": rows}, [TraceEvent(len(ts) - 1, kind, t)]

        steps = _dopri_steps(rhs, u, cfg)
        while True:
            try:
                t, h, u0, f0, u1, f1 = next(steps)
            except StopIteration as end:
                return stop(*end.value)
            if h_small(u1):
                return stop(SINGULAR_APPROACH, t)
            chord = math.hypot(u1[0] - u0[0], u1[1] - u0[1])
            for th in _subdivision_thetas(chord, 1.0, cfg.max_ds):
                ts.append(t + th * h)
                rows.append(_hermite(u0, f0, u1, f1, h, th))
            ts.append(t + h)
            rows.append(u1)
            if not (x0 <= u1[0] <= x1 and y0b <= u1[1] <= y1b):
                return stop(DOMAIN_EXIT, t + h)

    cols, _, stops = _join_sides(run, direction)
    xs, ys, xdots, ydots = np.asarray(cols["u"], dtype=np.float64).T
    return TMTrace(np.asarray(cols["t"]), xs, ys, xdots, ydots, stops)


# ---------------------------------------------------------------------------
# arclength


def arclength_reparam(
    m: PseudoFinslerMetric, trace: GeodesicTrace, iso_tol: float = 1e-9
) -> list[np.ndarray]:
    """Cumulative metric length along a trace.

    Returns segments of rows (s, x, y); the trace is split wherever it
    touches the isotropic surface (there the length element degenerates).
    Raises IsotropicSegmentError when every sample is isotropic.
    """
    n = m.degree
    N = len(trace)
    iso = np.zeros(N, dtype=bool)
    g = np.zeros(N)
    for i in range(N):
        sc = mt.metric_scale(m, trace.x[i], trace.y[i]) + 1.0
        if abs(trace.F[i]) <= iso_tol * sc:
            iso[i] = True
        else:
            g[i] = abs(trace.F[i]) ** (1.0 / n)
    if bool(np.all(iso)):
        raise IsotropicSegmentError("trace lies on the isotropic surface")

    segments: list[np.ndarray] = []
    start = None
    for i in range(N):
        if not iso[i] and start is None:
            start = i
        boundary = iso[i] or i == N - 1
        if boundary and start is not None:
            end = i if iso[i] else i + 1
            if end - start >= 2:
                rows = np.zeros((end - start, 3))
                s = 0.0
                rows[0] = (0.0, trace.x[start], trace.y[start])
                for k in range(start + 1, end):
                    w = (
                        abs(trace.x[k] - trace.x[k - 1])
                        if trace.chart[k - 1] == "p"
                        else abs(trace.y[k] - trace.y[k - 1])
                    )
                    s += 0.5 * (g[k] + g[k - 1]) * w
                    rows[k - start] = (s, trace.x[k], trace.y[k])
                segments.append(rows)
            start = None
    return segments


# ---------------------------------------------------------------------------
# the boundary family at a generic double direction


@dataclass
class FamilyMember:
    alpha: float
    eta_sign: int
    trace: GeodesicTrace


def _disc_gradient(m, x, y, h=1e-6):
    return (
        (mt.disc_metric(m, x + h, y) - mt.disc_metric(m, x - h, y)) / (2 * h),
        (mt.disc_metric(m, x, y + h) - mt.disc_metric(m, x, y - h)) / (2 * h),
    )


def check_transversality(m: PseudoFinslerMetric, x: float, y: float, p0: float) -> float:
    """Derivative of the discriminant along the double direction (1, p0).

    Raises TransversalityError when it is negligible against the gradient.
    """
    gx, gy = _disc_gradient(m, x, y)
    dot = gx + p0 * gy
    norm = math.hypot(gx, gy) * math.hypot(1.0, p0)
    if abs(dot) <= 1e-6 * max(norm, 1e-30):
        raise TransversalityError(
            f"double direction p={p0} tangent to the discriminant curve at ({x}, {y})"
        )
    return dot


def _strong_eigvec(m, x, y, p0):
    from . import singular

    J = singular.jacobian_at(m, x, y, p0)
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
    check_transversality(m, x, y, p0)
    tblF = m.table("F")
    tblFx = m.table("F_x")
    tblFy = m.table("F_y")

    fpoly = RealPolynomial(tblF.values_at(x, y))
    fpp = fpoly.deriv().deriv()(p0)
    fx = tblFx.poly_value(x, y, p0)
    fy = tblFy.poly_value(x, y, p0)
    fdir = fx + p0 * fy
    if abs(fdir) < 1e-12:
        raise TransversalityError(
            "F does not vary along the double direction; jet scale undefined"
        )
    b_lead = -fpp / (2.0 * fdir)

    def fit_B(eta):
        """Newton in xi on F(x0 + xi, y0 + p0 xi, p0 + eta) = 0."""
        xi = b_lead * eta * eta
        for _ in range(12):
            fv = tblF.poly_value(x + xi, y + p0 * xi, p0 + eta)
            dv = (
                tblFx.poly_value(x + xi, y + p0 * xi, p0 + eta)
                + p0 * tblFy.poly_value(x + xi, y + p0 * xi, p0 + eta)
            )
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
