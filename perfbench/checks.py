"""Checks of each operation's output, against reference.py or against a
property the method must have.

A checker takes the operation's output, its output directory and its
spec, and returns a list of problems; an empty list means the output is
correct.  Nothing here compares against a stored copy of an earlier
output.  The config files are read with the small parser below, not
with the program's.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Event kinds that mark a point inside a trace rather than its end.
PASSING_EVENTS = {"Cusp", "ChartSwitch", "IsotropicCross"}
ARC_TOL = 1e-5
ISO_TOL = 1e-7
FAMILY_TOL = 1e-4
CURVE_TOL = 1e-6
TANGENCY_TOL = 1e-5
SPECTRUM_TOL = 1e-8
# SVG: 640 px canvas, 40 px margin, coordinates printed to 0.001 px
SVG_SIZE, SVG_MARGIN, SVG_HALF_ULP = 640.0, 40.0, 0.0005


def read_config(name: str, overrides=()) -> dict:
    """key -> list of values; repeatable keys keep every value."""
    out: dict[str, list[str]] = {}
    lines = (CONFIGS / name).read_text().splitlines()
    for line in lines + [ov.replace("=", " = ", 1) for ov in overrides]:
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, _, value = line.partition("=")
            out.setdefault(key.strip(), []).append(value.strip())
    return out


def config_box(cfg: dict) -> tuple[float, ...]:
    return tuple(float(v) for v in cfg["box"][0].split())


def config_seeds(cfg: dict) -> list[tuple[float, float, float]]:
    return [tuple(float(v) for v in s.split()) for s in cfg.get("seed", [])]


def _cli_failed(out: dict) -> list[str]:
    if out["rc"] != 0:
        return [f"exit code {out['rc']}: {out['stderr'].strip()[:200]}"]
    return []


# ---------------------------------------------------------------------------
# traces


class Trace:
    """Columns of a geodesic trace with events as {index: [kinds]}."""

    def __init__(self, t, x, y, slope, chart, events):
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.slope = np.asarray(slope, dtype=float)
        self.chart = np.asarray(chart)
        self.events = events

    @classmethod
    def from_csv(cls, path: Path, skip_columns: int = 0) -> "Trace":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cols = list(zip(*[r[skip_columns:] for r in rows]))
        events = {
            i: kinds.split("+") for i, kinds in enumerate(cols[8]) if kinds
        }
        return cls(cols[0], cols[1], cols[2], cols[3], cols[4], events)

    @classmethod
    def from_result(cls, tr) -> "Trace":
        events: dict[int, list[str]] = {}
        for ev in tr.events:
            events.setdefault(ev.index, []).append(ev.kind)
        return cls(tr.t, tr.x, tr.y, tr.slope, tr.chart, events)

    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])


def stop_events(tr: Trace, ends=(0, -1)) -> list[str]:
    """Each stopping end carries an event that says why it stopped."""
    problems = []
    for end in ends:
        idx = end % len(tr.t)
        kinds = set(tr.events.get(idx, [])) - PASSING_EVENTS
        if not kinds:
            problems.append(f"trace end at sample {idx} carries no stop event")
    return problems


def cusps_on_sign_change(tr: Trace, h_at) -> list[str]:
    """Each Cusp sits between samples where denom (here H) changes sign."""
    problems = []
    for idx, kinds in tr.events.items():
        if "Cusp" not in kinds:
            continue
        lo, hi = idx - 1, idx + 1
        if lo < 0 or hi >= len(tr.t) or not (tr.chart[lo] == tr.chart[idx] == tr.chart[hi]):
            continue
        h = h_at(tr.x[[lo, hi]], tr.y[[lo, hi]], tr.slope[[lo, hi]], tr.chart[[lo, hi]])
        if not h[0] * h[1] < 0.0:
            problems.append(f"Cusp at sample {idx} without a sign change of denom")
    return problems


def _seed_index(tr: Trace) -> int:
    return int(np.argmin(np.abs(tr.t)))


def config_arcs(tr: Trace, field) -> list[str]:
    """From the seed to the first event on either side, the trace matches
    scipy's orbit of the field in Hausdorff distance."""
    s = _seed_index(tr)
    after = [i for i in tr.events if i > s]
    before = [i for i in tr.events if i < s]
    problems = []
    for end in (min(after, default=len(tr.t) - 1), max(before, default=0)):
        if end == s:
            continue
        lo, hi = sorted((s, end))
        seg = tr.points()[lo : hi + 1]
        t_end = tr.t[end]
        sol = ref.solve(field, (tr.x[s], tr.y[s], tr.slope[s]), t_end)
        arc = sol.sol(np.linspace(0.0, t_end, 4000)).T
        d = ref.hausdorff(seg, arc)
        if not d <= ARC_TOL:
            problems.append(f"arc to sample {end} is {d:.2e} from the reference (tol {ARC_TOL:g})")
    return problems


def check_cli_integrate(out, outdir: Path, spec: dict) -> list[str]:
    problems = _cli_failed(out)
    if problems:
        return problems
    cfg = read_config(spec["config"], spec.get("overrides", ()))
    prefix = cfg["out_prefix"][0]
    files = sorted(outdir.glob(f"{prefix}_trace*.csv"))
    seeds = config_seeds(cfg)
    if len(files) != len(seeds):
        return [f"{len(files)} trace files for {len(seeds)} seeds"]
    if "c" in spec:
        cf = ref.ClosedFormField(spec["c"])
        field = cf.proj_field

        def h_at(x, y, s, chart):
            p = np.where(chart == "q", 1.0 / s, s)
            return cf.denom(x, y, p)
    else:
        el = ref.euler_lagrange(tuple(spec["coeffs"]))
        field, h_at = el.proj_field, el.h_at
    for k, path in enumerate(files):
        tr = Trace.from_csv(path)
        if np.hypot(tr.x[_seed_index(tr)] - seeds[k][0], tr.y[_seed_index(tr)] - seeds[k][1]) > 1e-9:
            problems.append(f"trace {k} does not start from seed {seeds[k]}")
        problems += [f"trace {k}: {p}" for p in stop_events(tr)]
        problems += [f"trace {k}: {p}" for p in cusps_on_sign_change(tr, h_at)]
        if "c" in spec:
            problems += [f"trace {k}: {p}" for p in config_arcs(tr, field)]
    return problems


def check_random_integrate(out, outdir, spec) -> list[str]:
    el = ref.euler_lagrange(tuple(spec["coeffs"]))
    tr = Trace.from_result(out)
    problems = stop_events(tr) + cusps_on_sign_change(tr, el.h_at)
    inner = {k for i, kinds in tr.events.items() for k in kinds if 0 < i < len(tr.t) - 1}
    if inner:
        problems.append(f"events inside the seed's box: {sorted(inner)}")
    seed, box = spec["seed"], spec["box"]
    arcs = [ref.reference_arc(el.proj_field, seed, box, d) for d in (-1.0, 1.0)]
    reference = np.vstack([arcs[0][::-1], arcs[1][1:]])
    d = ref.hausdorff(tr.points(), reference)
    if not d <= ARC_TOL:
        problems.append(f"trace is {d:.2e} from the Euler-Lagrange orbit (tol {ARC_TOL:g})")
    return problems


def check_random_tm(out, outdir, spec) -> list[str]:
    el = ref.euler_lagrange(tuple(spec["coeffs"]))
    problems = ["trace truncated"] if out.truncated else []
    x0, y0, p0 = spec["seed"]
    arcs = []
    for t_end in (out.t[0], out.t[-1]):
        sol = ref.solve(el.tm_field, (x0, y0, 1.0, p0), t_end)
        arcs.append(sol.sol(np.linspace(0.0, t_end, 4000)).T[:, :2])
    reference = np.vstack([arcs[0][::-1], arcs[1][1:]])
    d = ref.hausdorff(out.points(), reference)
    if not d <= ARC_TOL:
        problems.append(f"trace is {d:.2e} from the Euler-Lagrange solution (tol {ARC_TOL:g})")
    return problems


def check_isotropic(out, outdir, spec) -> list[str]:
    el = ref.euler_lagrange(tuple(spec["coeffs"]))
    tr = Trace.from_result(out)
    problems = stop_events(tr) + cusps_on_sign_change(tr, el.h_at)
    f = np.abs(el.fbar_at(tr.x, tr.y, tr.slope, tr.chart))
    bound = ISO_TOL * (1.0 + el.scale(tr.x, tr.y))
    if np.any(f > bound):
        i = int(np.argmax(f / bound))
        problems.append(f"|F| = {f[i]:.2e} at sample {i}, above {bound[i]:.2e}")
    return problems


def check_boundary_family(out, outdir, spec) -> list[str]:
    """F = p^2 - x at the origin: x = a|p|^(3/2) + p^2,
    y = (3/5) a p |p|^(3/2) + (2/3) p^3 for |p| <= 0.3."""
    problems = []
    if sorted(m.alpha for m in out) != sorted(2 * list(spec["alphas"])):
        problems.append("family members do not match the requested alphas")
    for k, mem in enumerate(out):
        tr = Trace.from_result(mem.trace)
        problems += [f"member {k}: {p}" for p in stop_events(tr, ends=(-1,))]
        a, p = mem.alpha, tr.slope
        near = (np.abs(p) <= 0.3) & (tr.chart == "p")
        if near.sum() < 10:
            problems.append(f"member {k}: only {near.sum()} samples with |p| <= 0.3")
            continue
        ap = np.abs(p[near]) ** 1.5
        ex = np.abs(tr.x[near] - (a * ap + p[near] ** 2)).max()
        ey = np.abs(tr.y[near] - (0.6 * a * p[near] * ap + (2.0 / 3.0) * p[near] ** 3)).max()
        if not max(ex, ey) <= FAMILY_TOL:
            problems.append(f"member {k}: {max(ex, ey):.2e} off the closed form")
    return problems


# ---------------------------------------------------------------------------
# the singular locus and the strata


def _read_xy(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def singular_curve_x(alpha: float, y):
    """x = alpha y^2 - 1/(48 alpha^2 y^2): where 12 c c_y^2 = c_x^2 for
    c = alpha y^2 - x, the singular points off the boundary."""
    y = np.asarray(y, dtype=float)
    return alpha * y**2 - 1.0 / (48.0 * alpha**2 * y**2)


def eigen_distance(a, b) -> float:
    """Largest gap between two spectra under their best matching."""
    return min(float(np.abs(np.asarray(a)[list(perm)] - b).max())
               for perm in itertools.permutations(range(len(a))))


def check_singular(out, outdir, spec) -> list[str]:
    problems = _cli_failed(out)
    if problems:
        return problems
    cfg = read_config(spec["config"])
    prefix, box, alpha = cfg["out_prefix"][0], config_box(cfg), spec["alpha"]
    cf = ref.ClosedFormField(spec["c"])
    comps = {"singular": [], "boundary": []}
    for path in sorted(outdir.glob(f"{prefix}_locus*_*.csv")):
        label = path.stem.rsplit("_", 1)[1]
        comps.setdefault(label, []).append(_read_xy(path))

    for pts in comps["boundary"]:
        err = np.abs(cf.c(pts[:, 0], pts[:, 1])).max()
        if not err <= CURVE_TOL:
            problems.append(f"boundary point {err:.2e} off c = 0")
    if not comps["boundary"]:
        problems.append("no boundary component")

    sing = comps["singular"]
    if alpha is None:
        if sing:
            problems.append(f"{len(sing)} singular components where there are none")
    else:
        for pts in sing:
            err = np.abs(pts[:, 0] - singular_curve_x(alpha, pts[:, 1])).max()
            if not err <= CURVE_TOL:
                problems.append(f"singular point {err:.2e} off the closed-form curve")
        if len(sing) != 1:
            problems.append(f"{len(sing)} singular components, expected 1")
        # The closed-form arc, two grid cells clear of the box edges, must be
        # covered by the singular points however they are split into
        # components: joined in the order of y (the arc is a graph over y),
        # within 1e-4 of every arc point and no two neighbours more than
        # three grid cells apart.
        res = int(cfg["resolution"][0])
        cell = max(box[1] - box[0], box[3] - box[2]) / (res - 1)
        ys = np.linspace(box[2] + 2 * cell, box[3] - 2 * cell, 2000)
        xs = singular_curve_x(alpha, ys)
        keep = (xs > box[0] + 2 * cell) & (xs < box[1] - 2 * cell)
        arc = np.column_stack([xs[keep], ys[keep]])
        if sing:
            pts = np.vstack(sing)
            pts = pts[np.argsort(pts[:, 1], kind="stable")]
            gap = ref.polyline_distance(arc, pts)
            if not gap.max() <= 1e-4:
                problems.append(f"singular points leave the arc uncovered by up to {gap.max():.2e}")
            hop = np.hypot(*np.diff(pts, axis=0).T).max(initial=0.0)
            if not hop <= 3 * cell:
                problems.append(f"singular points {hop / cell:.2f} grid cells apart on the arc")

    with open(outdir / f"{prefix}_singular_points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    tangency = []
    for r in rows:
        x, y, p = float(r["x"]), float(r["y"]), float(r["slope"])
        if alpha is not None and not abs(x - singular_curve_x(alpha, y)) <= CURVE_TOL:
            problems.append(f"classified point ({x}, {y}) off the closed-form curve")
        eig = np.array([complex(float(r[f"eig{k}_re"]), float(r[f"eig{k}_im"])) for k in (1, 2, 3)])
        jac = cf.jacobian(x, y, p)
        norm = float(np.linalg.norm(jac))
        if not np.abs(eig).min() <= 1e-6 * norm:
            problems.append(f"classified point ({x}, {y}) has no zero eigenvalue")
        want = np.linalg.eigvals(jac)
        tol = 1e-6 * max(norm, 1.0)
        if r["kind"] == "TangencyFailure":
            # a triple zero eigenvalue moves by the cube root of a
            # perturbation; here that of printing x, y, p to 12 digits
            tol += 4.0 * (1e-11 * (1.0 + abs(x) + abs(y) + abs(p)) * norm**2) ** (1 / 3)
        if not eigen_distance(eig, want) <= tol:
            problems.append(f"eigenvalues at ({x}, {y}) differ from the closed-form Jacobian's")
        if r["kind"] == "TangencyFailure":
            tangency.append((x, y))
    want_tangency = [(0.0, 48.0 ** -0.25)] if alpha == 1.0 else []
    if len(tangency) != len(want_tangency):
        problems.append(f"{len(tangency)} TangencyFailure rows, expected {len(want_tangency)}")
    for (x, y), (wx, wy) in zip(tangency, want_tangency):
        if not math.hypot(x - wx, y - wy) <= TANGENCY_TOL:
            problems.append(f"TangencyFailure at ({x}, {y}), expected ({wx}, {wy:.9f})")
    return problems


def _printed_tol(v: np.ndarray) -> np.ndarray:
    """Half a unit in the last place of a value printed with 12 digits."""
    mag = np.floor(np.log10(np.maximum(np.abs(v), 1e-300)))
    return 0.5 * 10.0 ** (mag - 11)


def check_classify(out, outdir, spec) -> list[str]:
    """Stratum = sign of disc F = -4c on the grid; disc to 1e-12 relative
    beyond the 12 printed digits."""
    problems = _cli_failed(out)
    if problems:
        return problems
    cfg = read_config(spec["config"])
    prefix, box, res = cfg["out_prefix"][0], config_box(cfg), int(cfg["resolution"][0])
    with open(outdir / f"{prefix}_strata.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != res * res:
        return [f"{len(rows)} cells, expected {res * res}"]
    gx, gy = np.meshgrid(np.linspace(box[0], box[1], res), np.linspace(box[2], box[3], res))
    gx, gy = gx.ravel(), gy.ravel()
    x = np.array([float(r[0]) for r in rows])
    y = np.array([float(r[1]) for r in rows])
    stratum = np.array([r[2] for r in rows])
    disc = np.array([float(r[3]) for r in rows])
    if np.any(np.abs(x - gx) > 2 * _printed_tol(gx) + 1e-300) or np.any(
        np.abs(y - gy) > 2 * _printed_tol(gy) + 1e-300
    ):
        problems.append("cell coordinates are not the grid")
    want = ref.ClosedFormField(spec["c"]).disc(gx, gy)
    expect = np.where(want > 0, "MPlus", "MMinus")
    decided = np.abs(want) > 1e-12
    wrong = decided & (stratum != expect)
    if wrong.any():
        i = int(np.argmax(wrong))
        problems.append(f"{wrong.sum()} cells with the wrong stratum, first ({x[i]}, {y[i]}): "
                        f"{stratum[i]} where disc = {want[i]:.3g}")
    err = np.abs(disc - want) - _printed_tol(want) - 1e-12 * np.abs(want)
    if np.any(err > 0):
        i = int(np.argmax(err))
        problems.append(f"{(err > 0).sum()} disc values off, first {disc[i]!r} vs {want[i]!r}")
    return problems


# ---------------------------------------------------------------------------
# portraits

_STROKES = {
    "#000000": "boundary",
    "#155a8a": "geodesic",
    "#444444": "singular-net",
    "#888888": "isotropic-net",
}


def parse_svg(text: str, box) -> tuple[list[tuple[str, np.ndarray]], float]:
    """Styled paths in data coordinates, and the data error of 0.0005 px."""
    root = ET.fromstring(text)
    sx = (SVG_SIZE - 2 * SVG_MARGIN) / (box[1] - box[0])
    sy = (SVG_SIZE - 2 * SVG_MARGIN) / (box[3] - box[2])
    paths = []
    for el in root.iter("{http://www.w3.org/2000/svg}path"):
        nums = [float(v) for v in re.findall(r"-?\d+(?:\.\d+)?", el.get("d", ""))]
        if len(nums) < 4 or len(nums) % 2:
            raise ValueError("malformed path data")
        px = np.array(nums).reshape(-1, 2)
        xy = np.column_stack([
            box[0] + (px[:, 0] - SVG_MARGIN) / sx,
            box[2] + (SVG_SIZE - SVG_MARGIN - px[:, 1]) / sy,
        ])
        paths.append((_STROKES.get(el.get("stroke"), "unknown"), xy))
    return paths, SVG_HALF_ULP / min(sx, sy)


def net_residuals(pts: np.ndarray, c_fn, k: float, err: float, step: float):
    """|dy^2 + k c dx^2| / ((dx^2 + dy^2)(1 + |c|)) at segment midpoints,
    and its tolerance: pixel rounding 4 err / L plus two net steps."""
    d = np.diff(pts, axis=0)
    length = np.hypot(d[:, 0], d[:, 1])
    ok = length > 0
    d, length = d[ok], length[ok]
    mid = 0.5 * (pts[1:] + pts[:-1])[ok]
    c = c_fn(mid[:, 0], mid[:, 1])
    r = np.abs(d[:, 1] ** 2 + k * c * d[:, 0] ** 2) / (length**2 * (1.0 + np.abs(c)))
    return r, 4.0 * err / length + 2.0 * step


def check_portrait(out, outdir, spec) -> list[str]:
    problems = _cli_failed(out)
    if problems:
        return problems
    cfg = read_config(spec["config"])
    prefix, box = cfg["out_prefix"][0], config_box(cfg)
    data = (outdir / f"{prefix}_portrait.svg").read_bytes()
    try:
        paths, err = parse_svg(data.decode("utf-8"), box)
    except (ValueError, ET.ParseError, UnicodeDecodeError) as exc:
        return problems + [f"SVG does not parse: {exc}"]
    cf = ref.ClosedFormField(spec["c"])
    styles = [s for s, _ in paths]
    if "unknown" in styles:
        problems.append("path with an unknown style")
    step = math.hypot(box[1] - box[0], box[3] - box[2]) / 500.0
    for style, pts in paths:
        if style == "boundary":
            h = 1e-7
            grad = np.hypot(
                (cf.c(pts[:, 0] + h, pts[:, 1]) - cf.c(pts[:, 0] - h, pts[:, 1])) / (2 * h),
                (cf.c(pts[:, 0], pts[:, 1] + h) - cf.c(pts[:, 0], pts[:, 1] - h)) / (2 * h),
            )
            off = np.abs(cf.c(pts[:, 0], pts[:, 1])) - 4.0 * err * (1.0 + grad)
            if np.any(off > 0):
                problems.append("boundary path leaves c = 0")
        elif style in ("isotropic-net", "singular-net"):
            k = 1.0 if style == "isotropic-net" else -3.0
            r, tol = net_residuals(pts, cf.c, k, err, step)
            if np.any(r > tol):
                i = int(np.argmax(r / tol))
                problems.append(f"{style} segment off its direction: {r[i]:.2e} > {tol[i]:.2e}")
    if "boundary" not in styles:
        problems.append("no boundary path")
    geo = [pts for s, pts in paths if s == "geodesic"]
    seeds = config_seeds(cfg)
    if len(geo) != len(seeds):
        problems.append(f"{len(geo)} geodesic paths for {len(seeds)} seeds")
    else:
        for k, (pts, seed) in enumerate(zip(geo, seeds)):
            d = ref.polyline_distance(np.array([seed[:2]]), pts)[0]
            if not d <= 4.0 * err:
                problems.append(f"geodesic path {k} misses its seed by {d:.2e}")
    return problems


# ---------------------------------------------------------------------------
# series and spectra


def _immersion_metric(components) -> list[str]:
    """Coefficient texts of F = prod (f_x + f_y p), expanded by sympy."""
    import sympy as sp

    p = ref.P
    prod = sp.Integer(1)
    for f in components:
        e = ref.sym(f)
        prod *= sp.diff(e, ref.X) + sp.diff(e, ref.Y) * p
    poly = sp.Poly(sp.expand(prod), p)
    coeffs = poly.all_coeffs()[::-1] + [0] * (len(components) + 1 - (poly.degree() + 1))
    return [str(c) for c in coeffs]


def series_problems(coeffs: dict, rows, s: int, order: int, el, product: bool,
                    free: Fraction | None) -> list[str]:
    """rows: (index, linear_coeff) pairs of the solver's report."""
    problems = []
    # The first power of t left in the residual lies beyond order + 2s - 1
    # (the slot of coefficient k is k + 2s - 1 at these points).
    first = ref.series_residual_order(el, s, 0.0, coeffs, order + 2 * s + 4)
    if first is not None and first <= order + 2 * s - 1:
        problems.append(f"geodesic residual starts at t^{first}")
    if product:
        for k, lin in rows:
            if k % 2 == 0 and lin != 12 * (k - 4):
                problems.append(f"linear coefficient {lin} at k = {k}, expected {12 * (k - 4)}")
        a4 = coeffs.get(4, Fraction(0))
        if free is not None and a4 != free:
            problems.append(f"a4 = {a4}, asked for {free}")
        if coeffs.get(6, Fraction(0)) != -a4**3 / 6:
            problems.append(f"a6 = {coeffs.get(6)} but -a4^3/6 = {-a4**3 / 6}")
        if free is None or free == 0:
            # y = x^2: only a3 = 2 survives, since y_(k+s) = a_k s / (k + s)
            extra = {k: v for k, v in coeffs.items() if v and k != 3}
            if extra or coeffs.get(3) * Fraction(s, 3 + s) != 1:
                problems.append(f"series is not y = x^2: {coeffs}")
    return problems


def check_series(out, outdir, spec) -> list[str]:
    if "immersion" in spec:
        texts = _immersion_metric(spec["immersion"])
    else:
        texts = spec["coeffs"]
    el = ref.euler_lagrange(tuple(texts))
    if out.obstructed:
        return [f"obstructed at order {out.obstruction_order}"]
    free = {int(k): Fraction(v) for k, v in spec["free"].items()}
    rows = [(r.index, r.linear_coeff) for r in out.rows]
    return series_problems(dict(out.coeffs), rows, spec["s"], spec["order"], el,
                           spec["product"], free.get(4) if spec["product"] else None)


def check_cli_puiseux(out, outdir, spec) -> list[str]:
    problems = _cli_failed(out)
    if problems:
        return problems
    cfg = read_config(spec["config"])
    prefix = cfg["out_prefix"][0]
    with open(outdir / f"{prefix}_series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    coeffs = {3: Fraction(2)}
    report = []
    for r in rows:
        coeffs[int(r["order"])] = Fraction(r["value"])
        report.append((int(r["order"]), Fraction(r["linear_coeff"])))
    alpha = Fraction(cfg["alpha"][0])
    order = int(cfg["series_order"][0])
    el = ref.euler_lagrange(tuple(spec["coeffs"]))
    problems += series_problems(coeffs, report, 3, order, el, True, alpha)
    families = sorted(outdir.glob(f"{prefix}_family*.csv"))
    if len(families) != 2 * len(cfg["alpha"]):
        problems.append(f"{len(families)} family files for {len(cfg['alpha'])} alphas")
    for path in families:
        tr = Trace.from_csv(path, skip_columns=2)
        problems += [f"{path.name}: {p}" for p in stop_events(tr, ends=(-1,))]
        near = np.abs(tr.x) <= 0.2
        if near.sum() <= 10:
            problems.append(f"{path.name}: only {near.sum()} samples with |x| <= 0.2")
        ys, xs = tr.y[near], tr.x[near]
        if np.any(ys < -1e-6) or np.any(ys > 2.0 * xs * xs + 1e-6):
            problems.append(f"{path.name}: leaves the tongue 0 <= y <= 2x^2")
    return problems


def check_spectrum(out, outdir, spec) -> list[str]:
    n, which = spec["n"], spec["which"]
    lam = (n - 2) / n if which == 1 else (n - 2) / (1 - n)
    err = float(np.max(np.abs(np.asarray(out, dtype=float) - (1.0, lam, 0.0))))
    if not err <= SPECTRUM_TOL:
        return [f"spectrum {out} is {err:.2e} from (1, {lam:.6g}, 0)"]
    return []


CHECKERS = {
    "cli_integrate": check_cli_integrate,
    "random_integrate": check_random_integrate,
    "random_tm": check_random_tm,
    "isotropic": check_isotropic,
    "boundary_family": check_boundary_family,
    "singular": check_singular,
    "classify": check_classify,
    "portrait": check_portrait,
    "series": check_series,
    "cli_puiseux": check_cli_puiseux,
    "spectrum": check_spectrum,
}
