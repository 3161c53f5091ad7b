"""Command line front end: scenario files in, tables and portraits out.

A scenario file is a flat list of ``key = value`` lines (``#`` starts a
comment) describing one metric, a viewing box, integration seeds, and
output settings.  Six commands consume it:

    classify    stratum raster over the box (CSV)
    integrate   geodesic traces through the seeds (one CSV per seed)
    singular    singular locus polylines plus a classified point table
    portrait    SVG phase portrait (strata, direction nets, geodesics)
    puiseux     power series solution report at a degenerate point
    verify      cross-check suite; the exit status reports pass or fail

Every command takes ``--config <path>``, an optional ``--out <dir>``
(defaults to the directory of the config file), and any number of
``--seed key=value`` overrides applied on top of the file, so a batch
run can sweep a parameter without editing the scenario.

The SVG output is plain text with fixed number formatting and no
timestamps, so rerunning a command on the same scenario produces a
byte-identical file.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import berwald_moor as bm
from . import expr as ex
from . import flow as fl
from . import metric as mt
from . import nets
from . import poly
from . import polyanalysis as pa
from . import puiseux as px
from . import singular as sg

VERIFY_TOL = 1e-7


class ConfigError(ValueError):
    """Scenario file rejected; the message carries the offending line."""


# ---------------------------------------------------------------------------
# scenario files


@dataclass
class ScenarioConfig:
    """One fully validated scenario.

    Exactly one of ``coeffs`` (slope coefficient fields a0..an, mode
    "coefficients") or ``immersion`` (component maps f1..fn, mode
    "berwald-moor") is populated.
    """

    mode: str = "coefficients"
    degree: int = 3
    coeffs: dict[int, str] = field(default_factory=dict)
    immersion: tuple[str, ...] = ()
    box: tuple[float, float, float, float] = (-1.5, 1.5, -1.5, 1.5)
    seeds: tuple[tuple[float, float, float], ...] = ()
    alphas: tuple[float, ...] = ()
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.05
    max_ds: float = 0.002
    max_steps: int = 20000
    resolution: int = 220
    out_prefix: str = "scenario"
    pair: tuple[int, int] = (3, 2)
    series_s: int = 0
    series_order: int = 12
    series_seed: dict[int, float] = field(default_factory=dict)
    series_free: dict[int, float] = field(default_factory=dict)
    y0: float = 0.0

    def coefficient_texts(self) -> list[str]:
        return [self.coeffs.get(i, "0") for i in range(self.degree + 1)]

    def immersion_obj(self) -> bm.SurfaceImmersion:
        """The immersion; a component the probe refuses is a ConfigError."""
        try:
            return bm.SurfaceImmersion(tuple(self.immersion))
        except ValueError as err:
            raise ConfigError(f"immersion: {err}") from err

    def metric_obj(self) -> mt.PseudoFinslerMetric:
        if self.mode == "berwald-moor":
            return bm.induced_metric(self.immersion_obj())
        return mt.metric_from_strings(self.degree, self.coefficient_texts())

    def integrator(self) -> fl.IntegratorConfig:
        return fl.IntegratorConfig(
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            max_step=self.max_step,
            max_steps=self.max_steps,
            max_ds=self.max_ds,
            box=self.box,
        )


_STR_KEYS = {"mode", "out_prefix"}
_INT_KEYS = {"n", "max_steps", "resolution", "series_order", "series_s"}
_FLOAT_KEYS = {"rel_tol", "abs_tol", "max_step", "max_ds", "y0"}
_REPEAT_KEYS = {"seed", "alpha", "series_seed", "series_free"}
_COEFF_RE = re.compile(r"^a([0-9])$")
_COMP_RE = re.compile(r"^f([0-9])$")
_PREFIX_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _known_key(key: str) -> bool:
    return (
        key in _STR_KEYS
        or key in _INT_KEYS
        or key in _FLOAT_KEYS
        or key in _REPEAT_KEYS
        or key in ("box", "pair")
        or _COEFF_RE.match(key) is not None
        or _COMP_RE.match(key) is not None
    )


def _numbers(tag: str, key: str, text: str, count: int | None = None) -> list[float]:
    toks = text.replace(",", " ").split()
    try:
        vals = [float(t) for t in toks]
    except ValueError:
        raise ConfigError(f"{tag}: {key} expects numbers, got {text!r}") from None
    if count is not None and len(vals) != count:
        raise ConfigError(
            f"{tag}: {key} expects {count} numbers, got {len(vals)} in {text!r}"
        )
    return vals


def _int_value(tag: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{tag}: {key} expects an integer, got {text!r}") from None


def _float_value(tag: str, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{tag}: {key} expects a number, got {text!r}") from None


def _parse_expr(tag: str, key: str, text: str) -> str:
    try:
        ex.parse(text)
    except ValueError as err:
        raise ConfigError(f"{tag}: cannot parse {key}: {err}") from None
    return text


def _index_value(tag: str, key: str, text: str) -> tuple[int, float]:
    toks = text.replace(",", " ").split()
    if len(toks) != 2:
        raise ConfigError(f"{tag}: {key} expects 'index value', got {text!r}")
    try:
        idx = int(toks[0])
        val = float(toks[1])
    except ValueError:
        raise ConfigError(f"{tag}: {key} expects 'index value', got {text!r}") from None
    return idx, val


def load_config(path: str, overrides: tuple[str, ...] = ()) -> ScenarioConfig:
    """Parse and validate a scenario file, then apply overrides.

    Raises ConfigError with the offending line (or override) named in
    the message.  Repeatable keys (seed, alpha, series_seed,
    series_free) accumulate; an override of a scalar key replaces the
    file value.
    """
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    entries: list[tuple[str, str, str]] = []
    for ln, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if not value:
            raise ConfigError(f"line {ln}: empty value for {key!r}")
        entries.append((f"line {ln}", key, value))
    for k, ov in enumerate(overrides, start=1):
        if "=" not in ov:
            raise ConfigError(f"override {k}: expected key=value, got {ov!r}")
        key, _, value = ov.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"override {k}: expected key=value, got {ov!r}")
        entries.append((f"override {k}", key, value))
    return _build_config(entries)


def _build_config(entries: list[tuple[str, str, str]]) -> ScenarioConfig:
    scalars: dict[str, object] = {}
    origin: dict[str, str] = {}
    coeffs: dict[int, str] = {}
    comps: dict[int, str] = {}
    seeds: list[tuple[float, float, float]] = []
    alphas: list[float] = []
    series_seed: dict[int, float] = {}
    series_free: dict[int, float] = {}

    def _set_scalar(tag: str, key: str, value: object) -> None:
        if key in origin and not tag.startswith("override"):
            raise ConfigError(
                f"{tag}: duplicate key {key!r} (first set at {origin[key]})"
            )
        origin.setdefault(key, tag)
        scalars[key] = value

    for tag, key, value in entries:
        if not _known_key(key):
            raise ConfigError(f"{tag}: unknown key {key!r}")
        cm = _COEFF_RE.match(key)
        fm = _COMP_RE.match(key)
        if cm:
            _set_scalar(tag, key, None)
            coeffs[int(cm.group(1))] = _parse_expr(tag, key, value)
        elif fm:
            _set_scalar(tag, key, None)
            comps[int(fm.group(1))] = _parse_expr(tag, key, value)
        elif key in _STR_KEYS:
            _set_scalar(tag, key, value)
        elif key in _INT_KEYS:
            _set_scalar(tag, key, _int_value(tag, key, value))
        elif key in _FLOAT_KEYS:
            _set_scalar(tag, key, _float_value(tag, key, value))
        elif key == "box":
            _set_scalar(tag, key, tuple(_numbers(tag, key, value, 4)))
        elif key == "pair":
            iv = _numbers(tag, key, value, 2)
            if any(v != int(v) for v in iv):
                raise ConfigError(f"{tag}: pair expects two integer indices")
            _set_scalar(tag, key, (int(iv[0]), int(iv[1])))
        elif key == "seed":
            vals = _numbers(tag, key, value, 3)
            seeds.append((vals[0], vals[1], vals[2]))
        elif key == "alpha":
            alphas.extend(_numbers(tag, key, value))
        elif key == "series_seed":
            idx, v = _index_value(tag, key, value)
            series_seed[idx] = v
        elif key == "series_free":
            idx, v = _index_value(tag, key, value)
            series_free[idx] = v

    mode = str(scalars.get("mode", "coefficients"))
    mtag = origin.get("mode", "config")
    if mode not in ("coefficients", "berwald-moor"):
        raise ConfigError(
            f"{mtag}: mode must be 'coefficients' or 'berwald-moor', got {mode!r}"
        )
    if coeffs and comps:
        first_f = min(comps)
        raise ConfigError(
            f"{origin[f'f{first_f}']}: immersion component f{first_f} not "
            "allowed alongside coefficient entries; use exactly one family"
        )
    if mode == "coefficients":
        if not coeffs:
            raise ConfigError(
                "config defines no coefficient entries (a0, a1, ...); "
                "mode 'coefficients' needs at least one"
            )
        degree = int(scalars.get("n", 3))
        if degree < 2:
            raise ConfigError(f"{origin.get('n', 'config')}: n must be at least 2")
        bad = [i for i in coeffs if i > degree]
        if bad:
            raise ConfigError(
                f"{origin[f'a{min(bad)}']}: coefficient a{min(bad)} "
                f"exceeds degree n = {degree}"
            )
        immersion: tuple[str, ...] = ()
    else:
        if not comps:
            raise ConfigError(
                "config defines no immersion components (f1, f2, ...); "
                "mode 'berwald-moor' needs them"
            )
        k = len(comps)
        if sorted(comps) != list(range(1, k + 1)):
            missing = next(i for i in range(1, k + 1) if i not in comps)
            raise ConfigError(
                f"{origin[f'f{max(comps)}']}: immersion components must be "
                f"contiguous f1..f{k}; f{missing} is missing"
            )
        if k < 3:
            raise ConfigError(
                f"{origin[f'f{min(comps)}']}: an immersion needs at least 3 components"
            )
        if "n" in scalars and int(scalars["n"]) != k:
            raise ConfigError(
                f"{origin['n']}: n = {scalars['n']} disagrees with the "
                f"{k} immersion components"
            )
        degree = k
        immersion = tuple(comps[i] for i in range(1, k + 1))

    box = tuple(scalars.get("box", (-1.5, 1.5, -1.5, 1.5)))
    if not (box[0] < box[1] and box[2] < box[3]):
        raise ConfigError(
            f"{origin.get('box', 'config')}: box needs xmin < xmax and ymin < ymax"
        )

    for key, low in (
        ("rel_tol", 0.0),
        ("abs_tol", 0.0),
        ("max_step", 0.0),
        ("max_ds", 0.0),
    ):
        if key in scalars and not float(scalars[key]) > low:
            raise ConfigError(f"{origin[key]}: {key} must be positive")
    if "max_steps" in scalars and int(scalars["max_steps"]) < 1:
        raise ConfigError(f"{origin['max_steps']}: max_steps must be positive")
    if "resolution" in scalars and int(scalars["resolution"]) < 8:
        raise ConfigError(f"{origin['resolution']}: resolution must be at least 8")
    if "series_order" in scalars and int(scalars["series_order"]) < 1:
        raise ConfigError(f"{origin['series_order']}: series_order must be positive")
    if "series_s" in scalars and int(scalars["series_s"]) < 1:
        raise ConfigError(f"{origin['series_s']}: series_s must be positive")
    prefix = str(scalars.get("out_prefix", "scenario"))
    if not _PREFIX_RE.match(prefix):
        raise ConfigError(
            f"{origin.get('out_prefix', 'config')}: out_prefix may use only "
            "letters, digits, dot, dash and underscore"
        )
    pair = scalars.get("pair", (3, 2))
    if pair[0] == pair[1] or min(pair) < 1 or (immersion and max(pair) > degree):
        raise ConfigError(
            f"{origin.get('pair', 'config')}: pair needs two distinct "
            f"component indices between 1 and {degree}"
        )
    for idx in list(series_seed) + list(series_free):
        if idx < 1:
            tag = origin.get("series_seed", origin.get("series_free", "config"))
            raise ConfigError(f"{tag}: series indices must be positive")

    return ScenarioConfig(
        mode=mode,
        degree=degree,
        coeffs=coeffs,
        immersion=immersion,
        box=(float(box[0]), float(box[1]), float(box[2]), float(box[3])),
        seeds=tuple(seeds),
        alphas=tuple(alphas),
        rel_tol=float(scalars.get("rel_tol", 1e-10)),
        abs_tol=float(scalars.get("abs_tol", 1e-12)),
        max_step=float(scalars.get("max_step", 0.05)),
        max_ds=float(scalars.get("max_ds", 0.002)),
        max_steps=int(scalars.get("max_steps", 20000)),
        resolution=int(scalars.get("resolution", 220)),
        out_prefix=prefix,
        pair=(int(pair[0]), int(pair[1])),
        series_s=int(scalars.get("series_s", 0)),
        series_order=int(scalars.get("series_order", 12)),
        series_seed=series_seed,
        series_free=series_free,
        y0=float(scalars.get("y0", 0.0)),
    )


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


_SVG_STYLE = {
    "boundary": 'fill="none" stroke="#000000" stroke-width="2.6"',
    "geodesic": 'fill="none" stroke="#155a8a" stroke-width="1.3"',
    "singular-net": (
        'fill="none" stroke="#444444" stroke-width="1.1" '
        'stroke-dasharray="1.6,3.4"'
    ),
    "isotropic-net": (
        'fill="none" stroke="#888888" stroke-width="1.1" '
        'stroke-dasharray="6,4"'
    ),
    "axis": 'fill="none" stroke="#cccccc" stroke-width="0.8"',
}


class _SvgCanvas:
    """Collects styled polylines over a data box and renders SVG 1.1.

    Coordinates are formatted with a fixed precision and styles are
    emitted in insertion order, so the rendered text is deterministic.
    """

    def __init__(self, box, width=640, height=640, margin=40):
        self.box = box
        self.width = width
        self.height = height
        self.margin = margin
        self._paths: list[tuple[str, str]] = []
        self._sx = (width - 2 * margin) / (box[1] - box[0])
        self._sy = (height - 2 * margin) / (box[3] - box[2])

    def _map(self, x: float, y: float) -> tuple[float, float]:
        px = self.margin + (x - self.box[0]) * self._sx
        py = self.height - self.margin - (y - self.box[2]) * self._sy
        return px, py

    def polyline(self, pts: np.ndarray, style: str) -> None:
        """Add one path for each run of at least two consecutive points
        that are finite and inside the box."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 2:
            return
        inside = (
            (pts[:, 0] >= self.box[0])
            & (pts[:, 0] <= self.box[1])
            & (pts[:, 1] >= self.box[2])
            & (pts[:, 1] <= self.box[3])
            & np.isfinite(pts[:, 0])
            & np.isfinite(pts[:, 1])
        )
        # run k is points bounds[2k] .. bounds[2k + 1] - 1
        bounds = np.flatnonzero(np.diff(inside, prepend=False, append=False))
        # the operations of _map, on every point at once
        px = self.margin + (pts[:, 0] - self.box[0]) * self._sx
        py = self.height - self.margin - (pts[:, 1] - self.box[2]) * self._sy
        coords = np.column_stack([px, py])
        for a, b in bounds.reshape(-1, 2).tolist():
            if b - a >= 2:
                fmt = "M " + " L ".join(["%.3f %.3f"] * (b - a))
                self._paths.append((style, fmt % tuple(coords[a:b].ravel().tolist())))

    def render(self, title: str) -> str:
        w, h, m = self.width, self.height, self.margin
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
            f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
            f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
            f'fill="none" stroke="#999999" stroke-width="1"/>',
        ]
        for x0, y0, x1, y1 in self._axes():
            out.append(
                f'<line x1="{x0:.3f}" y1="{y0:.3f}" x2="{x1:.3f}" y2="{y1:.3f}" '
                + _SVG_STYLE["axis"]
                + "/>"
            )
        for style, d in self._paths:
            out.append(f"<path {_SVG_STYLE[style]} d=\"{d}\"/>")
        out.append(
            f'<text x="{m}" y="{m - 10}" font-family="monospace" '
            f'font-size="13" fill="#333333">{title}</text>'
        )
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def _axes(self):
        segs = []
        if self.box[0] < 0.0 < self.box[1]:
            x0, y0 = self._map(0.0, self.box[2])
            x1, y1 = self._map(0.0, self.box[3])
            segs.append((x0, y0, x1, y1))
        if self.box[2] < 0.0 < self.box[3]:
            x0, y0 = self._map(self.box[0], 0.0)
            x1, y1 = self._map(self.box[1], 0.0)
            segs.append((x0, y0, x1, y1))
        return segs


# ---------------------------------------------------------------------------
# commands


def _event_column(trace: fl.GeodesicTrace) -> dict[int, str]:
    out: dict[int, str] = {}
    for ev in trace.events:
        out[ev.index] = out[ev.index] + "+" + ev.kind if ev.index in out else ev.kind
    return out


def _trace_rows(trace: fl.GeodesicTrace) -> list[tuple]:
    marks = _event_column(trace)
    rows = []
    for k in range(trace.t.size):
        rows.append(
            (
                _fmt(trace.t[k]),
                _fmt(trace.x[k]),
                _fmt(trace.y[k]),
                _fmt(trace.slope[k]),
                trace.chart[k],
                _fmt(trace.F[k]),
                _fmt(trace.denom[k]),
                _fmt(trace.numer[k]),
                marks.get(k, ""),
            )
        )
    return rows


_TRACE_HEADER = ["t", "x", "y", "slope", "chart", "F", "Delta", "P", "event"]


def cmd_classify(cfg: ScenarioConfig, outdir: str) -> int:
    m = cfg.metric_obj()
    if m.degree != 3:
        print("classify: stratification needs a metric of degree 3", file=sys.stderr)
        return 2
    res = cfg.resolution
    xs = np.linspace(cfg.box[0], cfg.box[1], res)
    ys = np.linspace(cfg.box[2], cfg.box[3], res)
    # rows run along x, one row of the grid per y
    try:
        strata, disc = mt.strata_on_grid(m, *np.meshgrid(xs, ys))
    except mt.DegeneratePointError as err:
        print(f"classify: {err}", file=sys.stderr)
        return 2
    xtext = [_fmt(x) for x in xs]
    rows: list[tuple] = []
    for y, row_st, row_d in zip(ys, strata.tolist(), disc.tolist()):
        ytext = _fmt(y)
        rows.extend(
            (xt, ytext, st, _fmt(d)) for xt, st, d in zip(xtext, row_st, row_d)
        )
    counts = Counter(strata.ravel().tolist())
    path = os.path.join(outdir, f"{cfg.out_prefix}_strata.csv")
    _write_csv(path, ["x", "y", "stratum", "disc"], rows)
    summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
    print(f"classify: wrote {path} ({res}x{res}) {summary}")
    return 0


def cmd_integrate(cfg: ScenarioConfig, outdir: str) -> int:
    if not cfg.seeds:
        print("integrate: config has no seed entries", file=sys.stderr)
        return 2
    m = cfg.metric_obj()
    icfg = cfg.integrator()
    for k, (x, y, p) in enumerate(cfg.seeds):
        trace = fl.integrate(m, fl.PTMPoint(x, y, p), icfg)
        path = os.path.join(outdir, f"{cfg.out_prefix}_trace{k:02d}.csv")
        _write_csv(path, _TRACE_HEADER, _trace_rows(trace))
        kinds = Counter(ev.kind for ev in trace.events)
        evtxt = " ".join(f"{n}={kinds[n]}" for n in sorted(kinds)) or "none"
        print(
            f"integrate: wrote {path} ({trace.t.size} samples, "
            f"t in [{trace.t[0]:.4g}, {trace.t[-1]:.4g}], events: {evtxt})"
        )
    return 0


def _point_row(x, y, p, kind, eigenvalues, transversal) -> tuple:
    """One row of the singular-points CSV (_POINT_HEADER)."""
    e = np.sort_complex(eigenvalues)
    return (
        _fmt(x), _fmt(y), _fmt(p), kind,
        *(_fmt(v) for z in e for v in (z.real, z.imag)),
        "" if transversal is None else str(transversal),
    )


def _singular_point_rows(m: mt.PseudoFinslerMetric, curves) -> list[tuple]:
    rows: list[tuple] = []
    for c in curves:
        if c.label != "singular" or len(c) < 2:
            continue
        picks = np.unique(np.linspace(0, len(c) - 1, 12).astype(int))
        for k in picks:
            x, y = (float(v) for v in c.points[k])
            try:
                p = sg.lift_to_slope(m, x, y)
                spt = sg.classify_singular(m, x, y, p)
            except (ValueError, sg.StratumError):
                continue
            rows.append(
                _point_row(x, y, p, spt.kind, spt.eigenvalues, spt.transversal)
            )
        for x, y in sg.find_tangency_failures(m, c):
            try:
                rep = sg.tangency_report(m, x, y)
            except (ValueError, sg.StratumError):
                continue
            rows.append(
                _point_row(
                    x, y, rep.p, "TangencyFailure", rep.eigenvalues, rep.transversal
                )
            )
    return rows


_POINT_HEADER = [
    "x",
    "y",
    "slope",
    "kind",
    "eig1_re",
    "eig1_im",
    "eig2_re",
    "eig2_im",
    "eig3_re",
    "eig3_im",
    "transversal",
]


def cmd_singular(cfg: ScenarioConfig, outdir: str) -> int:
    m = cfg.metric_obj()
    if m.degree > 3:
        print("singular: the singular locus needs a metric of degree 2 or 3", file=sys.stderr)
        return 2
    curves = sg.singular_curves(m, cfg.box, cfg.resolution)
    for i, c in enumerate(curves):
        path = os.path.join(
            outdir, f"{cfg.out_prefix}_locus{i:02d}_{c.label}.csv"
        )
        _write_csv(
            path, ["x", "y"], [(_fmt(x), _fmt(y)) for x, y in c.points]
        )
        print(f"singular: wrote {path} ({len(c)} points, {c.label})")
    rows = _singular_point_rows(m, curves)
    path = os.path.join(outdir, f"{cfg.out_prefix}_singular_points.csv")
    _write_csv(path, _POINT_HEADER, rows)
    kinds = Counter(r[3] for r in rows)
    summary = " ".join(f"{k}={kinds[k]}" for k in sorted(kinds)) or "none"
    print(f"singular: wrote {path} ({len(rows)} classified points: {summary})")
    return 0


def cmd_portrait(cfg: ScenarioConfig, outdir: str) -> int:
    m = cfg.metric_obj()
    canvas = _SvgCanvas(cfg.box)
    n_curves = Counter()
    for c in nets.net_curves(m, cfg.box, "F"):
        canvas.polyline(c, "isotropic-net")
        n_curves["isotropic"] += 1
    if m.degree in (2, 3):
        for c in nets.net_curves(m, cfg.box, "denom"):
            canvas.polyline(c, "singular-net")
            n_curves["singular"] += 1
        for c in sg.boundary_curves(m, cfg.box, cfg.resolution):
            canvas.polyline(c.points, "boundary")
            n_curves["boundary"] += 1
    icfg = cfg.integrator()
    for x, y, p in cfg.seeds:
        trace = fl.integrate(m, fl.PTMPoint(x, y, p), icfg)
        canvas.polyline(np.column_stack([trace.x, trace.y]), "geodesic")
        n_curves["geodesic"] += 1
    path = os.path.join(outdir, f"{cfg.out_prefix}_portrait.svg")
    text = canvas.render(cfg.out_prefix)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    summary = " ".join(f"{k}={n_curves[k]}" for k in sorted(n_curves)) or "empty"
    print(f"portrait: wrote {path} ({summary})")
    return 0


_SERIES_HEADER = ["order", "slot", "linear_coeff", "forcing", "value", "status"]


def _series_csv_rows(sol: px.GeodesicSeries) -> list[tuple]:
    rows = []
    for r in sol.rows:
        rows.append(
            (
                r.index,
                r.slot,
                "" if r.linear_coeff is None else str(r.linear_coeff),
                "" if r.forcing is None else str(r.forcing),
                "" if r.value is None else str(r.value),
                r.status,
            )
        )
    return rows


def cmd_puiseux(cfg: ScenarioConfig, outdir: str) -> int:
    alm = None
    if cfg.mode == "berwald-moor":
        imm = cfg.immersion_obj()
        alm = bm.adapted_from_immersion(imm, cfg.pair[0] - 1, cfg.pair[1] - 1)
        m = bm.full_metric(alm)
        n = m.degree
        seed = dict(cfg.series_seed)
        if not seed:
            seed = {n: float(bm.admissible_u(alm)[1])}
        free = dict(cfg.series_free)
        if cfg.alphas and (2 * n - 2) not in free:
            free[2 * n - 2] = cfg.alphas[0]
    else:
        m = cfg.metric_obj()
        if not cfg.series_seed:
            print(
                "puiseux: config needs at least one series_seed entry "
                "(index value)",
                file=sys.stderr,
            )
            return 2
        seed = dict(cfg.series_seed)
        free = dict(cfg.series_free)
    s = cfg.series_s or m.degree
    try:
        sol = px.solve_geodesic_series(
            m, s, seed, cfg.series_order, free=free, y0=cfg.y0
        )
    except ValueError as err:
        print(f"puiseux: {err}", file=sys.stderr)
        return 2
    table = sol.table()
    print(table)
    if sol.obstructed:
        print(f"puiseux: series is obstructed at order {sol.obstruction_order}")
    txt_path = os.path.join(outdir, f"{cfg.out_prefix}_series.txt")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    csv_path = os.path.join(outdir, f"{cfg.out_prefix}_series.csv")
    _write_csv(csv_path, _SERIES_HEADER, _series_csv_rows(sol))
    print(f"puiseux: wrote {txt_path} and {csv_path}")
    if alm is not None and cfg.alphas:
        members = bm.bm_family_shoot(
            alm, cfg.alphas, y0=cfg.y0, order=max(cfg.series_order, 2 * m.degree),
            cfg=cfg.integrator(),
        )
        for i, mem in enumerate(members):
            path = os.path.join(outdir, f"{cfg.out_prefix}_family{i:02d}.csv")
            rows = [
                (_fmt(mem.alpha), mem.eta_sign) + row
                for row in _trace_rows(mem.trace)
            ]
            _write_csv(path, ["alpha", "eta_sign"] + _TRACE_HEADER, rows)
        print(f"puiseux: wrote {len(members)} family trace files")
    return 0


# ---------------------------------------------------------------------------
# verify


def _interior_samples(rng, box, count):
    xs = rng.uniform(box[0] + 0.1 * (box[1] - box[0]), box[1] - 0.1 * (box[1] - box[0]), count)
    ys = rng.uniform(box[2] + 0.1 * (box[3] - box[2]), box[3] - 0.1 * (box[3] - box[2]), count)
    return xs, ys


def _check_accel(m, rng, box):
    """Cramer determinants of the acceleration system against the slope
    polynomials; exact identities up to rounding."""
    n = m.degree
    worst = 0.0
    xs, ys = _interior_samples(rng, box, 60)
    for x, y in zip(xs, ys):
        xd = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
        yd = float(rng.uniform(-1.5, 1.5))
        H, H1, H2 = mt.accel_determinants(m, float(x), float(y), xd, yd)
        p = yd / xd
        dv = mt.denom_poly(m, float(x), float(y))(p)
        pv = mt.numer_poly(m, float(x), float(y))(p)
        lhs1 = xd ** (2 * n - 4) * (n - 1) * dv
        lhs2 = xd ** (2 * n - 2) * (n - 1) * pv
        worst = max(worst, abs(H - lhs1) / (1.0 + abs(H) + abs(lhs1)))
        worst = max(
            worst, abs((H2 - p * H1) - lhs2) / (1.0 + abs(H2) + abs(p * H1) + abs(lhs2))
        )
    return worst, "acceleration system vs slope polynomials at 60 random states"


def _check_degeneracy(m, rng, box):
    """The slope denominator must equal the degeneracy combination of the
    metric polynomial, and the root correspondence must hold on random
    real-rooted polynomials."""
    n = m.degree
    worst = 0.0
    xs, ys = _interior_samples(rng, box, 40)
    for x, y in zip(xs, ys):
        phi = poly.RealPolynomial(mt.coeff_values(m, float(x), float(y)))
        built = pa.degeneracy_poly(phi, n)
        direct = mt.denom_poly(m, float(x), float(y))
        size = max(built.coeffs.size, direct.coeffs.size)
        a = np.zeros(size)
        b = np.zeros(size)
        a[: built.coeffs.size] = built.coeffs
        b[: direct.coeffs.size] = direct.coeffs
        scale = 1.0 + float(np.max(np.abs(a)) + np.max(np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    for _ in range(25):
        roots = np.sort(rng.uniform(-2.0, 2.0, n))
        if rng.uniform() < 0.4:
            roots[1] = roots[0]
        rooted = pa.RootedPolynomial(roots, float(rng.uniform(0.5, 2.0)))
        rep = pa.correspondence_report(rooted)
        if not rep.ok:
            worst = max(worst, 1.0)
    return worst, "degeneracy combination vs denominator, plus root matching"


def _check_disc(m, rng, box):
    """Quadratic discriminant of the denominator against the cubic
    discriminant of the metric (factor -12)."""
    if m.degree != 3:
        return None, "needs a degree-3 metric"
    worst = 0.0
    xs, ys = _interior_samples(rng, box, 60)
    for x, y in zip(xs, ys):
        dd = mt.disc_denom(m, float(x), float(y))
        df = mt.disc_metric(m, float(x), float(y))
        sc = mt._ipow(1.0 + mt.metric_scale(m, float(x), float(y)), 4)
        worst = max(worst, abs(dd + 12.0 * df) / sc)
    return worst, "denominator discriminant = -12 * metric discriminant"


def _check_charts(m, rng, box):
    """The slope-chart field and the dual-chart field must agree as
    direction fields under (x, y, p) -> (y, x, 1/p)."""
    md = m.dual()
    worst = 0.0
    xs, ys = _interior_samples(rng, box, 60)
    for x, y in zip(xs, ys):
        p = float(rng.uniform(0.35, 2.2) * rng.choice([-1.0, 1.0]))
        dv = mt.denom_poly(m, float(x), float(y))(p)
        pv = mt.numer_poly(m, float(x), float(y))(p)
        v1 = np.array([p * dv, dv, -pv / p**2])
        q = 1.0 / p
        dvq = mt.denom_poly(md, float(y), float(x))(q)
        pvq = mt.numer_poly(md, float(y), float(x))(q)
        v2 = np.array([dvq, q * dvq, pvq])
        cross = np.linalg.norm(np.cross(v1, v2))
        scale = (np.linalg.norm(v1) * np.linalg.norm(v2)) + 1e-30
        worst = max(worst, float(cross / scale))
    return worst, "slope-chart field parallel to the pushed dual-chart field"


def _check_spectra(cfg):
    """Rest point spectra of the rescaled blow-up field against the
    closed forms (n-2)/n and (n-2)/(1-n)."""
    if cfg.mode != "berwald-moor":
        return None, "needs mode = berwald-moor"
    imm = cfg.immersion_obj()
    alm = bm.adapted_from_immersion(imm, cfg.pair[0] - 1, cfg.pair[1] - 1)
    n = 2 + len(alm.extra)
    worst = 0.0
    for which, expect in ((1, (n - 2) / n), (0, (n - 2) / (1 - n)), (2, (n - 2) / (1 - n))):
        spec = bm.blowup_spectrum(alm, y0=cfg.y0, which=which)
        got = np.array(spec)
        want = np.array([1.0, expect, 0.0])
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst, "blow-up rest point spectra vs closed forms"


def cmd_verify(cfg: ScenarioConfig, outdir: str) -> int:
    m = cfg.metric_obj()
    rng = np.random.default_rng(20260814)
    checks = [
        ("acceleration-identities", lambda: _check_accel(m, rng, cfg.box)),
        ("degeneracy-correspondence", lambda: _check_degeneracy(m, rng, cfg.box)),
        ("discriminant-identity", lambda: _check_disc(m, rng, cfg.box)),
        ("chart-consistency", lambda: _check_charts(m, rng, cfg.box)),
        ("blowup-spectra", lambda: _check_spectra(cfg)),
    ]
    failures = 0
    ran = 0
    for name, run in checks:
        try:
            residual, detail = run()
        except Exception as err:  # report, do not hide
            print(f"FAIL  {name:26s} error: {err}")
            failures += 1
            continue
        if residual is None:
            print(f"SKIP  {name:26s} ({detail})")
            continue
        ran += 1
        status = "PASS" if residual < VERIFY_TOL else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status}  {name:26s} max residual {residual:.3e}  ({detail})")
    if failures:
        print(f"verify: FAILED ({failures} of {ran + failures} checks)")
        return 1
    print(f"verify: OK ({ran} checks, tolerance {VERIFY_TOL:g})")
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "classify": cmd_classify,
    "integrate": cmd_integrate,
    "singular": cmd_singular,
    "portrait": cmd_portrait,
    "puiseux": cmd_puiseux,
    "verify": cmd_verify,
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finslerflow",
        description="Geodesic flow portraits and diagnostics for planar "
        "polynomial pseudo-Finsler metrics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__ or name)
        p.add_argument("--config", required=True, help="scenario file path")
        p.add_argument(
            "--out", default=None, help="output directory (default: config dir)"
        )
        p.add_argument(
            "--seed",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a scenario entry (repeatable)",
        )
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            cfg = load_config(args.config, tuple(args.seed))
        except OSError as err:
            print(f"cannot read config: {err}", file=sys.stderr)
            return 2
        outdir = args.out or os.path.dirname(os.path.abspath(args.config))
        os.makedirs(outdir, exist_ok=True)
        # the immersion is probed when a command first builds it
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
