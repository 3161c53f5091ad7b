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
run can sweep a parameter without editing the scenario.  Each key's
parser and check live in one table, _KEYS; values are checked once the
file and the overrides are read, and an error names the line or the
override that set the bad value.

The SVG output is plain text with fixed number formatting and no
timestamps, so rerunning a command on the same scenario produces a
byte-identical file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from . import berwald_moor as bm
from . import expr as ex
from . import flow as fl
from . import metric as mt
from . import nets
from . import poly
from . import puiseux as px
from . import singular as sg

VERIFY_TOL = 1e-7


class ConfigError(ValueError):
    """Scenario file rejected; the message carries the offending line."""


class OutputError(Exception):
    """An output file or directory could not be written."""


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
    rel_tol: float = fl.IntegratorConfig.rel_tol
    abs_tol: float = fl.IntegratorConfig.abs_tol
    max_step: float = fl.IntegratorConfig.max_step
    max_ds: float = fl.IntegratorConfig.max_ds
    max_steps: int = fl.IntegratorConfig.max_steps
    resolution: int = 220
    out_prefix: str = "scenario"
    pair: tuple[int, int] = (3, 2)
    series_s: int = 0
    series_order: int = 12
    series_seed: dict[int, float] = field(default_factory=dict)
    series_free: dict[int, float] = field(default_factory=dict)
    y0: float = 0.0
    # key -> tag of the entry that set it, for errors found after loading
    origin: dict[str, str] = field(default_factory=dict, repr=False, compare=False)

    def coefficient_texts(self) -> list[str]:
        return [self.coeffs.get(i, "0") for i in range(self.degree + 1)]

    def immersion_obj(self) -> bm.SurfaceImmersion:
        """The immersion; a component the probe refuses is a ConfigError."""
        try:
            return bm.SurfaceImmersion(tuple(self.immersion))
        except ValueError as err:
            raise ConfigError(f"immersion: {err}") from err

    def adapted_chart(self) -> bm.AdaptedLocalMetric:
        """The adapted chart of the immersion at the components ``pair``
        names; a pair not in adapted position is a ConfigError under the
        tag of the pair entry."""
        imm = self.immersion_obj()
        try:
            return bm.adapted_from_immersion(imm, self.pair[0] - 1, self.pair[1] - 1)
        except ValueError as err:
            tag = self.origin.get("pair", "config")
            raise ConfigError(f"{tag}: pair {self.pair[0]} {self.pair[1]}: {err}") from err

    def metric_obj(self) -> mt.PseudoFinslerMetric:
        if self.mode == "berwald-moor":
            return bm.induced_metric(self.immersion_obj())
        return mt.metric_from_strings(self.degree, self.coefficient_texts())

    def integrator(self) -> fl.IntegratorConfig:
        names = [f.name for f in dataclasses.fields(fl.IntegratorConfig)]
        return fl.IntegratorConfig(**{name: getattr(self, name) for name in names})

    def seeds_in_box(self) -> tuple[tuple[float, float, float], ...]:
        """The seeds; one outside the box or with a nan slope is a
        ConfigError (slope inf is the vertical direction)."""
        x0, x1, y0, y1 = self.box
        for k, (x, y, p) in enumerate(self.seeds, start=1):
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                raise ConfigError(f"seed {k} ({x}, {y}, {p}) is outside the box {self.box}")
            if math.isnan(p):
                raise ConfigError(f"seed {k} ({x}, {y}, {p}) has a nan slope")
        return self.seeds


_PREFIX_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


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


def _pair_value(tag: str, key: str, text: str) -> tuple[int, int]:
    iv = _numbers(tag, key, text, 2)
    if not all(v.is_integer() for v in iv):
        raise ConfigError(f"{tag}: pair expects two integer indices")
    return int(iv[0]), int(iv[1])


# key -> (ScenarioConfig field, parser, test, message).  The parser reads
# one entry.  Once every line and override is read, the test checks each
# value a key is left with; a failure reports the message under the tag
# of the entry that set the value.  n, pair, a0..a9 and f1..f9 are
# checked against the mode in _build_config.
_KEYS = {
    "mode": ("mode", lambda t, k, v: v, lambda v: v in ("coefficients", "berwald-moor"),
             "mode must be 'coefficients' or 'berwald-moor', got {value!r}"),
    "n": ("degree", _int_value, None, None),
    **{f"a{i}": ("coeffs", _parse_expr, None, None) for i in range(10)},
    **{f"f{i}": ("immersion", _parse_expr, None, None) for i in range(1, 10)},
    "box": ("box", lambda t, k, v: tuple(_numbers(t, k, v, 4)),
            lambda b: all(map(math.isfinite, b)) and b[0] < b[1] and b[2] < b[3],
            "box needs finite xmin < xmax and ymin < ymax"),
    **{k: (k, _float_value, lambda v: v > 0, f"{k} must be positive")
       for k in ("rel_tol", "abs_tol", "max_step", "max_ds")},
    **{k: (k, _int_value, lambda v: v > 0, f"{k} must be positive")
       for k in ("max_steps", "series_order", "series_s")},
    "resolution": ("resolution", _int_value, lambda v: v >= 8,
                   "resolution must be at least 8"),
    "out_prefix": ("out_prefix", lambda t, k, v: v, _PREFIX_RE.match,
                   "out_prefix may use only letters, digits, dot, dash and underscore"),
    "pair": ("pair", _pair_value, None, None),
    "y0": ("y0", _float_value, math.isfinite, "y0 must be finite"),
    # repeatable: each entry adds to the field
    "seed": ("seeds", lambda t, k, v: tuple(_numbers(t, k, v, 3)), None, None),
    "alpha": ("alphas", _numbers, lambda vs: all(map(math.isfinite, vs)),
              "alpha must be finite"),
    **{k: (k, _index_value, lambda e: e[0] >= 1 and math.isfinite(e[1]),
           "series indices must be positive and their values finite")
       for k in ("series_seed", "series_free")},
}
_REPEAT_KEYS = ("seed", "alpha", "series_seed", "series_free")


def load_config(path: str, overrides: tuple[str, ...] = ()) -> ScenarioConfig:
    """Parse and validate a scenario file, then apply overrides.

    Raises ConfigError with the offending line (or override) named in
    the message.  Repeatable keys (seed, alpha, series_seed,
    series_free) accumulate; an override of a scalar key replaces the
    file value.  Values are checked once every entry is read, so an
    error names the entry that set the value the scenario ends with.
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
    # key -> [(tag, value)]: the last entry of a scalar key, each entry of
    # a repeatable one
    given: dict[str, list[tuple[str, object]]] = {}
    for tag, key, text in entries:
        if key not in _KEYS:
            raise ConfigError(f"{tag}: unknown key {key!r}")
        value = _KEYS[key][1](tag, key, text)
        if key in _REPEAT_KEYS:
            given.setdefault(key, []).append((tag, value))
            continue
        if key in given and not tag.startswith("override"):
            raise ConfigError(
                f"{tag}: duplicate key {key!r} (first set at {given[key][0][0]})"
            )
        given[key] = [(tag, value)]
    for key in ("series_seed", "series_free"):
        if key in given:  # an index set twice keeps its last value
            given[key] = list({v[0]: (tag, v) for tag, v in given[key]}.values())
    for key, (_, _, test, message) in _KEYS.items():
        for tag, value in given.get(key, []):
            if test and not test(value):
                raise ConfigError(f"{tag}: " + message.format(value=value))

    origin = {key: values[-1][0] for key, values in given.items()}
    # the mode checks below set coeffs and immersion
    fields = {_KEYS[k][0]: v[0][1] for k, v in given.items() if k not in _REPEAT_KEYS}
    seeds, alphas, series_seed, series_free = (
        [v for _, v in given.get(key, ())] for key in _REPEAT_KEYS
    )
    fields.update(seeds=tuple(seeds), alphas=tuple(a for vs in alphas for a in vs),
                  series_seed=dict(series_seed), series_free=dict(series_free))
    coeffs = {int(k[1:]): v[0][1] for k, v in given.items() if _KEYS[k][0] == "coeffs"}
    comps = {int(k[1:]): v[0][1] for k, v in given.items() if _KEYS[k][0] == "immersion"}
    if coeffs and comps:
        first_f = min(comps)
        raise ConfigError(
            f"{origin[f'f{first_f}']}: immersion component f{first_f} not "
            "allowed alongside coefficient entries; use exactly one family"
        )
    if fields.get("mode", ScenarioConfig.mode) == "coefficients":
        if not coeffs:
            raise ConfigError(
                "config defines no coefficient entries (a0, a1, ...); "
                "mode 'coefficients' needs at least one"
            )
        degree = fields.get("degree", ScenarioConfig.degree)
        if degree < 2:
            raise ConfigError(f"{origin['n']}: n must be at least 2")
        bad = [i for i in coeffs if i > degree]
        if bad:
            raise ConfigError(
                f"{origin[f'a{min(bad)}']}: coefficient a{min(bad)} "
                f"exceeds degree n = {degree}"
            )
        fields["coeffs"] = coeffs
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
        if fields.get("degree", k) != k:
            raise ConfigError(
                f"{origin['n']}: n = {fields['degree']} disagrees with the "
                f"{k} immersion components"
            )
        degree = fields["degree"] = k
        fields["immersion"] = tuple(comps[i] for i in range(1, k + 1))
    pair = fields.get("pair", ScenarioConfig.pair)
    if pair[0] == pair[1] or min(pair) < 1 or (comps and max(pair) > degree):
        raise ConfigError(
            f"{origin.get('pair', 'config')}: pair needs two distinct "
            f"component indices between 1 and {degree}"
        )
    return ScenarioConfig(**fields, origin=origin)


# ---------------------------------------------------------------------------
# output helpers


def _write(path: str, data: str | Iterable[bytes]) -> None:
    """Write text (as UTF-8), or byte strings one after another, to path,
    with no newline translation; the one writer of every output file.
    Each byte string is written as the iterable makes it, so an iterator
    of passes never holds the whole file.  An OSError becomes an
    OutputError, which main reports in one line with exit status 2."""
    try:
        with open(path, "wb") as fh:
            fh.writelines([data.encode("utf-8")] if isinstance(data, str) else data)
    except OSError as err:
        raise OutputError(err) from err


def _words(*columns) -> np.ndarray:
    """Little-endian 32-bit words of four byte columns; 0 is a NUL byte."""
    return sum(np.asarray(c, dtype=np.uint32) << np.uint32(8 * k) for k, c in enumerate(columns))


# "%.12g" % v for a normal v with 1e-11 <= |v| < 1e34 is a lead, a body
# and an exponent, e being the decimal exponent of v:
#   the lead: "-" for a negative v, then "0." and -e - 1 zeros for
#     -4 <= e < 0;
#   the body: the twelve digits of n = |v| 10^(11 - e) rounded half to
#     even, less the trailing zeros after the point, and the point: after
#     e + 1 digits for 0 <= e < 12, after one where the exponent is
#     written, and none for -4 <= e < 0 (the lead has it);
#   the exponent: "e-11" .. "e-05" and "e+12" .. "e+33", nothing for
#     -4 <= e < 12.
# The twelve digits are held in two little-endian 64-bit words, eight
# and four bytes, and the text in three.

# The tables of g = 0..9999, built from its four digits (the axes of a
# 10 x 10 x 10 x 10 array): its digits as bytes 0-3 of a word and as
# bytes 4-7, and the count of its digits up to the last nonzero one, as
# digits 0-3, 4-7 and 8-11 of twelve (0 for g = 0 in the last two).
_DIGIT = 48 + np.arange(10, dtype=np.uint32)
_D0 = (_DIGIT[:, None, None, None] | _DIGIT[:, None, None] << 8 | _DIGIT[:, None] << 16
       | _DIGIT << 24).ravel().astype(np.uint64)
_D1 = _D0 << np.uint64(32)
_NONZERO = np.arange(10, dtype=np.int8) > 0
_LAST = np.maximum(
    np.maximum(_NONZERO[:, None, None, None] * np.int8(1), _NONZERO[:, None, None] * np.int8(2)),
    np.maximum(_NONZERO[:, None] * np.int8(3), _NONZERO * np.int8(4)),
).ravel()
_LAST0, _LAST1, _LAST2 = (np.where(_LAST, _LAST + np.int8(k), np.int8(0)) for k in (0, 4, 8))
_E_LOW, _E_HIGH = -11, 33
_E = np.arange(_E_LOW, _E_HIGH + 1)
# by e - _E_LOW: n is |v| * _G_MUL / _G_DIV, each factor 1 or 10^|11 - e|,
# a double for |11 - e| <= 22
_POW10 = np.array([float(10**k) for k in range(23)])
_G_MUL, _G_DIV = _POW10[np.maximum(11 - _E, 0)], _POW10[np.maximum(_E - 11, 0)]
# by e - _E_LOW: the digits kept whatever they are, the digits before the
# point (12 where the body has none) and the exponent; by sign and
# e - _E_LOW, the lead and its length in bits
_G_WHOLE = np.where((_E >= 0) & (_E < 12), _E + 1, 1)
_G_POINT = np.where((_E >= -4) & (_E < 0), 12, _G_WHOLE)
_G_EXP = np.where(
    (_E < -4) | (_E >= 12),
    _words(ord("e"), np.where(_E < 0, ord("-"), ord("+")), 48 + abs(_E) // 10, 48 + abs(_E) % 10),
    0,
).astype(np.uint64)
_G_LEAD = np.zeros((2, _E.size), dtype=np.uint64)
_G_LEAD[1] = ord("-")
_G_LEAD_BITS = np.zeros((2, _E.size), dtype=np.uint64)
_G_LEAD_BITS[1] = 8
for _k in range(1, 5):
    _lead = int.from_bytes(b"0." + b"0" * (_k - 1), "little")
    _G_LEAD[:, -_k - _E_LOW] |= np.uint64(_lead) << np.array([0, 8], dtype=np.uint64)
    _G_LEAD_BITS[:, -_k - _E_LOW] += np.uint64(8 * _k + 8)
_G_LEAD, _G_LEAD_BITS = _G_LEAD.ravel(), _G_LEAD_BITS.ravel()
# by k = 0..12: the low k of twelve bytes, and "." at byte k
_K = np.arange(13, dtype=np.uint64)
_LOW0 = np.where(_K >= 8, ~np.uint64(0), (np.uint64(1) << 8 * _K) - np.uint64(1))
_LOW1 = np.where(_K > 8, (np.uint64(1) << 8 * (_K - np.uint64(8))) - np.uint64(1), 0)
_DOT0 = np.where(_K < 8, np.uint64(ord(".")) << 8 * _K, 0).astype(np.uint64)
_DOT1 = np.where(_K >= 8, np.uint64(ord(".")) << 8 * (_K - np.uint64(8)), 0).astype(np.uint64)
_U8, _U64 = np.uint64(8), np.uint64(64)


def _round_scaled(a: np.ndarray, ei: np.ndarray) -> np.ndarray:
    """n = a 10^(11 - e) rounded half to even, e = ei + _E_LOW.

    The power of ten is exact and the float product or quotient is
    correctly rounded, so ``rint`` of it is n except where it lies
    within its rounding error of a half; there n is computed exactly."""
    p = a * _G_MUL[ei] / _G_DIV[ei]
    n = np.rint(p)
    for i in np.flatnonzero(np.abs(p - np.floor(p) - 0.5) <= p * 2.0**-52):
        n[i] = round(Fraction(a[i].item()) * Fraction(10) ** int(11 - _E_LOW - ei[i]))
    return n


def _format_g(values) -> np.ndarray:
    """The bytes b"%.12g" % v of each value, as a numpy bytes array (its
    items padded with NUL to the longest).

    e is taken as floor(log10 |v|) and corrected where the rounded
    digits n leave [10^11, 10^12): log10 misses only by one and only next
    to a power of ten, so one correction settles every e, and the pass
    after it rounds exactly near a half like the first.  A zero takes
    e = 0 and n = 0, which write "0", and "-" from its sign bit.  Inf,
    nan, subnormals and the values whose e needs a power of ten beyond
    10^22 are formatted by "%.12g" itself.
    """
    v = values = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    zero = a == 0.0
    e[zero] = 0.0
    # nan and subnormals fail the first test, inf the last
    fast = ((a >= 2.2250738585072014e-308) | zero) & (e > _E_LOW) & (e < _E_HIGH)
    every = bool(fast.all())
    if not every:
        v, a, e = v[fast], a[fast], e[fast]
    ei = e.astype(np.intp) - _E_LOW
    n = _round_scaled(a, ei)
    off = np.flatnonzero(((n < 1e11) & (n > 0.0)) | (n >= 1e12))
    if off.size:
        ei[off] += np.where(n[off] < 1e11, -1, 1)
        n[off] = _round_scaled(a[off], ei[off])
    g01, g2 = np.divmod(n.astype(np.int64), 10**4)
    g0, g1 = np.divmod(g01, 10**4)
    # the digits up to the last nonzero one after the point
    keep = np.maximum(np.maximum(_LAST0[g0], _LAST1[g1]), np.maximum(_LAST2[g2], _G_WHOLE[ei]))
    d0 = (_D0[g0] | _D1[g1]) & _LOW0[keep]
    d1 = _D0[g2] & _LOW1[keep]
    # the digits after the point move up a byte; the point is written
    # where a digit follows it
    point = _G_POINT[ei]
    low0, low1 = _LOW0[point], _LOW1[point]
    dot = keep > point
    high0 = d0 & ~low0
    b0 = (d0 & low0) | (high0 << _U8) | (_DOT0[point] * dot)
    b1 = (d1 & low1) | ((d1 & ~low1) << _U8) | (high0 >> np.uint64(56)) | (_DOT1[point] * dot)
    # the body after the lead; numpy shifts by 64 bits or more to 0
    li = np.signbit(v) * _E.size + ei
    lead = _G_LEAD_BITS[li]
    words = np.empty((v.size, 3), dtype="<u8")
    words[:, 0] = _G_LEAD[li] | (b0 << lead)
    words[:, 1] = (b0 >> (_U64 - lead)) | (b1 << lead)
    words[:, 2] = b1 >> (_U64 - lead)
    bits = lead + (keep + dot).astype(np.uint64) * _U8
    # the exponent after the body, where there is one
    sci = np.flatnonzero(_G_EXP[ei])
    if sci.size:
        exp, at = _G_EXP[ei[sci]], bits[sci]
        # a shift by a wrapped negative amount is one by 64 bits or more
        words[sci, 0] |= exp << at
        words[sci, 1] |= (exp << (at - _U64)) | (exp >> (_U64 - at))
        words[sci, 2] |= exp >> (_U64 + _U64 - at)
        bits[sci] += np.uint64(32)
    width = int(bits.max()) // 8 if v.size else 1
    text = words.view("S24").ravel()
    if not every:
        out = np.empty(values.size, dtype="S24")
        out[fast] = text
        out[~fast] = slow = [b"%.12g" % x for x in values[~fast].tolist()]
        text, width = out, max(width, *map(len, slow))
    return text.astype(f"S{width}")


def _codes(values) -> tuple[np.ndarray, list[str]]:
    """(codes, table) of a sequence of strings: values[i] is table[codes[i]]."""
    table, codes = np.unique(np.asarray(values, dtype=str), return_inverse=True)
    return codes, table.tolist()


def _cells(table) -> np.ndarray:
    """A table as a numpy bytes array: a float array, each value as "%.12g"
    formats it, or a list of strings."""
    if isinstance(table, np.ndarray) and table.dtype.kind == "f":
        return _format_g(table)
    return np.array([s.encode("utf-8") for s in table], dtype=bytes)


# the rows of a CSV file, or the points of SVG paths, formatted in one pass
_ROWS_PER_PASS = 8192


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """Write a CSV file: the header, then one line per row, fields joined by
    commas and every line ended by CRLF.

    A column is a float array, whose values are written as "%.12g"
    formats them, or a pair (codes, table) of an integer array and a
    table, a list of strings or a float array, whose row i holds
    table[codes[i]].  A few thousand rows at a time, the float columns
    are formatted in one _format_g call, every field is put in a record
    array of the rows, its items padded with NUL, and the NUL bytes of
    the records are dropped; _write writes each pass as it is made.
    Fields are not quoted: a comma in the header or in a table of strings
    is a ValueError, as is a ragged column, raised before the file is
    opened.
    """
    texts = [c[1] for c in columns if isinstance(c, tuple) and not isinstance(c[1], np.ndarray)]
    for text in {*header, *(s for t in texts for s in t)}:
        if "," in text:
            raise ValueError(f"{path}: the field {text!r} has a comma")
    # column j -> (codes, cells of the table)
    tables = {j: (np.asarray(c[0]), _cells(c[1]))
              for j, c in enumerate(columns) if isinstance(c, tuple)}
    floats = [np.asarray(c, dtype=np.float64) for c in columns if not isinstance(c, tuple)]
    sizes = {len(codes) for codes, _ in tables.values()} | {len(f) for f in floats}
    if len(columns) != len(header) or len(sizes) > 1:
        raise ValueError(f"{path}: {len(header)} header fields, columns of lengths {sizes}")
    size = sizes.pop() if sizes else 0

    def one_pass(start):
        # made in a call of its own, so that its arrays are freed when it
        # returns, before the next pass is made
        stop = min(start + _ROWS_PER_PASS, size)
        if floats:
            cells = _format_g(np.column_stack([f[start:stop] for f in floats]))
            formatted = iter(cells.reshape(stop - start, len(floats)).T)
        fields = [
            tables[j][1][tables[j][0][start:stop]] if j in tables else next(formatted)
            for j in range(len(columns))
        ]
        ends = [b","] * (len(fields) - 1) + [b"\r\n"]
        layout = []
        for j, (f, end) in enumerate(zip(fields, ends)):
            layout += [(f"f{j}", f.dtype), (f"e{j}", f"S{len(end)}")]
        rows = np.empty(stop - start, dtype=layout)
        for j, (f, end) in enumerate(zip(fields, ends)):
            rows[f"f{j}"] = f
            rows[f"e{j}"] = end
        return rows.tobytes().translate(None, b"\0")

    head = (",".join(header) + "\r\n").encode("utf-8")
    _write(path, chain([head], map(one_pass, range(0, size, _ROWS_PER_PASS))))


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


# "%.3f" % v for |v| < 999.9995 is [-] whole "." frac: for each of 0..999
# the words of the whole part ("  5." .. "999.", leading zeros NUL) and
# of the fraction ("000" .. "999" and a NUL)
_I = np.arange(1000)
_WHOLE = _words(
    np.where(_I >= 100, 48 + _I // 100, 0), np.where(_I >= 10, 48 + _I // 10 % 10, 0),
    48 + _I % 10, ord("."),
)
_FRAC = _words(48 + _I // 100, 48 + _I // 10 % 10, 48 + _I % 10, 0)
# before an x, before a y, and before the first x of a path
_LEAD = np.frombuffer(b" L \0 \0\0\0M \0\0", dtype="<u4")
_MINUS = np.uint32(ord("-") << 24)
# the words of a path element of each style up to its data, NUL-padded,
# and of its end
_PATH_HEAD = {}
for _style, _attrs in _SVG_STYLE.items():
    _head = f'<path {_attrs} d="'.encode()
    _PATH_HEAD[_style] = np.frombuffer(_head + b"\0" * (-len(_head) % 4), dtype="<u4")
_PATH_END = np.frombuffer(b'"/>\n', dtype="<u4")
_NAN_ROW = np.full((1, 2), np.nan)


def _path_data(points: np.ndarray, sizes: np.ndarray, styles: list[str]) -> bytes:
    """The path elements <path ... d="M x y L x y ..."/> of runs of canvas
    coordinates, one line each: run k is the next sizes[k] rows of the
    (N, 2) array points, drawn in _SVG_STYLE[styles[k]].  Each coordinate
    is written as "%.3f" % v formats it, for |v| below 999.9995 (a canvas
    of up to 999 px a side).

    The runs are formatted in one pass: each coordinate becomes three
    words, its lead and sign, its whole part and its fraction; the words
    of each element's head and end are inserted around its run, and the
    NUL bytes are dropped by ``bytes.translate``.  The digits are those of
    n = 1000 |v| rounded half to even, as "%.3f" rounds; ``rint`` of the
    float product 1000 |v| gives n except where the product lies within
    its rounding error of a half, and there n is computed exactly.
    """
    v = points.ravel()
    r = np.abs(v) * 1000.0
    n = np.rint(r)
    for i in np.flatnonzero(np.abs(r - np.floor(r) - 0.5) <= r * 2.0**-50):
        n[i] = round(abs(Fraction(v[i].item())) * 1000)
    whole = np.floor(n / 1000.0)
    frac = (n - 1000.0 * whole).astype(np.intp)
    ends = 2 * np.cumsum(sizes)
    starts = ends - 2 * sizes
    lead = np.tile(_LEAD[:2], v.size // 2)
    lead[starts] = _LEAD[2]
    words = np.empty((v.size, 3), dtype="<u4")
    words[:, 0] = np.where(np.signbit(v), lead | _MINUS, lead)
    words[:, 1] = _WHOLE[whole.astype(np.intp)]
    words[:, 2] = _FRAC[frac]
    # the head of run k goes before the words of its first coordinate and
    # its end after those of its last, which is where run k + 1 starts
    marks = [w for s in styles for w in (_PATH_HEAD[s], _PATH_END)]
    at = np.repeat(3 * np.column_stack([starts, ends]).ravel(), [w.size for w in marks])
    text = np.insert(words.ravel(), at, np.concatenate(marks))
    return text.tobytes().translate(None, b"\0")


class _SvgCanvas:
    """Collects styled polylines over a data box and renders SVG 1.1.

    ``polyline`` queues a curve.  Once the queued points reach
    _ROWS_PER_PASS, and once more in ``render``, one pass runs over the
    queued curves: one inside mask of all their points, a NaN row after
    each curve so that no run crosses into the next, one map to the
    canvas, and one _path_data call that formats the path elements of
    every run as bytes.  The canvas keeps the bytes of each pass, and a
    pass's temporaries are those of a few thousand points, not of the
    whole portrait.  Coordinates are formatted with a fixed precision and
    paths are emitted in insertion order, so the rendered text is
    deterministic.
    """

    def __init__(self, box, width=640, height=640, margin=40):
        self.box = box
        self.width = width
        self.height = height
        self.margin = margin
        self._queue: list[tuple[str, np.ndarray]] = []
        self._queued = 0
        # the path elements of the passes made so far
        self._paths: list[bytes] = []
        self._sx = (width - 2 * margin) / (box[1] - box[0])
        self._sy = (height - 2 * margin) / (box[3] - box[2])

    def _map(self, x, y):
        """Canvas px of data points, floats or arrays."""
        px = self.margin + (x - self.box[0]) * self._sx
        py = self.height - self.margin - (y - self.box[2]) * self._sy
        return px, py

    def polyline(self, pts: np.ndarray, style: str) -> None:
        """Queue a curve; its pass adds one path for each run of at least
        two consecutive points that are finite and inside the box."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 2:
            return
        self._queue.append((style, pts))
        self._queued += pts.shape[0]
        if self._queued >= _ROWS_PER_PASS:
            self._format_queued()

    def _format_queued(self) -> None:
        """Format the path elements of the queued curves in one pass."""
        if not self._queue:
            return
        styles, curves = zip(*self._queue)
        self._queue, self._queued = [], 0
        pts = np.concatenate([c for curve in curves for c in (curve[:, :2], _NAN_ROW)])
        x, y = pts[:, 0], pts[:, 1]
        inside = (
            (x >= self.box[0]) & (x <= self.box[1]) & (y >= self.box[2]) & (y <= self.box[3])
            & np.isfinite(x) & np.isfinite(y)
        )
        # run k is points a[k] .. b[k] - 1
        a, b = np.flatnonzero(np.diff(inside, prepend=False, append=False)).reshape(-1, 2).T
        long = b - a >= 2
        # a run of one point gives no path
        inside[a[~long]] = False
        a, b = a[long], b[long]
        if not a.size:
            return
        first = np.cumsum([0] + [len(c) + 1 for c in curves[:-1]])
        run_styles = [styles[k] for k in (np.searchsorted(first, a, side="right") - 1).tolist()]
        px, py = self._map(x[inside], y[inside])
        self._paths.append(_path_data(np.column_stack([px, py]), b - a, run_styles))

    def render(self, title: str) -> list[bytes]:
        """The SVG file as byte strings to write one after another."""
        self._format_queued()
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
        tail = (
            f'<text x="{m}" y="{m - 10}" font-family="monospace" '
            f'font-size="13" fill="#333333">{title}</text>\n</svg>\n'
        )
        return [("\n".join(out) + "\n").encode("utf-8"), *self._paths, tail.encode("utf-8")]

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


def _trace_columns(trace: fl.GeodesicTrace) -> list:
    """The CSV columns of a trace (_TRACE_HEADER)."""
    marks = _event_column(trace)
    events = np.zeros(len(trace.t), dtype=np.intp)
    events[list(marks)] = np.arange(1, len(marks) + 1)
    return [trace.t, trace.x, trace.y, trace.slope, _codes(trace.chart), trace.F,
            trace.denom, trace.numer, (events, ["", *marks.values()])]


def _summary(codes: np.ndarray, table: list[str]) -> str:
    """The count of each entry of a sorted table that codes use, as
    "name=count" words."""
    counts = np.bincount(codes, minlength=len(table)).tolist()
    return " ".join(f"{k}={c}" for k, c in zip(table, counts) if c)


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
    codes = strata.ravel()
    index = np.arange(res, dtype=np.int32)
    path = os.path.join(outdir, f"{cfg.out_prefix}_strata.csv")
    _write_csv(path, ["x", "y", "stratum", "disc"],
               [(np.tile(index, res), xs), (np.repeat(index, res), ys),
                (codes, mt.STRATA), disc.ravel()])
    print(f"classify: wrote {path} ({res}x{res}) {_summary(codes, mt.STRATA)}")
    return 0


def cmd_integrate(cfg: ScenarioConfig, outdir: str) -> int:
    if not cfg.seeds:
        print("integrate: config has no seed entries", file=sys.stderr)
        return 2
    seeds = cfg.seeds_in_box()
    m = cfg.metric_obj()
    icfg = cfg.integrator()
    for k, (x, y, p) in enumerate(seeds):
        trace = fl.integrate(m, fl.PTMPoint(x, y, p), icfg)
        path = os.path.join(outdir, f"{cfg.out_prefix}_trace{k:02d}.csv")
        _write_csv(path, _TRACE_HEADER, _trace_columns(trace))
        kinds = Counter(ev.kind for ev in trace.events)
        evtxt = " ".join(f"{n}={kinds[n]}" for n in sorted(kinds)) or "none"
        print(
            f"integrate: wrote {path} ({trace.t.size} samples, "
            f"t in [{trace.t[0]:.4g}, {trace.t[-1]:.4g}], events: {evtxt})"
        )
    return 0


def _singular_picks(m: mt.PseudoFinslerMetric, c: sg.CurveSamples) -> list[sg.SingularPoint]:
    """The classified singular points at 12 evenly spaced samples of c."""
    # the indices ascend and repeat on a short curve; np.unique would
    # import numpy.ma (10-15 ms) on its first call
    picked = list(dict.fromkeys(np.linspace(0, len(c) - 1, 12).astype(int).tolist()))
    out = []
    for (x, y), p in zip(c.points[picked].tolist(), c.slopes[picked].tolist()):
        try:
            out.append(sg.classify_singular(m, x, y, p))
        except ValueError:
            continue
    return out


def _singular_point_rows(m: mt.PseudoFinslerMetric, curves) -> list[tuple]:
    """(x, y, p, kind, eigenvalues, transversal) of each classified point
    and each tangency failure on the singular curves."""
    rows: list[tuple] = []
    for c in curves:
        if c.label != "singular" or len(c) < 2:
            continue
        for pt in _singular_picks(m, c):
            rows.append((pt.x, pt.y, pt.p, pt.kind, pt.eigenvalues, pt.transversal))
        for x, y, p in sg.find_tangency_failures(m, c):
            rep = sg.tangency_report(m, x, y, p)
            rows.append((x, y, p, "TangencyFailure", rep.eigenvalues, rep.transversal))
    return rows


def _point_columns(rows: list[tuple]) -> list:
    """The CSV columns of the singular points (_POINT_HEADER)."""
    xyp = np.array([r[:3] for r in rows], dtype=np.float64).reshape(-1, 3)
    eig = np.zeros((len(rows), 3), dtype=np.complex128)
    for k, r in enumerate(rows):
        eig[k] = np.sort_complex(r[4])
    kinds = _codes([r[3] for r in rows])
    transversal = _codes(["" if r[5] is None else str(r[5]) for r in rows])
    # the real and imaginary part of each eigenvalue, in turn
    return [*xyp.T, kinds, *eig.view(np.float64).T, transversal]


_POINT_HEADER = ["x", "y", "slope", "kind",
                 *(f"eig{k}_{part}" for k in (1, 2, 3) for part in ("re", "im")), "transversal"]


def cmd_singular(cfg: ScenarioConfig, outdir: str) -> int:
    m = cfg.metric_obj()
    if m.degree > 3:
        print("singular: the singular locus needs a metric of degree 2 or 3", file=sys.stderr)
        return 2
    curves = sg.singular_curves(m, cfg.box, cfg.resolution)
    for i, c in enumerate(curves):
        path = os.path.join(outdir, f"{cfg.out_prefix}_locus{i:02d}_{c.label}.csv")
        _write_csv(path, ["x", "y"], list(c.points.T))
        print(f"singular: wrote {path} ({len(c)} points, {c.label})")
    rows = _singular_point_rows(m, curves)
    path = os.path.join(outdir, f"{cfg.out_prefix}_singular_points.csv")
    columns = _point_columns(rows)
    _write_csv(path, _POINT_HEADER, columns)
    # the kind column is codes into the sorted kinds
    summary = _summary(*columns[3]) or "none"
    print(f"singular: wrote {path} ({len(rows)} classified points: {summary})")
    return 0


def cmd_portrait(cfg: ScenarioConfig, outdir: str) -> int:
    seeds = cfg.seeds_in_box()
    m = cfg.metric_obj()
    canvas = _SvgCanvas(cfg.box)
    n_curves = Counter()
    layers = ("F", "denom") if m.degree in (2, 3) else ("F",)
    for kind, curves in zip(("isotropic", "singular"), nets.net_curves(m, cfg.box, layers)):
        for c in curves:
            canvas.polyline(c, f"{kind}-net")
            n_curves[kind] += 1
    if m.degree in (2, 3):
        for c in sg.boundary_curves(m, cfg.box, cfg.resolution):
            canvas.polyline(c.points, "boundary")
            n_curves["boundary"] += 1
    else:
        print("portrait: the singular net and the boundary are left out: "
              "they need a metric of degree 2 or 3", file=sys.stderr)
    icfg = cfg.integrator()
    for x, y, p in seeds:
        trace = fl.integrate(m, fl.PTMPoint(x, y, p), icfg)
        canvas.polyline(np.column_stack([trace.x, trace.y]), "geodesic")
        n_curves["geodesic"] += 1
    path = os.path.join(outdir, f"{cfg.out_prefix}_portrait.svg")
    _write(path, canvas.render(cfg.out_prefix))
    summary = " ".join(f"{k}={n_curves[k]}" for k in sorted(n_curves)) or "empty"
    print(f"portrait: wrote {path} ({summary})")
    return 0


_SERIES_HEADER = ["order", "slot", "linear_coeff", "forcing", "value", "status"]


def _series_columns(sol: px.GeodesicSeries) -> list:
    """The CSV columns of a series solve (_SERIES_HEADER)."""
    def text(v):
        return "" if v is None else str(v)

    # row i of each column is entry i of its table
    rows = np.arange(len(sol.rows))
    fields = ("index", "slot", "linear_coeff", "forcing", "value", "status")
    return [(rows, [text(getattr(r, f)) for r in sol.rows]) for f in fields]


def cmd_puiseux(cfg: ScenarioConfig, outdir: str) -> int:
    alm = None
    if cfg.mode == "berwald-moor":
        alm = cfg.adapted_chart()
        m = bm.full_metric(alm)
    else:
        m = cfg.metric_obj()
        if not cfg.series_seed:
            print("puiseux: config needs at least one series_seed entry (index value)",
                  file=sys.stderr)
            return 2
    n = m.degree
    seed = dict(cfg.series_seed)
    free = dict(cfg.series_free)
    members = []
    try:  # the default seed and the family shoot fail as the solve does
        if alm is not None:
            if not seed:
                if cfg.series_order < n:
                    raise ValueError(
                        f"series_order {cfg.series_order} is below the index n = {n} "
                        f"of the default seed; raise series_order or give a series_seed"
                    )
                seed = {n: float(bm.admissible_u(alm)[1])}
            if cfg.alphas and (2 * n - 2) not in free and 2 * n - 2 <= cfg.series_order:
                free[2 * n - 2] = cfg.alphas[0]
        args = {"s": cfg.series_s or n, "seed": seed, "order": cfg.series_order,
                "free": free, "y0": cfg.y0}
        sol = px.solve_geodesic_series(m, **args)
        if alm is not None and cfg.alphas:
            # the first member's solve is the one above where their arguments agree
            members = bm.bm_family_shoot(
                alm, cfg.alphas, y0=cfg.y0, order=max(cfg.series_order, 2 * n),
                cfg=cfg.integrator(), solved=(args, sol),
            )
    except ValueError as err:
        print(f"puiseux: {err}", file=sys.stderr)
        return 2
    table = sol.table()
    print(table)
    if sol.obstructed:
        print(f"puiseux: series is obstructed at order {sol.obstruction_order}")
    txt_path = os.path.join(outdir, f"{cfg.out_prefix}_series.txt")
    _write(txt_path, table + "\n")
    csv_path = os.path.join(outdir, f"{cfg.out_prefix}_series.csv")
    _write_csv(csv_path, _SERIES_HEADER, _series_columns(sol))
    print(f"puiseux: wrote {txt_path} and {csv_path}")
    if members:
        for i, mem in enumerate(members):
            path = os.path.join(outdir, f"{cfg.out_prefix}_family{i:02d}.csv")
            first = np.zeros(len(mem.trace.t), dtype=np.intp)
            _write_csv(path, ["alpha", "eta_sign"] + _TRACE_HEADER,
                       [(first, np.array([mem.alpha])), (first, [str(mem.eta_sign)]),
                        *_trace_columns(mem.trace)])
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
    res = []
    xs, ys = _interior_samples(rng, box, 60)
    for x, y in zip(xs, ys):
        xd = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
        yd = float(rng.uniform(-1.5, 1.5))
        H, H1, H2 = mt.accel_determinants(m, float(x), float(y), xd, yd)
        p = yd / xd
        _, dv, pv = m.fdp_function(float(x), float(y), p)
        lhs1 = xd ** (2 * n - 4) * (n - 1) * dv
        lhs2 = xd ** (2 * n - 2) * (n - 1) * pv
        res.append(abs(H - lhs1) / (1.0 + abs(H) + abs(lhs1)))
        res.append(abs((H2 - p * H1) - lhs2) / (1.0 + abs(H2) + abs(p * H1) + abs(lhs2)))
    return np.max(res), "acceleration system vs slope polynomials at 60 random states"


def _check_degeneracy(m, rng, box):
    """The slope denominator must equal the degeneracy combination of the
    metric polynomial."""
    res = []
    xs, ys = _interior_samples(rng, box, 40)
    for x, y in zip(xs, ys):
        built = poly.degeneracy_poly(mt.coeff_values(m, x, y), m.degree)
        direct = m.table("denom").values_at(x, y)
        size = max(built.size, direct.size)
        a = np.zeros(size)
        b = np.zeros(size)
        a[: built.size] = built
        b[: direct.size] = direct
        scale = 1.0 + np.max(np.abs(a)) + np.max(np.abs(b))
        res.append(np.max(np.abs(a - b)) / scale)
    return np.max(res), "denominator vs degeneracy combination of F at 40 random points"


def _check_disc(m, rng, box):
    """Quadratic discriminant of the denominator against the cubic
    discriminant of the metric (factor -12)."""
    if m.degree != 3:
        return None, "needs a degree-3 metric"
    res = []
    xs, ys = _interior_samples(rng, box, 60)
    for x, y in zip(xs, ys):
        dd = mt.disc_denom(m, float(x), float(y))
        df = mt.disc_metric(m, float(x), float(y))
        sc = mt._ipow(1.0 + mt.metric_scale(m, float(x), float(y)), 4)
        res.append(abs(dd + 12.0 * df) / sc)
    return np.max(res), "denominator discriminant = -12 * metric discriminant"


def _check_singular(m, cfg):
    """At the points that ``singular`` classifies (see singular.py): tr J
    = 0 against |J| at every point that is not Resonant32, and lambda^2
    = T for the largest eigenvalue lambda of J at the pair points."""
    if m.degree != 3:
        return None, "needs a degree-3 metric"
    curves = [
        c for c in sg.singular_curves(m, cfg.box, cfg.resolution)
        if c.label == "singular" and len(c) >= 2
    ]
    if not curves:
        return None, "no singular curve in the box"
    pairs, traces = [], []
    for c in curves:
        for spt in _singular_picks(m, c):
            if spt.kind == sg.RESONANT_32:
                continue
            J = sg.jacobian_at(m, spt.x, spt.y, spt.p)
            traces.append(abs(np.trace(J)) / np.linalg.norm(J))
            if spt.kind in (sg.REAL_PAIR, sg.IMAGINARY_PAIR):
                # an eigensolver of its own, independent of the closed-form spectrum
                lam = max(np.linalg.eigvals(J), key=abs)
                pairs.append(abs(lam * lam - sg._invariant_t(J, spt.p)) / np.sum(J * J))
    if not traces:
        return None, "no classified point off Resonant32 on the singular curves"
    return np.max(pairs + traces), (
        f"tr J = 0 at {len(traces)} points, "
        f"lambda^2 = T at {len(pairs)} classified singular points"
    )


def _check_charts(m, rng, box):
    """The slope-chart field and the dual-chart field must agree as
    direction fields under (x, y, p) -> (y, x, 1/p)."""
    md = m.dual()
    res = []
    xs, ys = _interior_samples(rng, box, 60)
    for x, y in zip(xs, ys):
        p = float(rng.uniform(0.35, 2.2) * rng.choice([-1.0, 1.0]))
        _, dv, pv = m.fdp_function(float(x), float(y), p)
        v1 = np.array([p * dv, dv, -pv / p**2])
        q = 1.0 / p
        _, dvq, pvq = md.fdp_function(float(y), float(x), q)
        v2 = np.array([dvq, q * dvq, pvq])
        cross = np.linalg.norm(np.cross(v1, v2))
        scale = (np.linalg.norm(v1) * np.linalg.norm(v2)) + 1e-30
        res.append(cross / scale)
    return np.max(res), "slope-chart field parallel to the pushed dual-chart field"


def _check_spectra(cfg):
    """Rest point spectra of the rescaled blow-up field against the
    closed forms (n-2)/n and (n-2)/(1-n)."""
    if cfg.mode != "berwald-moor":
        return None, "needs mode = berwald-moor"
    alm = cfg.adapted_chart()
    n = 2 + len(alm.extra)
    res = []
    for which, expect in ((1, (n - 2) / n), (0, (n - 2) / (1 - n)), (2, (n - 2) / (1 - n))):
        got = np.array(bm.blowup_spectrum(alm, y0=cfg.y0, which=which))
        res.append(np.max(np.abs(got - [1.0, expect, 0.0])))
    return np.max(res), "blow-up rest point spectra vs closed forms"


def cmd_verify(cfg: ScenarioConfig, outdir: str) -> int:
    # each check folds its residuals with np.max, which carries a nan
    # through (max(0.0, nan) is 0.0); a residual that is not finite fails.
    # numpy's warnings are off during a check: the residual reports them
    m = cfg.metric_obj()
    rng = np.random.default_rng(20260814)
    checks = [
        ("acceleration-identities", lambda: _check_accel(m, rng, cfg.box)),
        ("degeneracy-combination", lambda: _check_degeneracy(m, rng, cfg.box)),
        ("discriminant-identity", lambda: _check_disc(m, rng, cfg.box)),
        ("singular-identities", lambda: _check_singular(m, cfg)),
        ("chart-consistency", lambda: _check_charts(m, rng, cfg.box)),
        ("blowup-spectra", lambda: _check_spectra(cfg)),
    ]
    failures = 0
    ran = 0
    for name, run in checks:
        try:
            with np.errstate(all="ignore"):
                residual, detail = run()
        except Exception as err:  # report, do not hide
            print(f"FAIL  {name:26s} error: {err}")
            failures += 1
            ran += 1
            continue
        if residual is None:
            print(f"SKIP  {name:26s} ({detail})")
            continue
        ran += 1
        if not math.isfinite(residual):
            print(f"FAIL  {name:26s} residual not finite  ({detail})")
            failures += 1
            continue
        status = "PASS" if residual < VERIFY_TOL else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status}  {name:26s} max residual {residual:.3e}  ({detail})")
    if failures:
        print(f"verify: FAILED ({failures} of {ran} checks)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use; parsing leaves it as
    it is (an ``append`` action copies its default list)."""
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
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as err:
            raise OutputError(err) from err
        # the immersion is probed when a command first builds it
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OutputError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
