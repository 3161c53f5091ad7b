"""Generated evaluators (codegen.py) against the guarded tree walk.

The tree walk ``helpers.evaluate`` takes integer powers from libm ``pow``
while the generated code multiplies (x**2 and x*x differ by one ulp on
about 0.08% of inputs), so agreement with it is checked to a tolerance.
Grid and pointwise results run the same operations and must be equal.
"""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from finslerflow import berwald_moor as bm
from finslerflow import expr as ex
from finslerflow import metric as mt
from finslerflow.codegen import LayerTable, _div, dopri_step, lifted_field_function

from helpers import (
    EvalDomainError,
    dopri_step_reference,
    evaluate,
    lifted_field_reference,
    random_poly_text,
)

LAYERS = (
    "F", "F_x", "F_y",
    "denom", "denom_x", "denom_y",
    "numer", "numer_x", "numer_y",
)


def _table(texts):
    return LayerTable([ex.parse(t) for t in texts])


def _close(got, want):
    want = np.asarray(want, dtype=float)
    scale = 1.0 + np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-11 * scale)


def test_table_point_matches_tree():
    texts = ["-x", "x*y + 1", "y^2 - x^2", "0.5"]
    tbl = _table(texts)
    rng = np.random.default_rng(0)
    for _ in range(40):
        x, y = rng.uniform(-2, 2, 2)
        got = tbl.values_at(x, y)
        want = [evaluate(ex.parse(t), x, y) for t in texts]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_poly_value_is_horner_sum():
    texts = ["1 - x", "y", "x*y", "2"]
    tbl = _table(texts)
    rng = np.random.default_rng(1)
    for _ in range(40):
        x, y, p = rng.uniform(-1.5, 1.5, 3)
        c = tbl.values_at(x, y)
        acc = 0.0
        for v in c[::-1]:
            acc = acc * p + v
        assert tbl.poly_value(x, y, p) == acc
    # a slope polynomial is its row: the generated Horner sum is
    # npoly.polyval of the row, bit for bit, on the F, denom and numer
    # rows of random metrics and of their duals, at signed zeros, moderate
    # slopes and slopes near 1e6
    for k in range(16):
        m = _random_metric(rng, 2 + k % 4, bool(k // 4 % 2))
        for mm in (m, m.dual()):
            for name in ("F", "denom", "numer"):
                tbl = mm.table(name)
                for x, y in rng.uniform(-1.5, 1.5, (4, 2)):
                    row = tbl.values_at(x, y)
                    big = 1e6 * rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
                    for p in (0.0, -0.0, *rng.uniform(-3.0, 3.0, 2), big):
                        got = tbl.poly_value(x, y, p)
                        want = npoly.polyval(p, row)
                        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_grid_evaluation_matches_pointwise():
    texts = ["x^2 - y", "x + y^3", "1/(x - y^5)", "2"]
    tbl = _table(texts)
    xs, ys = np.meshgrid(np.linspace(-1, 1, 17), np.linspace(-2, 2, 13))
    grid = tbl.values_on_grid(xs, ys)
    assert grid.shape == (4, 13, 17)
    for i in range(13):
        for j in range(17):
            np.testing.assert_array_equal(
                grid[:, i, j], tbl.values_at(xs[i, j], ys[i, j])
            )


def test_integer_powers():
    tbl = _table(["x^5", "y^3", "(x + y)^4", "x^-2", "y^0"])
    got = tbl.values_at(1.2, -0.7)
    np.testing.assert_allclose(
        got, [1.2**5, (-0.7) ** 3, 0.5**4, 1.2**-2, 1.0], rtol=1e-13
    )


def _random_metric(rng, degree: int, rational: bool) -> mt.PseudoFinslerMetric:
    texts = [random_poly_text(rng, int(rng.integers(1, 4))) for _ in range(degree)]
    if rational:
        texts[0] = f"({texts[0]})/(2 + x^2 + {rng.uniform(0.1, 0.9):.3f}*y)"
        texts[1] = f"{texts[1]} + 0.25/(3 - y)^2"
    texts.append(f"{rng.uniform(0.6, 1.8):.6f}")
    return mt.metric_from_strings(degree, texts)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("rational", [False, True])
def test_random_metric_layers_match_tree_eval(degree, rational):
    rng = np.random.default_rng(100 * degree + rational)
    for _ in range(3):
        m = _random_metric(rng, degree, rational)
        pts = rng.uniform(-1.5, 1.5, (12, 3))
        for name in LAYERS:
            tbl = m.table(name)
            exprs = m._expr_layer(name)
            grid = tbl.values_on_grid(pts[:, 0], pts[:, 1])
            for k, (x, y, p) in enumerate(pts):
                got = tbl.values_at(x, y)
                want = [evaluate(e, x, y) for e in exprs]
                _close(got, want)
                _close(tbl.poly_value(x, y, p), sum(w * p**i for i, w in enumerate(want)))
                np.testing.assert_array_equal(grid[:, k], got)
        for x, y, p in pts:
            fused = mt.fdp_values(m, x, y, p)
            assert fused == tuple(
                m.table(name).poly_value(x, y, p) for name in ("F", "denom", "numer")
            )


def _structural_zeros(e, seen) -> list[ex.Expr]:
    """The nodes of e that add a Const 0, or multiply by a Const 0 or 1."""
    if id(e) in seen:
        return []
    seen.add(id(e))
    out = []
    if isinstance(e, (ex.Add, ex.Mul)):
        ones = (0.0, 1.0) if isinstance(e, ex.Mul) else (0.0,)
        if any(isinstance(v, ex.Const) and v.value in ones for v in (e.a, e.b)):
            out.append(e)
    for child in getattr(e, "__dict__", {}).values():
        if isinstance(child, ex.Expr):
            out += _structural_zeros(child, seen)
    return out


def _assert_folded(m, layers):
    for name in layers:
        seen = set()
        for e in m._expr_layer(name):
            assert _structural_zeros(e, seen) == [], name
            if isinstance(e, ex.Const) and e.value == 0.0:
                assert e is ex.ZERO and not math.copysign(1.0, e.value) < 0.0, name


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("rational", [False, True])
def test_derived_layers_fold_structural_zeros(degree, rational):
    rng = np.random.default_rng(100 * degree + rational)
    for _ in range(3):
        # F is the parsed coefficients, kept as written
        _assert_folded(_random_metric(rng, degree, rational), LAYERS[1:])


def test_berwald_moor_metrics_fold_structural_zeros():
    imm = bm.SurfaceImmersion(("x", "y", "y - 2*x^2", "x + y"))
    alm = bm.adapted_from_immersion(bm.SurfaceImmersion(("x", "y", "y - 2*x^2")), 2, 1)
    # their coefficients are expanded products, derived trees as well
    for m in (bm.induced_metric(imm), bm.full_metric(alm)):
        _assert_folded(m, LAYERS)
    assert bm.full_metric(alm).coeffs == (ex.ZERO, ex.Mul(ex.Const(-4.0), ex.X), ex.ONE, ex.ZERO)


def test_pole_gives_inf_or_nan_without_exception():
    tbl = _table(["1/x", "-1/x", "x/x", "x^-2", "y/(x*x)"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tbl.values_at(0.0, 1.0)
        grid = tbl.values_on_grid(np.zeros(3), np.ones(3))
        horner = tbl.poly_value(0.0, 1.0, 0.5)
    assert got[0] == np.inf and got[1] == -np.inf
    assert np.isnan(got[2])
    assert got[3] == np.inf and got[4] == np.inf
    np.testing.assert_array_equal(grid, np.repeat(got[:, None], 3, axis=1))
    assert np.isnan(horner)
    with pytest.raises(EvalDomainError):
        evaluate(ex.parse("1/x"), 0.0, 1.0)


@pytest.mark.parametrize(
    "x, expected", [(1e150, np.inf), (-1e150, -np.inf)]
)
def test_power_overflow_gives_inf(x, expected):
    tbl = _table(["x^3", "x^4"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tbl.values_at(x, 0.0)
        grid = tbl.values_on_grid(np.array([x]), np.array([0.0]))
        horner = _table(["x^3"]).poly_value(x, 0.0, 0.7)
    assert got[0] == expected and got[1] == np.inf
    np.testing.assert_array_equal(grid[:, 0], got)
    assert horner == expected


def test_common_subexpressions_computed_once():
    e = ex.parse("(x*y + 1)^2")
    tbl = LayerTable([e, ex.add(e, ex.parse("x*y"))])
    # x*y, + 1, square, and the final sum
    assert len(tbl._code.lines) == 4
    assert tbl.values_at(2.0, 0.5)[1] == 5.0


def test_exact_identities_keep_signed_zero_inf_and_nan():
    tbl = _table(["x*1", "x/1", "x - 0", "x + 0", "0*x"])
    # x*1, x/1 and x + (-0.0) are x itself; x + 0.0 and 0*x are computed
    assert len(tbl._code.lines) == 2
    xs = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5])
    grid = tbl.values_on_grid(xs, np.zeros_like(xs))
    for k, x in enumerate(xs):
        with np.errstate(invalid="ignore"):
            want = np.array([x * 1.0, x / 1.0, x + -0.0, x + 0.0, 0.0 * x])
        for got in (tbl.values_at(x, 0.0), grid[:, k]):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "texts",
    [
        ["x*y - 0.3*y^2 + 0.5*x", "0.4*x - 0.2*y", "1 + 0.1*x*y", "0.2*x"],
        ["1/(x - 2) + y^3", "x^4", "-y", "x*y^2", "0.5"],
        # C_p of a one-coefficient layer is the constant 0.0, assigned to its row
        ["-1"],
        ["-1", "0", "1"],
    ],
)
def test_lifted_field_matches_scalar_horner(texts):
    layer = [ex.parse(t) for t in texts]
    tables = [LayerTable(ex.diff(e, v) for e in layer) for v in "xy"]
    field = lifted_field_function(layer, tables[0].exprs, tables[1].exprs)
    rng = np.random.default_rng(4)
    x, y, p = rng.uniform(-1.5, 1.5, (3, 200))
    got = field(x, y, p, np.empty((3, x.size)))
    c = LayerTable(layer)
    for k in range(x.size):
        want = lifted_field_reference(
            c.values_at(x[k], y[k]),
            tables[0].values_at(x[k], y[k]),
            tables[1].values_at(x[k], y[k]),
            p[k],
        )
        np.testing.assert_array_equal(got[:, k], want)


def _bits(values) -> list[bytes]:
    # every nan alike: the sign a nan gets depends on which of the
    # interpreter's float paths (generic or specialized) computed it
    return [struct.pack("<d", v) if v == v else b"nan" for v in values]


def _smooth(u):
    d = len(u)
    return tuple(u[i] * u[(i + 1) % d] - 0.7 * u[i - 1] + 0.1 * i for i in range(d))


def _pole(u):
    # inf or nan wherever a stage crosses u_0 = 0.25
    return tuple(_div(1.0 + i, u[0] - 0.25) for i in range(len(u)))


def _non_finite(u):
    return tuple((math.inf, -math.inf, math.nan, 1.0)[: len(u)])


@pytest.mark.parametrize("d", [3, 4])
def test_dopri_step_matches_loop_reference(d):
    """The generated step gives the loop reference's bits: the 5th-order
    solution (the last stage's argument itself), its rhs and the error
    norm, also on signed zeros, inf, nan, a rhs that leaves the floats
    and an error whose square overflows."""
    step = dopri_step(d)
    assert dopri_step(d) is step
    rng = np.random.default_rng(30 + d)
    cases = []
    for _ in range(40):
        u = tuple(rng.normal(size=d).tolist())
        cases.append((_smooth, u, float(rng.uniform(1e-4, 0.05)), 1e-10, 1e-12))
    special = [
        (-0.0,) * d,
        (0.0, -0.0) + (1.0,) * (d - 2),
        (math.inf,) + (0.5,) * (d - 1),
        (0.5, math.nan) + (-0.0,) * (d - 2),
        (0.24,) + (1e300,) * (d - 1),
    ]
    for u in special:
        for rhs in (_smooth, _pole, _non_finite):
            cases.append((rhs, u, 0.05, 1e-10, 1e-12))
    # tiny tolerances: (e / sc)**2 overflows and the norm is inf
    cases.append((_smooth, (1.0,) * d, 0.05, 1e-300, 1e-300))
    for rhs, u, h, rel_tol, abs_tol in cases:
        args = []

        def seen(v, rhs=rhs):
            args.append(v)
            return rhs(v)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step(seen, u, rhs(u), h, rel_tol, abs_tol)
        assert len(args) == 6 and got[0] is args[-1]
        want = dopri_step_reference(rhs, u, rhs(u), h, rel_tol, abs_tol)
        assert _bits(got[0]) == _bits(want[0])
        assert _bits(got[1]) == _bits(want[1])
        assert _bits([got[2]]) == _bits([want[2]])
    assert step(_smooth, (1.0,) * d, _smooth((1.0,) * d), 0.05, 1e-300, 1e-300)[2] == math.inf
