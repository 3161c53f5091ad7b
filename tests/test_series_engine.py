"""The value-numbered series engine against the tree-walk reference
(tests/helpers.py): every series, coefficient and report row must agree
exactly, and the slope-independent part is computed once per solve."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest

from finslerflow import berwald_moor as bm
from finslerflow import expr as ex
from finslerflow import metric as mt
from finslerflow import puiseux as pz
from finslerflow.puiseux import TruncatedSeries

from helpers import quartic_product_metric, tree_expr_series, tree_geodesic_series

FIELDS = ("coeffs", "rows", "offset", "norm", "residual_order", "obstructed",
          "obstruction_order")
Y_METRICS = [("x*y", "-4*x + y^2", "1", "0"), ("y^2", "-4*x", "1 + y/(1 + x)", "0")]


def random_tree(rng, depth, pool):
    """A random expression built from the node classes themselves (no
    constant folding), reusing earlier subtrees from ``pool``."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.15:
        leaf = rng.choice(["x", "y", "c"])
        if leaf == "c":
            return ex.Const(rng.choice([0.0, 1.0, -2.0, 0.8, 3.5, -0.25]))
        return ex.Var(leaf)
    kind = rng.choice(["+", "*", "/", "-", "^"])
    a = random_tree(rng, depth - 1, pool)
    if kind == "-":
        out = ex.Neg(a)
    elif kind == "^":
        out = ex.Pow(a, rng.choice([-2, -1, 0, 2, 3]))
    else:
        b = random_tree(rng, depth - 1, pool)
        out = {"+": ex.Add, "*": ex.Mul, "/": ex.Div}[kind](a, b)
    pool.append(out)
    return out


def random_series(rng, order, jets=False):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(order + 1)]
    coeffs[0] = Fraction(rng.choice([1, -2, 3]), rng.randint(1, 3))
    if jets:
        coeffs = [pz._Jet(v, Fraction(rng.randint(-2, 2), 3)) for v in coeffs]
    return TruncatedSeries(coeffs)


def outcome(fn, *args):
    try:
        out = fn(*args)
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return out.order, out.c


@pytest.mark.parametrize("jets", [False, True])
def test_random_trees_match_tree_walk(jets):
    rng = random.Random(7 if jets else 5)
    raised = 0
    for _ in range(60):
        e = random_tree(rng, 5, [])
        xs = random_series(rng, rng.randint(2, 6))
        ys = random_series(rng, rng.randint(2, 6), jets)
        want = outcome(tree_expr_series, e, xs, ys)
        assert outcome(pz.evaluate_expr_series, e, xs, ys) == want
        raised += want == "ZeroDivisionError"
    assert raised < 30  # most trees evaluate


def test_operand_order_is_kept():
    # a/b and b/a share operands but not a value
    xs = TruncatedSeries([2, 1, 0, -1, 3])
    ys = TruncatedSeries([-3, Fraction(1, 2), 2, 0, 1])
    for text in ("x/y - y/x", "x^2/(1 + y) + (1 + y)/x^2"):
        e = ex.parse(text)
        assert pz.evaluate_expr_series(e, xs, ys).c == tree_expr_series(e, xs, ys).c


def test_zero_constant_divisor_raises():
    xs = TruncatedSeries.monomial(3, 1, 8)
    ys = TruncatedSeries.constant(1, 8)
    with pytest.raises(ZeroDivisionError):
        pz.evaluate_expr_series(ex.parse("1/x"), xs, ys)
    m = mt.metric_from_strings(3, ["1/x", "-4*x", "1", "0"])
    with pytest.raises(ZeroDivisionError):
        pz.solve_geodesic_series(m, 3, {3: 2}, 12)


def assert_same_solve(m, *args, **kwargs):
    got = pz.solve_geodesic_series(m, *args, **kwargs)
    want = tree_geodesic_series(m, *args, **kwargs)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    return got


@pytest.mark.parametrize("seed,free", [({3: 2}, None), ({3: 2}, {4: Fraction(3, 7)}),
                                       ({3: 5}, None)])
def test_product_metric_solves_match(seed, free):
    assert_same_solve(quartic_product_metric(), 3, seed, 12, free=free)


@pytest.mark.parametrize("comps", [("x", "y", "y - 2*x^2"),
                                   ("x", "y", "y - 2*x^2", "x + y")])
def test_adapted_metric_solves_match(comps):
    alm = bm.adapted_from_immersion(bm.SurfaceImmersion(comps), 2, 1)
    m = bm.full_metric(alm)
    u1 = bm.admissible_u(alm)[1]
    for order, free in ((12, Fraction(1, 3)), (14, Fraction(-2, 5))):
        assert_same_solve(m, alm.n, {alm.n: u1}, order, free={2 * alm.n - 2: free})


def test_y_dependent_metrics_back_to_back():
    # the second metric's trees may reuse the ids of the first one's
    for texts in Y_METRICS:
        m = mt.metric_from_strings(3, list(texts))
        sol = assert_same_solve(m, 3, {3: 2}, 12, free={4: Fraction(3, 7)})
        assert not sol.obstructed
        del m, sol
        gc.collect()


def test_product_solve_counts_series_products(monkeypatch):
    # the coefficient series of F = p(p - 4x) read x only, so each
    # residual multiplies only in its Horner sums and y; the tree walk
    # made 829 products here
    count = [0]
    mul = TruncatedSeries.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    pz.solve_geodesic_series(quartic_product_metric(), 3, {3: 2}, 12)
    assert 0 < count[0] <= 300
