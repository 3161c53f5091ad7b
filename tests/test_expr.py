"""Expression trees: parsing, differentiation, printing and code
generation, evaluated through the reference tree walk of helpers."""

from __future__ import annotations

import numpy as np
import pytest

from finslerflow import expr as ex
from finslerflow.codegen import LayerTable

from helpers import EvalDomainError, evaluate


def _fd(f, x, y, var, h=1e-6):
    if var == "x":
        return (f(x + h, y) - f(x - h, y)) / (2 * h)
    return (f(x, y + h) - f(x, y - h)) / (2 * h)


SAMPLES = [
    "1 + 2*x",
    "x^2 - 3*x*y + y^2",
    "-(x - y)^3 + 0.5",
    "x*y*(x + y) - 2",
    "(1 + x^2)*(1 - y) + x/4",
    "2*x^4 - y^3/3 + x^2*y^2",
]


def test_parse_evaluate_matches_python():
    rng = np.random.default_rng(42)
    for text in SAMPLES:
        e = ex.parse(text)
        py = eval("lambda x, y: " + text.replace("^", "**"))
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2)
            assert evaluate(e, x, y) == pytest.approx(py(x, y), rel=1e-12, abs=1e-12)


def test_diff_matches_finite_differences():
    rng = np.random.default_rng(7)
    for text in SAMPLES:
        e = ex.parse(text)
        for var in ("x", "y"):
            d = ex.diff(e, var)
            for _ in range(10):
                x, y = rng.uniform(-1.5, 1.5, 2)
                got = evaluate(d, x, y)
                want = _fd(lambda a, b: evaluate(e, a, b), x, y, var)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_to_string_reparses_to_same_values():
    rng = np.random.default_rng(3)
    for text in SAMPLES:
        e = ex.parse(text)
        back = ex.parse(ex.to_string(e))
        for _ in range(10):
            x, y = rng.uniform(-2, 2, 2)
            assert evaluate(back, x, y) == pytest.approx(
                evaluate(e, x, y), rel=1e-13, abs=1e-13
            )


def test_swap_xy_exchanges_arguments():
    e = ex.parse("x^2 - 3*y + x*y^3")
    s = ex.swap_xy(e)
    for x, y in [(0.3, -1.2), (1.1, 0.4), (-0.7, -0.2)]:
        assert evaluate(s, x, y) == pytest.approx(evaluate(e, y, x), rel=1e-14)


def test_syntax_errors_carry_offsets():
    for text, bad in [("x +* 3", 3), ("2 ** x", None), ("(x + 1", None), ("x + @", None)]:
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse(text)


@pytest.mark.parametrize(
    "text, offset", [("1e400*y - x", 0), ("x + 2.5e309", 4), ("-(y^2 + 9e999)", 8)]
)
def test_literal_that_overflows_is_refused(text, offset):
    with pytest.raises(ex.ExprSyntaxError, match="too large") as err:
        ex.parse(text)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, offset",
    [
        ("1e200*1e200*y - x", 0),
        ("x + 1e200*1e200", 4),
        ("-(1e308 + 1e308)", 2),
        ("x - 1e300*1e10/y", 4),
        ("(1e200)^2*y", 0),
        ("0^-1 + x", 0),
    ],
)
def test_constant_folding_to_non_finite_is_refused(text, offset):
    with pytest.raises(ex.ExprSyntaxError, match="not a finite float") as err:
        ex.parse(text)
    assert err.value.offset == offset


def test_constant_folding_that_stays_finite():
    assert ex.parse("1e200*1e-200*x") == ex.parse("1.0*x")
    assert ex.parse("2^3*x + 1/4") == ex.add(ex.mul(ex.const(8.0), ex.X), ex.const(0.25))


def test_division_by_zero_field_raises():
    e = ex.parse("1/(x - y)")
    assert evaluate(e, 2.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        evaluate(e, 1.0, 1.0)


@pytest.mark.parametrize(
    "text, x, expected",
    [
        ("x^3", 1e150, np.inf),
        ("x^3", -1e150, -np.inf),
        ("x^4", -1e150, np.inf),
        ("x^-27", -2e-12, -np.inf),
    ],
)
def test_power_overflow_gives_inf(text, x, expected):
    assert evaluate(ex.parse(text), x, 0.0) == expected


def test_power_pole_still_raises():
    with pytest.raises(EvalDomainError):
        evaluate(ex.parse("x^-3"), 0.0, 1.0)


def test_compiled_program_matches_tree_eval():
    rng = np.random.default_rng(11)
    for text in SAMPLES + ["x/(2 + y^2)", "(x + y)^5"]:
        e = ex.parse(text)
        tbl = LayerTable([e])
        for _ in range(25):
            x, y = rng.uniform(-2, 2, 2)
            got = tbl.values_at(x, y)[0]
            assert got == pytest.approx(evaluate(e, x, y), rel=1e-12, abs=1e-12)


def test_as_expr_accepts_trees_text_and_numbers():
    e = ex.parse("x + 1")
    assert ex.as_expr(e) is e
    assert ex.as_expr("x + 1") == e
    assert ex.as_expr(2.5) == ex.Const(2.5)
    assert ex.as_expr(np.float64(-3)) == ex.Const(-3.0)


class TestPoly2d:
    """Dense coefficient views of polynomial expressions."""

    def test_round_trip_random_tables(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            c = np.round(rng.uniform(-3, 3, (3, 4)), 3)
            e = ex.poly2d_to_expr(c)
            back = ex.expr_to_poly2d(e)
            want = c[: back.shape[0], : back.shape[1]]
            np.testing.assert_allclose(back, want, atol=1e-12)

    def test_extraction_of_parsed_polynomial(self):
        c = ex.expr_to_poly2d(ex.parse("2 - 4*x + x*y^2 - x^2"))
        assert c[0, 0] == pytest.approx(2.0)
        assert c[1, 0] == pytest.approx(-4.0)
        assert c[1, 2] == pytest.approx(1.0)
        assert c[2, 0] == pytest.approx(-1.0)

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError):
            ex.expr_to_poly2d(ex.parse("1/(1 + x)"))

    def test_constant_division_allowed(self):
        c = ex.expr_to_poly2d(ex.parse("(x + y)/2"))
        assert c[1, 0] == pytest.approx(0.5)
        assert c[0, 1] == pytest.approx(0.5)
