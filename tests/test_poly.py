"""Dense real polynomials: roots, discriminants, resultants."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from finslerflow import poly

from helpers import real_roots_reference, resultant, sylvester


def test_trimming_and_degree():
    q = poly.RealPolynomial([1.0, 2.0, 0.0, 0.0])
    assert q.degree == 1
    assert poly.RealPolynomial([0.0, 0.0]).degree == -1
    assert poly.RealPolynomial([0.0]).is_zero()


def test_call_and_deriv():
    q = poly.RealPolynomial([1.0, -2.0, 3.0])
    assert q(2.0) == pytest.approx(1 - 4 + 12)
    d = q.deriv()
    np.testing.assert_allclose(d.coeffs, [-2.0, 6.0])


def test_arithmetic():
    a = poly.RealPolynomial([1.0, 1.0])
    b = poly.RealPolynomial([-1.0, 1.0])
    np.testing.assert_allclose((a * b).coeffs, [-1.0, 0.0, 1.0])
    np.testing.assert_allclose((a + b).coeffs, [0.0, 2.0])
    np.testing.assert_allclose((a - b).coeffs, [2.0])


def test_real_roots_simple_and_multiplicity():
    q = poly.from_roots([1.0, 1.0, -2.0], leading=3.0)
    roots = q.real_roots()
    assert len(roots) == 2
    (r1, m1), (r2, m2) = sorted(roots)
    assert (r1, m1) == (pytest.approx(-2.0), 1)
    assert (r2, m2) == (pytest.approx(1.0, abs=1e-7), 2)


def test_real_roots_drop_complex_pairs():
    q = poly.RealPolynomial([1.0, 0.0, 1.0])  # p^2 + 1
    assert q.real_roots() == []
    q2 = poly.RealPolynomial([-1.0, 0.0, 0.0, 0.0, 1.0])  # p^4 - 1
    r = sorted(v for v, _ in q2.real_roots())
    np.testing.assert_allclose(r, [-1.0, 1.0], atol=1e-10)


def _random_root_stack(rng, count: int = 600, width: int = 8) -> np.ndarray:
    """Rows of trimmed degree 0-5 padded with trailing zeros: random
    coefficients, double roots, conjugate pairs, small integers and
    all-zero rows."""
    C = np.zeros((count, width))
    for row in C:
        d = int(rng.integers(0, 6))
        kind = int(rng.integers(0, 5))
        if kind == 1 and d >= 2:
            r = rng.normal(size=d - 1)
            c = npoly.polyfromroots(np.append(r, r[0])) * rng.normal()
        elif kind == 2 and d >= 2:
            a, b = rng.normal(size=2)
            pair = [a * a + b * b, -2.0 * a, 1.0]
            c = npoly.polymul(pair, npoly.polyfromroots(rng.normal(size=d - 2)))
        elif kind == 3:
            c = rng.integers(-3, 4, size=d + 1).astype(float)
        elif kind == 4 and d == 0:
            c = [0.0]
        else:
            c = rng.normal(size=d + 1)
        row[: len(c)] = c
    return C


# roots at zero of either sign, double and triple roots
EDGE_ROWS = [
    [0.0, 3.0], [0.0, -2.0], [-0.0, 1.0], [0.0, 0.0, 1.0], [1.0, -2.0, 1.0],
    [0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 1.0], [2.0],
]


def _bits(roots):
    return [(np.float64(r).tobytes(), k) for r, k in roots]


def test_real_roots_many_matches_row_by_row_reference():
    rng = np.random.default_rng(18)
    C = _random_root_stack(rng)
    for k, row in enumerate(EDGE_ROWS):
        C[k * 50, :] = 0.0
        C[k * 50, : len(row)] = row
    got = poly.real_roots_many(C)
    want = [real_roots_reference(c) for c in C]
    assert [_bits(g) for g in got] == [_bits(w) for w in want]
    # every kind of row occurs
    assert sum(not np.any(c) for c in C) > 5
    assert sum(k == 2 for roots in got for _, k in roots) > 20
    degrees = [poly.RealPolynomial(c).degree for c in C]
    assert sum(len(roots) < d for roots, d in zip(got, degrees)) > 50
    # the wrapper of one row is the same pipeline
    assert [_bits(poly.RealPolynomial(c).real_roots()) for c in C[:50]] == [
        _bits(w) for w in want[:50]
    ]


def test_real_roots_many_non_finite_rows_have_no_roots():
    # eigvals raises for a stack with a non-finite companion entry; these
    # rows are dropped first, so their neighbours keep their roots
    rng = np.random.default_rng(19)
    C = _random_root_stack(rng, count=60)
    bad = rng.choice(len(C), 20, replace=False)
    for k, v in zip(bad, [np.nan, np.inf, -np.inf] * 7):
        C[k, rng.integers(0, 3)] = v
    got = poly.real_roots_many(C)
    for k, (c, roots) in enumerate(zip(C, got)):
        if k in bad:
            assert roots == []
        else:
            assert _bits(roots) == _bits(real_roots_reference(c))
    # one row alone, of degree 1 and of degree 2
    assert poly.real_roots_many([[1.0, np.inf]]) == [[]]
    assert poly.real_roots_many([[np.nan, 0.0, 1.0]]) == [[]]
    # c0/c2 overflows, alone and beside a row of the same degree
    assert poly.real_roots_many([[1e300, 0.0, 1e-300]]) == [[]]
    got = poly.real_roots_many([[1e300, 0.0, 1e-300], [-1.0, 0.0, 1.0]])
    assert got == [[], real_roots_reference([-1.0, 0.0, 1.0])]
    assert poly.real_roots_many(np.zeros((0, 3))) == []


def test_disc_quadratic_and_cubic_signs():
    assert poly.disc_quadratic([-1.0, 0.0, 1.0]) > 0
    assert poly.disc_quadratic([1.0, 0.0, 1.0]) < 0
    assert poly.disc_quadratic([0.0, 0.0, 1.0]) == pytest.approx(0.0)
    # (p-1)(p-2)(p-3) has positive discriminant, p^3 - 1 negative
    c3 = np.array([-6.0, 11.0, -6.0, 1.0])
    assert poly.disc_cubic(c3) > 0
    assert poly.disc_cubic([-1.0, 0.0, 0.0, 1.0]) < 0
    assert poly.disc_cubic([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.0)


def test_disc_cubic_standard_formula():
    rng = np.random.default_rng(8)
    for _ in range(60):
        c = rng.uniform(-2, 2, 4)
        c[3] = c[3] + np.sign(c[3]) * 0.5 if c[3] else 1.0
        d, cq, b, a = c[0], c[1], c[2], c[3]
        want = (
            18 * a * b * cq * d
            - 4 * b**3 * d
            + b**2 * cq**2
            - 4 * a * cq**3
            - 27 * a**2 * d**2
        )
        assert poly.disc_cubic(c) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_resultant_vanishes_iff_common_root():
    f = poly.from_roots([1.0, 2.0]).coeffs
    g = poly.from_roots([2.0, 5.0]).coeffs
    assert poly.resultant_grid(f, g) == pytest.approx(0.0, abs=1e-9)
    g2 = poly.from_roots([3.0, 5.0]).coeffs
    assert abs(poly.resultant_grid(f, g2)) > 1e-6


def test_resultant_product_formula():
    rng = np.random.default_rng(13)
    for _ in range(25):
        fr = rng.uniform(-2, 2, 3)
        gr = rng.uniform(-2, 2, 2)
        lf = float(rng.uniform(0.5, 2.0))
        lg = float(rng.uniform(0.5, 2.0))
        f = poly.from_roots(fr, leading=lf)
        g = poly.from_roots(gr, leading=lg)
        want = lf ** len(gr) * lg ** len(fr)
        for a in fr:
            for b in gr:
                want *= a - b
        got = poly.resultant_grid(f.coeffs, g.coeffs)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


def test_sylvester_shape():
    s = sylvester([1.0, 0.0, 1.0], [2.0, 1.0])
    assert s.shape == (3, 3)


def test_resultant_grid_matches_scalar():
    rng = np.random.default_rng(2)
    fc = rng.uniform(-1, 1, (4, 5))
    gc = rng.uniform(-1, 1, (3, 5))
    grid = poly.resultant_grid(fc, gc)
    assert grid.shape == (5,)
    for j in range(5):
        assert grid[j] == resultant(fc[:, j], gc[:, j], 3, 2)
