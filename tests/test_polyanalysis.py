"""The degeneracy combination n*phi*phi'' - (n-1)*phi'**2 of a slope
polynomial and the correspondence of its real zeros with multiple roots.

When phi splits into real linear factors the combination equals

    -sum_{i<j} (r_i - r_j)**2 * prod_{k != i,j} (p - r_k)**2,

so it is nonpositive on the real line and its real zeros are exactly the
multiple roots of phi; at a double root its second derivative is
(2 - n) * phi''(root)**2.  None of this survives complex roots: p**3 + p
has real degeneracy zeros that are nowhere near a multiple root.
"""

from __future__ import annotations

import numpy as np
import pytest

from finslerflow import metric as mt
from finslerflow import poly

from helpers import pairwise_expansion


def _term_scale(phi: poly.RealPolynomial, n: int) -> float:
    """Size of the two terms of the combination, which cancel at a
    multiple root; the evaluation noise of the combination scales with
    it."""
    d1 = phi.deriv()
    return max((float(n) * (phi * d1.deriv())).scale() + (d1 * d1).scale() * (n - 1), 1.0)


class TestExactExpansions:
    """Hand-expanded reference values for small cases."""

    def test_cubic_with_simple_roots(self):
        # phi = p^3 + p, n = 3: combination is 6*p^2 - 2
        phi = poly.RealPolynomial([0.0, 1.0, 0.0, 1.0])
        got = poly.degeneracy_poly(phi, 3)
        np.testing.assert_allclose(got.coeffs, [-2.0, 0.0, 6.0], atol=1e-13)

    def test_quartic_even(self):
        # phi = p^4 + 6p^2 + 1, n = 4: combination is 48*(p^2 - 1)^2
        phi = poly.RealPolynomial([1.0, 0.0, 6.0, 0.0, 1.0])
        got = poly.degeneracy_poly(phi, 4)
        np.testing.assert_allclose(got.coeffs, [48.0, 0.0, -96.0, 0.0, 48.0], atol=1e-11)

    def test_power_of_binomial_collapses(self):
        # phi = (p + g)^n makes the combination vanish identically
        for n, g in [(3, 0.7), (4, -1.2), (5, 0.3)]:
            phi = poly.from_roots([-g] * n)
            got = poly.degeneracy_poly(phi, n)
            assert got.is_zero(tol=1e-10)

    def test_degree_bound_enforced_exactly(self):
        rng = np.random.default_rng(4)
        for n in (3, 4, 5, 6):
            phi = poly.from_roots(rng.uniform(-2, 2, n), leading=1.7)
            assert poly.degeneracy_poly(phi, n).degree <= 2 * n - 4


class TestPairwiseIdentity:
    """The combination equals minus a sum of squared root differences
    times squared cofactor products; this is the independent oracle."""

    def test_matches_direct_construction(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(2, 7))
            roots = np.sort(rng.uniform(-2, 2, n))
            if rng.uniform() < 0.3 and n >= 3:
                roots[1] = roots[0]
            leading = float(rng.uniform(0.5, 2.0))
            a = poly.degeneracy_poly(poly.from_roots(roots, leading), n)
            b = pairwise_expansion(roots, leading)
            size = max(a.coeffs.size, b.coeffs.size)
            ca, cb = np.zeros(size), np.zeros(size)
            ca[: a.coeffs.size] = a.coeffs
            cb[: b.coeffs.size] = b.coeffs
            scale = 1.0 + np.abs(ca).max() + np.abs(cb).max()
            np.testing.assert_allclose(ca, cb, atol=1e-10 * scale)

    def test_nonpositive_on_reals_for_real_rooted(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            delta = poly.degeneracy_poly(poly.from_roots(rng.uniform(-2, 2, n)), n)
            vals = delta(rng.uniform(-3, 3, 40))
            assert np.all(vals <= 1e-8 * (1.0 + np.abs(vals).max()))


class TestCorrespondence:
    def test_double_root_second_derivative_identity(self):
        # phi = p^2 (p - 4): combination is -32 p^2, second derivative -64
        phi = poly.from_roots([0.0, 0.0, 4.0])
        assert [k for _, k in phi.real_roots()] == [2, 1]
        delta = poly.degeneracy_poly(phi, 3)
        got = delta.deriv().deriv()(0.0)
        want = (2 - 3) * phi.deriv().deriv()(0.0) ** 2
        assert got == pytest.approx(-64.0, rel=1e-10)
        assert want == pytest.approx(-64.0, rel=1e-12)

    def test_distinct_roots_give_no_real_zeros(self):
        phi = poly.from_roots([1.0, 2.0, 3.0])
        assert all(k == 1 for _, k in phi.real_roots())
        assert poly.degeneracy_poly(phi, 3).real_roots() == []

    def test_all_roots_equal_regime(self):
        phi = poly.from_roots([0.7, 0.7, 0.7], 2.0)
        delta = poly.degeneracy_poly(phi, 3)
        assert delta.is_zero(tol=1e-10 * _term_scale(phi, 3))

    def test_mixed_roots_regime_from_coefficients(self):
        # p^3 + p has one simple real root and a conjugate pair, yet its
        # combination 6 p^2 - 2 has two real zeros away from any root
        phi = poly.RealPolynomial([0.0, 1.0, 0.0, 1.0])
        assert phi.real_roots() == [(0.0, 1)]
        zeros = poly.degeneracy_poly(phi, 3).real_roots()
        assert [k for _, k in zeros] == [1, 1]
        np.testing.assert_allclose(
            [z for z, _ in zeros], [-(1 / 3) ** 0.5, (1 / 3) ** 0.5], atol=1e-9
        )

    def test_coefficient_input_with_double_root(self):
        phi = poly.RealPolynomial(poly.from_roots([0.0, 0.0, 4.0]).coeffs)
        (r, k), = [rk for rk in phi.real_roots() if rk[1] > 1]
        assert k == 2 and r == pytest.approx(0.0, abs=1e-9)
        delta = poly.degeneracy_poly(phi, 3)
        assert abs(delta(r)) <= 1e-8 * _term_scale(phi, 3)
        assert all(abs(z - r) <= 1e-6 for z, _ in delta.real_roots())

    def test_random_sweep_separated_or_equal(self):
        rng = np.random.default_rng(20260814)
        for _ in range(500):
            n = int(rng.integers(3, 6))
            while True:
                roots = np.sort(rng.uniform(-2.0, 2.0, n))
                if np.min(np.diff(roots)) > 0.05:
                    break
            multiple = []
            if rng.uniform() < 0.5:
                j = int(rng.integers(0, n - 1))
                roots[j + 1] = roots[j]
                multiple.append(float(roots[j]))
            phi = poly.from_roots(roots, float(rng.uniform(0.5, 2.0)))
            delta = poly.degeneracy_poly(phi, n)
            env = 1e-8 * _term_scale(phi, n)
            # forward, by evaluation: a tangential zero of the combination
            # may round into a conjugate pair and drop out of real_roots
            for r in multiple:
                assert abs(delta(r)) <= env * (1.0 + abs(r)) ** delta.degree, roots
                d2 = delta.deriv().deriv()
                want = (2 - n) * phi.deriv().deriv()(r) ** 2
                noise = d2.scale() * (1.0 + abs(r)) ** max(d2.degree, 0)
                assert d2(r) == pytest.approx(want, rel=1e-8, abs=1e-9 * (1.0 + noise)), roots
            # backward: phi and phi' vanish at every real zero of the
            # combination (a double zero rounds apart by about sqrt(eps),
            # so a distance test would need that slack)
            d1 = phi.deriv()
            for z, _ in delta.real_roots():
                lift = 1.0 + abs(z)
                assert abs(phi(z)) <= 1e-7 * (1.0 + phi.scale() * lift**phi.degree), roots
                assert abs(d1(z)) <= 1e-7 * (1.0 + d1.scale() * lift**d1.degree), roots
                assert multiple, roots

    def test_ambient_degree_validation(self):
        phi = poly.RealPolynomial([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            poly.degeneracy_poly(phi, 2)
        with pytest.raises(ValueError):
            poly.degeneracy_poly(phi, 1)


def test_metric_denominator_is_the_degeneracy_combination():
    m = mt.metric_from_strings(3, ["y*x - 1", "x + 2*y", "1", "x*y"])
    rng = np.random.default_rng(6)
    for _ in range(30):
        x, y = rng.uniform(-1.5, 1.5, 2)
        phi = poly.RealPolynomial(mt.coeff_values(m, x, y))
        built = poly.degeneracy_poly(phi, 3)
        direct = mt.denom_poly(m, x, y)
        size = max(built.coeffs.size, direct.coeffs.size)
        a, b = np.zeros(size), np.zeros(size)
        a[: built.coeffs.size] = built.coeffs
        b[: direct.coeffs.size] = direct.coeffs
        np.testing.assert_allclose(a, b, atol=1e-11 * (1.0 + np.abs(b).max()))
