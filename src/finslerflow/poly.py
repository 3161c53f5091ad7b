"""Univariate real polynomials with ascending coefficients.

Thin wrapper around numpy.polynomial plus the root-extraction pipeline
used throughout the package, on stacks of polynomials: companion-matrix
eigenvalues (one eigvals call per degree), a relative cutoff on
imaginary parts, one Newton polish step, and clustering of nearby roots
into multiplicities.  Also the degeneracy combination of a
slope polynomial and the discriminants and resultants of the strata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

IMAG_CUTOFF_REL = 1e-8
CLUSTER_RADIUS = 1e-6


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial sum(coeffs[i] * p**i); trailing zeros are trimmed."""

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree of the trimmed polynomial; -1 for the zero polynomial."""
        if self.coeffs.size == 1 and self.coeffs[0] == 0.0:
            return -1
        return self.coeffs.size - 1

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def __call__(self, p):
        return npoly.polyval(p, self.coeffs)

    def deriv(self) -> "RealPolynomial":
        return RealPolynomial(npoly.polyder(self.coeffs))

    def __add__(self, other: "RealPolynomial") -> "RealPolynomial":
        return RealPolynomial(npoly.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "RealPolynomial") -> "RealPolynomial":
        return RealPolynomial(npoly.polysub(self.coeffs, other.coeffs))

    def __mul__(self, other) -> "RealPolynomial":
        if isinstance(other, RealPolynomial):
            return RealPolynomial(npoly.polymul(self.coeffs, other.coeffs))
        return RealPolynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def real_roots(self) -> list[tuple[float, int]]:
        """Real roots with multiplicities, ascending (see real_roots_many)."""
        return real_roots_many(self.coeffs[None])[0]


def real_roots_many(C) -> list[list[tuple[float, int]]]:
    """Real roots with multiplicities, ascending, of each row of C.

    Row k holds the ascending coefficients of one polynomial; trailing
    zeros are trimmed.  Rows of one trimmed degree d >= 2 share one
    ``np.linalg.eigvals`` call on their stacked companion matrices (each
    the matrix ``npoly.polycompanion`` builds, its eigenvalues sorted as
    ``npoly.polyroots`` sorts them); a degree-1 row has the root -c0/c1.
    Eigenvalues whose imaginary part exceeds the relative cutoff are
    discarded; surviving roots get one Newton polish step (skipped where
    the derivative is tiny, i.e. at multiple roots) and are then
    clustered into multiplicities.  A row of degree below 1, with a
    non-finite coefficient or with a coefficient quotient c_i/c_d that
    overflows has no roots.
    """
    C = np.asarray(C, dtype=np.float64)
    out: list[list[tuple[float, int]]] = [[] for _ in range(len(C))]
    # the last nonzero index, -1 for a zero row
    deg = ((C != 0) * np.arange(1, C.shape[1] + 1)).max(axis=1) - 1
    deg[~np.isfinite(C).all(axis=1)] = -1
    with np.errstate(all="ignore"):
        for d in sorted(set(deg.tolist()) - {-1, 0}):
            rows = np.flatnonzero(deg == d)
            c = C[rows, : d + 1]
            q = c[:, :-1] / c[:, -1:]
            # a quotient that overflows would make eigvals raise for the stack
            fit = np.isfinite(q).all(axis=1)
            rows, c, q = rows[fit], c[fit], q[fit]
            if d == 1:
                roots = (-q).astype(np.complex128)
            else:
                mats = np.zeros((len(rows), d, d))
                mats.reshape(len(rows), d * d)[:, d :: d + 1] = 1
                mats[:, :, -1] -= q
                roots = np.sort(np.linalg.eigvals(mats), axis=1)
            cutoff = IMAG_CUTOFF_REL * np.abs(roots).max(axis=1)
            real = np.abs(roots.imag) <= cutoff[:, None]
            if not real.any():
                continue
            r = roots.real
            value = _horner(c, r)
            slope = _horner(c[:, 1:] * np.arange(1, d + 1), r)
            scale = np.maximum(np.abs(c).max(axis=1), 1.0)
            r = np.where(np.abs(slope) > 1e-12 * scale[:, None], r - value / slope, r)
            for k, rk, keep in zip(rows.tolist(), r.tolist(), real.tolist()):
                polished = sorted(v for v, kept in zip(rk, keep) if kept)
                if polished:
                    out[k] = _clusters(polished)
    return out


def _horner(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row k of c, ascending, at each r[k, j], by the operations of
    npoly.polyval: c[-1] + r*0 first, then c[i] + acc*r.  Called under
    np.errstate: an overflow gives inf silently."""
    acc = c[:, -1:] + r * 0
    for i in range(c.shape[1] - 2, -1, -1):
        acc = c[:, i : i + 1] + acc * r
    return acc


def _clusters(polished: list[float]) -> list[tuple[float, int]]:
    """Sorted roots closer than CLUSTER_RADIUS to their predecessor joined
    into (np.mean of the group, count)."""
    clusters: list[tuple[float, int]] = []
    group = [polished[0]]
    for r in polished[1:]:
        if r - group[-1] <= CLUSTER_RADIUS:
            group.append(r)
        else:
            clusters.append(_mean(group))
            group = [r]
    clusters.append(_mean(group))
    return clusters


def _mean(group: list[float]) -> tuple[float, int]:
    # np.mean sums from 0.0, so the mean of one root r is 0.0 + r
    # (-0.0 becomes 0.0)
    return (0.0 + group[0] if len(group) == 1 else float(np.mean(group))), len(group)


def from_roots(roots, leading: float = 1.0) -> RealPolynomial:
    return RealPolynomial(npoly.polyfromroots(roots) * float(leading))


def degeneracy_poly(phi: RealPolynomial, n: int) -> RealPolynomial:
    """n*phi*phi'' - (n-1)*phi'**2 as a polynomial.

    For the slope polynomial phi of a metric of degree n this is the
    denominator of the geodesic field; its common zeros with phi are the
    double isotropic directions.  ``n`` plays the role of the ambient
    degree and may exceed deg(phi); it must not be smaller.
    """
    if n < 2:
        raise ValueError("ambient degree must be at least 2")
    if phi.degree > n:
        raise ValueError("polynomial degree exceeds the ambient degree")
    d1 = phi.deriv()
    d2 = d1.deriv()
    combo = float(n) * (phi * d2) - float(n - 1) * (d1 * d1)
    # the top coefficients cancel exactly for deg(phi) <= n; drop their
    # rounding residue, which otherwise plants spurious far-away roots
    return RealPolynomial(combo.coeffs[: max(2 * n - 3, 1)])


def disc_quadratic(c):
    """Discriminant c1^2 - 4*c2*c0 of c0 + c1 p + c2 p^2.

    The c[k] are floats or arrays of one shape; powers are written as
    products, so a point gives the same bits either way.
    """
    c0, c1, c2 = c[:3]
    return c1 * c1 - 4.0 * c2 * c0


def disc_cubic(c):
    """Discriminant of c0 + c1 p + c2 p^2 + c3 p^3 (c3 = 0 allowed), on
    floats or arrays as disc_quadratic."""
    c0, c1, c2, c3 = c[:4]
    return (
        18.0 * c3 * c2 * c1 * c0
        - 4.0 * (c2 * c2 * c2) * c0
        + (c2 * c2) * (c1 * c1)
        - 4.0 * c3 * (c1 * c1 * c1)
        - 27.0 * (c3 * c3) * (c0 * c0)
    )


def resultant_grid(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Resultants of coefficient stacks, fc of shape (m+1, ...) and gc of
    shape (n+1, ...), ascending: Sylvester determinants at the nominal
    degrees m and n, so families whose leading coefficient vanishes at
    isolated points stay continuous."""
    m = fc.shape[0] - 1
    n = gc.shape[0] - 1
    shape = fc.shape[1:]
    size = m + n
    mats = np.zeros(shape + (size, size))
    for i in range(n):
        for j in range(m + 1):
            mats[..., i, i + m - j] = fc[j]
    for i in range(m):
        for j in range(n + 1):
            mats[..., n + i, i + n - j] = gc[j]
    return np.linalg.det(mats)
