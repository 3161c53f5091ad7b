"""Standalone analysis of the degeneracy combination of a real polynomial.

For a polynomial ``phi`` of degree at most ``n`` the combination

    n * phi * phi'' - (n - 1) * phi'**2

is the same expression that yields the slope-degeneracy polynomial of a
polynomial metric function, studied here as an object in its own right.
When ``phi`` splits into real linear factors the combination satisfies an
exact identity,

    n*phi*phi'' - (n-1)*phi'**2
        = -sum_{i<j} (r_i - r_j)**2 * prod_{k != i,j} (p - r_k)**2,

so it is nonpositive on the real line and its real zeros are precisely the
multiple roots of ``phi``.  At a double root the second derivative of the
combination equals ``(2 - n) * phi''(root)**2``.  None of this survives
complex roots: ``p**3 + p`` has real degeneracy zeros that are nowhere
near a multiple root.  Reports therefore label the mixed-root regime
separately instead of asserting the correspondence there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .poly import RealPolynomial, from_roots

__all__ = [
    "RootedPolynomial",
    "degeneracy_poly",
    "spread_form",
    "DoubleRootCheck",
    "CorrespondenceReport",
    "correspondence_report",
]

# Real roots of the degeneracy combination are matched against multiple
# roots of phi within this absolute distance.
MATCH_TOL = 1e-6

# Roots closer than this count as a single multiple root of phi.
ROOT_CLUSTER = 1e-9


@dataclass(frozen=True)
class RootedPolynomial:
    """Monic-by-default polynomial given by its real roots.

    The coefficient expansion is prod(p - roots[i]) * leading; roots may
    repeat, which is the interesting case here.
    """

    roots: np.ndarray = field(default_factory=lambda: np.zeros(2))
    leading: float = 1.0

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.roots, dtype=np.float64))
        if r.ndim != 1 or r.size < 2:
            raise ValueError("need at least two real roots")
        if not np.all(np.isfinite(r)):
            raise ValueError("roots must be finite")
        r = np.sort(r)
        r.flags.writeable = False
        object.__setattr__(self, "roots", r)
        object.__setattr__(self, "leading", float(self.leading))

    @property
    def n(self) -> int:
        return self.roots.size

    def poly(self) -> RealPolynomial:
        return from_roots(self.roots, self.leading)

    def multiple_roots(self, tol: float = ROOT_CLUSTER) -> list[tuple[float, int]]:
        """Clustered roots with multiplicity >= 2, ascending."""
        out: list[tuple[float, int]] = []
        group = [self.roots[0]]
        for r in self.roots[1:]:
            if r - group[-1] <= tol * (1.0 + abs(r)):
                group.append(r)
            else:
                if len(group) > 1:
                    out.append((float(np.mean(group)), len(group)))
                group = [r]
        if len(group) > 1:
            out.append((float(np.mean(group)), len(group)))
        return out

    def all_equal(self, tol: float = ROOT_CLUSTER) -> bool:
        span = float(self.roots[-1] - self.roots[0])
        return span <= tol * (1.0 + float(abs(self.roots[-1])))


def degeneracy_poly(phi: RealPolynomial, n: int) -> RealPolynomial:
    """n*phi*phi'' - (n-1)*phi'**2 as a polynomial.

    ``n`` plays the role of the ambient degree and may exceed deg(phi);
    it must not be smaller.
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


def spread_form(values) -> float:
    """n*sum(a**2) - sum(a)**2, which equals sum_{i<j} (a_i - a_j)**2.

    Nonnegative for any real tuple and zero exactly when all entries
    coincide.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size < 2:
        raise ValueError("need at least two values")
    return float(a.size * np.sum(a * a) - np.sum(a) ** 2)


def pairwise_expansion(rooted: RootedPolynomial) -> RealPolynomial:
    """Exact alternative expansion of the degeneracy combination.

    Returns -sum_{i<j} (r_i - r_j)**2 * prod_{k != i,j} (p - r_k)**2
    scaled by leading**2, equal to degeneracy_poly(rooted.poly(), n).
    """
    r = rooted.roots
    n = r.size
    acc = np.zeros(max(2 * n - 3, 1))
    for i in range(n):
        for j in range(i + 1, n):
            others = np.concatenate([r[:i], r[i + 1 : j], r[j + 1 :]])
            cof = npoly.polyfromroots(others)
            term = (r[i] - r[j]) ** 2 * npoly.polymul(cof, cof)
            acc = npoly.polyadd(acc, term)
    return RealPolynomial(-(rooted.leading**2) * acc)


@dataclass(frozen=True)
class DoubleRootCheck:
    """Second-derivative identity of the combination at a double root."""

    root: float
    second_deriv: float
    expected: float
    ok: bool


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of matching degeneracy zeros against multiple roots.

    ``regime`` is "real-rooted" when every root of phi is real (the only
    regime where the correspondence holds) and "mixed-roots" otherwise,
    in which case ``all_roots_equal`` and ``matched`` stay None and only
    the raw zero sets are reported.
    """

    n: int
    regime: str
    identically_zero: bool
    all_roots_equal: bool | None
    phi_multiple_roots: tuple[tuple[float, int], ...]
    degeneracy_real_roots: tuple[tuple[float, int], ...]
    matched: bool | None
    double_root_checks: tuple[DoubleRootCheck, ...]
    ok: bool


def _double_root_checks(phi: RealPolynomial, delta: RealPolynomial, n: int,
                        phi_mult) -> list[DoubleRootCheck]:
    checks: list[DoubleRootCheck] = []
    if n < 3:
        return checks
    ddelta2 = delta.deriv().deriv()
    dphi2 = phi.deriv().deriv()
    for root, mult in phi_mult:
        if mult != 2:
            continue
        got = float(ddelta2(root))
        want = float((2 - n) * dphi2(root) ** 2)
        # evaluation noise scales with the coefficients, not with the
        # compared values, which can be tiny when roots cluster
        noise = ddelta2.scale() * (1.0 + abs(root)) ** max(ddelta2.degree, 0)
        tol = 1e-8 * max(abs(want), abs(got)) + 1e-9 * (1.0 + noise)
        checks.append(DoubleRootCheck(root, got, want, abs(got - want) <= tol))
    return checks


def correspondence_report(
    poly_in: RootedPolynomial | RealPolynomial,
    n: int | None = None,
) -> CorrespondenceReport:
    """Check the degeneracy-zero / multiple-root correspondence.

    Accepts either a RootedPolynomial (real-rooted by construction) or a
    plain RealPolynomial whose roots are solved numerically; complex
    roots switch the report to the mixed-roots regime where matching is
    not asserted.
    """
    if isinstance(poly_in, RootedPolynomial):
        phi = poly_in.poly()
        nn = poly_in.n if n is None else int(n)
        regime = "real-rooted"
        phi_mult = poly_in.multiple_roots()
        all_equal: bool | None = poly_in.all_equal()
    else:
        phi = poly_in
        if phi.degree < 2:
            raise ValueError("need degree at least two")
        nn = phi.degree if n is None else int(n)
        roots = npoly.polyroots(phi.coeffs)
        radius = float(np.max(np.abs(roots))) if roots.size else 0.0
        if np.all(np.abs(roots.imag) <= 1e-8 * max(radius, 1.0)):
            rooted = RootedPolynomial(roots.real, float(phi.coeffs[-1]))
            phi_mult = rooted.multiple_roots(tol=1e-7)
            all_equal = rooted.all_equal(tol=1e-7)
            regime = "real-rooted"
        else:
            regime = "mixed-roots"
            phi_mult = []
            all_equal = None

    delta = degeneracy_poly(phi, nn)
    d1 = phi.deriv()
    term_scale = (float(nn) * (phi * d1.deriv())).scale() + (d1 * d1).scale() * (nn - 1)
    identically_zero = delta.is_zero(tol=1e-10 * max(term_scale, 1.0))
    delta_roots = [] if identically_zero else delta.real_roots()

    # A tangential zero of the combination rounds into either a close
    # real pair or a conjugate pair, and the latter falls out of the
    # extracted root list.  The forward direction is therefore checked
    # by evaluation, which is immune to that; only extracted real zeros
    # are held against the multiple-root set.
    matched: bool | None
    if regime != "real-rooted":
        matched = None
        ok = True
    elif identically_zero or all_equal:
        matched = bool(identically_zero) == bool(all_equal)
        ok = matched
    else:
        env = 1e-8 * max(term_scale, 1.0)
        forward = all(
            abs(delta(r)) <= env * (1.0 + abs(r)) ** max(delta.degree, 1)
            for r, _ in phi_mult
        )

        def _near_multiple(z: float) -> bool:
            lift0 = (1.0 + abs(z)) ** max(phi.degree, 0)
            lift1 = (1.0 + abs(z)) ** max(d1.degree, 0)
            return (
                abs(phi(z)) <= 1e-7 * (1.0 + phi.scale() * lift0)
                and abs(d1(z)) <= 1e-7 * (1.0 + d1.scale() * lift1)
            )

        backward = all(_near_multiple(z) for z, _ in delta_roots)
        matched = forward and backward
        ok = matched

    checks = _double_root_checks(phi, delta, nn, phi_mult) if regime == "real-rooted" else []
    ok = ok and all(c.ok for c in checks)

    return CorrespondenceReport(
        n=nn,
        regime=regime,
        identically_zero=identically_zero,
        all_roots_equal=all_equal,
        phi_multiple_roots=tuple(phi_mult),
        degeneracy_real_roots=tuple(delta_roots),
        matched=matched,
        double_root_checks=tuple(checks),
        ok=bool(ok),
    )
