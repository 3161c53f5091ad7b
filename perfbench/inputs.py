"""Seed-drawn inputs of the workloads, made before the program runs.

The random metrics of the geodesics workload have dense quadratic
coefficients a_0..a_(n-1) and a constant leading coefficient.  Their
seed points are accepted only where the reference orbit (reference.py)
stays clear of folds (H = 0), of the isotropic surface and of the chart
switch while it crosses a small box, so that no operation meets an event
other than leaving the box and the checks can compare the whole trace.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

RANDOM_DEGREES = (2, 3, 4, 5)
RADIUS = 0.05
ISO_RADIUS = 0.08
MAX_DRAWS = 100
FREE_VALUES = 10


def _poly_text(rng: random.Random) -> str:
    terms = []
    for i in range(3):
        for j in range(3 - i):
            c = rng.uniform(-1.0, 1.0)
            term = f"{c:.4f}"
            if i:
                term += "*x" if i == 1 else f"*x^{i}"
            if j:
                term += "*y" if j == 1 else f"*y^{j}"
            terms.append(term)
    return " + ".join(terms)


def _metric_texts(rng: random.Random, n: int) -> list[str]:
    lead = rng.uniform(0.6, 1.8) * rng.choice((-1.0, 1.0))
    return [_poly_text(rng) for _ in range(n)] + [f"{lead:.4f}"]


def clear_orbit(el, seed, box, isotropic=False) -> bool:
    """Whether the orbit through ``seed`` crosses ``box`` clear of events.

    Both half-orbits are integrated with scipy's RK45 until they leave
    the box.  False when an orbit stalls or comes near a fold (H = 0),
    F = 0 (unless the seed is isotropic) or |p| > 1.5.
    """
    import reference as ref
    from scipy.integrate import solve_ivp

    x0, y0, p0 = seed
    scale = 1.0 + float(el.scale(x0, y0))
    h0 = float(el.h_at(x0, y0, p0, "p"))
    f0 = float(el.fbar_at(x0, y0, p0, "p"))
    if abs(h0) < 0.1 * scale**2 or (not isotropic and abs(f0) < 0.05 * scale):
        return False
    # the reference field is (n - 1) times the program's, so its time runs
    # n - 1 times slower
    max_step = 0.05 / (el.degree - 1)
    for direction in (1.0, -1.0):
        sol = solve_ivp(lambda t, s: [direction * v for v in el.proj_field(t, s)],
                        (0.0, 20.0), seed, method="RK45", rtol=1e-10, atol=1e-12,
                        max_step=max_step, first_step=1e-4, dense_output=True,
                        events=ref.box_exit_events(box))
        if sol.status != 1:
            return False
        x, y, p = sol.sol(np.linspace(0.0, sol.t[-1], 200))
        sc = 1.0 + el.scale(x, y)
        h = el.h_at(x, y, p, "p")
        f = el.fbar_at(x, y, p, "p")
        if (
            not np.all(np.isfinite(h))
            or np.any(np.abs(p) > 1.5)
            or np.any(h * h0 < 0.02 * sc**2 * abs(h0))
            or (not isotropic and (np.any(f * f0 <= 0.0) or np.any(np.abs(f) < 0.02 * sc)))
        ):
            return False
    return True


def random_metric(rng: random.Random, n: int) -> dict:
    import reference as ref

    for _ in range(MAX_DRAWS):
        texts = _metric_texts(rng, n)
        el = ref.euler_lagrange(tuple(texts))
        for _ in range(12):
            seed = [round(rng.uniform(-0.6, 0.6), 4), round(rng.uniform(-0.6, 0.6), 4),
                    round(rng.uniform(-1.0, 1.0), 4)]
            box = (seed[0] - RADIUS, seed[0] + RADIUS, seed[1] - RADIUS, seed[1] + RADIUS)
            if clear_orbit(el, seed, box):
                return {"degree": n, "coeffs": texts, "seed": seed, "radius": RADIUS}
    raise RuntimeError(f"no clear seed found for a random metric of degree {n}")


def isotropic_seed(rng: random.Random) -> dict:
    """A random cubic and a point of it with a simple isotropic slope."""
    import reference as ref

    for _ in range(MAX_DRAWS):
        texts = _metric_texts(rng, 3)
        el = ref.euler_lagrange(tuple(texts))
        for _ in range(50):
            x0, y0 = round(rng.uniform(-0.6, 0.6), 4), round(rng.uniform(-0.6, 0.6), 4)
            a = el.coeff_values(x0, y0)
            scale = 1.0 + max(abs(v) for v in a)
            for r in np.roots(a[::-1]):
                p = float(r.real)
                if abs(r.imag) > 1e-12 or abs(p) > 1.0:
                    continue
                dfdp = sum(k * a[k] * p ** (k - 1) for k in range(1, len(a)))
                if abs(dfdp) < 0.3 * scale:
                    continue
                seed = [x0, y0, p]
                box = (x0 - ISO_RADIUS, x0 + ISO_RADIUS, y0 - ISO_RADIUS, y0 + ISO_RADIUS)
                if clear_orbit(el, seed, box, isotropic=True):
                    return {"coeffs": texts, "seed": seed, "radius": ISO_RADIUS}
    raise RuntimeError("no isotropic seed found for a random cubic")


def make(workload: str, seed: int) -> dict:
    rng = random.Random(f"finslerflow-bench:{workload}:{seed}")
    if workload == "geodesics":
        with np.errstate(all="ignore"):
            metrics = [random_metric(rng, n) for n in RANDOM_DEGREES]
            isotropic = isotropic_seed(rng)
        return {
            "random_metrics": metrics,
            "isotropic_random": isotropic,
        }
    if workload == "series":
        values = []
        while len(values) < FREE_VALUES:
            v = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
            if v and v not in values:
                values.append(v)
        return {"free_values": [str(v) for v in values]}
    return {}
