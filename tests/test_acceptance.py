"""End-to-end acceptance checks, one per shipped claim.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the same condition, so the suite doubles as a checklist.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from finslerflow import berwald_moor as bm
from finslerflow import cli, flow
from finslerflow import metric as mt
from finslerflow import poly
from finslerflow import puiseux as pz
from finslerflow import singular as sg
from finslerflow.flow import IntegratorConfig, PTMPoint

from helpers import (
    crop_to_ball,
    halfplane_metric,
    hausdorff_distance,
    parabola_metric,
    quartic_product_metric,
    random_metric,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    print(line)
    assert ok, line


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), abs(got), 1.0)


def test_criterion_01_acceleration_identities():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        n = (2, 3, 4, 5)[k % 4]
        m = random_metric(rng, n)
        for _ in range(20):
            x, y = rng.uniform(-1, 1, 2)
            xd = float(rng.uniform(0.3, 1.6) * rng.choice([-1, 1]))
            yd = float(rng.uniform(-1.6, 1.6))
            H, H1, H2 = mt.accel_determinants(m, x, y, xd, yd)
            p = yd / xd
            _, dv, nv = mt.fdp_values(m, x, y, p)
            worst = max(worst, rel_err(H, xd ** (2 * n - 4) * (n - 1) * dv))
            worst = max(worst, rel_err(H2 - p * H1, xd ** (2 * n - 2) * (n - 1) * nv))
    el = time.perf_counter() - t0
    report(
        1,
        worst < 1e-9 and el < 10.0,
        f"acceleration determinants match slope polynomials on 50 metrics x 20 "
        f"points (max rel err {worst:.2e}, {el:.2f}s)",
    )


def test_criterion_02_discriminant_identity():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = random_metric(rng, 3)
        for _ in range(10):
            x, y = rng.uniform(-1.5, 1.5, 2)
            worst = max(
                worst,
                rel_err(mt.disc_denom(m, x, y), -12.0 * mt.disc_metric(m, x, y)),
            )
    el = time.perf_counter() - t0
    report(
        2,
        worst < 1e-9 and el < 5.0,
        f"denominator discriminant equals -12 x metric discriminant at 1000 "
        f"pairs (max rel err {worst:.2e}, {el:.2f}s)",
    )


def test_criterion_03_exact_degeneracy_expansions():
    cases = [(["0", "1", "0", "1"], [-2.0, 0.0, 6.0]),
             (["1", "0", "6", "0", "1"], [48.0, 0.0, -96.0, 0.0, 48.0])]
    ok = True
    for texts, want in cases:
        n = len(texts) - 1
        built = poly.degeneracy_poly([float(t) for t in texts], n)
        # the denom layer of the metric with these constant coefficients
        layer = mt.metric_from_strings(n, texts).table("denom").values_at(0.3, -0.7)
        ok = ok and list(built) == want and list(layer) == want
    report(
        3,
        ok,
        "degeneracy combination expands coefficient-exact for p^3+p and "
        "p^4+6p^2+1",
    )


def test_criterion_04_closed_form_field():
    rng = np.random.default_rng(104)
    worst = 0.0
    for alpha in (None, 1.0):
        m = halfplane_metric() if alpha is None else parabola_metric(alpha)
        for _ in range(200):
            x, y, p = rng.uniform(-1.2, 1.2, 3)
            if alpha is None:
                c, cx, cy = -x, -1.0, 0.0
            else:
                c, cx, cy = alpha * y * y - x, -1.0, 2.0 * alpha * y
            _, dv, nv = mt.fdp_values(m, x, y, p)
            worst = max(worst, rel_err(dv, 2.0 * (3.0 * c - p * p)))
            worst = max(
                worst, rel_err(nv, 7.0 * cy * p * p + 4.0 * cx * p + 3.0 * c * cy)
            )
    report(
        4,
        worst < 1e-10,
        f"quadratic-family denominator and numerator closed forms agree at "
        f"200 points each (max rel err {worst:.2e})",
    )


def test_criterion_05_singular_curve_geometry():
    # The stated tangency abscissa (47/48)/sqrt(alpha) does not lie at a
    # tangency: the field there is transversal with an opposite real
    # eigenvalue pair.  The actual failure point, confirmed by the
    # eigenvalue degeneration and the curve tangent, is (0, (48 a^3)^-1/4).
    # This check therefore holds the located point against the corrected
    # target and demonstrates transversality at the stated one.
    alpha = 1.0
    m = parabola_metric(alpha)
    curves = sg.singular_curves(m, (-1.5, 1.5, 0.05, 1.5), resolution=260)
    sing = [c for c in curves if c.label == "singular"][0]
    worst_curve = 0.0
    for px, py in sing.points:
        if py < 0.2:
            continue
        want = alpha * py * py - 1.0 / (48.0 * alpha * alpha * py * py)
        worst_curve = max(worst_curve, abs(px - want))
    fails = sg.find_tangency_failures(m, sing)
    ystar = (48.0 * alpha**3) ** -0.25
    loc_ok = len(fails) == 1 and abs(fails[0][0]) < 1e-5 and abs(fails[0][1] - ystar) < 1e-5
    # the located point is a tangency by the report's own test
    loc_ok = loc_ok and not sg.tangency_report(m, *fails[0]).transversal
    sx = (47.0 / 48.0) / np.sqrt(alpha)
    stated = sg.tangency_report(m, sx, 1.0, sg.lift_to_slope(m, sx, 1.0))
    report(
        5,
        worst_curve < 1e-5 and loc_ok and stated.transversal,
        f"singular curve on closed form within {worst_curve:.2e}; tangency "
        f"failure at (0, (48a^3)^-1/4) within 1e-5 [corrected target; the "
        f"stated x=(47/48)/sqrt(a) point is transversal, dot="
        f"{stated.direction_dot:.3f}]",
    )


def test_criterion_06_boundary_spectrum():
    m = halfplane_metric()
    spt = sg.classify_singular(m, 0.0, 0.0, 0.0)
    eigs = np.sort(spt.eigenvalues.real)
    base_ok = np.allclose(eigs, [-6.0, -4.0, 0.0], atol=1e-8) and np.all(
        np.abs(spt.eigenvalues.imag) < 1e-8
    )
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(10):
        cx = float(rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0]))
        cy = float(rng.uniform(-1.5, 1.5))
        cxy = float(rng.uniform(-1.5, 1.5))
        m2 = mt.metric_from_strings(3, [f"{cx}*x + {cy}*y + {cxy}*x*y", "0", "1", "0"])
        lam = sg.classify_singular(m2, 0.0, 0.0, 0.0).eigenvalues
        lam = lam[np.argsort(-np.abs(lam))]
        worst = max(worst, abs(abs(lam[0] / lam[1]) - 1.5))
    report(
        6,
        base_ok and worst < 1e-8,
        f"boundary singular point carries spectrum (-6, -4, 0) and the 3:2 "
        f"ratio persists over 10 perturbations (max ratio err {worst:.2e})",
    )


def test_criterion_07_boundary_family_closed_form():
    m = halfplane_metric()
    t0 = time.perf_counter()
    alphas = [-1.0, -0.5, 0.0, 0.5, 1.0]
    members = flow.shoot_boundary_family(
        m, 0.0, 0.0, 0.0, alphas, cfg=IntegratorConfig(box=(-0.4, 0.4, -0.4, 0.4))
    )
    worst = 0.0
    for mem in members:
        a = mem.alpha
        ps = mem.trace.slope
        mask = (ps * mem.eta_sign > 1e-4) & (np.abs(ps) <= 0.3)
        assert mask.sum() > 20
        p = ps[mask]
        want_x = a * np.abs(p) ** 1.5 + p * p
        want_y = 0.6 * a * p * np.abs(p) ** 1.5 + (2.0 / 3.0) * p**3
        worst = max(worst, np.max(np.abs(mem.trace.x[mask] - want_x)))
        worst = max(worst, np.max(np.abs(mem.trace.y[mask] - want_y)))
    el = time.perf_counter() - t0
    report(
        7,
        worst < 1e-4 and el < 5.0,
        f"one-parameter boundary family matches its fractional-power closed "
        f"form, sup err {worst:.2e} over |slope|<=0.3 ({el:.2f}s)",
    )


def test_criterion_08_tangency_surface_suite():
    imm = bm.SurfaceImmersion(("x", "y", "y - 2*x^2"))
    m = bm.induced_metric(imm)
    rng = np.random.default_rng(108)
    coeff_ok = all(
        list(mt.coeff_values(m, float(x), float(y))) == [0.0, -4.0 * x, 1.0, 0.0]
        for x, y in rng.uniform(-1, 1, (20, 2))
    )
    alm = bm.adapted_from_immersion(imm, 2, 1)
    u_ok = bm.admissible_u(alm) == (0.0, 2.0, 4.0)
    s1 = bm.blowup_spectrum(alm, which=1)
    s0 = bm.blowup_spectrum(alm, which=0)
    s2 = bm.blowup_spectrum(alm, which=2)
    spec_ok = (
        np.allclose(s1, (1.0, 1.0 / 3.0, 0.0), atol=1e-8)
        and np.allclose(s0, (1.0, -0.5, 0.0), atol=1e-8)
        and np.allclose(s2, (1.0, -0.5, 0.0), atol=1e-8)
    )
    quart = quartic_product_metric()
    sol = pz.solve_geodesic_series(quart, s=3, seed={3: 2}, order=14, free={4: 1})
    row6 = next(r for r in sol.rows if r.index == 6)
    series_ok = (
        sol.coeffs[6] == Fraction(-1, 6)
        and row6.linear_coeff == 24
        and row6.forcing == 4
        and all(r.linear_coeff == 12 * (r.index - 4) for r in sol.rows if r.index % 2 == 0)
        and max(r.index for r in sol.rows if r.index % 2 == 0) >= 14
    )
    flat = pz.solve_geodesic_series(quart, s=3, seed={3: 2}, order=14)
    xs, ys = pz.series_to_curve(flat)
    parab_ok = ys.c[6] == 1 and sum(v != 0 for v in ys.c) == 1
    report(
        8,
        coeff_ok and u_ok and spec_ok and series_ok and parab_ok,
        "induced metric p(p-4x) exact; admissible slopes (0, 2, 4); blow-up "
        "spectra (1, 1/3, 0) and (1, -1/2, 0); series family a6 = -1/6 from "
        "24a6 + 4a4^3 = 0 with linear coefficients 12(k-4); a4 = 0 gives y = x^2",
    )


def test_criterion_09_tangent_bundle_equivalence():
    rng = np.random.default_rng(109)
    radius = 0.15
    fold_kinds = {"Cusp", "SingularApproach", "StepUnderflow", "IsotropicCross"}
    worst = 0.0
    arcs = 0
    attempts = 0
    while arcs < 20 and attempts < 400:
        attempts += 1
        m = random_metric(rng, 3)
        x, y, p = rng.uniform(-1.0, 1.0, 3)
        sc = 1.0 + mt.metric_scale(m, x, y)
        f, dv, _ = mt.fdp_values(m, x, y, p)
        if abs(dv) < 0.3 * sc**2:
            continue
        if abs(f) < 0.05 * sc:
            continue
        cfg = IntegratorConfig(box=(x - 0.3, x + 0.3, y - 0.3, y + 0.3))
        try:
            tm = flow.tm_integrate(m, x, y, 1.0, p, cfg)
        except ValueError:
            continue
        ptm = flow.integrate(m, PTMPoint(x, y, p), cfg)
        # keep the regular window around the seed: past a fold or a
        # degeneracy the second-order trace stops while the projectivized
        # one continues onto another branch, so the arcs are comparable
        # only between such events
        i_seed = int(np.argmin(np.abs(ptm.t)))
        lo, hi = 0, len(ptm) - 1
        for e in ptm.events:
            if e.kind in fold_kinds:
                if e.index <= i_seed:
                    lo = max(lo, e.index + 3)
                else:
                    hi = min(hi, e.index - 3)
        if hi - lo < 40:
            continue
        center = np.array([x, y])
        pts = np.column_stack([ptm.x[lo : hi + 1], ptm.y[lo : hi + 1]])
        a = crop_to_ball(pts, center, radius)
        b = crop_to_ball(tm.points(), center, radius)

        def full_chord(arr):
            if len(arr) < 30:
                return False
            ends = np.hypot(*(arr[[0, -1]] - center).T)
            return bool(np.all(ends >= 0.97 * radius))

        if not (full_chord(a) and full_chord(b)):
            continue
        worst = max(worst, hausdorff_distance(a, b))
        arcs += 1
    report(
        9,
        arcs == 20 and worst < 1e-5,
        f"first and second order integrations project onto the same arcs: "
        f"{arcs} arcs, max Hausdorff distance {worst:.2e}",
    )


def test_criterion_10_isotropic_invariance():
    rng = np.random.default_rng(110)
    metrics = [
        halfplane_metric(),
        parabola_metric(1.0),
        parabola_metric(-1.0),
        quartic_product_metric(),
        random_metric(rng, 3),
    ]
    worst = 0.0
    traces = 0
    for m in metrics:
        got = 0
        tries = 0
        while got < 4 and tries < 400:
            tries += 1
            x, y = rng.uniform(-0.9, 0.9, 2)
            dirs = mt.isotropic_directions(m, x, y)
            simple = [d for d in dirs if d.multiplicity == 1 and not d.at_infinity]
            if not simple:
                continue
            d = simple[int(rng.integers(len(simple)))]
            try:
                tr = flow.isotropic_trace(m, PTMPoint(x, y, d.value))
            except ValueError:
                continue
            worst = max(worst, float(np.max(np.abs(tr.F))))
            got += 1
            traces += 1
    report(
        10,
        traces == 20 and worst < 1e-7,
        f"isotropic seeds stay on the zero surface along {traces} traces, "
        f"max |F| = {worst:.2e}",
    )


def _portrait_config(tmp_path, name, body):
    path = tmp_path / f"{name}.cfg"
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_criterion_11_portraits_and_properties(tmp_path):
    scenarios = {
        "halfplane": (
            "mode = coefficients\nn = 3\na0 = -x\na2 = 1\n"
            "box = -1 1 -1 1\nseed = 0.1 0.0 0.8\nseed = -0.5 0.0 0.3\n"
            "out_prefix = halfplane\nresolution = 80\n"
        ),
        "parabola_origin": (
            "mode = coefficients\nn = 3\na0 = y^2 - x\na2 = 1\n"
            "box = -0.5 0.5 -0.5 0.5\nseed = 0.1 0.0 0.6\n"
            "out_prefix = parabola_origin\nresolution = 80\n"
        ),
        "scurve_pos": (
            "mode = coefficients\nn = 3\na0 = y^2 - x\na2 = 1\n"
            "box = -1.5 1.5 0.05 1.5\nseed = 0.5 0.7 0.2\n"
            "out_prefix = scurve_pos\nresolution = 80\n"
        ),
        "scurve_neg": (
            "mode = coefficients\nn = 3\na0 = -y^2 - x\na2 = 1\n"
            "box = -1.5 1.5 0.05 1.5\nseed = -0.5 0.7 0.2\n"
            "out_prefix = scurve_neg\nresolution = 80\n"
        ),
        "tangency": (
            "mode = berwald-moor\nf1 = x\nf2 = y\nf3 = y - 2*x^2\npair = 3 2\n"
            "box = -0.4 0.4 -0.1 0.3\nseed = 0.2 0.05 0.3\n"
            "out_prefix = tangency\nresolution = 60\n"
        ),
    }
    svg_ok = True
    for name, body in scenarios.items():
        rc = cli.main(
            ["portrait", "--config", _portrait_config(tmp_path, name, body),
             "--out", str(tmp_path)]
        )
        data = (tmp_path / f"{name}_portrait.svg").read_bytes()
        svg_ok = svg_ok and rc == 0 and data.startswith(b"<?xml") and b"</svg>" in data

    # cusp events happen exactly where the denominator changes sign
    cusp_ok = True
    cusps_seen = 0
    for m, seed in [
        (halfplane_metric(), (0.1, 0.0, 0.8)),
        (parabola_metric(1.0), (0.3, 0.6, -0.4)),
        (quartic_product_metric(), (0.3, 0.1, 0.5)),
    ]:
        tr = flow.integrate(m, PTMPoint(*seed))
        for e in tr.events:
            if e.kind != "Cusp":
                continue
            cusps_seen += 1
            i = e.index
            lo, hi = max(i - 4, 0), min(i + 4, len(tr) - 1)
            sc = (1.0 + mt.metric_scale(m, tr.x[i], tr.y[i])) ** 2
            cusp_ok = cusp_ok and abs(tr.denom[i]) < 1e-5 * sc
            cusp_ok = cusp_ok and tr.denom[lo] * tr.denom[hi] < 0
    cusp_ok = cusp_ok and cusps_seen >= 2

    # boundary crossings away from the double direction carry no events
    crossing_ok = True
    m = halfplane_metric()
    for p0 in (0.8, -1.1, 1.5):
        tr = flow.integrate(m, PTMPoint(0.1, 0.0, p0))
        flips = np.nonzero(np.diff(np.sign(tr.x)))[0]
        crossings = [i for i in flips if abs(tr.slope[i]) > 0.3]
        crossing_ok = crossing_ok and bool(crossings)
        for e in tr.events:
            crossing_ok = crossing_ok and all(abs(e.index - i) > 5 for i in crossings)

    # the squeezed family stays inside the tongue between its isotropic walls
    alm = bm.adapted_from_immersion(bm.SurfaceImmersion(("x", "y", "y - 2*x^2")), 2, 1)
    members = bm.bm_family_shoot(alm, [-1.0, -0.5, 0.0, 0.5, 1.0], t0=0.15)
    tongue_ok = True
    for mem in members:
        keep = np.abs(mem.trace.x) <= 0.2
        ys = mem.trace.y[keep]
        xs = mem.trace.x[keep]
        tongue_ok = tongue_ok and keep.sum() > 10
        tongue_ok = tongue_ok and bool(np.all(ys >= -1e-6))
        tongue_ok = tongue_ok and bool(np.all(ys <= 2.0 * xs * xs + 1e-6))

    report(
        11,
        svg_ok and cusp_ok and crossing_ok and tongue_ok,
        f"five portraits emitted; cusps sit on denominator sign changes "
        f"({cusps_seen} checked); off-axis boundary crossings are event-free; "
        f"family of {len(members)} members confined to the tongue",
    )
