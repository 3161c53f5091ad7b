"""Self-tests of the checks: each checker accepts an output of the program
and rejects a perturbed copy of it.

    python3 perfbench/selftest.py

Runs the program on the shipped configs (about half a minute, most of it
one portrait), writes under .perfbench/ in the checkout and removes it.
Exits non-zero if a checker fails to reject a perturbed copy or rejects
the original.  For an operation with a known fault, "accepts" means that
the fault explains every problem found, as in a benchmark run.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from finslerflow import metric, puiseux  # noqa: E402


def copy_dir(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def edit_file(path: Path, edit) -> None:
    path.write_text(edit(path.read_text()))


def shifted_curve(base: Path) -> tuple:
    """singular on halfplane: the boundary component moved by 1e-4."""
    out = workloads.run_cli("singular", "halfplane.cfg", base / "singular")
    spec = {"config": "halfplane.cfg", "c": "-x", "alpha": None}
    bad = copy_dir(base / "singular", base / "singular-shifted")
    (path,) = bad.glob("halfplane_locus*_boundary.csv")
    lines = path.read_text().splitlines()
    rows = [f"{float(x) + 1e-4!r},{y}" for x, y in (r.split(",") for r in lines[1:])]
    path.write_text("\n".join(lines[:1] + rows) + "\n")
    return checks.check_singular, (out, base / "singular"), (out, bad), spec


def flipped_stratum(base: Path) -> tuple:
    """classify on halfplane: one cell's stratum flipped."""
    out = workloads.run_cli("classify", "halfplane.cfg", base / "classify")
    bad = copy_dir(base / "classify", base / "classify-flipped")
    edit_file(bad / "halfplane_strata.csv",
              lambda text: re.sub(r"MPlus|MMinus", lambda m: {"MPlus": "MMinus", "MMinus": "MPlus"}[m[0]], text, count=1))
    return (checks.check_classify, (out, base / "classify"), (out, bad),
            {"config": "halfplane.cfg", "c": "-x"})


def off_coefficient(base: Path) -> tuple:
    """a puiseux solve with a6 off by 1/1000."""
    m = metric.metric_from_strings(3, list(workloads.PRODUCT_METRIC))
    sol = puiseux.solve_geodesic_series(m, 3, {3: 2}, 12, free={4: Fraction(3, 7)})
    coeffs = dict(sol.coeffs)
    coeffs[6] += Fraction(1, 1000)
    bad = dataclasses.replace(sol, coeffs=coeffs)
    spec = {"coeffs": list(workloads.PRODUCT_METRIC), "product": True, "s": 3, "order": 12,
            "free": {"4": "3/7"}}
    return checks.check_series, (sol, base), (bad, base), spec


def _unexplained(op):
    """A checker that reports only the problems the op's known fault does
    not explain."""

    def check(out, outdir, spec):
        return worker.unexplained(op, checks.CHECKERS[op.check](out, outdir, spec))

    return check


def moved_tangency(base: Path) -> tuple:
    """singular on parabola (known fault): the TangencyFailure row moved
    along the singular curve by 1e-3 in y."""
    op = workloads.singular_op("parabola.cfg", "y^2 - x", 1.0)
    check = _unexplained(op)
    out = op.run(base / "fault-singular")
    bad = copy_dir(base / "fault-singular", base / "fault-singular-moved")
    path = bad / "parabola_singular_points.csv"
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        row = dict(zip(head, line.split(",")))
        if row["kind"] == "TangencyFailure":
            y = float(row["y"]) + 1e-3
            row["x"], row["y"] = repr(float(checks.singular_curve_x(1.0, y))), repr(y)
            lines[i] = ",".join(row[k] for k in head)
    path.write_text("\n".join(lines) + "\n")
    return check, (out, base / "fault-singular"), (out, bad), op.spec


def missing_trace(base: Path) -> tuple:
    """integrate on berwald_moor_tangency (known fault): one trace file
    removed."""
    op = workloads.bm_integrate_op()
    check = _unexplained(op)
    out = op.run(base / "fault-integrate")
    bad = copy_dir(base / "fault-integrate", base / "fault-integrate-missing")
    sorted(bad.glob("*_trace*.csv"))[-1].unlink()
    return check, (out, base / "fault-integrate"), (out, bad), op.spec


def _portrait(base: Path) -> tuple[dict, dict]:
    if not (base / "portrait").exists():
        workloads.run_cli("portrait", "halfplane.cfg", base / "portrait")
    return {"rc": 0, "stderr": ""}, {"config": "halfplane.cfg", "c": "-x"}


def rotated_segment(base: Path) -> tuple:
    """portrait on halfplane: one isotropic-net segment turned by 30 degrees."""
    out, spec = _portrait(base)
    bad = copy_dir(base / "portrait", base / "portrait-rotated")
    svg = bad / "halfplane_portrait.svg"
    text = svg.read_text()
    match = re.search(r'stroke="#888888"[^>]*d="M ([^"]+)"', text)
    pts = [tuple(map(float, p.split())) for p in match[1].split(" L ")]
    k = len(pts) // 2
    (x0, y0), (x1, y1) = pts[k], pts[k + 1]
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    pts[k + 1] = (x0 + c * (x1 - x0) - s * (y1 - y0), y0 + s * (x1 - x0) + c * (y1 - y0))
    new = " L ".join(f"{x:.3f} {y:.3f}" for x, y in pts)
    svg.write_text(text[: match.start(1)] + new + text[match.end(1):])
    return checks.check_portrait, (out, base / "portrait"), (out, bad), spec


def same_output(out, outdir, spec) -> list[str]:
    """The comparison a run makes between the outputs of its passes."""
    if worker.digest(out, outdir) != worker.digest(out, spec["first"]):
        return ["output differs from the first pass's"]
    return []


def changed_byte(base: Path) -> tuple:
    """portrait on halfplane: one byte of the SVG changed."""
    out, spec = _portrait(base)
    bad = copy_dir(base / "portrait", base / "portrait-byte")
    svg = bad / "halfplane_portrait.svg"
    data = bytearray(svg.read_bytes())
    i = data.index(b"L ") + 2
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    svg.write_bytes(bytes(data))
    return same_output, (out, base / "portrait"), (out, bad), {"first": base / "portrait"}


def dropped_end_event(base: Path) -> tuple:
    """integrate on halfplane: the last sample's stop event removed."""
    out = workloads.run_cli("integrate", "halfplane.cfg", base / "integrate")
    bad = copy_dir(base / "integrate", base / "integrate-dropped")
    path = bad / "halfplane_trace00.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ","
    path.write_text("\n".join(lines) + "\n")
    return (checks.check_cli_integrate, (out, base / "integrate"), (out, bad),
            {"config": "halfplane.cfg", "c": "-x"})


CASES = [shifted_curve, flipped_stratum, off_coefficient, rotated_segment, changed_byte,
         dropped_end_event, moved_tangency, missing_trace]


def main() -> int:
    base = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    base.mkdir(parents=True)
    failures = 0
    try:
        for case in CASES:
            checker, good, bad, spec = case(base)
            accepted = checker(*good, spec)
            rejected = checker(*bad, spec)
            ok = not accepted and bool(rejected)
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {case.__name__:18s} "
                  f"original: {accepted or 'accepted'}; perturbed: {rejected[:1] or 'accepted'}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()  # only when no benchmark run uses it
        except OSError:
            pass
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
