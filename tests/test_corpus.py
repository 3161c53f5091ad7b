"""A corpus of random scenario files run through the CLI (finslerflow.cli).

Each config comes from its own ``random.Random(k)`` for a fixed list of
k: a slope polynomial of degree n = 2..4 with a_n = 1, whose other
coefficients are sums of monomials, poles c/(x - x0), c y/(1 + x^2),
constants and the huge or tiny slopes K x with K up to 1e300, on a
random square box.  Beside them runs c1012, a polynomial cubic whose
singular curves fold back inside its box.

``classify``, ``integrate``, ``singular``, ``portrait`` and ``verify``
run twice on every config, through ``cli.main``.  The tests check what
the commands promise for any input: no exception and no RuntimeWarning
escapes, the exit status is 0 or 2 (1 only for a ``verify`` that fails),
an exit of 2 says why in one stderr line, every trace ends with an event
at both ends, and the second run writes the same bytes.  Every CSV file
written is checked byte for byte against the row-by-row references of
tests/helpers.py, on the data recomputed through the library; the huge
coefficients and the poles send inf, nan and values past 1e33 down the
"%.12g" fallback of the column writer.  Two further checks are known to
fail today and are strict expected failures.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from finslerflow import cli
from finslerflow import flow as fl
from finslerflow import metric as mt
from finslerflow import singular as sg

from helpers import csv_bytes, locus_lines, point_line, strata_lines, trace_lines

COMMANDS = ("classify", "integrate", "singular", "portrait", "verify")
CORPUS_SEEDS = tuple(range(1000, 1020))
HUGE = ("1e150", "1e300", "-1e200", "1e-300")


def _coefficient(rng: random.Random) -> str:
    """A sum of one to three terms."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = round(rng.uniform(-3.0, 3.0), 1)
        kind = rng.randrange(5)
        if kind == 0:
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            terms.append(f"{c}" + "".join(
                f"*{v}^{e}" for v, e in (("x", i), ("y", j)) if e
            ))
        elif kind == 1:
            terms.append(f"{c}/(x - {round(rng.uniform(-2.0, 4.0), 2)})")
        elif kind == 2:
            terms.append(f"{c}*y/(1 + x^2)")
        elif kind == 3:
            terms.append(f"{c}")
        else:
            terms.append(f"{rng.choice(HUGE)}*x")
    return " + ".join(f"({t})" for t in terms)


def random_config(k: int) -> str:
    """The text of corpus config ``k``."""
    rng = random.Random(k)
    n = rng.randint(2, 4)
    lines = ["mode = coefficients", f"n = {n}", f"a{n} = 1"]
    lines += [f"a{i} = {_coefficient(rng)}" for i in range(n) if rng.random() < 0.7]
    x0, y0 = round(rng.uniform(-2.0, 1.0), 3), round(rng.uniform(-2.0, 1.0), 3)
    side = round(rng.uniform(0.5, 3.0), 3)
    lines += [
        f"box = {x0} {x0 + side:.3f} {y0} {y0 + side:.3f}",
        f"resolution = {rng.randint(12, 24)}",
        "max_steps = 400",
        f"out_prefix = c{k}",
    ]
    for _ in range(rng.randint(1, 2)):
        x = round(x0 + side * rng.uniform(0.1, 0.9), 3)
        y = round(y0 + side * rng.uniform(0.1, 0.9), 3)
        lines.append(f"seed = {x} {y} {round(rng.uniform(-2.0, 2.0), 2)}")
    return "\n".join(lines) + "\n"


C1012 = """\
mode = coefficients
n = 3
a0 = -1.8*x^2*y^2 + 0.9
a1 = 0.9
a2 = -0.3*x^3*y + 2.7
a3 = 1
box = 0.162 1.183 0.472 1.493
resolution = 24
max_steps = 400
out_prefix = c1012
seed = 0.6 1.0 0.3
"""

CONFIGS = {f"c{k}": random_config(k) for k in CORPUS_SEEDS}
CONFIGS["c1012-literal"] = C1012


def _run(config: Path, command: str, outdir: Path) -> dict:
    """One command through cli.main: its exit status, stdout and stderr,
    an exception that escaped, and the bytes of each file written."""
    out, err = io.StringIO(), io.StringIO()
    outdir.mkdir()
    result = {"error": None, "status": None}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result["status"] = cli.main(
                    [command, "--config", str(config), "--out", str(outdir)]
                )
            except Exception as exc:  # recorded, and a failure of the test
                result["error"] = repr(exc)
    result["stdout"], result["stderr"] = out.getvalue(), err.getvalue()
    result["files"] = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    return result


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """name -> command -> (first run, second run)."""
    base = tmp_path_factory.mktemp("corpus")
    results = {}
    for name, text in CONFIGS.items():
        config = base / f"{name}.cfg"
        config.write_text(text)
        results[name] = {
            command: tuple(
                _run(config, command, base / f"{name}-{command}-{r}") for r in (0, 1)
            )
            for command in COMMANDS
        }
    return results


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_commands_exit_cleanly(runs, name):
    for command in COMMANDS:
        first, second = runs[name][command]
        assert first["error"] is None, (command, first["error"])
        allowed = (0, 1, 2) if command == "verify" else (0, 2)
        assert first["status"] in allowed, (command, first["status"], first["stderr"])
        if first["status"] == 2:
            assert len(first["stderr"].splitlines()) == 1, (command, first["stderr"])
            assert "config error" not in first["stderr"], first["stderr"]
        # a second run writes the same bytes and says the same things
        assert second["status"] == first["status"]
        assert second["files"] == first["files"], command
        assert second["stdout"].replace(f"{name}-{command}-1", f"{name}-{command}-0") == (
            first["stdout"]
        )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_trace_ends_with_an_event(runs, name):
    first, _ = runs[name]["integrate"]
    traces = [f for f in first["files"] if "_trace" in f]
    assert len(traces) == CONFIGS[name].count("seed =")
    for f in traces:
        rows = list(csv.DictReader(io.StringIO(first["files"][f].decode())))
        assert rows[0]["event"] and rows[-1]["event"], f


def reference_csvs(cfg: cli.ScenarioConfig, command: str) -> dict[str, bytes]:
    """The CSV files a command that exits 0 writes, formatted row by row."""
    m = cfg.metric_obj()
    prefix = cfg.out_prefix
    files = {}
    if command == "classify":
        xs = np.linspace(cfg.box[0], cfg.box[1], cfg.resolution)
        ys = np.linspace(cfg.box[2], cfg.box[3], cfg.resolution)
        strata, disc = mt.strata_on_grid(m, *np.meshgrid(xs, ys))
        files[f"{prefix}_strata.csv"] = csv_bytes(
            ["x", "y", "stratum", "disc"], strata_lines(xs, ys, strata, disc)
        )
    elif command == "integrate":
        for k, seed in enumerate(cfg.seeds):
            trace = fl.integrate(m, fl.PTMPoint(*seed), cfg.integrator())
            files[f"{prefix}_trace{k:02d}.csv"] = csv_bytes(cli._TRACE_HEADER, trace_lines(trace))
    elif command == "singular":
        curves = sg.singular_curves(m, cfg.box, cfg.resolution)
        for i, c in enumerate(curves):
            files[f"{prefix}_locus{i:02d}_{c.label}.csv"] = csv_bytes(
                ["x", "y"], locus_lines(c.points.tolist())
            )
        rows = [point_line(*r) for r in cli._singular_point_rows(m, curves)]
        files[f"{prefix}_singular_points.csv"] = csv_bytes(cli._POINT_HEADER, rows)
    return files


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_files_match_row_references(runs, name, tmp_path):
    config = tmp_path / f"{name}.cfg"
    config.write_text(CONFIGS[name])
    cfg = cli.load_config(str(config))
    checked = 0
    for command in ("classify", "integrate", "singular"):
        first, _ = runs[name][command]
        if first["status"] != 0:
            continue
        written = {f: data for f, data in first["files"].items() if f.endswith(".csv")}
        assert written == reference_csvs(cfg, command), command
        checked += len(written)
    assert checked


def test_the_corpus_covers_refusals_and_successes(runs):
    # the corpus is not all easy: some commands refuse a config (degree,
    # degenerate points) and others succeed
    statuses = {
        (command, r[command][0]["status"]) for r in runs.values() for command in COMMANDS
    }
    assert {("classify", 0), ("classify", 2), ("singular", 2), ("portrait", 0),
            ("verify", 0)} <= statuses


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: verify reports 'residual not finite' where a "
    "1e150-1e300 coefficient overflows the float residual, not the identity",
)
def test_verify_fails_only_where_an_identity_fails(runs):
    # the checked identities hold for every metric; their float residuals
    # on the corpus stay far below cli.VERIFY_TOL when they are finite
    failing = {
        name: r["verify"][0]["stdout"]
        for name, r in runs.items()
        if r["verify"][0]["status"] != 0
    }
    assert failing == {}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: find_tangency_failures keeps its last probe "
    "whether or not |T| fell, so rows appear where T never vanishes",
)
def test_no_tangency_failure_is_transversal(runs):
    rows = []
    for name, r in runs.items():
        first, _ = r["singular"]
        for f, data in first["files"].items():
            if f.endswith("_singular_points.csv"):
                rows += [
                    (name, row) for row in csv.DictReader(io.StringIO(data.decode()))
                    if row["kind"] == "TangencyFailure" and row["transversal"] == "True"
                ]
    assert rows == []
