"""finslerflow benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload geodesics --seed 1 --seconds 20 --trace 0

Run from the root of a finslerflow checkout; the program is imported
from its src/ directory.  Workloads: geodesics, portrait, locus, series
(see perfbench/README.md).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.

Inputs are drawn from --seed here, then set-up probes and the workload
run each in a fresh interpreter, one after the other: half the probes
before the workload and half after it.  Scratch files live under
.perfbench/ in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process, no extra threads: pin the numeric libraries before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("geodesics", "portrait", "locus", "series")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
                    "peak_rss_mib": "MiB"}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> str:
    import numpy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} "
            f"numba={'present' if importlib.util.find_spec('numba') else 'absent'} "
            f"git={git_sha()}")


def run_worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics: counts of the first pass, medians of times."""
    passes = res["passes"]
    out = {}
    for name, (value, unit) in passes[0]["layers"].items():
        values = [p["layers"][name][0] for p in passes]
        if unit == "count":
            if len(set(values)) > 1:
                print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
            out[name] = {"value": value, "unit": unit}
        else:
            out[name] = {"value": statistics.median(values), "unit": unit}
    out["metric.build_s"] = {"value": res["build_s"], "unit": "s"}
    out["cli.config_s"] = {"value": res["config_s"], "unit": "s"}
    out["cli.bytes_written"] = {"value": float(passes[0]["bytes"]), "unit": "bytes"}
    return out


def scaled(p: dict, key: str) -> list[float]:
    """A pass's per-operation times at the calibration's reference speed."""
    return [t * k for t, k in zip(p[key], p["scales"])]


def median_pass(passes: list[dict], key: str) -> float:
    """One pass's time as the sum over operations of each operation's
    median over the passes.  A burst of load on the shared host slows the
    operations it meets in one pass; the per-operation median drops it
    unless it meets the same operation in most passes."""
    return sum(statistics.median(ts) for ts in zip(*(scaled(p, key) for p in passes)))


def end_to_end_metrics(res: dict, setups: list[float]) -> dict:
    passes = res["passes"]
    latencies = [v for p in passes for v in scaled(p, "latencies")]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": median_pass(passes, "latencies"),
        "cpu_s": median_pass(passes, "cpus"),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="run length: whole passes of the workload's nominal "
                         "length that fit in it, at least one (default 20)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "finslerflow" / "__init__.py").is_file():
        print(f"error: no finslerflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        sys.path.insert(0, str(HERE))
        import inputs

        (workdir / "inputs.json").write_text(json.dumps(inputs.make(args.workload, args.seed)))
        probes = [run_worker(args, workdir, deadline, True)
                  for _ in range(SETUP_PROBES // 2)]
        res = run_worker(args, workdir, deadline, False)
        probes += [run_worker(args, workdir, deadline, True)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass
    probes.append(res)
    setups = [p["setup_s"] for p in probes]

    print(f"env: {environment()}")
    passes = len(res["passes"])
    ops = res["ops"]
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in res["passes"])
    speeds = ", ".join(f"{statistics.median(p['scales']):.3f}" for p in res["passes"])
    raw_setups = ", ".join(f"{p['setup_raw_s']:.3f}" for p in probes)
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} operations "
          f"x {passes} passes, unscaled pass wall {walls} s, median scale {speeds}, "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s "
          f"(unscaled {raw_setups} s)")
    first = res["passes"][0]
    for name, seconds, scale in zip(ops, first["latencies"], first["scales"]):
        print(f"  {1e3 * seconds:10.1f} ms  x {scale:.3f}  {name}")
    for name in res["absent"]:
        print(f"absent layer: {name}")
    for name, info in sorted(res["failed_ops"].items()):
        tag = f"known fault: {info['fault']}" if info["fault"] else "no known fault"
        print(f"failed {name} ({tag})")
        for p in info["problems"][:5]:
            print(f"    {'UNEXPECTED ' if p in info['unexpected'] else ''}{p}")
    metrics = layer_metrics(res) if args.trace else end_to_end_metrics(res, setups)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": len(ops) * passes,
        "failed": len(res["failed_ops"]) * passes,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
