"""One workload in a fresh interpreter: set-up, timed passes, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

run.py starts it with the inputs already written to DIR/inputs.json.
Set-up is timed from before finslerflow is imported.  Times are taken
to the reference speed of the machine by speed.Sampler.  The number of
whole passes is S divided by the workload's nominal pass length, at
least one; it depends on nothing measured, so every run of a workload
attempts the same operations.  The peak RSS is read before the checks
import scipy and sympy.  The result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import shutil
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Nominal seconds of one pass on a 2-vCPU Xeon: at a run length of 20 s
# series runs three passes, geodesics two, locus and portrait one.
NOMINAL_PASS_S = {"geodesics": 8.0, "series": 6.5, "locus": 12.0, "portrait": 40.0}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def unexplained(op, problems: list[str]) -> list[str]:
    """The problems of a checked output that the op's known fault does not
    explain: all of them when the op has none."""
    if op.fault is None:
        return list(problems)
    return [p for p in problems if not op.fault.explains(p)]


def _feed(h, obj) -> None:
    """Hash a result by value: dataclasses, arrays, containers, scalars."""
    import numpy as np

    if is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    else:
        h.update(repr(obj).encode())


def digest(output, outdir: Path) -> str:
    """A CLI command's exit code and files, or a library call's result."""
    h = hashlib.sha256()
    if isinstance(output, dict) and "rc" in output:
        h.update(str(output["rc"]).encode())
        for path in sorted(outdir.rglob("*")):
            h.update(path.relative_to(outdir).as_posix().encode())
            h.update(path.read_bytes())
    else:
        _feed(h, output)
    return h.hexdigest()


def _dirname(op_name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", op_name)


def run_pass(ops, passdir: Path, tracer, sampler) -> dict:
    if tracer is not None:
        tracer.reset()
    outputs, errors, latencies, cpus, scales = {}, {}, [], [], []
    dirs = {}
    for op in ops:
        dirs[op.name] = passdir / _dirname(op.name)
        dirs[op.name].mkdir(parents=True)
    with sampler:
        for op in ops:
            start = time.perf_counter()
            w0, c0 = sampler.clock()
            try:
                outputs[op.name] = op.run(dirs[op.name])
            except Exception as exc:  # a crashing operation is a failed one
                errors[op.name] = f"{type(exc).__name__}: {exc}"
            w1, c1 = sampler.clock()
            latencies.append(w1 - w0)
            cpus.append(c1 - c0)
            scales.append(sampler.scale(start, time.perf_counter()))
    return {
        "wall_s": sum(latencies),
        "latencies": latencies,
        "cpus": cpus,
        "scales": scales,
        "outputs": outputs,
        "errors": errors,
        "digests": {n: digest(outputs[n], dirs[n]) for n in outputs},
        "bytes": sum(p.stat().st_size for p in passdir.rglob("*") if p.is_file()),
        "layers": tracer.metrics() if tracer is not None else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    inputs = json.loads((args.workdir / "inputs.json").read_text())

    import speed

    with speed.Sampler(active=not args.trace) as sampler:
        start = time.perf_counter()
        w0, _ = sampler.clock()
        import workloads

        wl = workloads.build(args.workload, inputs)
        w1, _ = sampler.clock()
    setup_raw_s = w1 - w0
    setup_s = setup_raw_s * sampler.scale(start, time.perf_counter())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    passes = []
    first_dir = args.workdir / "pass0"
    for k in range(pass_count(args.workload, args.seconds)):
        passdir = args.workdir / f"pass{k}"
        p = run_pass(wl.ops, passdir, tracer, speed.Sampler(active=tracer is None))
        if passes:
            p.pop("outputs")
            shutil.rmtree(passdir)
        passes.append(p)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    first = passes[0]
    # A known fault explains only its own problem: a crash, an output the
    # checker cannot read, a difference between passes or any other
    # problem of the checker makes the run incorrect.
    problems = {}
    for op in wl.ops:
        found, unexpected = [], []
        if op.name in first["errors"]:
            unexpected = [first["errors"][op.name]]
        else:
            try:
                found = checks.CHECKERS[op.check](
                    first["outputs"][op.name], first_dir / _dirname(op.name), op.spec)
            except Exception as exc:  # an output the checker cannot read
                unexpected = [f"checker could not read the output: {type(exc).__name__}: {exc}"]
        for k, p in enumerate(passes[1:], start=2):
            if p["digests"].get(op.name) != first["digests"].get(op.name):
                unexpected.append(f"output differs between pass 1 and pass {k}")
        unexpected += unexplained(op, found)
        if found or unexpected:
            problems[op.name] = {
                "fault": op.fault.reason if op.fault else None,
                "problems": found + [p for p in unexpected if p not in found],
                "unexpected": unexpected,
            }

    correct = not any(v["unexpected"] for v in problems.values())
    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "config_s": wl.config_s,
        "build_s": wl.build_s,
        "ops": [op.name for op in wl.ops],
        "passes": [{k: p[k] for k in ("wall_s", "latencies", "cpus", "scales", "bytes",
                                      "layers")}
                   for p in passes],
        "peak_rss_mib": peak_rss_mib,
        "correct": correct,
        "failed_ops": problems,
        "absent": tracer.absent if tracer is not None else [],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
