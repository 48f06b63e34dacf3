#!/usr/bin/env python3
"""ppdgd benchmark: time to a certified solve, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload random_campaign --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src``. The run sets up the
workload's inputs nine times, then repeats the workload's job until
``--seconds`` are spent, checking every output. With ``--trace 0`` it prints
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it spends half
the time untraced and then repeats as many jobs with spans around the calls
into each ppdgd module, and prints the per-layer metrics. Human-readable
lines come first; the last line of standard output is the JSON result. Result
records and spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 9
# numpy is imported before the clock starts: its import (loading OpenBLAS and
# starting its threads) took 0.14 to 0.28 s from one fresh interpreter to the
# next within a run, against 0.05 to 0.07 s for ppdgd's own import after it
IMPORT_PROBE = ("import time; import numpy; t = time.perf_counter(); import ppdgd; "
                "print(time.perf_counter() - t); print(ppdgd.__file__)")
# setup_s is given in seconds at this reference speed: about one reference
# sample on a 2-core x86-64 machine (3.4 to 4.3 ms)
REF_NOMINAL_S = 4e-3


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ppdgd from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ppdgd" / "__init__.py").is_file():
        raise ProgramMissing(f"no ppdgd package under {src}")
    sys.path.insert(0, str(src))
    import ppdgd
    if Path(ppdgd.__file__).resolve().parent != (src / "ppdgd").resolve():
        raise ProgramMissing(f"ppdgd was imported from {ppdgd.__file__}, not from {src}")
    return ppdgd


def time_import() -> float:
    """Time of `import ppdgd` in a fresh interpreter that has imported numpy."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed, where = done.stdout.split("\n")[:2]
    if not Path(where).resolve().is_relative_to(ROOT / "src"):
        raise ProgramMissing(f"the import probe loaded ppdgd from {where}")
    return float(elapsed)


def environment(seed: int) -> dict:
    from importlib import metadata

    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
        "platform": platform.platform(),
    }


def run_probe(job) -> None:
    """solve_inner on a fixed subsample of each trajectory's recorded multipliers."""
    from ppdgd import inner

    for s in job.solves:
        if s.probe is not None:
            P, lams = s.probe
            for lam in lams:
                inner.solve_inner(P, lam)


def check_names(spec: dict, metrics: dict, trace: bool) -> None:
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(expected) != sorted(metrics):
        raise SystemExit(f"benchmark bug: emitted metrics {sorted(metrics)} "
                         f"differ from BENCHMARK.json {sorted(expected)}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_program()
        time_import()
    except (ProgramMissing, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    import metrics as measure
    import tracer as tracing
    import workloads

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    env = environment(args.seed)
    jobs: list = []
    try:
        inputs, setup_times, setup_refs = workloads.run_setups(
            workload, args.seed, work, SETUP_REPEATS, time_import)
        budget = args.seconds / 2 if args.trace else args.seconds
        reference = workloads.Reference()
        untraced = workloads.run_jobs(workload, inputs, work / "untraced", reference, budget)
        jobs += untraced
        workloads.check_repeats(untraced)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            tracer.patch(reference, "sample", "ref.sample")
            try:
                with tracer.span("bench.setup"):
                    traced_inputs = workload.setup(args.seed, work / "traced" / "inputs")
                tracer.phase = "job"
                traced = []
                for k in range(len(untraced)):
                    with tracer.span("bench.job"):
                        traced.append(workloads.run_job(workload, traced_inputs,
                                                        work / "traced" / f"job{k}", reference))
                tracer.phase = "probe"
                run_probe(traced[0])
            finally:
                tracer.restore()
            jobs += traced
            workloads.check_repeats(untraced + traced)
            metrics, detail = measure.per_layer(tracer, traced, untraced)
            spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.json"
            spans_path.write_text(json.dumps(
                {"environment": env, "spans": [s.as_dict() for s in tracer.spans]}),
                encoding="utf-8")
            detail.append(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            setup_raw_s = statistics.median(setup_times)
            setup_ref_s = statistics.median(setup_refs)
            setup_s = setup_raw_s * REF_NOMINAL_S / setup_ref_s
            metrics, detail = measure.end_to_end(untraced, setup_s, reference.samples)
            detail.append(f"setup_s = median set-up {setup_raw_s!r} s x nominal reference "
                          f"{1e3 * REF_NOMINAL_S} ms / median set-up reference sample "
                          f"{1e3 * setup_ref_s!r} ms; set-ups (import + inputs) = "
                          + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
        detail += measure.instance_mix(untraced[0])
    except workloads.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        n = sum(len(j.solves) for j in jobs)
        print(json.dumps({"correct": False, "attempted": max(n, 1), "failed": n, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_names(spec, metrics, bool(args.trace))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    solves = [s for j in jobs for s in j.solves]
    result = {
        "correct": True,
        "attempted": len(solves),
        "failed": sum(s.failed for s in solves),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    timings = {"reference_samples_s": reference.samples, "jobs": [{"wall_s": j.wall_s,
                         "solves": [{"label": s.label, "latency_s": s.latency_s,
                                     "failed": s.failed} for s in j.solves]}
                        for j in jobs]}
    record.write_text(json.dumps({"environment": env, "detail": detail, **result, **timings},
                                 indent=1), encoding="utf-8")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in detail:
        print(line)
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
