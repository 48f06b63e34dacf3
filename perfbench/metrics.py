"""End-to-end metrics from untraced jobs, per-layer metrics from spans."""

from __future__ import annotations

import math
import resource
import statistics
from collections import Counter

from workloads import BenchmarkError

# "bench" is the benchmark's own code between calls into the program: output
# checks and bookkeeping. geometry never gets a span (see tracer.install).
# The jobs of every workload can reach the first four layers (the certify
# command reaches inner only if the program calls it there, which integrate's
# inlined free-mode solve does not); the jobs of certify_files alone reach the
# others, so their shares are printed, not put in the JSON result.
JSON_SELF_LAYERS = ("bench", "analysis", "dynamics", "inner")
PRINTED_SELF_LAYERS = ("cli", "problem_io", "model")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail(latencies):
    """(value, percentile) of the highest percentile with at least ten solves beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return None, None
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(jobs, setup_s: float, reference_samples) -> tuple[dict, list[str]]:
    solves = [s for j in jobs for s in j.solves]
    latencies = [s.latency_s for s in solves]
    failed = sum(s.failed for s in solves)
    ratios = [s.gap0 / s.gap for s in solves if s.gap > 0 and math.isfinite(s.gap0)]
    wall_s = statistics.median(j.wall_s for j in jobs)
    solve_s_p50 = statistics.median(latencies)
    ref_s = statistics.fmean(reference_samples)
    metrics = {
        "wall_ref": wall_s / ref_s,
        "solve_ref_p50": solve_s_p50 / ref_s,
        "certified_frac": 1.0 - failed / len(solves),
        "gap_digits": math.log10(min(ratios)) if ratios else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    value, pct = tail(latencies)
    gaps = [s.gap for s in solves if math.isfinite(s.gap)]
    exit_codes = Counter(s.exit_code for s in solves if s.exit_code is not None)
    detail = [
        f"jobs = {len(jobs)}, job walls = " + ", ".join(f"{j.wall_s:.3f}" for j in jobs) + " s",
        f"wall_s = {wall_s!r} s",
        f"solve_s_p50 = {solve_s_p50!r} s",
        f"reference sample = {1e3 * ref_s!r} ms (mean of {len(reference_samples)})",
        f"fail_frac = {failed / len(solves)!r} ({failed} of {len(solves)} solves)",
        "solve_s_tail = " + (f"{value!r} s at p{pct:.1f} of {len(solves)} solves"
                             if value is not None else
                             f"n/a: {len(solves)} solves, fewer than 11"),
        "gap_max = " + (f"{max(gaps)!r}" if gaps else "n/a"),
        f"exceptions = {dict(Counter(s.error for s in solves if s.error)) or 'none'}",
        "failed solves = " + (", ".join(sorted({s.label for s in solves if s.failed})) or "none"),
    ]
    if exit_codes:
        detail.append(f"cli exit codes = {dict(sorted(exit_codes.items()))}")
    return metrics, detail


def instance_mix(job) -> list[str]:
    modes = Counter(s.inner_mode for s in job.solves)
    known = [s for s in job.solves if s.kink_pinned is not None]
    pinned = sum(s.kink_pinned for s in known)
    share = pinned / len(known) if known else math.nan
    return [f"instance mix: inner_mode counts = {dict(sorted(modes.items()))}, "
            f"kink-pinned (kink_distance(P, y*) < 0.02) = {pinned} of {len(known)} "
            f"({share:.3f})",
            f"stop_tol share = {sum(s.stop_tol for s in job.solves) / len(job.solves):.3f}, "
            f"steps per job = {sum(s.steps for s in job.solves)}"]


def per_layer(tracer, traced, untraced) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced jobs (per job), the inner probe and set-up."""
    tracer.compute_self_times()
    spans = tracer.spans
    n_jobs = len(traced)
    job_spans = [s for s in spans if s.phase == "job"]
    probe = [s for s in spans if s.phase == "probe" and s.name == "inner.solve_inner"]

    def named(name, pool=job_spans):
        return [s for s in pool if s.name == name]

    def busy(name):
        return sum(s.dur for s in named(name)) / n_jobs

    def mean_ms(name):
        calls = named(name, spans)
        return 1e3 * _ratio(sum(s.dur for s in calls), len(calls))

    # a span whose call raised has no attributes
    integrate = named("dynamics.integrate")
    steps = sum(s.attrs.get("steps", 0) for s in integrate)
    untraced_steps = sum(s.steps for s in untraced[0].solves)
    if steps != untraced_steps * n_jobs:
        raise BenchmarkError(f"traced steps {steps} != untraced {untraced_steps} x {n_jobs}")
    setup = [s for s in spans if s.phase == "setup"]
    metrics = {
        "dynamics.integrate_s": busy("dynamics.integrate"),
        "dynamics.us_per_step": 1e6 * _ratio(sum(s.dur for s in integrate), steps),
        "dynamics.steps": steps / n_jobs,
        "dynamics.stop_tol_frac":
            _ratio(sum(s.attrs.get("stop_tol", False) for s in integrate), len(integrate)),
        "inner.solve_inner_us": 1e6 * _ratio(sum(s.dur for s in probe), len(probe)),
        "analysis.oracle_s": busy("analysis.equilibrium_oracle"),
        "analysis.oracle_calls": len(named("analysis.equilibrium_oracle")) / n_jobs,
        "analysis.certify_s": busy("analysis.certify_envelope"),
        "analysis.envelope_series_s": busy("analysis.envelope_series"),
        "problem_io.load_ms": mean_ms("problem_io.load_problem"),
        "problem_io.dump_ms": mean_ms("problem_io.dump_problem"),
        "model.build_problem_ms": mean_ms("model.build_problem"),
        "random_problems.generate_ms":
            1e3 * _ratio(sum(s.dur for s in named("random_problems.random_problem", setup)),
                         len(named("random_problems.random_problem", setup))),
        "trace.overhead_frac": statistics.median(j.wall_s for j in traced)
        / statistics.median(j.wall_s for j in untraced) - 1.0,
    }
    traced_wall = sum(j.wall_s for j in traced)

    def self_frac(layer):
        return sum(s.self_s for s in job_spans if s.layer == layer) / traced_wall

    for layer in JSON_SELF_LAYERS:
        metrics[f"{layer}.self_frac"] = self_frac(layer)

    # Layer figures that some workloads never reach: printed, not in the JSON
    # result, whose metric names must be the same on every workload.
    def line(name, value, unit):
        return f"layer {name} = " + (f"{value!r} {unit}" if value is not None
                                     else "n/a (not reached on this workload)")

    writes = named("dynamics.write_csv")
    rows = sum(s.attrs.get("rows", 0) for s in writes)
    detail = [line("dynamics.write_csv_us_per_row",
                   1e6 * sum(s.dur for s in writes) / rows if rows else None, "us")]
    for mode in ("free", "box_diag", "box_dense"):
        calls = [s for s in probe if s.attrs.get("mode") == mode]
        detail.append(line(f"inner.solve_inner_us.{mode}",
                           1e6 * sum(s.dur for s in calls) / len(calls) if calls else None, "us"))
    dense = [s for s in probe if s.attrs.get("mode") == "box_dense"]
    detail.append(line("inner.pgd_iterations",
                       sum(s.attrs["iterations"] for s in dense) if dense else None, "count"))
    grad_phi = named("inner.grad_phi")
    detail.append(line("inner.grad_phi_us",
                       1e6 * sum(s.dur for s in grad_phi) / len(grad_phi) if grad_phi else None,
                       "us"))
    mains = named("cli.main")
    detail.append(line("cli.main_s", busy("cli.main") if mains else None, "s"))
    detail.append(line("cli.self_s", sum(s.self_s for s in mains) / n_jobs if mains else None,
                       "s"))
    written = sum(s.bytes_written for s in traced[0].solves)
    detail.append(line("cli.bytes_written", written if mains else None, "bytes"))
    for layer in PRINTED_SELF_LAYERS:
        reached = any(s.layer == layer for s in job_spans)
        detail.append(line(f"{layer}.self_frac", self_frac(layer) if reached else None,
                           "fraction"))
    cases = named("casestudy.build_case", setup)
    detail.append(line("casestudy.build_case_ms",
                       1e3 * sum(s.dur for s in cases) / len(cases) if cases else None, "ms"))
    return metrics, detail
