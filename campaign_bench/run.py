"""Campaign benchmark for entropygap.

Run from the root of a checkout:

    python3 campaign_bench/run.py --workload sweep-2x2 --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
runs the workload's rounds for ``--seconds`` seconds and reports the
end-to-end metrics.  With ``--trace 1`` it runs every round twice, once
plain and once with the layer tracer installed, and reports per-layer call
counts and self times, computed counts and the tracing overhead.  Either way
it checks the outputs (zero violations on C1-C8, no failed sample or job,
every report read back bitwise equal, traced margins equal to plain ones)
and prints one JSON object as the last line of standard output.

End-to-end times are reported for a nominal machine: a fixed reference
kernel is timed between jobs, and each job's time is scaled by how much
slower or faster than nominal that kernel ran around it
(``harness.Reference``).  The raw figures are printed beside them.  See README.md in this directory for
the workloads, the metrics and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import harness
from tracer import CHANNEL_BUILDERS, Tracer, instrument
from workloads import WORKLOADS, round_jobs

HERE = Path(__file__).resolve().parent

# The first rounds always run, whatever --seconds says, and the margin
# digest and the computed counts cover exactly these rounds, so they repeat
# exactly for a seed.
WINDOW_ROUNDS = 8

# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120

GATED_CAMPAIGNS = tuple(f"C{i}" for i in range(1, 9))

# Every workload in BENCHMARK.json reports every end-to-end metric, so the
# per-campaign ones are those of the campaigns that both sweeps run.
SHARED_CAMPAIGNS = ("C1", "C2", "C4", "C5", "C6", "C7", "C8")

END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    *((f"{campaign}.ms_per_sample", "ms") for campaign in SHARED_CAMPAIGNS),
    ("report.write_ms", "ms"),
    ("report.load_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SPANS = (
    "linalg.RngStream", "linalg.check_hermitian", "linalg.is_stored_hermitian",
    "linalg.hermitize", "linalg.eigh", "linalg.kron", "linalg.random_unitary",
    "linalg.random_pd", "linalg.random_hermitian",
    "calculus.by_name", "calculus.divided_difference", "calculus.loewner", "calculus.quad_form",
    "bipartite.partial_trace_2", "bipartite.apply_channel", "bipartite.random_pinching",
    "bipartite.pinching", "bipartite.conditional_expectation_1_channel",
    "bipartite.random_mixed_unitary", "bipartite.MixedUnitaryChannel",
    "bipartite.idempotence_probe",
    "entropy.entropy_gap", "entropy.second_differential_spectral", "entropy.von_neumann_entropy",
    "oracles.gauss_legendre_unit", "oracles.dd_log_quadrature", "oracles.log_quad_form_quadrature",
    "report.render_report", "report.report_to_dict", "report.matrix_to_json",
    "report.emit_report", "report.load_report", "report.report_from_dict",
    "report.matrix_from_json",
    "campaigns.run_campaign", "campaigns.sample", "campaigns.c9_descent",
)

ERROR_TYPES = ("DomainError", "NumericError", "LinAlgError")


def per_layer_units() -> dict:
    """Name and unit of every metric a traced run reports."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_ms"] = "ms"
    units.update({
        "bipartite.channel_build.calls": "count",
        "bipartite.channel_build.total_ms": "ms",
        "bipartite.channel_terms": "count",
        "bipartite.probe_applications": "count",
        "linalg.check_hermitian.calls_per_sample": "calls/sample",
        "report.bytes": "bytes",
        "campaigns.sample_errors": "count",
    })
    for error in ERROR_TYPES:
        units[f"campaigns.sample_errors.{error}"] = "count"
    units.update({
        "trace.overhead_share": "ratio",
        "trace.wall_ms": "ms",
        "trace.residual_ms": "ms",
    })
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Campaign benchmark for entropygap.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_round(program, workload, seed, index, workdir, reference=None) -> list:
    """The jobs of one round.

    With a reference, the kernel is timed before the first job and after
    every job, and each job keeps the machine speed from the timings on
    either side of it.
    """
    jobs = []
    before = reference.time() if reference else None
    for spec in round_jobs(workload, seed, index):
        job = harness.run_job(program, spec, workdir / f"{spec.campaign}.json")
        if reference:
            after = reference.time()
            job.speed = reference.speed([before, after])
            before = after
        jobs.append(job)
    return jobs


def margins_digest(rounds) -> str:
    """SHA-256 over the margins of the given rounds, campaign by campaign."""
    digest = hashlib.sha256()
    for jobs in rounds:
        for job in jobs:
            digest.update(job.spec.campaign.encode())
            digest.update(struct.pack(f"<{len(job.margins)}d", *job.margins))
    return digest.hexdigest()


def check(jobs) -> list:
    """Problems found in the outputs of these jobs; empty when all is correct."""
    problems = []
    for job in jobs:
        where = f"{job.spec.campaign} seed {job.spec.seed}"
        if job.failure:
            problems.append(f"{where}: job failed: {job.failure}")
            continue
        if job.spec.campaign in GATED_CAMPAIGNS and job.violations:
            problems.append(f"{where}: {job.violations} violations")
        if job.error_types:
            problems.append(f"{where}: failed samples {dict(job.error_types)}")
        if not job.round_trip:
            problems.append(f"{where}: report did not load back bitwise equal")
    return problems


def setup_probe(workload, workdir) -> float:
    """Wall seconds of a fresh interpreter that imports entropygap and runs
    one 1-sample job per campaign of the workload."""
    command = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name,
               "--workdir", str(workdir)]
    # A wait with a timeout polls in steps of up to 50 ms, which would
    # quantize the measurement; wait blocking and let a timer kill a hang.
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.DEVNULL) as probe:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return elapsed


def percentile_note(values) -> str:
    """Median, and p90 when at least ten values lie beyond it."""
    note = f"median of {len(values)}"
    if len(values) >= 100:
        note += f", p90 {statistics.quantiles(values, n=10)[-1]:.4g}"
    return note


def end_to_end(workload, jobs, setup_times, peak_rss_mb):
    """End-to-end metrics as ``name -> (value, unit, note)``.

    Times are scaled to the nominal machine job by job; each note gives the
    same statistic of the raw times.
    """
    ok = [job for job in jobs if not job.failure]
    # Set-up runs in another process, mostly importing, which the reference
    # kernel next to it tracks poorly; it is scaled by the run's speed.
    speed = statistics.median(job.speed for job in jobs)
    raw_setup = statistics.median(setup_times)
    rows = {"setup_s": (raw_setup * speed, "s",
                        f"median of {len(setup_times)} fresh interpreters; raw {raw_setup:.4g}")}
    samples = sum(job.spec.samples for job in ok)
    rows["samples_per_s"] = (
        samples / sum(job.nominal(job.seconds) for job in ok), "1/s",
        f"{samples} samples in {len(ok)} jobs; raw {samples / sum(job.seconds for job in ok):.4g}")
    columns = {f"{campaign}.ms_per_sample": (
        [job for job in ok if job.spec.campaign == campaign],
        lambda job: job.run_s * 1e3 / job.spec.samples) for campaign in workload.campaigns}
    columns["report.write_ms"] = (ok, lambda job: job.write_s * 1e3)
    columns["report.load_ms"] = (ok, lambda job: job.load_s * 1e3)
    for name, (selected, ms) in columns.items():
        scaled = [job.nominal(ms(job)) for job in selected]
        raw = statistics.median(ms(job) for job in selected)
        rows[name] = (statistics.median(scaled), "ms", f"{percentile_note(scaled)}; raw {raw:.4g}")
    attempted = sum(job.spec.samples for job in jobs)
    failed = sum(job.failed_samples for job in jobs)
    rows["error_share"] = (failed / attempted, "share", f"{failed} of {attempted} samples")
    rows["peak_rss_mb"] = (peak_rss_mb, "MB", "ru_maxrss of this process")
    rows["machine.speed"] = (speed, "ratio", "median over jobs of nominal over measured reference time")
    return rows


def per_layer(tracer, window_counts, window_calls, window_jobs, plain_s, traced_s):
    """Per-layer metrics as ``name -> (value, unit, note)``."""
    units = per_layer_units()
    values = {}
    for span in SPANS:
        values[f"{span}.calls"] = tracer.calls[span]
        values[f"{span}.self_ms"] = tracer.self_ns[span] / 1e6
    values["bipartite.channel_build.calls"] = sum(
        tracer.calls[f"bipartite.{b}"] for b in CHANNEL_BUILDERS)
    values["bipartite.channel_build.total_ms"] = sum(
        tracer.total_ns[f"bipartite.{b}"] for b in CHANNEL_BUILDERS) / 1e6
    window_samples = sum(job.spec.samples for job in window_jobs)
    values["bipartite.channel_terms"] = window_counts["bipartite.channel_terms"]
    values["bipartite.probe_applications"] = window_counts["bipartite.probe_applications"]
    values["linalg.check_hermitian.calls_per_sample"] = (
        window_calls["linalg.check_hermitian"] / window_samples)
    values["report.bytes"] = sum(job.report_bytes for job in window_jobs)
    errors = Counter()
    for job in window_jobs:
        errors.update(job.error_types)
    values["campaigns.sample_errors"] = sum(errors.values())
    for error in ERROR_TYPES:
        values[f"campaigns.sample_errors.{error}"] = errors[error]
    self_ms = sum(tracer.self_ns.values()) / 1e6
    values["trace.overhead_share"] = traced_s / plain_s
    values["trace.wall_ms"] = traced_s * 1e3
    values["trace.residual_ms"] = traced_s * 1e3 - self_ms
    computed = {"bipartite.channel_terms", "bipartite.probe_applications",
                "linalg.check_hermitian.calls_per_sample", "report.bytes"}
    rows = {}
    for name, value in values.items():
        if name in computed:
            note = f"computed over the first {WINDOW_ROUNDS} traced rounds"
        elif name.startswith("campaigns.sample_errors"):
            note = f"over the first {WINDOW_ROUNDS} traced rounds"
        else:
            note = ""
        rows[name] = (value, units[name], note)
    return rows


def print_rows(rows) -> None:
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<12} {note}")


def run_plain(program, workload, args, workdir, numpy):
    """A warm-up round, then rounds for ``--seconds`` of measured time.

    The set-up probes are spread evenly over the measured time, so that they
    meet the same phases of a shared machine as the rounds do; the time they
    take is not counted as measured time.
    """
    reference = harness.Reference(numpy, workload.d1, workload.d2)
    run_round(program, workload, args.seed, 0, workdir, reference)  # warm-up, not counted
    rounds, setup_times = [], []
    measured = 0.0
    while len(rounds) < WINDOW_ROUNDS or measured < args.seconds:
        if len(setup_times) < SETUP_PROBES and measured >= len(setup_times) * args.seconds / SETUP_PROBES:
            setup_times.append(setup_probe(workload, workdir))
        start = perf_counter()
        rounds.append(run_round(program, workload, args.seed, len(rounds), workdir, reference))
        measured += perf_counter() - start
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(workload, workdir))
    jobs = [job for jobs in rounds for job in jobs]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = end_to_end(workload, jobs, setup_times, peak_rss_mb)
    metrics = {name: rows[name] for name, _ in END_TO_END if name in rows}
    return rounds, jobs, rows, metrics


def run_traced(program, workload, args, workdir):
    """Each round plain and traced, in alternating order, until the time is up."""
    tracer = Tracer()
    run_round(program, workload, args.seed, 0, workdir)  # warm-up, not counted
    plain_rounds, traced_rounds, problems = [], [], []
    window = None
    deadline = perf_counter() + args.seconds
    while len(plain_rounds) < WINDOW_ROUNDS or perf_counter() < deadline:
        index = len(plain_rounds)
        # Alternate which pass goes first, so neither always runs on warm caches.
        for traced in ((True, False) if index % 2 == 0 else (False, True)):
            if traced:
                with tracer:
                    instrument(tracer, program)
                    traced_rounds.append(run_round(program, workload, args.seed, index, workdir))
            else:
                plain_rounds.append(run_round(program, workload, args.seed, index, workdir))
        for plain, traced in zip(plain_rounds[-1], traced_rounds[-1]):
            if not harness.same_bits(plain.margins, traced.margins):
                problems.append(f"{plain.spec.campaign} seed {plain.spec.seed}: "
                                "traced margins differ from plain ones")
        if index + 1 == WINDOW_ROUNDS:
            window = (Counter(tracer.counts), Counter(tracer.calls))
    plain_s = sum(job.seconds for jobs in plain_rounds for job in jobs)
    traced_s = sum(job.seconds for jobs in traced_rounds for job in jobs)
    window_jobs = [job for jobs in traced_rounds[:WINDOW_ROUNDS] for job in jobs]
    rows = per_layer(tracer, window[0], window[1], window_jobs, plain_s, traced_s)
    jobs = [job for jobs in plain_rounds + traced_rounds for job in jobs]
    return plain_rounds, jobs, rows, rows, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    harness.pin_blas_threads()
    try:
        program = harness.load_program()
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    environment = harness.environment(numpy)
    cpu = harness.pin_one_cpu()
    print(f"campaign benchmark: workload {workload.name} (d1={workload.d1}, d2={workload.d2}, "
          f"mix {dict(workload.mix)}), seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps({**environment, "pinned_cpu": cpu}, sort_keys=True))

    work_root = harness.ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="campaign_bench-", dir=work_root))
    try:
        problems = []
        if args.trace:
            rounds, jobs, rows, metrics, problems = run_traced(program, workload, args, workdir)
        else:
            rounds, jobs, rows, metrics = run_plain(program, workload, args, workdir, numpy)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += check(jobs)
    print(f"rounds {len(rounds)}, jobs {len(jobs)}")
    print("metrics:")
    print_rows(rows)
    window = rounds[:WINDOW_ROUNDS]
    print(f"margins digest (first {WINDOW_ROUNDS} rounds, "
          f"{sum(len(job.margins) for jobs in window for job in jobs)} margins, not gated): "
          f"{margins_digest(window)}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    attempted = sum(job.spec.samples for job in jobs)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(job.failed_samples for job in jobs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
