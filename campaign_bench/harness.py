"""Loading the program under test, running one job, and recording the machine.

The benchmark measures the ``entropygap`` package in ``src/`` of the checkout
it sits in, never an installed copy.  A job drives the same public calls that
``verify --campaign Cn --out PATH`` makes: ``CampaignConfig`` ->
``run_campaign`` -> ``emit_report``, followed by ``load_report``.  The calls
go through attributes of the package object, looked up at call time, so the
tracer's wrappers are used while they are installed and the originals
otherwise.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import struct
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import JobSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set before numpy is imported: the baseline is one BLAS thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Seconds the reference kernel takes on the nominal machine that scaled
# figures refer to, by composite dimension d1 * d2: about its median on a
# 2-core x86-64 VM (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS
# thread).
REFERENCE_NOMINAL_S = {4: 0.0016, 16: 0.00055, 64: 0.0035}


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/entropygap`` to measure."""


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_one_cpu() -> int:
    """Keep this process, and every process it starts, on one CPU.

    Jobs, reference timings and set-up probes then all meet the same CPU,
    whose speed may differ from the other's at any moment.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_program():
    """Import ``entropygap`` from ``src/`` of this checkout."""
    if not (SRC / "entropygap" / "__init__.py").is_file():
        raise ProgramMissing(f"no entropygap package under {SRC}")
    sys.path.insert(0, str(SRC))
    import entropygap

    if Path(entropygap.__file__).resolve().parent != SRC / "entropygap":
        raise ProgramMissing(f"imported entropygap from {entropygap.__file__}, not from {SRC}")
    return entropygap


def same_bits(a, b) -> bool:
    """Whether two float sequences, or two Nones, are equal bit for bit."""
    if a is None or b is None:
        return a is None and b is None
    a, b = list(a), list(b)
    return len(a) == len(b) and struct.pack(f"<{len(a)}d", *a) == struct.pack(f"<{len(b)}d", *b)


class Reference:
    """A fixed computation that shares no code with entropygap.

    Timed between jobs, it measures how fast the machine runs at that moment
    for the kind of work the campaigns do at the workload's size: a seeded
    complex Gaussian draw made unitary by QR, a positive definite matrix
    built from it, an exact Hermitian check, ``eigh``, a divided-difference
    kernel of ``log`` and the quadratic form it weights, a partial trace by
    ``einsum`` and the JSON encoding of one row.  It repeats that so that one
    timing takes a millisecond or more at any size.  A job's time
    multiplied by :meth:`speed` of the timings around it is the time it
    would take on the nominal machine.
    """

    def __init__(self, numpy, d1: int, d2: int):
        self.numpy = numpy
        self.d1, self.d2 = d1, d2
        self.repeats = max(1, 24 // (d1 * d2))
        self.nominal_s = REFERENCE_NOMINAL_S[d1 * d2]

    def speed(self, timings) -> float:
        """How much faster than nominal the machine ran during ``timings``."""
        return self.nominal_s * len(timings) / sum(timings)

    def time(self) -> float:
        """Seconds one pass of the kernel takes now."""
        np = self.numpy
        d1, d2 = self.d1, self.d2
        n = d1 * d2
        start = perf_counter()
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
        for _ in range(self.repeats):
            z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            q, r = np.linalg.qr(z)
            phases = np.diagonal(r) / np.abs(np.diagonal(r))
            q = q * phases
            a = (q * gen.uniform(0.1, 3.0, size=n)) @ q.conj().T
            a = (a + a.conj().T) / 2.0
            if not (a == a.conj().T).all():
                raise ArithmeticError("reference matrix is not stored Hermitian")
            values, vectors = np.linalg.eigh(a)
            li, lj = values[:, None], values[None, :]
            near = np.abs(li - lj) <= 1e-7 * np.maximum(li, lj)
            kernel = np.where(near, 2.0 / (li + lj),
                              (np.log(li) - np.log(lj)) / np.where(near, 1.0, li - lj))
            h = gen.uniform(-1.0, 1.0, size=(n, n)) + 1j * gen.uniform(-1.0, 1.0, size=(n, n))
            rotated = vectors.conj().T @ ((h + h.conj().T) / 2.0) @ vectors
            float(np.sum((rotated.real**2 + rotated.imag**2) * kernel))
            np.einsum("ajbj->ab", a.reshape(d1, d2, d1, d2))
            json.dumps([[float(v.real), float(v.imag)] for v in vectors[0]], indent=2)
        return perf_counter() - start


@dataclass
class Job:
    """Timings and checked outcome of one job."""

    spec: JobSpec
    run_s: float = 0.0
    write_s: float = 0.0
    load_s: float = 0.0
    report_bytes: int = 0
    margins: list = field(default_factory=list)
    violations: int = 0
    error_types: Counter = field(default_factory=Counter)
    round_trip: bool = False
    failure: str | None = None
    speed: float | None = None

    def nominal(self, seconds: float) -> float:
        """``seconds`` of this job scaled to the nominal machine."""
        return seconds * self.speed

    @property
    def seconds(self) -> float:
        return self.run_s + self.write_s + self.load_s

    @property
    def failed_samples(self) -> int:
        return self.spec.samples if self.failure else sum(self.error_types.values())


def run_job(program, spec: JobSpec, path: Path) -> Job:
    """Run one campaign, write its report, read it back and compare."""
    job = Job(spec)
    try:
        start = perf_counter()
        config = program.CampaignConfig(campaign=spec.campaign, d1=spec.d1, d2=spec.d2,
                                        samples=spec.samples, seed=spec.seed)
        report = program.run_campaign(config)
        ran = perf_counter()
        program.emit_report(report, path)
        written = perf_counter()
        loaded = program.load_report(path)
        done = perf_counter()
    except Exception as exc:  # a failed job is counted, never fatal
        job.failure = f"{type(exc).__name__}: {exc}"
        print(f"job {spec} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return job
    job.run_s, job.write_s, job.load_s = ran - start, written - ran, done - written
    job.report_bytes = path.stat().st_size
    job.margins = report.margins
    job.violations = report.violations
    job.error_types = Counter(e["message"].split(":", 1)[0] for e in report.errors)
    job.round_trip = (
        same_bits(loaded.margins, report.margins)
        and same_bits(
            None if loaded.worst_margin is None else [loaded.worst_margin],
            None if report.worst_margin is None else [report.worst_margin],
        )
        and loaded.violations == report.violations
    )
    return job


def _blas_threads() -> int | None:
    # OpenBLAS exports its thread count under a name that depends on how it
    # was built; find the loaded library and ask it.
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for name in names:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(numpy) -> dict:
    """Interpreter, numpy and BLAS versions, CPU count and BLAS threads."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }
