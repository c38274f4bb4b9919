"""Acceptance gate.

Each test certifies one published criterion at its stated tolerance and
prints a single pass/fail line, bypassing capture so the verdicts are
visible in any pytest invocation.
"""

import time

import numpy as np
import pytest

from entropygap import (
    T_LOG_T,
    CampaignConfig,
    RngStream,
    by_name,
    divided_difference,
    frechet_derivative,
    quad_form,
    random_hermitian,
    random_pd,
    run_campaign,
    second_differential_spectral,
)
from entropygap import BipartiteSpace, EntropyGapSpec, LOG
from entropygap.cli import main
from entropygap.oracles import dd_log_quadrature, log_quad_form_quadrature
from references import frechet_central_difference, second_differential_fd_auto

SPACES = ((2, 2), (2, 3), (3, 2), (3, 3))
GAP_FUNCTIONS = (("t_log_t", None), ("power", 1.0), ("power", 1.5), ("power", 2.0))


@pytest.fixture
def verdict(capsys):
    """One visible pass/fail line per criterion, then the hard assertion."""

    def announce(criterion: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"{criterion}: {detail}"

    return announce


def test_criterion_1_frechet_derivative_oracle(verdict):
    start = time.perf_counter()
    worst = 0.0
    for name, p in (("t_log_t", None), ("power", 1.5), ("log", None)):
        func = by_name(name, p=p)
        for dim in range(2, 7):
            for index in range(100):
                rng = RngStream(1001, dim * 1000 + index)
                a = random_pd(dim, rng)
                h = random_hermitian(dim, rng)
                got = frechet_derivative(func, "f", a, h)
                ref = frechet_central_difference(func, a, h, step=1e-5)
                rel = np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 10.0
    verdict(
        "1 (derivative vs central difference)",
        ok,
        f"worst rel err {worst:.3e} <= 1e-6 over 1500 draws, {elapsed:.1f}s <= 10s",
    )


def test_criterion_2_kernel_identities(verdict):
    start = time.perf_counter()
    rng = RngStream(1002, 0)
    pairs = rng.gen.uniform(0.1, 10.0, size=(1000, 2))
    worst_dd = max(
        abs(divided_difference(LOG, "f", s, t) - dd_log_quadrature(s, t))
        for s, t in pairs
    )
    worst_qf = 0.0
    for index in range(100):
        draw = RngStream(1002, index + 1)
        dim = 2 + index % 4
        a = random_pd(dim, draw)
        h = random_hermitian(dim, draw)
        ref = log_quad_form_quadrature(a, h)
        worst_qf = max(worst_qf, abs(quad_form(T_LOG_T, a, h) - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    ok = worst_dd <= 1e-10 and worst_qf <= 1e-7 and elapsed <= 10.0
    verdict(
        "2 (kernel quadrature identities)",
        ok,
        f"divided difference {worst_dd:.3e} <= 1e-10, quadratic form rel "
        f"{worst_qf:.3e} <= 1e-7, {elapsed:.1f}s <= 10s",
    )


def test_criterion_3_convexity_campaigns(verdict):
    start = time.perf_counter()
    violations = 0
    for name, p in GAP_FUNCTIONS:
        for d1, d2 in SPACES:
            for campaign in ("C1", "C2"):
                report = run_campaign(
                    CampaignConfig(
                        campaign=campaign,
                        d1=d1,
                        d2=d2,
                        samples=200,
                        seed=42,
                        tolerance=1e-8,
                        function=name,
                        p=p if p is not None else 1.5,
                    )
                )
                violations += report.violations
                assert report.errors == []
    worst_gap = -np.inf
    for name, p in GAP_FUNCTIONS:
        for d1, d2 in SPACES:
            space = BipartiteSpace(d1, d2)
            spec = EntropyGapSpec(by_name(name, p=p), space)
            for index in range(12):
                rng = RngStream(1003, (d1 * 10 + d2) * 1000 + index)
                rho = random_pd(space.dim, rng)
                h = random_hermitian(space.dim, rng)
                spectral = second_differential_spectral(rho, h, spec)
                fd = second_differential_fd_auto(rho, h, spec)
                slack = abs(spectral - fd) - max(1e-5, 1e-4 * abs(spectral))
                worst_gap = max(worst_gap, slack)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and worst_gap <= 0.0 and elapsed <= 60.0
    verdict(
        "3 (segment convexity and second differential)",
        ok,
        f"{violations} violations over 32 campaigns of 200 samples, route "
        f"disagreement slack {worst_gap:.3e} <= 0, {elapsed:.1f}s <= 60s",
    )


def test_criterion_4_monotonicity_under_channels(verdict):
    start = time.perf_counter()
    violations = 0
    errors = 0
    for name, p in (("t_log_t", None), ("power", 1.5)):
        for family in ("pinching", "expectation", "mixed"):
            report = run_campaign(
                CampaignConfig(
                    campaign="C3",
                    d1=3,
                    d2=3,
                    samples=200,
                    seed=42,
                    tolerance=1e-8,
                    function=name,
                    p=p if p is not None else 1.5,
                    channel_family=family,
                )
            )
            violations += report.violations
            errors += len(report.errors)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and errors == 0 and elapsed <= 30.0
    verdict(
        "4 (curvature monotone under averaging channels)",
        ok,
        f"{violations} violations over 6 campaigns of 200 samples at dim 9, "
        f"{elapsed:.1f}s <= 30s",
    )


def test_criterion_5_joint_convexity_and_trace_examples(verdict):
    start = time.perf_counter()
    violations = 0
    closed_form_failures = 0
    for d1, d2 in SPACES:
        for name, p in (("t_log_t", None), ("power", 1.5)):
            report = run_campaign(
                CampaignConfig(
                    campaign="C4", d1=d1, d2=d2, samples=200, seed=42,
                    tolerance=1e-8, function=name, p=p if p is not None else 1.5,
                )
            )
            violations += report.violations
            assert report.errors == []
        entropy_report = run_campaign(
            CampaignConfig(campaign="C5", d1=d1, d2=d2, samples=200, seed=42, tolerance=1e-8)
        )
        violations += entropy_report.violations
        # C5 is C1 with f = t log t; any sample error it records counts as a
        # miss here.  Its closed form is a unit test in test_entropy.py.
        closed_form_failures += len(entropy_report.errors)
        for p_value in (1.0, 1.5, 2.0):
            report = run_campaign(
                CampaignConfig(
                    campaign="C6", d1=d1, d2=d2, samples=200, seed=42,
                    tolerance=1e-8, p=p_value,
                )
            )
            violations += report.violations
            assert report.errors == []
    elapsed = time.perf_counter() - start
    ok = violations == 0 and closed_form_failures == 0 and elapsed <= 60.0
    verdict(
        "5 (joint convexity, entropy and power examples)",
        ok,
        f"{violations} violations, {closed_form_failures} closed-form misses "
        f"over 200-sample campaigns on 4 spaces, {elapsed:.1f}s <= 60s",
    )


def test_criterion_6_operator_convexity(verdict):
    start = time.perf_counter()
    report = run_campaign(
        CampaignConfig(campaign="C7", d1=2, d2=3, samples=200, seed=42, tolerance=1e-9)
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.violations == 0
        and report.worst_margin >= -1e-9
        and report.errors == []
        and elapsed <= 10.0
    )
    verdict(
        "6 (midpoint operator convexity)",
        ok,
        f"worst eigenvalue margin {report.worst_margin:.3e} >= -1e-9 over "
        f"200 samples at dim 6, {elapsed:.1f}s <= 10s",
    )


def test_criterion_7_byte_identical_reports(tmp_path, capsys, verdict):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_a = main(["--all", "--seed", "42", "--out", str(first)])
    code_b = main(["--all", "--seed", "42", "--out", str(second)])
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    ok = identical and code_a == 0 and code_b == 0
    verdict(
        "7 (deterministic reports)",
        ok,
        f"two full --all runs at seed 42: byte identical = {identical}, "
        f"exit codes ({code_a}, {code_b})",
    )


def test_criterion_8_identity_function_sanity(verdict):
    report = run_campaign(
        CampaignConfig(campaign="C1", samples=50, seed=42, function="identity")
    )
    worst = max(abs(m) for m in report.margins)
    ok = worst <= 1e-14 and report.violations == 0
    verdict(
        "8 (identity-function margins vanish)",
        ok,
        f"max |margin| {worst:.3e} <= 1e-14 over 50 samples",
    )
