"""Entropy functionals and the second differential of the gap, both routes."""

import math
import re

import numpy as np
import pytest

from entropygap import (
    T_LOG_T,
    BipartiteSpace,
    DomainError,
    EntropyGapSpec,
    RngStream,
    by_name,
    entropy_gap,
    frechet_derivative,
    matrix_function,
    partial_trace_2,
    quad_form,
    random_hermitian,
    random_pd,
    second_differential_spectral,
    von_neumann_entropy,
)
from entropygap import linalg
import references
from references import second_differential_fd, second_differential_fd_auto

SPACE = BipartiteSpace(2, 3)
GAP = EntropyGapSpec(T_LOG_T, SPACE)


def _draw(seed: int, index: int, dim: int = 6):
    rng = RngStream(seed, index)
    return random_pd(dim, rng), random_hermitian(dim, rng)


# -- von Neumann entropy ------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_entropy_of_maximally_mixed(n):
    assert von_neumann_entropy(np.eye(n, dtype=complex) / n) == pytest.approx(
        math.log(n), abs=1e-13
    )


def test_entropy_near_pure_state():
    rho = np.diag([1.0 - 1e-12, 1e-12]).astype(complex)
    assert abs(von_neumann_entropy(rho)) <= 1e-10


def test_entropy_additive_on_products():
    for index in range(10):
        rng = RngStream(211, index)
        sigma = random_pd(2, rng)
        tau = random_pd(3, rng)
        lhs = von_neumann_entropy(np.kron(sigma, tau))
        rhs = np.trace(tau).real * von_neumann_entropy(sigma) + np.trace(
            sigma
        ).real * von_neumann_entropy(tau)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_entropy_accepts_unnormalized_states():
    # No trace-1 assumption: S(c I_n) = -c log(c) * n.
    assert von_neumann_entropy(0.5 * np.eye(4, dtype=complex)) == pytest.approx(
        4 * 0.5 * math.log(2.0), abs=1e-13
    )


def test_entropy_rejects_nonpositive_spectrum():
    with pytest.raises(DomainError):
        von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex))


# -- the gap functional -------------------------------------------------------


def test_gap_vanishes_for_identity_function():
    spec = EntropyGapSpec(by_name("identity"), SPACE)
    for index in range(5):
        rho, _ = _draw(223, index)
        assert abs(entropy_gap(rho, spec)) <= 1e-12


def test_gap_vanishes_on_maximally_mixed():
    rho = np.eye(6, dtype=complex) / 6.0
    assert abs(entropy_gap(rho, GAP)) <= 1e-13


@pytest.mark.parametrize("eig_range", [(0.1, 3.0), (1e-4, 1.0)], ids=["default", "wide"])
@pytest.mark.parametrize("d1,d2", [(d1, d2) for d1 in range(1, 5) for d2 in range(1, 5)] + [(8, 8)])
def test_gap_entropy_closed_form(d1, d2, eig_range):
    # For f = t log t the gap equals log(d2) tr(rho) - S(rho) + S(tr_2 rho).
    # The bound is relative to the terms, not to G, which can be near 0.
    space = BipartiteSpace(d1, d2)
    spec = EntropyGapSpec(T_LOG_T, space)
    for index in range(10):
        rho = random_pd(space.dim, RngStream(227, index), eig_range)
        terms = (
            math.log(d2) * np.trace(rho).real,
            -von_neumann_entropy(rho),
            von_neumann_entropy(partial_trace_2(rho, space)),
        )
        assert abs(entropy_gap(rho, spec) - sum(terms)) <= 1e-14 * sum(abs(v) for v in terms)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_gap_power_closed_form(p):
    # For f = t^p the gap equals d2^(p-1) tr(rho^p) - tr(rho_1^p).
    spec = EntropyGapSpec(by_name("power", p=p), SPACE)
    for index in range(10):
        rho, _ = _draw(229, index)
        lhs = entropy_gap(rho, spec)
        vals = np.linalg.eigvalsh(rho)
        marginal = np.linalg.eigvalsh(partial_trace_2(rho, SPACE))
        rhs = 3.0 ** (p - 1.0) * float(np.sum(vals**p)) - float(np.sum(marginal**p))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_gap_rejects_wrong_dimension():
    with pytest.raises(DomainError):
        entropy_gap(np.eye(4, dtype=complex), GAP)


# -- second differential, spectral route --------------------------------------


def test_second_differential_identity_function_vanishes():
    spec = EntropyGapSpec(by_name("identity"), SPACE)
    rho, h = _draw(233, 0)
    assert second_differential_spectral(rho, h, spec) == 0.0


def test_second_differential_square_closed_form():
    spec = EntropyGapSpec(by_name("square"), SPACE)
    for index in range(10):
        rho, h = _draw(239, index)
        got = second_differential_spectral(rho, h, spec)
        h1 = partial_trace_2(h, SPACE)
        expected = 2.0 * 3.0 * np.trace(h @ h).real - 2.0 * np.trace(h1 @ h1).real
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_second_differential_square_with_identity_direction_is_zero():
    # h = I makes both terms equal: 2 d2 tr(I) - 2 tr((d2 I_{d1})^2)/... = 0.
    spec = EntropyGapSpec(by_name("square"), SPACE)
    rho, _ = _draw(241, 0)
    h = np.eye(6, dtype=complex)
    assert abs(second_differential_spectral(rho, h, spec)) <= 1e-10


@pytest.mark.parametrize("name,p", [("t_log_t", None), ("power", 1.5), ("power", 2.0)])
@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_second_differential_routes_agree(name, p, d1, d2):
    space = BipartiteSpace(d1, d2)
    spec = EntropyGapSpec(by_name(name, p=p), space)
    for index in range(9):
        rng = RngStream(251, (d1 * 10 + d2) * 100 + index)
        rho = random_pd(space.dim, rng)
        h = random_hermitian(space.dim, rng)
        spectral = second_differential_spectral(rho, h, spec)
        fd = second_differential_fd_auto(rho, h, spec)
        assert abs(spectral - fd) <= max(1e-5, 1e-4 * abs(spectral))


@pytest.mark.parametrize("name,p", [("t_log_t", None), ("power", 1.0), ("power", 1.5), ("power", 2.0)])
def test_second_differential_nonnegative_for_matrix_entropies(name, p):
    spec = EntropyGapSpec(by_name(name, p=p), SPACE)
    for index in range(25):
        rho, h = _draw(257, index)
        value = second_differential_spectral(rho, h, spec)
        assert value >= -1e-9 * (1.0 + np.linalg.norm(h) ** 2)


def test_second_differential_requires_matching_shapes():
    rho, _ = _draw(263, 0)
    with pytest.raises(DomainError):
        second_differential_spectral(rho, np.eye(4, dtype=complex), GAP)


# -- second differential, finite-difference route ------------------------------


def test_fd_identity_function_is_machine_zero():
    # Roundoff in G is amplified by 1/step**2, so a moderate step keeps the
    # quotient at the noise floor.
    spec = EntropyGapSpec(by_name("identity"), SPACE)
    rho, h = _draw(269, 0)
    assert abs(second_differential_fd(rho, h, spec, step=1e-2)) <= 1e-8


def test_fd_square_with_identity_direction():
    # G is quadratic for f = t^2, so the quotient is exact up to roundoff.
    spec = EntropyGapSpec(by_name("square"), BipartiteSpace(2, 2))
    rho = random_pd(4, RngStream(271, 0))
    got = second_differential_fd(rho, np.eye(4, dtype=complex), spec, step=1e-2)
    assert abs(got) <= 1e-8


def test_fd_rejects_step_leaving_the_cone():
    rho = np.diag([0.05, 1.0, 1.0, 1.0, 1.0, 1.0]).astype(complex)
    h = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(DomainError, match="step"):
        second_differential_fd(rho, h, GAP, step=0.5)


def test_fd_auto_halves_until_inside_the_cone():
    # Smallest eigenvalue 0.05 admits the step only after four halvings of
    # 0.5; the automatic variant must return exactly that quotient.
    rho = np.diag([0.05, 1.0, 1.0, 1.0, 1.0, 1.0]).astype(complex)
    h = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    got = second_differential_fd_auto(rho, h, GAP, step=0.5)
    assert got == second_differential_fd(rho, h, GAP, step=0.5 / 2**4)


def test_fd_auto_gives_up_after_max_halvings():
    rho = np.diag([0.05, 1.0, 1.0, 1.0, 1.0, 1.0]).astype(complex)
    h = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(DomainError, match="halvings"):
        second_differential_fd_auto(rho, h, GAP, step=409.6, max_halvings=3)


def test_fd_quotient_takes_each_spectrum_once(monkeypatch):
    # A valid quotient takes the eigenvalues of its three states and of their
    # marginals, one stacked call each; the cone is probed only when a gap
    # fails, for the probe's message.
    rho, h = _draw(281, 0)
    shapes = []
    eigvalsh = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    second_differential_fd(rho, h, GAP, 1e-4)
    assert shapes == [(3, 6, 6), (3, 2, 2)]


def test_fd_quotient_raises_a_gap_error_inside_the_cone_as_it_is(monkeypatch):
    # Only states outside the cone get the probe's message; any other error
    # of the gaps is raised unchanged.
    rho, h = _draw(282, 0)
    message = "partial trace of the state must be positive definite; smallest eigenvalue is -1e-17"

    def failing_gap(states, spec):
        raise DomainError(message)

    monkeypatch.setattr(references, "entropy_gap", failing_gap)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        second_differential_fd(rho, h, GAP, 1e-4)


def _invalid_fd_inputs():
    rho, h = _draw(278, 0)
    skewed = h.copy()
    skewed[0, 1] += 1e-3
    nan = rho.copy()
    nan[0, 0] = np.nan
    return {
        "nan state": (nan, h, 1e-4),
        "nan direction": (rho, h * np.nan, 1e-4),
        "non-Hermitian direction": (rho, skewed, 1e-4),
        "direction of another shape": (rho, h[:3, :3], 1e-4),
        "state of another shape": (rho[:4, :4], h[:4, :4], 1e-4),
        "zero step": (rho, h, 0.0),
        "nan step": (rho, h, np.nan),
    }


@pytest.mark.parametrize("case", list(_invalid_fd_inputs()))
def test_fd_auto_rejects_invalid_input_after_one_check(monkeypatch, case):
    # The input error itself, raised before any step is tried, not the
    # halvings' message after eleven attempts.
    rho, h, step = _invalid_fd_inputs()[case]
    with pytest.raises(DomainError) as direct:
        second_differential_fd(rho, h, GAP, step)
    calls = []
    check = linalg.check_hermitian
    monkeypatch.setattr(linalg, "check_hermitian", lambda *args: calls.append(args) or check(*args))
    with pytest.raises(DomainError) as auto:
        second_differential_fd_auto(rho, h, GAP, step)
    assert str(auto.value) == str(direct.value)
    assert "halvings" not in str(auto.value)
    assert len(calls) <= 2


def test_fd_rejects_a_direction_of_another_shape():
    rho, h = _draw(279, 0)
    with pytest.raises(DomainError, match=re.escape("direction shape (5, 5) does not match base point shape (6, 6)")):
        second_differential_fd(rho, h[:5, :5], GAP, 1e-4)


def test_fd_rejects_nonpositive_step():
    rho, h = _draw(277, 0)
    with pytest.raises(DomainError):
        second_differential_fd(rho, h, GAP, step=0.0)


# -- stacks ---------------------------------------------------------------------


@pytest.mark.parametrize("d1,d2", [(1, 1), (2, 2), (2, 3), (4, 4), (8, 8)])
def test_stacked_calls_match_single_calls_bitwise(d1, d2):
    space = BipartiteSpace(d1, d2)
    spec = EntropyGapSpec(T_LOG_T, space)
    streams = [RngStream(5, index) for index in range(3)]
    rho = random_pd(space.dim, streams)
    h = random_hermitian(space.dim, streams)
    stacked = {
        "entropy_gap": entropy_gap(rho, spec),
        "second_differential": second_differential_spectral(rho, h, spec),
        "entropy": von_neumann_entropy(rho),
        "quad_form": quad_form(T_LOG_T, rho, h),
        "partial_trace": partial_trace_2(rho, space),
        "matrix_function": matrix_function(T_LOG_T, rho),
        "frechet": frechet_derivative(T_LOG_T, "f", rho, h),
    }
    for index in range(3):
        a, d = _draw(5, index, space.dim)
        single = {
            "entropy_gap": entropy_gap(a, spec),
            "second_differential": second_differential_spectral(a, d, spec),
            "entropy": von_neumann_entropy(a),
            "quad_form": quad_form(T_LOG_T, a, d),
            "partial_trace": partial_trace_2(a, space),
            "matrix_function": matrix_function(T_LOG_T, a),
            "frechet": frechet_derivative(T_LOG_T, "f", a, d),
        }
        assert np.asarray(rho[index]).tobytes() == a.tobytes()
        assert np.asarray(h[index]).tobytes() == d.tobytes()
        for name, value in single.items():
            assert np.asarray(stacked[name][index]).tobytes() == np.asarray(value).tobytes(), name


def test_single_matrix_only_routines_reject_stacks():
    rho, h = _draw(7, 0)
    with pytest.raises(DomainError, match="single matrix"):
        second_differential_fd(np.stack([rho, rho]), np.stack([h, h]), GAP, 1e-4)
